(* Crash-safe, certificate-guarded persistent verification store.

   An append-only file of CRC-framed entries (magic "DS01" + length +
   CRC-32 + payload; header frame first) in a directory guarded by a
   pid lock file. One writer per directory: every other opener — and
   any opener under the [Store_lock_held] fault — degrades to read-only
   rather than corrupt. Opening as the writer truncates a torn tail,
   exactly like the batch journal; [gc] compacts to the live set with
   an atomic tmp+rename.

   Trust discipline: the store never decides anything. Every entry
   kind goes through one [load]: decode, structural check, request
   check; any failure counts [store.cert_failures], evicts the entry
   and falls through to fresh work. A corrupted store costs time, never
   truth.

   Counters (metrics registry): store.hits, store.misses,
   store.evictions, store.cert_failures, store.appends. *)

(* [store.ml] is the library's main module; re-export the satellite
   modules so consumers reach them as [Store.Codec]/[Store.Fingerprint]. *)
module Codec = Codec
module Fingerprint = Fingerprint

type t

(* Open (creating directory and file as needed). [read_only] skips the
   writer lock. The torn tail, if any, is truncated when opening as the
   writer. *)
val open_ : ?read_only:bool -> string -> t

val close : t -> unit
val writable : t -> bool
val dropped_bytes : t -> int
val entries : t -> int

(* Raw keyed access. [find] consults the fault plan: [Store_stale]
   forces a miss, [Store_corrupt] serves a byte-flipped copy on a hit.
   [add] on a read-only store is a no-op. [evict ~cert_failure:true]
   also counts store.cert_failures. *)
val find : t -> string -> string option
val add : t -> string -> string -> unit
val evict : ?cert_failure:bool -> t -> string -> unit

(* Compact to the live entries (sorted, atomic tmp+rename). [Error] on
   a read-only store. *)
val gc : t -> (int, string) result

(* Entry kinds: the one persisted-entry protocol. A kind names a key
   prefix letter and a display [name], a key builder (the key body after
   "<prefix>|"), a payload codec whose [decode] raises [Codec.Bad], and a
   structural [check] needing no request context. [kind] registers the
   kind so [fsck] deep-checks its entries; a prefix may be declared once
   per program. *)
type ('k, 'v) kind

val kind :
  prefix:char ->
  name:string ->
  key:('k -> string) ->
  encode:('v -> string) ->
  decode:(string -> 'v) ->
  check:('v -> (unit, string) result) ->
  ('k, 'v) kind

val key : ('k, 'v) kind -> 'k -> string

(* [load st kind key ~check]: find, decode, structural check, then
   [check] against the request. Any failure evicts the entry as a
   certificate failure, emits one [store.invalid] event with the reason,
   and answers [None] (recompute). [save] encodes and appends. *)
val load :
  t -> ('k, 'v) kind -> string -> check:('v -> (unit, string) result) ->
  'v option

val save : t -> ('k, 'v) kind -> string -> 'v -> unit

(* Interprocedural-analysis entries ("A|"), keyed by the summarized
   function's cone fingerprint and the environment fingerprint (the
   filtered field invariants the analysis ran under). *)
val analysis : (string * string, Analysis.rsummary) kind

(* Install the Smt.Solver persistence hook over this store ("S|"
   entries) around [f], restoring the previously installed hook after.
   It serves nothing unless a certificate validator is installed;
   everything served was validated here (and is validated again by the
   solver's gatekeeper). *)
val with_solver : t -> (unit -> 'a) -> 'a

(* The Symex.Summary persistence hook for the program under
   verification; [tag] names everything else a summary depends on (zone
   fingerprint, analysis policy). *)
val summary_persist :
  t -> Minir.Instr.program -> tag:string -> Symex.Summary.persist

(* Install the Analysis relational-summary persistence hook over "A|"
   entries around [f], restoring the previous hook (the analysis
   additionally rejects signature mismatches after load). *)
val with_analysis : t -> Minir.Instr.program -> (unit -> 'a) -> 'a

(* Drop this domain's parsed-entry memos (bench/test isolation; also
   done by [open_] and [close]). *)
val clear_domain_memos : unit -> unit

(* ---------------- Offline tools (operate on the directory) -------- *)

type stat_report = {
  st_header_ok : bool;
  st_total : int;
  st_by_prefix : (string * int) list;
  st_bytes : int;
  st_torn_bytes : int;
}

val stat : string -> stat_report

type fsck_report = {
  fk_header_ok : bool;
  fk_entries : int;
  fk_bad : (string * string) list;
  fk_torn_bytes : int;
  fk_repaired : bool;
}

(* Frame-level scan plus deep checks of every live entry of a declared
   kind, through the kind's decoder and structural check. A torn tail is
   truncated away (repair) when the file is writable; torn tails alone
   leave the store clean — they are the expected crash signature, not
   corruption. *)
val fsck : string -> fsck_report

(* Clean: header intact and no deep-corrupt entries. *)
val fsck_clean : fsck_report -> bool

val pp_stat : Format.formatter -> stat_report -> unit
val pp_fsck : Format.formatter -> fsck_report -> unit
