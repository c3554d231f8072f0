(* Crash-safe write-ahead journal for batch verification runs.

   An append-only file of CRC-framed records: a header record naming
   the workload (engine version, zone recipe, budget shape), then one
   record per completed item, then optionally a finalization record.
   Appends are flushed before [append] returns, so a run killed at any
   instant loses at most the record being written; [recover] and
   [open_resume] detect a torn tail (short frame, bad magic, CRC
   mismatch) and truncate it away. *)

type t

(* CRC-32 (IEEE 802.3, reflected) of a byte string — exposed for tests
   and for callers that want to fingerprint payloads the same way. *)
val crc32 : string -> int32

(* The CRC-32 frame, shared with the persistent verification store:
   [magic] (4 bytes) + be32 payload length + be32 CRC-32 of the payload
   + the payload. *)
val frame : magic:string -> string -> string

(* [scan_frames ~magic data ~init f] folds [f] over the intact frames
   of [data] from offset 0, in order. It stops at the first short
   frame, bad magic or CRC mismatch, or when [f] returns [None] (the
   frame it refused is not consumed). Returns the fold and the offset
   just past the last consumed frame. *)
val scan_frames :
  magic:string -> string -> init:'a -> ('a -> string -> 'a option) -> 'a * int

(* Create a fresh journal at [path] (truncating any existing file) and
   write the header record. *)
val create : path:string -> header:string -> t

(* Append one record and flush it to the OS. Arbitrary bytes, any
   length. Consults the [Faultinject.Journal_torn] site: when armed and
   firing, a partial frame is written and flushed, then the injected
   kill is raised — simulating a crash mid-append. *)
val append : t -> string -> unit

(* Append the finalization record: the run completed and the journal is
   a full transcript, not a checkpoint. *)
val finalize : t -> string -> unit

val close : t -> unit

type recovery = {
  header : string option; (* None: no intact header record *)
  records : string list; (* intact item records, in append order *)
  final : string option; (* the finalization record, if the run completed *)
  dropped_bytes : int; (* torn tail bytes ignored (and truncated) *)
}

(* Read-only scan of [path]: salvage every intact record, stop at the
   first torn or corrupt frame. Does not modify the file. *)
val recover : path:string -> recovery

(* Reopen [path] for appending: salvage intact records, truncate any
   torn tail, verify the header record matches [header] exactly.
   Returns the journal handle plus the recovery. [Error] if the file
   has no intact header or the header does not match (a journal from a
   different workload must not be resumed into). If the file does not
   exist, behaves like [create] with an empty recovery. *)
val open_resume : path:string -> header:string -> (t * recovery, string) result
