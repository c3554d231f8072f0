(* Crash-safe, certificate-guarded persistent verification store
   (ISSUE 6 tentpole).

   On-disk format: the batch journal's CRC-framed append-only
   discipline ([Journal.frame]) — each frame is magic "DS01" + be32
   length + be32 CRC-32 + payload. The first frame is a header naming
   the format ("dnsv-store v1 fmt=1"); every later frame is an entry: a
   key (prefix-tagged content hash) and an opaque payload. Appends are
   flushed before returning, so a kill at any instant loses at most the
   entry in flight; opening as a writer truncates any torn tail,
   exactly like the batch journal. Later frames win on duplicate keys,
   so a re-solved entry supersedes its predecessor and [gc] compacts to
   the live set with an atomic tmp+rename.

   Trust discipline: the store never decides anything. Every entry
   belongs to a declared [kind] (solver results, module summaries,
   analysis summaries here; layer verdicts and query-type reports in
   the modules that frame them) and goes through one protocol: [load]
   finds, decodes, checks structurally, then checks against the request
   (a solver certificate against its query, a summary against the
   function asked for). Any failure — torn write, bit rot, version skew,
   codec mismatch — counts [store.cert_failures], emits [store.invalid],
   evicts the entry and falls through to a fresh computation: a
   corrupted store can cost time, never truth. [fsck] runs the same
   decoders and structural checks offline.

   Concurrency: one writer per directory, enforced by a pid lock file
   with stale-lock breaking; every other opener (and any opener under
   the [Store_lock_held] fault) degrades to read-only rather than
   corrupt. In-process, the index is shared across domains under a
   mutex; payloads are immutable strings, decoded on the consuming
   domain so terms land in that domain's hash-cons tables. *)

module Codec = Codec
module Fingerprint = Fingerprint
module Solver = Smt.Solver
module Term = Smt.Term
module Proof = Smt.Proof
module Summary = Symex.Summary
module M = Trace.Metrics

let c_hits = M.counter "store.hits"
let c_misses = M.counter "store.misses"
let c_evictions = M.counter "store.evictions"
let c_cert_failures = M.counter "store.cert_failures"
let c_appends = M.counter "store.appends"

let magic = "DS01"
let header_string = "dnsv-store v1 fmt=1"
let data_name = "store.data"
let lock_name = "store.lock"

(* ------------------------------------------------------------------ *)
(* Frames                                                             *)
(* ------------------------------------------------------------------ *)

let header_frame () =
  let b = Buffer.create 32 in
  Buffer.add_char b 'H';
  Buffer.add_string b header_string;
  Journal.frame ~magic (Buffer.contents b)

let entry_frame key value =
  let b = Buffer.create (String.length key + String.length value + 16) in
  Buffer.add_char b 'E';
  Codec.wstr b key;
  Codec.wstr b value;
  Journal.frame ~magic (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Scanning                                                           *)
(* ------------------------------------------------------------------ *)

type scan = {
  s_header : string option; (* intact first-frame header, if any *)
  s_entries : (string * string) list; (* in file order *)
  s_good_end : int; (* offset of the first bad byte (or EOF) *)
  s_size : int;
}

let parse_payload payload =
  if String.length payload = 0 then None
  else
    match payload.[0] with
    | 'H' -> Some (`Header (String.sub payload 1 (String.length payload - 1)))
    | 'E' -> (
        let r = Codec.reader ~pos:1 payload in
        match
          let k = Codec.rstr r in
          let v = Codec.rstr r in
          (k, v, Codec.at_end r)
        with
        | k, v, true -> Some (`Entry (k, v))
        | _, _, false -> None
        | exception Codec.Bad _ -> None)
    | _ -> None

(* The header must be the first frame and entries may only follow it;
   anything else ends the intact prefix. *)
let scan_file path : scan option =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | data ->
      let (header, entries), good_end =
        Journal.scan_frames ~magic data ~init:(None, [])
          (fun (header, entries) payload ->
            match parse_payload payload with
            | Some (`Header h) when header = None -> Some (Some h, entries)
            | Some (`Entry e) when header <> None -> Some (header, e :: entries)
            | _ -> None)
      in
      Some
        {
          s_header = header;
          s_entries = List.rev entries;
          s_good_end = good_end;
          s_size = String.length data;
        }

(* ------------------------------------------------------------------ *)
(* The lock file                                                      *)
(* ------------------------------------------------------------------ *)

(* Single-writer exclusion with stale-lock breaking: the lock file
   holds the owner's pid; a lock whose pid no longer exists (ESRCH) is
   broken. A held lock — including one held by this very process — means
   this opener degrades to read-only. *)
let acquire_lock lock_path =
  let create () =
    match
      Unix.openfile lock_path [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644
    with
    | fd ->
        let pid = string_of_int (Unix.getpid ()) in
        ignore (Unix.write_substring fd pid 0 (String.length pid));
        Unix.close fd;
        true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  create ()
  ||
  let stale =
    match In_channel.with_open_text lock_path In_channel.input_all with
    | exception Sys_error _ -> true
    | s -> (
        match int_of_string_opt (String.trim s) with
        | None -> true
        | Some pid -> (
            match Unix.kill pid 0 with
            | () -> false
            | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
            | exception _ -> false))
  in
  stale
  && begin
       (try Unix.unlink lock_path with Unix.Unix_error (_, _, _) -> ());
       create ()
     end

(* ------------------------------------------------------------------ *)
(* The store                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  dir : string;
  data_path : string;
  lock_path : string;
  mutable chan : out_channel option; (* None: read-only *)
  owns_lock : bool;
  index : (string, string) Hashtbl.t;
  mu : Mutex.t;
  mutable dropped_bytes : int; (* torn tail truncated on open *)
}

let with_mu st f =
  Mutex.lock st.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mu) f

let writable st = st.chan <> None
let dropped_bytes st = st.dropped_bytes
let entries st = with_mu st (fun () -> Hashtbl.length st.index)

(* Domain-local memo of already parsed-and-validated solver answers,
   keyed by directory + entry key. The LIA path cannot re-insert a
   term-level certificate into its index-based in-memory table, so
   without this every repeat of a hot query would re-parse and
   re-validate; with it, repeats are one hashtable probe. Only entries
   that passed validation enter. *)
module Serve_memo = Memo.Make (String)

let serve_memo : (Solver.result * Proof.t option) Serve_memo.t =
  Serve_memo.create ~name:"store.serve" ~limit:(1 lsl 16)

let clear_domain_memos () = Serve_memo.clear serve_memo

let open_ ?(read_only = false) dirname : t =
  (try Unix.mkdir dirname 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  clear_domain_memos ();
  let data_path = Filename.concat dirname data_name in
  let lock_path = Filename.concat dirname lock_name in
  let lock_fault = Faultinject.fire Faultinject.Store_lock_held in
  let owns_lock =
    (not read_only) && (not lock_fault) && acquire_lock lock_path
  in
  if (not read_only) && not owns_lock then
    Trace.event "store.read_only"
      ~attrs:
        [ ("dir", dirname); ("why", if lock_fault then "fault" else "lock") ];
  let index = Hashtbl.create 1024 in
  let dropped = ref 0 in
  let need_header = ref true in
  (match scan_file data_path with
  | None -> ()
  | Some sc -> (
      match sc.s_header with
      | Some h when h = header_string ->
          need_header := false;
          List.iter (fun (k, v) -> Hashtbl.replace index k v) sc.s_entries;
          if sc.s_good_end < sc.s_size then begin
            dropped := sc.s_size - sc.s_good_end;
            if owns_lock then Unix.truncate data_path sc.s_good_end
          end
      | Some _ | None ->
          (* No intact matching header: format/version skew or a file
             torn inside its first frame. Unusable — a writer resets it,
             a reader serves nothing. *)
          dropped := sc.s_size;
          if owns_lock then Unix.truncate data_path 0));
  let chan =
    if owns_lock then begin
      let ch =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 data_path
      in
      if !need_header then begin
        output_string ch (header_frame ());
        flush ch
      end;
      Some ch
    end
    else None
  in
  {
    dir = dirname;
    data_path;
    lock_path;
    chan;
    owns_lock;
    index;
    mu = Mutex.create ();
    dropped_bytes = !dropped;
  }

let close st =
  with_mu st (fun () ->
      (match st.chan with
      | Some ch ->
          flush ch;
          close_out ch;
          st.chan <- None
      | None -> ());
      if st.owns_lock then
        try Unix.unlink st.lock_path with Unix.Unix_error _ -> ());
  clear_domain_memos ()

(* Look a key up. Consults the fault plan: [Store_stale] turns the
   lookup into a miss; [Store_corrupt] hands back a deterministically
   byte-flipped copy of the payload on a hit (the index itself stays
   intact — the consumer's validation failure evicts it). *)
let find st key : string option =
  if Faultinject.fire Faultinject.Store_stale then begin
    M.incr c_misses;
    None
  end
  else
    match with_mu st (fun () -> Hashtbl.find_opt st.index key) with
    | None ->
        M.incr c_misses;
        None
    | Some payload ->
        M.incr c_hits;
        let payload =
          if
            Faultinject.fire Faultinject.Store_corrupt
            && String.length payload > 0
          then begin
            let b = Bytes.of_string payload in
            let i = Bytes.length b / 2 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
            Bytes.to_string b
          end
          else payload
        in
        Some payload

(* Record an entry: replace in the index and append a flushed frame.
   Read-only stores drop the write on the floor (degrade, don't fail). *)
let add st key payload =
  with_mu st (fun () ->
      match st.chan with
      | None -> ()
      | Some ch ->
          Hashtbl.replace st.index key payload;
          output_string ch (entry_frame key payload);
          flush ch;
          M.incr c_appends)

let evict ?(cert_failure = false) st key =
  with_mu st (fun () ->
      if Hashtbl.mem st.index key then begin
        Hashtbl.remove st.index key;
        M.incr c_evictions
      end);
  if cert_failure then begin
    M.incr c_cert_failures;
    Trace.event "store.cert_failure" ~attrs:[ ("key", key) ]
  end

(* Compact to the live set: header + every current entry (sorted by
   key, so two compactions of the same index are byte-identical),
   written to a tmp file and renamed over the data file. *)
let gc st : (int, string) result =
  with_mu st (fun () ->
      match st.chan with
      | None -> Error "store is read-only"
      | Some ch ->
          flush ch;
          close_out ch;
          st.chan <- None;
          let tmp = st.data_path ^ ".tmp" in
          let oc = open_out_bin tmp in
          output_string oc (header_frame ());
          let live =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.index []
            |> List.sort compare
          in
          List.iter (fun (k, v) -> output_string oc (entry_frame k v)) live;
          flush oc;
          close_out oc;
          Sys.rename tmp st.data_path;
          st.chan <-
            Some
              (open_out_gen
                 [ Open_append; Open_creat; Open_binary ]
                 0o644 st.data_path);
          Ok (List.length live))

(* ------------------------------------------------------------------ *)
(* Entry kinds: the one persisted-entry protocol                      *)
(* ------------------------------------------------------------------ *)

(* A kind is everything the store needs to know about one family of
   entries: its one-letter key prefix, a key builder (the key body after
   "<prefix>|"), a payload codec whose decoder raises [Codec.Bad], and a
   structural check that needs no request context. Declaring a kind
   registers it, so [fsck] deep-checks every kind through the very
   decoder and check that [load] applies. *)
type ('k, 'v) kind = {
  tag : string; (* "<prefix>|" *)
  key_of : 'k -> string;
  encode : 'v -> string;
  decode : string -> 'v;
  check : 'v -> (unit, string) result;
}

type declared = { d_name : string; d_check : string -> (unit, string) result }

let declared : (char, declared) Hashtbl.t = Hashtbl.create 8

let structural kind payload =
  match kind.decode payload with
  | exception Codec.Bad why -> Error why
  | v -> ( match kind.check v with Ok () -> Ok v | Error why -> Error why)

let kind ~prefix ~name ~key ~encode ~decode ~check =
  if Hashtbl.mem declared prefix then
    invalid_arg (Printf.sprintf "Store.kind: prefix %c declared twice" prefix);
  let k =
    { tag = String.make 1 prefix ^ "|"; key_of = key; encode; decode; check }
  in
  Hashtbl.replace declared prefix
    {
      d_name = name;
      d_check = (fun payload -> Result.map ignore (structural k payload));
    };
  k

let key kind k = kind.tag ^ kind.key_of k

let invalid st key why =
  evict ~cert_failure:true st key;
  Trace.event "store.invalid" ~attrs:[ ("key", key); ("why", why) ];
  None

(* Find, decode, check structurally, then check against the request.
   Any failure evicts the entry as a certificate failure and names the
   reason in one [store.invalid] event: the caller recomputes, so a bad
   entry costs time, never truth. *)
let load st kind key ~check =
  match find st key with
  | None -> None
  | Some payload -> (
      match structural kind payload with
      | Error why -> invalid st key why
      | Ok v -> (
          match check v with Ok () -> Some v | Error why -> invalid st key why))

let save st kind key v = add st key (kind.encode v)

let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Solver entries ("S|")                                              *)
(* ------------------------------------------------------------------ *)

(* The key is a digest of the canonical term list — the key IS the
   query, so the stored certificate is term-level and only the query
   can check it (at load time, against the installed validator). *)
let solver =
  kind ~prefix:'S' ~name:"solver"
    ~key:(fun ts ->
      let b = Buffer.create 256 in
      List.iter
        (fun t ->
          Buffer.add_string b (Codec.term_to_string t);
          Buffer.add_char b '&')
        ts;
      md5 (Buffer.contents b))
    ~encode:Codec.proof_to_string ~decode:Codec.proof_of_string
    ~check:(fun _ -> Ok ())

let validity = function Proof.Valid -> Ok () | Proof.Invalid why -> Error why

(* Serve nothing unverifiable: the hook is inert unless a validator is
   installed, so every served answer has had its certificate checked —
   here, and again by the solver's own gatekeeper on the way out. *)
let solver_persist st : Solver.persist =
  let p_lookup ts =
    match Proof.validator () with
    | None -> None
    | Some v -> (
        let key = key solver ts in
        let mkey = st.dir ^ "\x00" ^ key in
        match Serve_memo.find_opt serve_memo mkey with
        | Some rp -> Some rp
        | None -> (
            let check = function
              | Proof.Model_witness m -> validity (v.Proof.validate_sat ts m)
              | Proof.Unsat_witness tree ->
                  validity (v.Proof.validate_unsat ts tree)
            in
            match load st solver key ~check with
            | None -> None
            | Some p ->
                let r =
                  match p with
                  | Proof.Model_witness m -> Solver.Sat m
                  | Proof.Unsat_witness _ -> Solver.Unsat
                in
                let rp = (r, Some p) in
                Serve_memo.add serve_memo mkey rp;
                Some rp))
  in
  let p_save ts (r, proof) =
    match (r, proof) with
    | Solver.Sat _, Some (Proof.Model_witness _ as p)
    | Solver.Unsat, Some (Proof.Unsat_witness _ as p) ->
        save st solver (key solver ts) p
    | _ -> ()
  in
  { Solver.p_lookup; p_save }

(* Install the solver hook around [f], restoring whatever was installed
   before (nesting-safe; concurrent installers last-write-win on the
   shared atomic, converging to a valid hook either way). *)
let with_solver st f =
  let prev = Solver.persist_installed () in
  Solver.set_persist (Some (solver_persist st));
  Fun.protect ~finally:(fun () -> Solver.set_persist prev) f

(* ------------------------------------------------------------------ *)
(* Summary entries ("M|")                                             *)
(* ------------------------------------------------------------------ *)

(* Keyed by the cone fingerprint of the summarized function (any edit
   in its call cone invalidates) + a digest of the workload tag (zone
   fingerprint, analysis policy — both shape summaries) and the
   canonical call-shape key. *)
let summary =
  kind ~prefix:'M' ~name:"summary"
    ~key:(fun (cone, tag, shape) -> cone ^ "|" ^ md5 (tag ^ "\x00" ^ shape))
    ~encode:Codec.summary_to_string ~decode:Codec.summary_of_string
    ~check:Summary.validate

(* [prog] is the program being verified; [tag] names everything else a
   summary depends on (zone fingerprint, analysis policy). *)
let summary_persist st prog ~tag : Summary.persist =
  let skey fn shape = key summary (Fingerprint.cone_fp prog fn, tag, shape) in
  let sp_load ~fn ~key:shape =
    load st summary (skey fn shape) ~check:(fun s ->
        if s.Summary.fn = fn then Ok ()
        else Error "summary names another function")
  in
  let sp_save ~fn ~key:shape s = save st summary (skey fn shape) s in
  { Summary.sp_load; sp_save }

(* ------------------------------------------------------------------ *)
(* Interprocedural-analysis entries ("A|")                            *)
(* ------------------------------------------------------------------ *)

(* Relational function summaries, keyed by the cone fingerprint of the
   summarized function — alpha-equivalent functions share, any call-cone
   edit invalidates exactly its dependents — plus a digest of the
   environment fingerprint (the filtered field invariants the analysis
   ran under: a store added *anywhere* can drop an invariant and change
   a summary without touching this cone). A loaded summary must also
   name the requested function; the analysis additionally rejects
   signature mismatches after load ([Analysis.rsummary_matches]). *)
let analysis =
  kind ~prefix:'A' ~name:"analysis"
    ~key:(fun (cone, envfp) -> cone ^ "|" ^ md5 ("ipsum-v1\x00" ^ envfp))
    ~encode:Codec.rsummary_to_string ~decode:Codec.rsummary_of_string
    ~check:(fun _ -> Ok ())

let analysis_persist st prog : Analysis.ip_persist =
  let akey ~envfp fn = key analysis (Fingerprint.cone_fp prog fn, envfp) in
  let ipp_load ~envfp fn =
    load st analysis (akey ~envfp fn) ~check:(fun rs ->
        if rs.Analysis.rs_fn = fn then Ok ()
        else Error "rsummary names another function")
  in
  let ipp_save ~envfp fn rs = save st analysis (akey ~envfp fn) rs in
  { Analysis.ipp_load; ipp_save }

(* Install the analysis hook around [f], restoring the previous hook
   (nesting-safe, same shape as [with_solver]). *)
let with_analysis st prog f =
  let prev = Analysis.ip_persist_installed () in
  Analysis.set_ip_persist (Some (analysis_persist st prog));
  Fun.protect ~finally:(fun () -> Analysis.set_ip_persist prev) f

(* ------------------------------------------------------------------ *)
(* Offline tools: stat and fsck                                       *)
(* ------------------------------------------------------------------ *)

type stat_report = {
  st_header_ok : bool;
  st_total : int; (* live entries (later frames win) *)
  st_by_prefix : (string * int) list; (* key prefix -> live count *)
  st_bytes : int;
  st_torn_bytes : int;
}

let prefix_of key =
  match String.index_opt key '|' with
  | Some i -> String.sub key 0 i
  | None -> "?"

let stat dirname : stat_report =
  let data_path = Filename.concat dirname data_name in
  match scan_file data_path with
  | None ->
      {
        st_header_ok = false;
        st_total = 0;
        st_by_prefix = [];
        st_bytes = 0;
        st_torn_bytes = 0;
      }
  | Some sc ->
      let live = Hashtbl.create 256 in
      List.iter (fun (k, v) -> Hashtbl.replace live k v) sc.s_entries;
      let by_prefix = Hashtbl.create 8 in
      Hashtbl.iter
        (fun k _ ->
          let p = prefix_of k in
          Hashtbl.replace by_prefix p
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_prefix p)))
        live;
      {
        st_header_ok = sc.s_header = Some header_string;
        st_total = Hashtbl.length live;
        st_by_prefix =
          Hashtbl.fold (fun p n acc -> (p, n) :: acc) by_prefix []
          |> List.sort compare;
        st_bytes = sc.s_size;
        st_torn_bytes = sc.s_size - sc.s_good_end;
      }

type fsck_report = {
  fk_header_ok : bool;
  fk_entries : int; (* live entries that deep-checked clean *)
  fk_bad : (string * string) list; (* key, reason — tampering, not tears *)
  fk_torn_bytes : int; (* torn tail found (and repaired if possible) *)
  fk_repaired : bool; (* the torn tail was truncated away *)
}

let fsck_clean r = r.fk_bad = [] && r.fk_header_ok

(* The deep check of one entry: the structural half of [load], through
   the declared kind's decoder and check. Undeclared prefixes are frame-
   checked only. A clean fsck means: every frame intact, every payload of
   a declared kind decodes and passes its structural check — validation
   against the *request* (a certificate against its query, a summary
   against the function asked for) happens at load time, where the
   request exists. *)
let deep_check ~key ~payload : (unit, string) result =
  if String.length key >= 2 && key.[1] = '|' then
    match Hashtbl.find_opt declared key.[0] with
    | Some d -> d.d_check payload
    | None -> Ok ()
  else Error "malformed key"

let fsck dirname : fsck_report =
  let data_path = Filename.concat dirname data_name in
  match scan_file data_path with
  | None ->
      {
        fk_header_ok = false;
        fk_entries = 0;
        fk_bad = [];
        fk_torn_bytes = 0;
        fk_repaired = false;
      }
  | Some sc ->
      let torn = sc.s_size - sc.s_good_end in
      let repaired =
        torn > 0 && sc.s_header = Some header_string
        &&
        match Unix.truncate data_path sc.s_good_end with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      let live = Hashtbl.create 256 in
      List.iter (fun (k, v) -> Hashtbl.replace live k v) sc.s_entries;
      let bad = ref [] and good = ref 0 in
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
      List.iter
        (fun key ->
          let payload = Hashtbl.find live key in
          match deep_check ~key ~payload with
          | Ok () -> incr good
          | Error why -> bad := (key, why) :: !bad)
        (List.sort compare keys);
      {
        fk_header_ok = sc.s_header = Some header_string;
        fk_entries = !good;
        fk_bad = List.rev !bad;
        fk_torn_bytes = torn;
        fk_repaired = repaired;
      }

let pp_stat ppf (s : stat_report) =
  Format.fprintf ppf "header: %s@." (if s.st_header_ok then "ok" else "MISSING");
  Format.fprintf ppf "entries: %d (%s)@." s.st_total
    (if s.st_by_prefix = [] then "empty"
     else
       String.concat ", "
         (List.map
            (fun (p, n) ->
              let kind =
                if String.length p <> 1 then p
                else
                  match Hashtbl.find_opt declared p.[0] with
                  | Some d -> d.d_name
                  | None -> p
              in
              Printf.sprintf "%s %d" kind n)
            s.st_by_prefix));
  Format.fprintf ppf "bytes: %d" s.st_bytes;
  if s.st_torn_bytes > 0 then
    Format.fprintf ppf " (+%d torn)" s.st_torn_bytes

let pp_fsck ppf (r : fsck_report) =
  Format.fprintf ppf "header: %s@." (if r.fk_header_ok then "ok" else "MISSING");
  Format.fprintf ppf "entries: %d clean, %d bad@." r.fk_entries
    (List.length r.fk_bad);
  List.iter
    (fun (k, why) -> Format.fprintf ppf "  BAD %s: %s@." k why)
    r.fk_bad;
  if r.fk_torn_bytes > 0 then
    Format.fprintf ppf "torn tail: %d bytes%s@." r.fk_torn_bytes
      (if r.fk_repaired then " (truncated)" else " (read-only, left in place)");
  Format.fprintf ppf "verdict: %s"
    (if fsck_clean r then "clean" else "CORRUPT")
