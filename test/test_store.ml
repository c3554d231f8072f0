(* The persistent verification store: wire codecs, crash-safety of the
   CRC-framed file (torn tails, single-byte corruption, lock
   contention), fingerprint stability (alpha-equivalence collides,
   one-op edits separate, cone invalidation follows the call graph),
   and the end-to-end guarantee — verdict fingerprints are
   byte-identical with a cold store, a warm store, and no store. *)

module Term = Smt.Term
module Rr = Dns.Rr
module Versions = Engine.Versions

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_opt_string = Alcotest.(check (option string))
let qcheck = List.map QCheck_alcotest.to_alcotest

let fi f =
  Faultinject.reset ();
  Fun.protect ~finally:Faultinject.reset f

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = Filename.temp_file "dnsv-store-test" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_store dir f =
  let st = Store.open_ dir in
  Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st)

let data_path dir = Filename.concat dir "store.data"

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_codec_term_roundtrip () =
  let x = Term.int_var "x" and y = Term.int_var "y" in
  let p = Term.bool_var "p" in
  let terms =
    [
      Term.true_;
      Term.false_;
      Term.int 42;
      Term.int (-7);
      Term.and_ [ p; Term.lt x y ];
      Term.or_ [ Term.not_ p; Term.neq x y ];
      Term.ite p (Term.add [ x; Term.mul_const 3 y ]) (Term.sub x (Term.neg y));
      Term.implies p (Term.eq x (Term.int 0));
      Term.iff p (Term.le y x);
    ]
  in
  List.iter
    (fun t ->
      let t' = Store.Codec.term_of_string (Store.Codec.term_to_string t) in
      (* Hash-consing: decoding must land on the same physical node. *)
      check_bool "round-trip is physically identical" true (t == t'))
    terms

let test_codec_rejects_garbage () =
  let bad f s =
    match f s with
    | exception Store.Codec.Bad _ -> ()
    | _ -> Alcotest.failf "garbage %S decoded" s
  in
  bad Store.Codec.term_of_string "";
  bad Store.Codec.term_of_string "garbage";
  bad Store.Codec.term_of_string "9999999:x";
  bad Store.Codec.proof_of_string "";
  bad Store.Codec.proof_of_string "!!";
  bad Store.Codec.summary_of_string "";
  bad Store.Codec.summary_of_string "zzz"

(* ------------------------------------------------------------------ *)
(* Store file: persistence, later-wins, gc, torn tails, locks          *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip_and_reopen () =
  fi @@ fun () ->
  with_dir @@ fun dir ->
  with_store dir (fun st ->
      check_bool "fresh store is writable" true (Store.writable st);
      Store.add st "S|a" "alpha";
      Store.add st "M|b" "beta";
      check_opt_string "hit" (Some "alpha") (Store.find st "S|a");
      check_opt_string "miss" None (Store.find st "S|zzz"));
  with_store dir (fun st ->
      check_int "entries survive reopen" 2 (Store.entries st);
      check_opt_string "persisted" (Some "beta") (Store.find st "M|b");
      (* Later frames win, in memory and across reopen. *)
      Store.add st "S|a" "alpha-2");
  with_store dir (fun st ->
      check_opt_string "later frame wins" (Some "alpha-2") (Store.find st "S|a");
      check_int "index deduplicates" 2 (Store.entries st))

let test_store_evict_and_gc () =
  fi @@ fun () ->
  with_dir @@ fun dir ->
  with_store dir (fun st ->
      Store.add st "S|keep" "v1";
      Store.add st "S|drop" "v2";
      Store.evict st "S|drop";
      check_opt_string "evicted" None (Store.find st "S|drop");
      (* gc compacts to the live set, making the eviction durable. *)
      (match Store.gc st with
      | Ok n -> check_int "gc live count" 1 n
      | Error e -> Alcotest.failf "gc failed: %s" e);
      check_opt_string "survivor intact after gc" (Some "v1")
        (Store.find st "S|keep"));
  with_store dir (fun st ->
      check_int "compacted store" 1 (Store.entries st);
      check_opt_string "eviction durable" None (Store.find st "S|drop"))

let test_store_truncates_torn_tail () =
  fi @@ fun () ->
  with_dir @@ fun dir ->
  (* Opaque kinds ('T' is nobody's prefix): fsck frame-checks them but
     has no deep decoder to apply, which is what this test wants. *)
  with_store dir (fun st ->
      Store.add st "T|a" "alpha";
      Store.add st "T|b" "beta");
  (* A kill mid-append leaves a partial frame at the tail. *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (data_path dir)
  in
  output_string oc "DS01\xff\xff partial frame junk";
  close_out oc;
  let s = Store.stat dir in
  check_bool "stat sees the torn tail" true (s.Store.st_torn_bytes > 0);
  check_int "stat counts only intact entries" 2 s.Store.st_total;
  with_store dir (fun st ->
      check_bool "writer truncated the tail" true (Store.dropped_bytes st > 0);
      check_int "entries intact" 2 (Store.entries st);
      check_opt_string "payloads intact" (Some "alpha") (Store.find st "T|a"));
  (* A torn tail is the expected crash signature: fsck repairs and
     reports clean. *)
  let fk = Store.fsck dir in
  check_bool "fsck clean after truncation" true (Store.fsck_clean fk)

let test_store_single_writer_lock () =
  fi @@ fun () ->
  with_dir @@ fun dir ->
  let st1 = Store.open_ dir in
  Fun.protect
    ~finally:(fun () -> Store.close st1)
    (fun () ->
      Store.add st1 "S|a" "alpha";
      (* Second opener in the same directory degrades to read-only. *)
      let st2 = Store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Store.close st2)
        (fun () ->
          check_bool "second opener is read-only" false (Store.writable st2);
          Store.add st2 "S|b" "beta";
          check_opt_string "read-only add is a no-op" None
            (Store.find st2 "S|b")));
  (* Once the writer closes, the lock is free again. *)
  with_store dir (fun st ->
      check_bool "lock released on close" true (Store.writable st))

(* The on-disk bytes of both CRC-framed formats, recorded before the
   store and the batch journal shared one frame codec: a DS01 header
   frame plus one entry frame, and a DJ01 header record plus one item
   record. Both must also scan back. *)
let test_frames_golden () =
  let hex s =
    String.concat ""
      (List.map
         (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq s)))
  in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  with_dir (fun dir ->
      with_store dir (fun st -> Store.add st "S|key" "payload");
      check_string "DS01 header + entry frame"
        ("44533031000000146565601a48646e73762d73746f726520763120666d743d31"
       ^ "4453303100000011c8c81c2545353a537c6b6579373a7061796c6f6164")
        (hex (read (data_path dir)));
      with_store dir (fun st ->
          check_opt_string "entry scans back" (Some "payload")
            (Store.find st "S|key")));
  let path = Filename.temp_file "dnsv-store-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let j = Journal.create ~path ~header:"hdr" in
      Journal.append j "record";
      Journal.close j;
      check_string "DJ01 header + item record"
        ("444a30310000000486ba8be548686472"
       ^ "444a30310000000703d019d2527265636f7264")
        (hex (read path));
      let r = Journal.recover ~path in
      check_opt_string "header scans back" (Some "hdr") r.Journal.header;
      check_bool "record scans back" true (r.Journal.records = [ "record" ]))

let test_store_fault_sites () =
  fi @@ fun () ->
  with_dir @@ fun dir ->
  with_store dir (fun st ->
      Store.add st "S|a" "alpha";
      Faultinject.arm ~after:1 Faultinject.Store_stale;
      check_opt_string "Store_stale forces a miss" None (Store.find st "S|a");
      check_opt_string "one-shot: next lookup hits" (Some "alpha")
        (Store.find st "S|a");
      Faultinject.arm ~after:1 Faultinject.Store_corrupt;
      (match Store.find st "S|a" with
      | Some v -> check_bool "Store_corrupt flips bytes" true (v <> "alpha")
      | None -> Alcotest.fail "corrupt hit should still serve bytes");
      check_opt_string "index itself is untouched" (Some "alpha")
        (Store.find st "S|a"));
  Faultinject.arm ~after:1 Faultinject.Store_lock_held;
  let st = Store.open_ dir in
  Fun.protect
    ~finally:(fun () -> Store.close st)
    (fun () ->
      check_bool "Store_lock_held degrades open to read-only" false
        (Store.writable st))

(* ------------------------------------------------------------------ *)
(* Property: a single flipped byte is always caught                    *)
(* ------------------------------------------------------------------ *)

(* Deterministic fixture store: two dozen entries with varied sizes. *)
let flip_fixture =
  List.init 24 (fun i ->
      ( Printf.sprintf "S|key-%02d" i,
        String.init ((7 * i) + 3) (fun j -> Char.chr (33 + ((i + j) mod 90)))
      ))

let flip_never_lies (pos, bit) =
  with_dir @@ fun dir ->
  with_store dir (fun st ->
      List.iter (fun (k, v) -> Store.add st k v) flip_fixture);
  let path = data_path dir in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  let pos = pos mod n in
  let mask = 1 lsl (bit mod 8) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  (* However the flip lands — magic, length, CRC, key or value bytes,
     even the header — the store may forget entries but must never
     serve altered bytes. *)
  let st = Store.open_ ~read_only:true dir in
  Fun.protect
    ~finally:(fun () -> Store.close st)
    (fun () ->
      List.for_all
        (fun (k, v) ->
          match Store.find st k with
          | None -> true (* degraded: entry dropped, recomputed upstream *)
          | Some v' -> String.equal v v')
        flip_fixture)

let prop_flip_never_lies =
  QCheck.Test.make ~name:"store: any single-bit flip degrades, never lies"
    ~count:80
    QCheck.(pair (int_range 0 100_000) (int_range 0 7))
    flip_never_lies

(* ------------------------------------------------------------------ *)
(* Fingerprints: stability and cone invalidation                       *)
(* ------------------------------------------------------------------ *)

let compile src = Golite.Compile.compile (Golite.Parse.program_of_string_exn src)

let prog_base =
  compile
    {|
func leaf(x int) int {
  var k int = 0
  while k < x {
    k = k + 1
  }
  return k
}

func mid(n int) int {
  return leaf(n) + 1
}

func top(n int) int {
  return mid(n) + leaf(n)
}
|}

(* The same three functions with every register renamed. *)
let prog_alpha =
  compile
    {|
func leaf(value int) int {
  var count int = 0
  while count < value {
    count = count + 1
  }
  return count
}

func mid(m int) int {
  return leaf(m) + 1
}

func top(q int) int {
  return mid(q) + leaf(q)
}
|}

(* One reachable instruction changed in [leaf] only. *)
let prog_leaf_edit =
  compile
    {|
func leaf(x int) int {
  var k int = 0
  while k < x {
    k = k + 2
  }
  return k
}

func mid(n int) int {
  return leaf(n) + 1
}

func top(n int) int {
  return mid(n) + leaf(n)
}
|}

(* One instruction changed in [top] only. *)
let prog_top_edit =
  compile
    {|
func leaf(x int) int {
  var k int = 0
  while k < x {
    k = k + 1
  }
  return k
}

func mid(n int) int {
  return leaf(n) + 1
}

func top(n int) int {
  return mid(n) + leaf(n) + 1
}
|}

module Fp = Store.Fingerprint

(* ------------------------------------------------------------------ *)
(* Analysis ("A|") entries: round-trip, cone sharing/invalidation,    *)
(* eviction of undecodable entries                                    *)
(* ------------------------------------------------------------------ *)

let analyze_with st prog =
  Analysis.clear_memo ();
  Store.with_analysis st prog (fun () -> Analysis.summarize prog)

let rsummaries_fingerprint s prog =
  String.concat "|"
    (List.map
       (fun (f : Minir.Instr.func) ->
         match Analysis.rsummary_of s f.Minir.Instr.fn_name with
         | Some rs -> Digest.to_hex (Digest.string (Store.Codec.rsummary_to_string rs))
         | None -> "-")
       prog.Minir.Instr.funcs)

let test_analysis_roundtrip_and_cones () =
  with_dir @@ fun dir ->
  let nfuncs = List.length prog_base.Minir.Instr.funcs in
  let s_cold = with_store dir (fun st -> analyze_with st prog_base) in
  check_int "cold: all misses" nfuncs (snd (Analysis.store_traffic s_cold));
  let s_warm = with_store dir (fun st -> analyze_with st prog_base) in
  check_int "warm: all hits" nfuncs (fst (Analysis.store_traffic s_warm));
  (* Served summaries are byte-identical to the computed ones. *)
  check_string "summaries round-trip"
    (rsummaries_fingerprint s_cold prog_base)
    (rsummaries_fingerprint s_warm prog_base);
  (* Alpha-equivalent functions share their entries. *)
  let s_alpha = with_store dir (fun st -> analyze_with st prog_alpha) in
  check_int "alpha twin: all hits" nfuncs (fst (Analysis.store_traffic s_alpha));
  (* An edit in [top] invalidates exactly its own cone... *)
  let s_top = with_store dir (fun st -> analyze_with st prog_top_edit) in
  check_int "top edit: one miss" 1 (snd (Analysis.store_traffic s_top));
  check_int "top edit: leaf and mid served" 2 (fst (Analysis.store_traffic s_top));
  (* ...while an edit in [leaf] invalidates every dependent cone. *)
  let s_leaf = with_store dir (fun st -> analyze_with st prog_leaf_edit) in
  check_int "leaf edit: all miss" nfuncs (snd (Analysis.store_traffic s_leaf));
  (* The A| entries survive a deep fsck. *)
  let stat = Store.stat dir in
  check_bool "analysis entries on disk" true
    (List.mem_assoc "A" stat.Store.st_by_prefix);
  check_bool "fsck clean over A| entries" true
    (Store.fsck_clean (Store.fsck dir))

(* With no analysis environment the filtered field-invariant list is
   empty, so the environment fingerprint is the digest of "". *)
let empty_envfp = Digest.to_hex (Digest.string "")

let test_analysis_corrupt_entry_evicted () =
  with_dir @@ fun dir ->
  ignore (with_store dir (fun st -> analyze_with st prog_base));
  let key =
    Store.key Store.analysis (Fp.cone_fp prog_base "leaf", empty_envfp)
  in
  with_store dir @@ fun st ->
  (match Store.find st key with
  | None -> Alcotest.fail "expected an A| entry for leaf"
  | Some payload ->
      (* Drop the final byte: the strict wire format cannot decode a
         truncated summary, so the entry must be evicted as a
         certificate failure and recomputed — never trusted. *)
      Store.add st key (String.sub payload 0 (String.length payload - 1)));
  let m0 = Trace.Metrics.snapshot () in
  let s = analyze_with st prog_base in
  let d = Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0 in
  check_int "corrupt entry recomputed" 1 (snd (Analysis.store_traffic s));
  check_int "intact entries served" 2 (fst (Analysis.store_traffic s));
  check_bool "corrupt entry evicted as a certificate failure" true
    (Trace.Metrics.get d "store.cert_failures" > 0);
  match Analysis.rsummary_of s "leaf" with
  | Some rs -> check_string "recomputed summary is leaf's" "leaf" rs.Analysis.rs_fn
  | None -> Alcotest.fail "leaf has no summary after recompute"

(* Any single flipped bit in the store file may cost recomputation but
   must never change the analysis facts served back. *)
let analysis_flip_never_lies (pos, bit) =
  with_dir @@ fun dir ->
  ignore (with_store dir (fun st -> analyze_with st prog_base));
  Analysis.clear_memo ();
  let reference = rsummaries_fingerprint (Analysis.summarize prog_base) prog_base in
  let path = data_path dir in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  let pos = pos mod n in
  let mask = 1 lsl (bit mod 8) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let s = with_store dir (fun st -> analyze_with st prog_base) in
  String.equal reference (rsummaries_fingerprint s prog_base)

let prop_analysis_flip_never_lies =
  QCheck.Test.make
    ~name:"analysis entries: any single-bit flip degrades, never lies"
    ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 0 7))
    analysis_flip_never_lies

let test_fingerprint_alpha_equivalence () =
  List.iter
    (fun fn ->
      check_string
        (Printf.sprintf "alpha-equivalent %s collides" fn)
        (Fp.func_fp prog_base fn)
        (Fp.func_fp prog_alpha fn))
    [ "leaf"; "mid"; "top" ];
  check_string "alpha-equivalent programs collide" (Fp.program_fp prog_base)
    (Fp.program_fp prog_alpha)

let test_fingerprint_one_op_edit () =
  check_bool "edited function separates" true
    (Fp.func_fp prog_base "leaf" <> Fp.func_fp prog_leaf_edit "leaf");
  (* func_fp is local: callers are textually unchanged. *)
  check_string "caller local hash unchanged (mid)"
    (Fp.func_fp prog_base "mid")
    (Fp.func_fp prog_leaf_edit "mid");
  check_string "caller local hash unchanged (top)"
    (Fp.func_fp prog_base "top")
    (Fp.func_fp prog_leaf_edit "top")

let test_fingerprint_cone_invalidation () =
  (* Editing the leaf invalidates the whole chain above it... *)
  List.iter
    (fun fn ->
      check_bool
        (Printf.sprintf "leaf edit invalidates cone of %s" fn)
        true
        (Fp.cone_fp prog_base fn <> Fp.cone_fp prog_leaf_edit fn))
    [ "leaf"; "mid"; "top" ];
  (* ...while editing the top invalidates only the top. *)
  check_string "top edit leaves leaf cone intact"
    (Fp.cone_fp prog_base "leaf")
    (Fp.cone_fp prog_top_edit "leaf");
  check_string "top edit leaves mid cone intact"
    (Fp.cone_fp prog_base "mid")
    (Fp.cone_fp prog_top_edit "mid");
  check_bool "top edit invalidates top cone" true
    (Fp.cone_fp prog_base "top" <> Fp.cone_fp prog_top_edit "top");
  check_bool "callees are reported" true
    (List.mem "leaf"
       (Fp.callees
          (List.find
             (fun f -> f.Minir.Instr.fn_name = "mid")
             prog_base.Minir.Instr.funcs)))

let test_fingerprint_cross_version () =
  (* A real version bump: the buggy engine vs. its patched twin. Only
     the patched functions' local hashes may move, and the resolve
     cone must notice. *)
  let buggy = Versions.compiled Versions.v3_0 in
  let fixed = Versions.compiled (Versions.fixed Versions.v3_0) in
  let names =
    List.map (fun f -> f.Minir.Instr.fn_name) buggy.Minir.Instr.funcs
  in
  let changed =
    List.filter (fun fn -> Fp.func_fp buggy fn <> Fp.func_fp fixed fn) names
  in
  check_bool "some function changed" true (changed <> []);
  check_bool "not every function changed" true
    (List.length changed < List.length names);
  check_bool "resolve cone invalidated" true
    (Fp.cone_fp buggy "resolve" <> Fp.cone_fp fixed "resolve");
  check_bool "program fingerprint moved" true
    (Fp.program_fp buggy <> Fp.program_fp fixed)

(* ------------------------------------------------------------------ *)
(* Pipeline integration: warm equals cold equals storeless             *)
(* ------------------------------------------------------------------ *)

let cold_caches () =
  Smt.Solver.clear_caches ();
  Dnsv.Pipeline.clear_summary_memo ();
  Store.clear_domain_memos ()

let test_pipeline_store_identical_verdicts () =
  fi @@ fun () ->
  with_dir @@ fun dir ->
  let cfg = Versions.fixed Versions.v1_0 in
  let zone = Spec.Fixtures.figure11_zone in
  let verify store = Dnsv.Pipeline.verify ~qtypes:[ Rr.A ] ?store cfg zone in
  cold_caches ();
  let baseline = verify None in
  cold_caches ();
  let cold = with_store dir (fun st -> verify (Some st)) in
  check_string "cold store verdict matches storeless"
    (Dnsv.Pipeline.fingerprint baseline)
    (Dnsv.Pipeline.fingerprint cold);
  cold_caches ();
  let warm = with_store dir (fun st -> verify (Some st)) in
  check_string "warm store verdict matches storeless"
    (Dnsv.Pipeline.fingerprint baseline)
    (Dnsv.Pipeline.fingerprint warm);
  let s = Store.stat dir in
  check_bool "entries persisted" true (s.Store.st_total > 0);
  check_bool "deep fsck clean" true (Store.fsck_clean (Store.fsck dir))

(* ------------------------------------------------------------------ *)
(* The persisted-entry protocol across all five kinds                 *)
(* ------------------------------------------------------------------ *)

let protocol_cfg = Versions.fixed Versions.v1_0

let protocol_verify ?store ?(retries = 0) () =
  cold_caches ();
  Analysis.clear_memo ();
  Dnsv.Pipeline.verify ~qtypes:[ Rr.A ] ~retries ?store protocol_cfg
    Spec.Fixtures.figure11_zone

(* A store file's entries in file order. *)
let scan_entries dir =
  let data = In_channel.with_open_bin (data_path dir) In_channel.input_all in
  let entries, _ =
    Journal.scan_frames ~magic:"DS01" data ~init:[] (fun acc payload ->
        if payload.[0] <> 'E' then Some acc
        else
          let r = Store.Codec.reader ~pos:1 payload in
          let k = Store.Codec.rstr r in
          let v = Store.Codec.rstr r in
          Some ((k, v) :: acc))
  in
  List.rev entries

(* One store holding entries of every kind, built from cold caches by a
   verify (retries 0) and a second one (retries 1) whose only new entry
   is its own query-type report. [targets] are the last entry of each
   kind the first verify wrote — its final solver query, its outermost
   summary, its last analysis summary and layer, its report — so a
   re-verify with retries 0 reaches every one of them; every other entry
   (the second report included) stays intact. *)
let protocol_fixture =
  lazy
    (let storeless = Dnsv.Pipeline.fingerprint (protocol_verify ()) in
     let dir = Filename.temp_file "dnsv-store-protocol" "" in
     Sys.remove dir;
     at_exit (fun () -> rm_rf dir);
     with_store dir (fun st -> ignore (protocol_verify ~store:st ()));
     let first = scan_entries dir in
     let last prefix =
       List.fold_left
         (fun acc (k, v) -> if k.[0] = prefix then Some (k, v) else acc)
         None first
       |> Option.get
     in
     with_store dir (fun st -> ignore (protocol_verify ~store:st ~retries:1 ()));
     (dir, storeless, List.map last [ 'S'; 'M'; 'A'; 'L'; 'R' ]))

let rec invalid_keys (s : Trace.span) =
  List.filter_map
    (fun (e : Trace.event) ->
      if e.Trace.ev_name = "store.invalid" then
        List.assoc_opt "key" e.Trace.ev_attrs
      else None)
    s.Trace.sp_events
  @ List.concat_map invalid_keys s.Trace.sp_children

(* One bit-flipped entry of each kind beside intact ones: fsck names
   exactly the flipped keys, and a verify over the store evicts each as
   a certificate failure with one [store.invalid] event, recomputes it
   (so the store is clean again) and proves what the storeless run
   proves. Bit 6 of the last byte turns a digit into a letter and ';'
   into '{', which no kind's decoder accepts. *)
let test_protocol_corrupt_entry_of_each_kind () =
  let master, storeless, targets = Lazy.force protocol_fixture in
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  Out_channel.with_open_bin (data_path dir) (fun oc ->
      Out_channel.output_string oc
        (In_channel.with_open_bin (data_path master) In_channel.input_all));
  let flip v =
    let b = Bytes.of_string v in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  with_store dir (fun st ->
      List.iter (fun (k, v) -> Store.add st k (flip v)) targets);
  let corrupt = List.sort compare (List.map fst targets) in
  let check_keys = Alcotest.(check (list string)) in
  check_keys "fsck names exactly the corrupt keys" corrupt
    (List.map fst (Store.fsck dir).Store.fk_bad);
  let m0 = Trace.Metrics.snapshot () in
  let v, forest =
    with_store dir (fun st ->
        Trace.recording (fun () -> protocol_verify ~store:st ()))
  in
  let d = Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0 in
  check_keys "each corrupt entry named by one store.invalid" corrupt
    (List.sort compare (List.concat_map invalid_keys forest));
  check_int "each counted as a certificate failure" 5
    (Trace.Metrics.get d "store.cert_failures");
  check_string "verdict equals the storeless one" storeless
    (Dnsv.Pipeline.fingerprint v);
  check_bool "recomputed entries superseded the corrupt ones" true
    (Store.fsck_clean (Store.fsck dir))

(* Key and payload bytes of one entry of each kind (the fixture's
   targets), pinned: an existing store stays valid only while these
   stay put. *)
let test_protocol_entry_bytes_pinned () =
  let _, _, targets = Lazy.force protocol_fixture in
  Alcotest.(check (list (pair string string)))
    "keys and payload digests"
    [
      ("S|7e795c98fe5f5761bf7f1e10fc61f728", "119a8f5699c44f1cdd891ff18b0e9ce4");
      ( "M|237b47ad7e5da05316261070a19b47ba|a083e4911bf1ea3b6772a5bd1c3ffe92",
        "bafc9deb0d7fa970cec1db2f58211843" );
      ( "A|671adc5857bf516b75d8a82c9f654c06|48d2afa98bb9b3341074408d32a176f2",
        "e8cda540040c542550df4c75ec4deda2" );
      ("L|c0c7eebfb9e20215fb45817277e37691", "874c15f94f736a44ac70f8781b6f4122");
      ("R|31264daa3e087ac8b47d9be96df544f5", "462c3df02a1cf672576084b5ae08f8e6");
    ]
    (List.map (fun (k, v) -> (k, Digest.to_hex (Digest.string v))) targets);
  check_string "layer payload" "49;49;49;"
    (snd (List.find (fun (k, _) -> k.[0] = 'L') targets))

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "term round-trip" `Quick test_codec_term_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "file",
        [
          Alcotest.test_case "round-trip and reopen" `Quick
            test_store_roundtrip_and_reopen;
          Alcotest.test_case "evict and gc" `Quick test_store_evict_and_gc;
          Alcotest.test_case "torn tail truncated" `Quick
            test_store_truncates_torn_tail;
          Alcotest.test_case "single-writer lock" `Quick
            test_store_single_writer_lock;
          Alcotest.test_case "fault sites" `Quick test_store_fault_sites;
          Alcotest.test_case "frame bytes match the recorded formats" `Quick
            test_frames_golden;
        ] );
      ("corruption", qcheck [ prop_flip_never_lies ]);
      ( "analysis",
        [
          Alcotest.test_case "round-trip, cone sharing and invalidation"
            `Quick test_analysis_roundtrip_and_cones;
          Alcotest.test_case "undecodable entry evicted and recomputed"
            `Quick test_analysis_corrupt_entry_evicted;
        ]
        @ qcheck [ prop_analysis_flip_never_lies ] );
      ( "fingerprint",
        [
          Alcotest.test_case "alpha equivalence" `Quick
            test_fingerprint_alpha_equivalence;
          Alcotest.test_case "one-op edit" `Quick test_fingerprint_one_op_edit;
          Alcotest.test_case "cone invalidation" `Quick
            test_fingerprint_cone_invalidation;
          Alcotest.test_case "cross-version" `Quick
            test_fingerprint_cross_version;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "warm equals cold equals storeless" `Quick
            test_pipeline_store_identical_verdicts;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "one corrupt entry of each kind" `Quick
            test_protocol_corrupt_entry_of_each_kind;
          Alcotest.test_case "entry bytes match the recorded ones" `Quick
            test_protocol_entry_bytes_pinned;
        ] );
    ]
