(* Certificate, journal, and journaled-batch tests.

   The trust-architecture properties: every Sat/Unsat verdict carries a
   certificate the solver-independent checker accepts; Unknown is never
   cached; a corrupted cache entry is always caught by certificate
   re-validation (degrading the verdict, never flipping it); a batch
   run killed mid-journal-write resumes into a transcript byte-identical
   to an uninterrupted run's. *)

module Term = Smt.Term
module Solver = Smt.Solver
module Proof = Smt.Proof
module Rr = Dns.Rr
module Name = Dns.Name
module Versions = Engine.Versions
module Pipeline = Dnsv.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* The solver only validates when a checker is installed; do not rely
   on some other module's initializer having run first. *)
let () = Cert.install ()

(* Faults and caches are global state: run each test from a clean slate
   and leave one behind even on failure. *)
let fi (f : unit -> unit) () =
  Faultinject.reset ();
  Solver.clear_caches ();
  Pipeline.clear_summary_memo ();
  Fun.protect f ~finally:(fun () ->
      Faultinject.reset ();
      Solver.clear_caches ();
      Pipeline.clear_summary_memo ())

let x = Term.int_var "x"
let y = Term.int_var "y"
let z = Term.int_var "z"

let kind = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

let flip = function "sat" -> "unsat" | "unsat" -> "sat" | k -> k

(* ------------------------------------------------------------------ *)
(* The checker accepts every certificate the solver produces          *)
(* ------------------------------------------------------------------ *)

let fixed_conjunctions : Term.t list list =
  [
    [ Term.le x (Term.int 3); Term.le (Term.int 5) x ];
    [ Term.eq x (Term.int 2); Term.eq y (Term.int 3); Term.le x y ];
    [ Term.lt x y; Term.lt y z; Term.lt z x ];
    [ Term.not_ (Term.eq x y); Term.le x y; Term.le y x ];
    [ Term.eq (Term.add [ x; y ]) (Term.int 4); Term.eq (Term.sub x y) (Term.int 1) ];
    [ Term.le (Term.mul_const 2 x) (Term.int 7); Term.le (Term.int 4) x ];
    [ Term.bool_var "p"; Term.not_ (Term.bool_var "p") ];
    [ Term.or_ [ Term.bool_var "p"; Term.le x (Term.int 0) ];
      Term.not_ (Term.bool_var "p"); Term.le (Term.int 1) x ];
  ]

let test_solver_certificates_validate () =
  List.iter
    (fun ts ->
      match Solver.check_core_cert ts with
      | Solver.Sat m, Some (Proof.Model_witness m') ->
          check_bool "model matches witness" true (m == m' || m = m');
          (match Cert.validate_sat ts m with
          | Proof.Valid -> ()
          | Proof.Invalid why -> Alcotest.failf "sat cert rejected: %s" why)
      | Solver.Unsat, Some (Proof.Unsat_witness tree) -> (
          match Cert.validate_unsat ts tree with
          | Proof.Valid -> ()
          | Proof.Invalid why -> Alcotest.failf "unsat cert rejected: %s" why)
      | Solver.Unknown, _ -> Alcotest.fail "fixture should be decidable"
      | r, _ ->
          Alcotest.failf "missing or mismatched certificate for %s" (kind r))
    fixed_conjunctions

(* The checker is not a rubber stamp: a proof citing facts that were
   never asserted, or a model violating an assertion, is rejected. *)
let test_checker_rejects_bogus_certificates () =
  let ts = [ Term.le x (Term.int 3) ] (* satisfiable *) in
  let bogus =
    Proof.Farkas
      [ { Proof.fact = Term.le x (Term.int (-1)); lam = Proof.coeff_of_ints 1 1 } ]
  in
  (match Cert.validate_unsat ts bogus with
  | Proof.Invalid _ -> ()
  | Proof.Valid -> Alcotest.fail "unsat cert citing unasserted facts accepted");
  let m = Smt.Model.add_int "x" 7 Smt.Model.empty in
  (match Cert.validate_sat ts m with
  | Proof.Invalid _ -> ()
  | Proof.Valid -> Alcotest.fail "model violating the assertion accepted");
  (* An empty Farkas combination proves nothing. *)
  match Cert.validate_unsat [ Term.le x (Term.int 3) ] (Proof.Farkas []) with
  | Proof.Invalid _ -> ()
  | Proof.Valid -> Alcotest.fail "empty Farkas combination accepted"

(* A disequality whose difference is identically zero (x+y ≠ y+x) is
   false as asserted. The solver refutes it with a split whose sides
   both fold to false (1 ≤ 0), and the checker accepts exactly that
   split: the conjunction is certified Unsat, not degraded to Unknown. *)
let zero_diff = Term.neq (Term.add [ x; y ]) (Term.add [ y; x ])

let test_zero_difference_certified () =
  check_string "check" "unsat" (kind (Solver.check [ zero_diff ]));
  match Solver.check_core_cert [ zero_diff ] with
  | Solver.Unsat, Some (Proof.Unsat_witness tree) -> (
      match Cert.validate_unsat [ zero_diff ] tree with
      | Proof.Valid -> ()
      | Proof.Invalid why -> Alcotest.failf "split rejected: %s" why)
  | r, _ -> Alcotest.failf "expected a certified unsat, got %s" (kind r)

(* Any other side of a split on an identically-zero difference, and the
   folded sides on a difference that is not zero, are still rejected by
   the split check itself. *)
let test_zero_difference_mutations_rejected () =
  let one = Proof.coeff_of_ints 1 1 in
  let split neq le1 ge1 =
    Proof.Split_neq
      {
        neq;
        le1;
        ge1;
        left = Proof.Farkas [ { Proof.fact = le1; lam = one } ];
        right = Proof.Farkas [ { Proof.fact = ge1; lam = one } ];
      }
  in
  let rejected name asserted tree =
    match Cert.validate_unsat asserted tree with
    | Proof.Valid -> Alcotest.failf "%s: accepted" name
    | Proof.Invalid why ->
        check_bool (name ^ ": rejected by the split check (" ^ why ^ ")") true
          (String.length why >= 9 && String.sub why 0 9 = "Split_neq")
  in
  (* Mirror tightenings of a non-zero e = x. *)
  rejected "non-zero e" [ zero_diff ]
    (split zero_diff
       (Term.le x (Term.int (-1)))
       (Term.le (Term.neg x) (Term.int (-1))));
  rejected "one side not 1 ≤ 0" [ zero_diff ]
    (split zero_diff Term.False (Term.le x (Term.int (-1))));
  let xy = Term.neq x y in
  rejected "folded sides on x ≠ y" [ xy ] (split xy Term.False Term.False)

(* ------------------------------------------------------------------ *)
(* QCheck: caching under certification                                *)
(* ------------------------------------------------------------------ *)

let conj_gen : Term.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let int_leaf =
    oneof [ map Term.int (int_range (-4) 4); oneofl [ x; y; z ] ]
  in
  let int_term =
    oneof
      [
        int_leaf;
        map2 (fun a b -> Term.add [ a; b ]) int_leaf int_leaf;
        map2 Term.sub int_leaf int_leaf;
        map (fun a -> Term.mul_const 2 a) int_leaf;
      ]
  in
  let cmp =
    oneof
      [
        map2 Term.eq int_term int_term;
        map2 Term.le int_term int_term;
        map2 Term.lt int_term int_term;
      ]
  in
  let lit = oneof [ cmp; map Term.not_ cmp ] in
  list_size (int_range 1 6) lit

let arb_conj =
  QCheck.make
    ~print:(fun ts -> String.concat " /\\ " (List.map Term.to_string ts))
    conj_gen

(* A cache hit replays exactly what a scratch solve decides. *)
let prop_cache_hit_equals_scratch =
  QCheck.Test.make ~name:"cache hit = scratch solve (certified)" ~count:300
    arb_conj (fun ts ->
      Faultinject.reset ();
      Solver.clear_caches ();
      let scratch = Solver.check ts in
      let hit = Solver.check ts in
      Solver.clear_caches ();
      let rescratch = Solver.check ts in
      kind scratch = kind hit && kind hit = kind rescratch)

(* A forced Unknown must not poison the memo: the next identical query
   re-solves and gets the honest answer. *)
let prop_unknown_never_cached =
  QCheck.Test.make ~name:"Unknown answers are never cached" ~count:300
    arb_conj (fun ts ->
      Faultinject.reset ();
      Solver.clear_caches ();
      let honest = Solver.check ts in
      Solver.clear_caches ();
      Faultinject.arm ~after:1 Faultinject.Solver_unknown;
      let forced = Solver.check ts in
      let after = Solver.check ts in
      Faultinject.reset ();
      kind forced = "unknown" && kind after = kind honest)

(* A corrupted cache entry is caught by certificate re-validation:
   the answer may degrade to Unknown but can never flip. *)
let prop_corruption_always_caught =
  QCheck.Test.make ~name:"corrupted cache entry always caught" ~count:300
    arb_conj (fun ts ->
      Faultinject.reset ();
      Solver.clear_caches ();
      let honest = Solver.check ts in
      QCheck.assume (kind honest <> "unknown");
      let failures_before = (Solver.stats ()).Solver.cert_failures in
      Faultinject.arm ~persistent:true ~after:1 Faultinject.Cache_corrupt;
      let corrupted = Solver.check ts in
      Faultinject.reset ();
      (* The poisoned entry persists in the table; validation must keep
         rejecting it on every later hit too. *)
      let later = Solver.check ts in
      let failures_after = (Solver.stats ()).Solver.cert_failures in
      Solver.clear_caches ();
      let never_flipped =
        kind corrupted <> flip (kind honest) && kind later <> flip (kind honest)
      in
      let caught =
        kind corrupted = kind honest || failures_after > failures_before
      in
      never_flipped && caught)

(* ------------------------------------------------------------------ *)
(* Cache corruption surfaces as a Cert_invalid verdict                *)
(* ------------------------------------------------------------------ *)

let test_corruption_surfaces_cert_invalid =
  fi (fun () ->
      let cfg = Versions.fixed Versions.v3_0 in
      let zone = Spec.Fixtures.figure11_zone in
      let v1 = Pipeline.verify ~qtypes:[ Rr.A ] ~check_layers:false cfg zone in
      check_bool "baseline proved" true (Pipeline.clean v1);
      Faultinject.arm ~persistent:true ~after:1 Faultinject.Cache_corrupt;
      let v2 = Pipeline.verify ~qtypes:[ Rr.A ] ~check_layers:false cfg zone in
      (match Pipeline.status v2 with
      | Budget.Inconclusive (Budget.Cert_invalid _) -> ()
      | Budget.Inconclusive r ->
          Alcotest.failf "expected cert-invalid, got %s" (Budget.reason_tag r)
      | Budget.Proved -> Alcotest.fail "corrupted cache passed as proved"
      | Budget.Refuted _ ->
          Alcotest.fail "corrupted cache flipped a proof into a refutation");
      check_bool "cert failures counted" true (Pipeline.cert_failures v2 > 0))

(* ------------------------------------------------------------------ *)
(* The validation memo cannot launder a bad answer                    *)
(* ------------------------------------------------------------------ *)

let sat_ts = [ Term.le x (Term.int 3); Term.le (Term.int 1) x ]
let unsat_ts = [ Term.le x (Term.int 3); Term.le (Term.int 5) x ]
let cert_stat f = f (Solver.stats ())
let checks () = cert_stat (fun s -> s.Solver.cert_checks)
let failures () = cert_stat (fun s -> s.Solver.cert_failures)

(* An honest answer puts its triple in the memo (the repeat runs no
   checker); a poisoned result-cache entry for the same terms carries
   another result, is checked, and degrades without flipping. *)
let test_memo_then_corruption_caught =
  fi (fun () ->
      List.iter
        (fun ts ->
          let honest = Solver.check ts in
          let c0 = checks () in
          check_string "repeat agrees" (kind honest) (kind (Solver.check ts));
          check_int "repeat served by the validation memo" c0 (checks ());
          let f0 = failures () in
          Faultinject.arm ~persistent:true ~after:1 Faultinject.Cache_corrupt;
          let corrupted = Solver.check ts in
          Faultinject.reset ();
          check_string "poisoned entry degrades to unknown" "unknown"
            (kind corrupted);
          check_bool "and counts a cert failure" true (failures () > f0);
          let s = Solver.Incremental.create () in
          check_bool "the poisoned entry never flips, via check_pc either" true
            (kind (Solver.Incremental.check_pc s ts) <> flip (kind honest)))
        [ sat_ts; unsat_ts ])

(* A bogus certificate for terms whose honest certificate was accepted
   is not the accepted triple: it is checked, and rejected. *)
let test_memo_bogus_cert_rejected =
  fi (fun () ->
      check_string "honest unsat" "unsat" (kind (Solver.check unsat_ts));
      let bogus_tree =
        Proof.Farkas
          [ { Proof.fact = Term.le x (Term.int (-1)); lam = Proof.coeff_of_ints 1 1 } ]
      in
      let f0 = failures () in
      check_string "bogus refutation rejected" "unknown"
        (kind
           (Solver.validate unsat_ts
              (Solver.Unsat, Some (Proof.Unsat_witness bogus_tree))));
      check_string "unsat answer with a model rejected" "unknown"
        (kind
           (Solver.validate unsat_ts
              (Solver.Unsat, Some (Proof.Model_witness Smt.Model.empty))));
      check_string "honest sat" "sat" (kind (Solver.check sat_ts));
      let bad = Smt.Model.add_int "x" 7 Smt.Model.empty in
      check_string "violating model rejected" "unknown"
        (kind
           (Solver.validate sat_ts (Solver.Sat bad, Some (Proof.Model_witness bad))));
      check_int "three cert failures" 3 (failures () - f0))

(* What an earlier validator accepted is not served under a new one. *)
let test_memo_keyed_on_validator =
  fi (fun () ->
      let honest = List.map Solver.check [ sat_ts; unsat_ts ] in
      let reject _ _ = Proof.Invalid "rejects everything" in
      Fun.protect ~finally:Cert.install (fun () ->
          Proof.set_validator { Proof.validate_sat = reject; validate_unsat = reject };
          List.iter
            (fun ts ->
              check_string "check under a reject-all validator" "unknown"
                (kind (Solver.check ts));
              let s = Solver.Incremental.create () in
              check_string "check_pc under a reject-all validator" "unknown"
                (kind (Solver.Incremental.check_pc s ts)))
            [ sat_ts; unsat_ts ]);
      check_bool "the checker back: honest answers again" true
        (List.map kind honest
        = List.map (fun ts -> kind (Solver.check ts)) [ sat_ts; unsat_ts ]))

(* ------------------------------------------------------------------ *)
(* Journal framing and recovery                                       *)
(* ------------------------------------------------------------------ *)

let with_temp f =
  let path = Filename.temp_file "dnsv-test" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_crc32_vector () =
  (* The standard IEEE 802.3 check value. *)
  check_string "crc32(123456789)" "cbf43926"
    (Printf.sprintf "%08lx" (Journal.crc32 "123456789"))

let test_journal_roundtrip () =
  with_temp (fun path ->
      let j = Journal.create ~path ~header:"hdr v1" in
      Journal.append j "first";
      Journal.append j "second\nwith\nnewlines";
      Journal.append j "";
      Journal.finalize j "done";
      Journal.close j;
      let r = Journal.recover ~path in
      check_bool "header" true (r.Journal.header = Some "hdr v1");
      check_bool "records" true
        (r.Journal.records = [ "first"; "second\nwith\nnewlines"; "" ]);
      check_bool "final" true (r.Journal.final = Some "done");
      check_int "no torn bytes" 0 r.Journal.dropped_bytes)

let test_journal_torn_tail_truncated () =
  with_temp (fun path ->
      let j = Journal.create ~path ~header:"hdr" in
      Journal.append j "keep";
      Journal.close j;
      (* Simulate a kill mid-append: half a frame at the tail. *)
      let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
      output_string oc "DJ01\x00\x00\x00\xffgarb";
      close_out oc;
      let r = Journal.recover ~path in
      check_bool "intact records salvaged" true (r.Journal.records = [ "keep" ]);
      check_bool "torn bytes reported" true (r.Journal.dropped_bytes > 0);
      (* Resume truncates the tail and appends cleanly after it. *)
      (match Journal.open_resume ~path ~header:"hdr" with
      | Error e -> Alcotest.failf "resume failed: %s" e
      | Ok (j2, r2) ->
          check_bool "resume salvage" true (r2.Journal.records = [ "keep" ]);
          Journal.append j2 "appended";
          Journal.close j2);
      let r3 = Journal.recover ~path in
      check_bool "clean after truncation" true
        (r3.Journal.records = [ "keep"; "appended" ] && r3.Journal.dropped_bytes = 0))

let test_journal_header_mismatch () =
  with_temp (fun path ->
      let j = Journal.create ~path ~header:"workload A" in
      Journal.close j;
      match Journal.open_resume ~path ~header:"workload B" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "mismatched header must not resume")

let test_journal_corrupt_payload_dropped () =
  with_temp (fun path ->
      let j = Journal.create ~path ~header:"hdr" in
      Journal.append j "good";
      Journal.append j "tampered";
      Journal.close j;
      (* Flip one payload byte of the last record: its CRC no longer
         matches, so recovery must stop before it. *)
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let b = Bytes.of_string data in
      Bytes.set b (Bytes.length b - 1) 'X';
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      let r = Journal.recover ~path in
      check_bool "only the intact record survives" true
        (r.Journal.records = [ "good" ]);
      check_bool "corrupt frame dropped" true (r.Journal.dropped_bytes > 0))

(* ------------------------------------------------------------------ *)
(* Journaled batch runs: kill, resume, byte-identical transcript      *)
(* ------------------------------------------------------------------ *)

let batch_cfg = Versions.fixed Versions.v3_0
let batch_origin = Name.of_string_exn "journal.example"

let run_batch ?journal ?resume ?count () =
  let count = match count with Some c -> c | None -> 3 in
  Pipeline.verify_batch_run ~qtypes:[ Rr.A ] ~count ~seed:5 ?journal ?resume
    batch_cfg batch_origin

let test_batch_killed_and_resumed =
  fi (fun () ->
      let reference = run_batch () in
      (match reference.Pipeline.br_outcome with
      | Some (Pipeline.All_clean 3) -> ()
      | _ -> Alcotest.fail "reference batch must be all-clean");
      with_temp (fun path ->
          (* Tear the second item record: arrival 1 is the header,
             2 and 3 the first two items. *)
          Faultinject.arm ~after:3 Faultinject.Journal_torn;
          (match run_batch ~journal:path () with
          | _ -> Alcotest.fail "torn append must kill the run"
          | exception Faultinject.Injected _ -> ());
          Faultinject.reset ();
          let resumed = run_batch ~journal:path ~resume:true () in
          check_string "resumed transcript = uninterrupted transcript"
            reference.Pipeline.br_fingerprint resumed.Pipeline.br_fingerprint;
          check_int "one zone replayed from the journal" 1
            resumed.Pipeline.br_resumed_items;
          check_bool "torn tail truncated" true
            (resumed.Pipeline.br_dropped_bytes > 0);
          (* The journal is finalized now: replaying re-runs nothing. *)
          let replay = run_batch ~journal:path ~resume:true () in
          check_string "finalized replay transcript"
            reference.Pipeline.br_fingerprint replay.Pipeline.br_fingerprint;
          check_bool "everything replayed" true
            (List.for_all
               (fun (it : Pipeline.batch_item) -> it.Pipeline.bi_resumed)
               replay.Pipeline.br_items);
          (match replay.Pipeline.br_outcome with
          | Some (Pipeline.All_clean 3) -> ()
          | _ -> Alcotest.fail "finalized replay outcome");
          (* A different workload must not resume into this journal. *)
          match run_batch ~journal:path ~resume:true ~count:4 () with
          | _ -> Alcotest.fail "workload mismatch must be rejected"
          | exception Failure _ -> ()))

(* A journal whose first inconclusive zone ran out of solver steps and
   whose last hit the deadline: the batch stopped at the deadline, so
   the final line written on resume, the replayed transcript's final
   line and the outcome all name the deadline. Nothing is verified: the
   recorded deadline already ended the batch. *)
let test_batch_final_line_names_the_stop () =
  with_temp (fun path ->
      let header =
        Printf.sprintf
          "dnsv-batch v1 version=%s origin=%s count=3 seed=5 qtypes=A \
           retries=0"
          batch_cfg.Engine.Builder.version
          (Name.to_string batch_origin)
      in
      let steps = Budget.Solver_steps_exhausted { limit = 100 } in
      let deadline = Budget.Deadline_exceeded { limit_s = 1.5 } in
      let j = Journal.create ~path ~header in
      List.iteri
        (fun i reason ->
          Journal.append j
            (Printf.sprintf
               "item %d\nstatus inconclusive %s\nbudget 0 0 0 0\nzone %d\n" i
               (Budget.reason_to_wire reason)
               i))
        [ steps; deadline ];
      Journal.close j;
      let expected =
        "partial done=0 inconclusive=2 reason=" ^ Budget.reason_to_wire deadline
      in
      let resumed = run_batch ~journal:path ~resume:true () in
      check_bool "nothing re-verified" true
        (List.for_all
           (fun (it : Pipeline.batch_item) -> it.Pipeline.bi_resumed)
           resumed.Pipeline.br_items);
      check_bool "journal final line" true
        ((Journal.recover ~path).Journal.final = Some expected);
      let replay = run_batch ~journal:path ~resume:true () in
      let lines = String.split_on_char '\n' replay.Pipeline.br_fingerprint in
      check_string "transcript final line" expected
        (List.nth lines (List.length lines - 2));
      match replay.Pipeline.br_outcome with
      | Some (Pipeline.Partial { reason; _ }) ->
          check_string "outcome reason" (Budget.reason_to_wire deadline)
            (Budget.reason_to_wire reason)
      | _ -> Alcotest.fail "replayed outcome must be partial")

(* ------------------------------------------------------------------ *)
(* Chaos harness smoke                                                *)
(* ------------------------------------------------------------------ *)

let test_chaos_smoke =
  fi (fun () ->
      let o = Dnsv.Chaos.run ~seed:11 ~plans:6 () in
      check_bool "no soundness violations" true (Dnsv.Chaos.ok o);
      check_int "all plans ran" 6 o.Dnsv.Chaos.plans;
      check_bool "plans actually fired faults" true (o.Dnsv.Chaos.fired > 0))

let test_plan_sampler_deterministic () =
  for seed = 0 to 50 do
    let p1 = Dnsv.Chaos.plan_of_seed seed in
    let p2 = Dnsv.Chaos.plan_of_seed seed in
    check_bool "same seed, same plan" true (p1 = p2);
    check_bool "1-2 sites" true
      (List.length p1.Dnsv.Chaos.sites >= 1
      && List.length p1.Dnsv.Chaos.sites <= 2);
    check_bool "positive firing index" true (p1.Dnsv.Chaos.after >= 1)
  done

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cert"
    [
      ( "checker",
        [
          Alcotest.test_case "solver certificates validate" `Quick
            test_solver_certificates_validate;
          Alcotest.test_case "bogus certificates rejected" `Quick
            test_checker_rejects_bogus_certificates;
          Alcotest.test_case "zero-difference split certified" `Quick
            (fi test_zero_difference_certified);
          Alcotest.test_case "zero-difference split mutations rejected"
            `Quick test_zero_difference_mutations_rejected;
        ] );
      ( "caching",
        [
          Alcotest.test_case "corruption surfaces cert-invalid" `Quick
            test_corruption_surfaces_cert_invalid;
          Alcotest.test_case "validation memo: corruption still caught" `Quick
            test_memo_then_corruption_caught;
          Alcotest.test_case "validation memo: bogus certificate rejected"
            `Quick test_memo_bogus_cert_rejected;
          Alcotest.test_case "validation memo: keyed on the validator" `Quick
            test_memo_keyed_on_validator;
        ]
        @ qcheck
            [
              prop_cache_hit_equals_scratch;
              prop_unknown_never_cached;
              prop_corruption_always_caught;
            ] );
      ( "journal",
        [
          Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail truncated" `Quick
            test_journal_torn_tail_truncated;
          Alcotest.test_case "header mismatch rejected" `Quick
            test_journal_header_mismatch;
          Alcotest.test_case "corrupt payload dropped" `Quick
            test_journal_corrupt_payload_dropped;
        ] );
      ( "batch",
        [
          Alcotest.test_case "killed and resumed byte-identical" `Quick
            test_batch_killed_and_resumed;
          Alcotest.test_case "final line names the deadline stop" `Quick
            test_batch_final_line_names_the_stop;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan sampler deterministic" `Quick
            test_plan_sampler_deterministic;
          Alcotest.test_case "mini soak upholds the monotone" `Quick
            test_chaos_smoke;
        ] );
    ]
