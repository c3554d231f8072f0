(* Robustness tests: resource budgets, fault injection, and graceful
   degradation across the verification pipeline.

   Every forced failure mode must yield an [Inconclusive] verdict with a
   machine-readable reason — never an uncaught exception, never a false
   "clean", and never a false refutation of a correct engine. *)

module Rr = Dns.Rr
module Name = Dns.Name
module Versions = Engine.Versions
module Check = Refine.Check
module Pipeline = Dnsv.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* All faults are global state: run each test from a clean slate and
   leave one behind even on failure. *)
let fi (f : unit -> unit) () =
  Faultinject.reset ();
  Fun.protect ~finally:Faultinject.reset f

let clean_cfg = Versions.fixed Versions.v3_0
let zone = Spec.Fixtures.figure11_zone

let status_tag = function
  | Budget.Proved -> "proved"
  | Budget.Refuted _ -> "refuted"
  | Budget.Inconclusive reason -> "inconclusive:" ^ Budget.reason_tag reason

(* ------------------------------------------------------------------ *)
(* Fault-injection substrate                                          *)
(* ------------------------------------------------------------------ *)

let test_seeded_arming_deterministic () =
  let firing_index () =
    Faultinject.arm_seeded ~seed:7 ~window:10 Faultinject.Solver_unknown;
    let fired = ref 0 in
    for i = 1 to 10 do
      if Faultinject.fire Faultinject.Solver_unknown then fired := i
    done;
    Faultinject.reset ();
    !fired
  in
  let i1 = firing_index () in
  let i2 = firing_index () in
  check_bool "fires within window" true (i1 >= 1 && i1 <= 10);
  check_int "same seed, same plan" i1 i2

let test_one_shot_disarms () =
  Faultinject.arm ~after:2 Faultinject.Exec_fuel;
  check_bool "1st arrival holds" false (Faultinject.fire Faultinject.Exec_fuel);
  check_bool "2nd arrival fires" true (Faultinject.fire Faultinject.Exec_fuel);
  check_bool "disarmed afterwards" false (Faultinject.armed Faultinject.Exec_fuel);
  check_bool "3rd arrival holds" false (Faultinject.fire Faultinject.Exec_fuel)

(* ------------------------------------------------------------------ *)
(* Forced solver Unknown: inconclusive, never clean, never refuted    *)
(* ------------------------------------------------------------------ *)

let test_forced_unknown_never_clean () =
  Faultinject.arm ~after:50 Faultinject.Solver_unknown;
  let v = Pipeline.verify ~qtypes:[ Rr.A ] ~check_layers:false clean_cfg zone in
  check_bool "not clean" false (Pipeline.clean v);
  (match Pipeline.status v with
  | Budget.Inconclusive _ -> ()
  | s -> Alcotest.failf "expected inconclusive, got %s" (status_tag s));
  (* A correct engine must not be refuted because the solver shrugged. *)
  check_bool "no fabricated counterexamples" true
    (List.for_all
       (fun (r : Check.report) -> r.Check.mismatches = [] && r.Check.panics = [])
       v.Pipeline.reports)

let test_persistent_unknown_counted () =
  Faultinject.arm ~persistent:true ~after:1 Faultinject.Solver_unknown;
  let r = Check.check_version clean_cfg zone ~qtype:Rr.A in
  (match Check.status r with
  | Budget.Inconclusive _ -> ()
  | s -> Alcotest.failf "expected inconclusive, got %s" (status_tag s));
  check_bool "unknowns surfaced in the report" true
    (r.Check.unknowns > 0 || r.Check.inconclusive <> None)

(* ------------------------------------------------------------------ *)
(* Budget exhaustion                                                  *)
(* ------------------------------------------------------------------ *)

(* Exhaustion inside the summarization phase surfaces as a summary
   failure, which triggers one automatic Inline_all fallback under a
   ×2-escalated budget — so the reported limit may be the base or the
   escalated one, but the reason must stay machine-readable. *)

let test_solver_steps_exhausted () =
  let budget = Budget.create ~solver_steps:100 () in
  let r = Check.check_version ~budget clean_cfg zone ~qtype:Rr.A in
  match r.Check.inconclusive with
  | Some (Budget.Solver_steps_exhausted { limit }) ->
      check_bool "reports base or escalated limit" true
        (limit = 100 || limit = 200)
  | other ->
      Alcotest.failf "expected solver-steps-exhausted, got %s"
        (match other with
        | Some reason -> Budget.reason_tag reason
        | None -> "conclusive report")

let test_path_cap_exceeded () =
  let budget = Budget.create ~max_paths:5 () in
  let r = Check.check_version ~budget clean_cfg zone ~qtype:Rr.A in
  match r.Check.inconclusive with
  | Some (Budget.Path_cap_exceeded { limit }) ->
      check_bool "reports base or escalated cap" true (limit = 5 || limit = 10)
  | other ->
      Alcotest.failf "expected path-cap-exceeded, got %s"
        (match other with
        | Some reason -> Budget.reason_tag reason
        | None -> "conclusive report")

let test_fuel_exhausted () =
  let budget = Budget.create ~fuel:500 () in
  let r = Check.check_version ~budget clean_cfg zone ~qtype:Rr.A in
  match r.Check.inconclusive with
  | Some (Budget.Fuel_exhausted _) -> ()
  | other ->
      Alcotest.failf "expected fuel-exhausted, got %s"
        (match other with
        | Some reason -> Budget.reason_tag reason
        | None -> "conclusive report")

let test_injected_fuel_is_isolated () =
  (* One-shot fuel fault on the first query type: its report degrades to
     inconclusive, the second query type still verifies. *)
  Faultinject.arm ~after:1 Faultinject.Exec_fuel;
  let v =
    Pipeline.verify ~qtypes:[ Rr.A; Rr.MX ] ~check_layers:false clean_cfg zone
  in
  check_int "both reports present" 2 (List.length v.Pipeline.reports);
  let ra = List.nth v.Pipeline.reports 0 in
  let rmx = List.nth v.Pipeline.reports 1 in
  check_bool "first qtype inconclusive" true (ra.Check.inconclusive <> None);
  check_string "second qtype proved" "proved" (status_tag (Check.status rmx));
  check_bool "verdict not clean" false (Pipeline.clean v)

let test_clock_overrun_hits_deadline () =
  let budget = Budget.create ~deadline_s:3600.0 () in
  Faultinject.arm ~after:1 Faultinject.Clock_overrun;
  let r = Check.check_version ~budget clean_cfg zone ~qtype:Rr.A in
  match r.Check.inconclusive with
  | Some (Budget.Deadline_exceeded _) -> ()
  | other ->
      Alcotest.failf "expected deadline-exceeded, got %s"
        (match other with
        | Some reason -> Budget.reason_tag reason
        | None -> "conclusive report")

(* ------------------------------------------------------------------ *)
(* Retry with escalation                                              *)
(* ------------------------------------------------------------------ *)

let test_retry_escalation_recovers () =
  (* 2500 solver steps are not enough for qtype A on the reference zone
     (≈2750 needed); one geometric escalation (×2) is. Below ≈2325 the
     budget runs out inside a summarization instead, which falls back
     to inlining under a ×2 budget without a retry. *)
  let budget = Budget.create ~solver_steps:2500 () in
  let v =
    Pipeline.verify ~qtypes:[ Rr.A ] ~check_layers:false ~budget ~retries:3
      clean_cfg Spec.Fixtures.reference_zone
  in
  check_string "proved after escalation" "proved" (status_tag (Pipeline.status v));
  check_bool "at least one escalation recorded" true (v.Pipeline.retries >= 1)

let test_retryable_classification () =
  (* Resource exhaustion is worth retrying under a bigger budget;
     injected faults and internal errors are not. *)
  List.iter
    (fun (expected, reason) ->
      check_bool (Budget.reason_tag reason) expected (Budget.retryable reason))
    [
      (true, Budget.Deadline_exceeded { limit_s = 1.0 });
      (true, Budget.Solver_steps_exhausted { limit = 1 });
      (true, Budget.Path_cap_exceeded { limit = 1 });
      (true, Budget.Fuel_exhausted { limit = 1 });
      (true, Budget.Solver_unknowns { count = 1 });
      (true, Budget.Summary_failed "s");
      (false, Budget.Injected_fault "f");
      (false, Budget.Internal_error "e");
    ]

(* ------------------------------------------------------------------ *)
(* Summary failure: graceful degradation to Inline_all                *)
(* ------------------------------------------------------------------ *)

let test_summary_failure_falls_back () =
  (* Baseline: the seeded bug-8 witness refutes v3.0 on qtype A. *)
  let w = Spec.Fixtures.witness 8 in
  let baseline = Check.check_version Versions.v3_0 w.Spec.Fixtures.zone ~qtype:Rr.A in
  check_string "baseline refuted" "refuted" (status_tag (Check.status baseline));
  check_bool "baseline found mismatches" true (baseline.Check.mismatches <> []);
  (* Same check with summarization raising mid-flight: it must degrade
     to Inline_all automatically and reach the same verdict. *)
  Faultinject.arm ~after:1 Faultinject.Summarize_raise;
  let degraded = Check.check_version Versions.v3_0 w.Spec.Fixtures.zone ~qtype:Rr.A in
  check_bool "fallback recorded" true degraded.Check.summary_fallback;
  check_string "same verdict" "refuted" (status_tag (Check.status degraded));
  check_int "same mismatches"
    (List.length baseline.Check.mismatches)
    (List.length degraded.Check.mismatches)

let test_summary_validation_failure_falls_back () =
  Faultinject.arm ~after:1 Faultinject.Summary_invalid;
  let r = Check.check_version clean_cfg zone ~qtype:Rr.A in
  check_bool "fallback recorded" true r.Check.summary_fallback;
  check_string "still proved" "proved" (status_tag (Check.status r))

let test_summary_failure_without_fallback () =
  Faultinject.arm ~after:1 Faultinject.Summarize_raise;
  let r = Check.check_version ~fallback:false clean_cfg zone ~qtype:Rr.A in
  match r.Check.inconclusive with
  | Some (Budget.Summary_failed _) -> ()
  | other ->
      Alcotest.failf "expected summary-failed, got %s"
        (match other with
        | Some reason -> Budget.reason_tag reason
        | None -> "conclusive report")

(* ------------------------------------------------------------------ *)
(* Batch verification under a shared deadline                         *)
(* ------------------------------------------------------------------ *)

let test_batch_partial_under_deadline () =
  let budget = Budget.create ~deadline_s:0.3 () in
  match
    Pipeline.verify_batch ~qtypes:[ Rr.A ] ~count:20 ~seed:11 ~budget clean_cfg
      (Name.of_string_exn "batch.example")
  with
  | Pipeline.Partial { zones_done; reason = Budget.Deadline_exceeded _; _ } ->
      check_bool "stopped before finishing" true (zones_done < 20)
  | Pipeline.Partial { reason; _ } ->
      Alcotest.failf "partial for the wrong reason: %s"
        (Budget.reason_tag reason)
  | Pipeline.All_clean _ ->
      Alcotest.fail "a 0.3s deadline cannot cover 20 zones"
  | Pipeline.Failed { zone_index; verdict } ->
      Alcotest.failf "zone %d spuriously refuted:@.%s" zone_index
        (Pipeline.verdict_to_string verdict)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "robustness"
    [
      ( "faultinject",
        [
          Alcotest.test_case "seeded arming is deterministic" `Quick
            (fi test_seeded_arming_deterministic);
          Alcotest.test_case "one-shot plans disarm" `Quick
            (fi test_one_shot_disarms);
        ] );
      ( "unknowns",
        [
          Alcotest.test_case "forced Unknown is never clean" `Quick
            (fi test_forced_unknown_never_clean);
          Alcotest.test_case "persistent Unknown surfaces in report" `Quick
            (fi test_persistent_unknown_counted);
        ] );
      ( "budgets",
        [
          Alcotest.test_case "solver-step budget" `Quick
            (fi test_solver_steps_exhausted);
          Alcotest.test_case "path cap" `Quick (fi test_path_cap_exceeded);
          Alcotest.test_case "fuel budget" `Quick (fi test_fuel_exhausted);
          Alcotest.test_case "injected fuel fault is per-qtype isolated"
            `Quick (fi test_injected_fuel_is_isolated);
          Alcotest.test_case "clock overrun trips the deadline" `Quick
            (fi test_clock_overrun_hits_deadline);
        ] );
      ( "escalation",
        [
          Alcotest.test_case "retry under escalated budget recovers" `Slow
            (fi test_retry_escalation_recovers);
          Alcotest.test_case "retryable classification" `Quick
            (fi test_retryable_classification);
        ] );
      ( "degradation",
        [
          Alcotest.test_case "summary raise falls back to inlining" `Slow
            (fi test_summary_failure_falls_back);
          Alcotest.test_case "summary validation failure falls back" `Quick
            (fi test_summary_validation_failure_falls_back);
          Alcotest.test_case "no fallback means inconclusive" `Quick
            (fi test_summary_failure_without_fallback);
        ] );
      ( "batch",
        [
          Alcotest.test_case "tight deadline yields partial results" `Slow
            (fi test_batch_partial_under_deadline);
        ] );
    ]
