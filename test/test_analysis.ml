(* Static-analysis tests.

   The load-bearing properties:

   - Soundness: every concrete interpreter run stays inside the abstract
     states — at each block entry the live frame and memory are members
     of the analysis' computed in-state (γ-membership), over random
     inputs and programs exercising loops, arrays, pointers and
     branches.
   - Prune invariance: verification fingerprints are byte-identical
     with the analysis off, trusted, and distrusted, over engine
     versions and under seeded fault plans — the analysis accelerates
     the pipeline, it never changes what is proved.
   - Discharge rate: a meaningful fraction of panic-guard branches is
     discharged statically (the ≥20%% acceptance floor, with margin;
     ≥70%% on the re-verification workload, where Distrust must refute
     no interprocedural claim).
   - Lint determinism, including independence from parallel verify runs
     that warm the domain-local memos.
   - Wellform rejects straight-line use-before-assignment. *)

module Instr = Minir.Instr
module Interp = Minir.Interp
module Value = Minir.Value
module Ty = Minir.Ty

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qcheck = List.map QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Interval algebra                                                   *)
(* ------------------------------------------------------------------ *)

let interval_gen =
  (* Bot, points, finite ranges, and half-open ranges. *)
  QCheck.Gen.(
    let pt = map Analysis.Interval.of_int (int_range (-20) 20) in
    let range =
      map2
        (fun a b -> Analysis.Interval.I (Some (min a b), Some (max a b)))
        (int_range (-20) 20) (int_range (-20) 20)
    in
    let half =
      map2
        (fun a hi ->
          if hi then Analysis.Interval.I (None, Some a)
          else Analysis.Interval.I (Some a, None))
        (int_range (-20) 20) bool
    in
    frequency
      [
        (1, return Analysis.Interval.Bot);
        (1, return Analysis.Interval.top);
        (3, pt);
        (4, range);
        (2, half);
      ])

let interval_arb = QCheck.make interval_gen

let prop_interval_join_sound =
  QCheck.Test.make ~name:"interval: join is an upper bound" ~count:500
    (QCheck.triple interval_arb interval_arb (QCheck.int_range (-25) 25))
    (fun (i, j, n) ->
      let open Analysis.Interval in
      QCheck.assume (mem n i || mem n j);
      mem n (join i j))

let prop_interval_meet_sound =
  QCheck.Test.make ~name:"interval: meet is the intersection" ~count:500
    (QCheck.triple interval_arb interval_arb (QCheck.int_range (-25) 25))
    (fun (i, j, n) ->
      let open Analysis.Interval in
      mem n (meet i j) = (mem n i && mem n j))

let prop_interval_widen_sound =
  QCheck.Test.make ~name:"interval: widen covers the join" ~count:500
    (QCheck.triple interval_arb interval_arb (QCheck.int_range (-25) 25))
    (fun (i, j, n) ->
      let open Analysis.Interval in
      QCheck.assume (mem n i || mem n j);
      mem n (widen i (join i j)))

(* ------------------------------------------------------------------ *)
(* Soundness: concrete runs stay inside the abstract states           *)
(* ------------------------------------------------------------------ *)

(* Small Golite programs covering the domains: interval loops, array
   bounds checks, pointer nullness, definite initialization. Each takes
   two int arguments. *)
let soundness_sources =
  [
    ( "loops",
      "func main(n int, m int) int {\n\
      \  var t int = m\n\
      \  var i int = 0\n\
      \  while i < n {\n\
      \    t = t + i\n\
      \    if t > 100 {\n\
      \      t = 0\n\
      \    }\n\
      \    i = i + 1\n\
      \  }\n\
      \  return t\n\
       }\n" );
    ( "arrays",
      "func main(n int, m int) int {\n\
      \  var xs [4]int\n\
      \  var i int = 0\n\
      \  while i < 4 {\n\
      \    xs[i] = m + i\n\
      \    i = i + 1\n\
      \  }\n\
      \  if n >= 0 {\n\
      \    if n < 4 {\n\
      \      return xs[n]\n\
      \    }\n\
      \  }\n\
      \  return 0\n\
       }\n" );
    ( "pointers",
      "struct P {\n\
      \  x int\n\
      \  y int\n\
       }\n\n\
       func main(n int, m int) int {\n\
      \  var p *P = new(P)\n\
      \  p.x = n\n\
      \  if m > 0 {\n\
      \    p.y = m\n\
      \  }\n\
      \  return p.x + p.y\n\
       }\n" );
    ( "branches",
      "func main(n int, m int) int {\n\
      \  var a int = 0\n\
      \  if n < m {\n\
      \    a = m - n\n\
      \  } else {\n\
      \    a = n - m\n\
      \  }\n\
      \  if a > 0 {\n\
      \    return a\n\
      \  }\n\
      \  return 0 - a\n\
       }\n" );
  ]

let soundness_progs =
  lazy
    (List.map
       (fun (name, src) ->
         ( name,
           Golite.Compile.compile (Golite.Parse.program_of_string_exn src) ))
       soundness_sources)

let prop_concrete_inside_abstract =
  QCheck.Test.make ~name:"soundness: concrete runs inside abstract states"
    ~count:100
    (QCheck.pair (QCheck.int_range (-8) 8) (QCheck.int_range (-8) 8))
    (fun (n, m) ->
      List.for_all
        (fun (name, prog) ->
          let summary = Analysis.analyze prog in
          let failures = ref [] in
          let observer fn label frame mem =
            (if not (Analysis.reachable summary ~fn ~label) then
               failures :=
                 Printf.sprintf "%s: reached %s/%s proved unreachable" name fn
                   label
                 :: !failures);
            match Analysis.in_state summary ~fn ~label with
            | None ->
                failures :=
                  Printf.sprintf "%s: no state for %s/%s" name fn label
                  :: !failures
            | Some st -> (
                let lookup r = Hashtbl.find_opt frame r in
                let load p =
                  match Value.load mem p with
                  | v -> Some v
                  | exception _ -> None
                in
                match Analysis.check_concrete st ~lookup ~load with
                | Ok () -> ()
                | Error msg ->
                    failures :=
                      Printf.sprintf "%s: %s/%s: %s" name fn label msg
                      :: !failures)
          in
          (match
             Interp.run ~observer prog ~memory:Value.empty_memory ~fn:"main"
               ~args:[ Value.VInt n; Value.VInt m ]
           with
          | Interp.Returned _ | Interp.Panicked _ -> ()
          | exception Interp.Out_of_fuel -> ());
          match !failures with
          | [] -> true
          | msgs -> QCheck.Test.fail_report (String.concat "\n" msgs))
        (Lazy.force soundness_progs))

(* Interprocedural soundness: multi-function programs where the facts
   at block entries depend on call summaries being applied at call
   sites (including a mutually-recursive SCC, where the summaries are
   a widened fixpoint). The observer fires in every function, so a
   summary that over-narrows any callee or caller fails the γ-check. *)
let call_soundness_sources =
  [
    ( "chain",
      "func leaf(x int) int {\n\
      \  if x < 0 {\n\
      \    return 0 - x\n\
      \  }\n\
      \  return x\n\
       }\n\n\
       func mid(a int, b int) int {\n\
      \  var s int = leaf(a) + leaf(b)\n\
      \  if s < 0 {\n\
      \    panic(\"negative sum of absolutes\")\n\
      \  }\n\
      \  return s\n\
       }\n\n\
       func main(n int, m int) int {\n\
      \  return mid(n, m) + leaf(n - m)\n\
       }\n" );
    ( "cycle",
      "func isEven(n int) bool {\n\
      \  if n == 0 {\n\
      \    return true\n\
      \  }\n\
      \  return isOdd(n - 1)\n\
       }\n\n\
       func isOdd(n int) bool {\n\
      \  if n == 0 {\n\
      \    return false\n\
      \  }\n\
      \  return isEven(n - 1)\n\
       }\n\n\
       func main(n int, m int) int {\n\
      \  var k int = n\n\
      \  if k < 0 {\n\
      \    k = 0 - k\n\
      \  }\n\
      \  if isEven(k) {\n\
      \    return m\n\
      \  }\n\
      \  return m + 1\n\
       }\n" );
  ]

let call_soundness_progs =
  lazy
    (List.map
       (fun (name, src) ->
         ( name,
           Golite.Compile.compile (Golite.Parse.program_of_string_exn src) ))
       call_soundness_sources)

let prop_concrete_inside_abstract_calls =
  QCheck.Test.make
    ~name:"soundness: concrete runs inside abstract states across calls"
    ~count:60
    (QCheck.pair (QCheck.int_range (-8) 8) (QCheck.int_range (-8) 8))
    (fun (n, m) ->
      List.for_all
        (fun (name, prog) ->
          let summary = Analysis.analyze prog in
          let failures = ref [] in
          let observer fn label frame mem =
            (if not (Analysis.reachable summary ~fn ~label) then
               failures :=
                 Printf.sprintf "%s: reached %s/%s proved unreachable" name fn
                   label
                 :: !failures);
            match Analysis.in_state summary ~fn ~label with
            | None ->
                failures :=
                  Printf.sprintf "%s: no state for %s/%s" name fn label
                  :: !failures
            | Some st -> (
                let lookup r = Hashtbl.find_opt frame r in
                let load p =
                  match Value.load mem p with
                  | v -> Some v
                  | exception _ -> None
                in
                match Analysis.check_concrete st ~lookup ~load with
                | Ok () -> ()
                | Error msg ->
                    failures :=
                      Printf.sprintf "%s: %s/%s: %s" name fn label msg
                      :: !failures)
          in
          (match
             Interp.run ~observer prog ~memory:Value.empty_memory ~fn:"main"
               ~args:[ Value.VInt n; Value.VInt m ]
           with
          | Interp.Returned _ | Interp.Panicked _ -> ()
          | exception Interp.Out_of_fuel -> ());
          match !failures with
          | [] -> true
          | msgs -> QCheck.Test.fail_report (String.concat "\n" msgs))
        (Lazy.force call_soundness_progs))

(* The widened fixpoint of a recursive SCC must cover every concrete
   return: [count] returns exactly its (clamped) argument, so any
   sound summary admits 0..10, claims purity, and cannot prove a panic
   away (there is none to prove). *)
let test_scc_fixpoint_sound () =
  let src =
    "func count(n int) int {\n\
    \  if n <= 0 {\n\
    \    return 0\n\
    \  }\n\
    \  return count(n - 1) + 1\n\
     }\n\n\
     func main(n int) int {\n\
    \  return count(n)\n\
     }\n"
  in
  let prog = Golite.Compile.compile (Golite.Parse.program_of_string_exn src) in
  let summary = Analysis.analyze prog in
  match Analysis.rsummary_of summary "count" with
  | None -> Alcotest.fail "no summary for count"
  | Some rs ->
      check_bool "count returns" true rs.Analysis.rs_returns;
      check_bool "count is pure" true rs.Analysis.rs_pure;
      (match rs.Analysis.rs_ret with
      | Analysis.AInt itv ->
          for k = 0 to 10 do
            check_bool
              (Printf.sprintf "concrete count(%d) = %d inside rs_ret" k k)
              true
              (Analysis.Interval.mem k itv)
          done
      | _ -> Alcotest.fail "count summary has no integer return");
      (* And the cycle twin: the mutual recursion from the QCheck
         sources converges to a summary that still admits both
         booleans (a sound fixpoint cannot pin a parity). *)
      let cycle = List.assoc "cycle" (Lazy.force call_soundness_progs) in
      let s2 = Analysis.analyze cycle in
      List.iter
        (fun fn ->
          match Analysis.rsummary_of s2 fn with
          | Some rs ->
              check_bool (fn ^ " returns") true rs.Analysis.rs_returns;
              check_bool
                (fn ^ " cannot pin parity")
                true
                (match rs.Analysis.rs_ret with
                | Analysis.ABool Analysis.Tribool.TTop | Analysis.ATop -> true
                | _ -> false)
          | None -> Alcotest.fail ("no summary for " ^ fn))
        [ "isEven"; "isOdd" ]

(* The engine versions themselves: the abstract states must admit the
   concrete frames the real resolver produces on a reference query. *)
let test_soundness_engine () =
  List.iter
    (fun cfg ->
      let prog = Engine.Versions.compiled cfg in
      let summary = Analysis.summarize prog in
      let violations = ref 0 and observed = ref 0 in
      let observer fn label frame mem =
        incr observed;
        match Analysis.in_state summary ~fn ~label with
        | None -> incr violations
        | Some st -> (
            let lookup r = Hashtbl.find_opt frame r in
            let load p =
              match Value.load mem p with v -> Some v | exception _ -> None
            in
            match Analysis.check_concrete st ~lookup ~load with
            | Ok () -> ()
            | Error msg ->
                incr violations;
                Printf.eprintf "%s: %s/%s: %s\n" cfg.Engine.Builder.version fn
                  label msg)
      in
      let zone = Spec.Fixtures.reference_zone in
      let q = Dns.Message.query (Dns.Name.of_string_exn "www.example.com") Dns.Rr.A in
      (match Engine.Versions.run ~observer cfg zone q with
      | Engine.Versions.Response _ | Engine.Versions.Engine_panic _ -> ());
      check_bool
        (cfg.Engine.Builder.version ^ ": block entries observed")
        true (!observed > 0);
      check_int (cfg.Engine.Builder.version ^ ": soundness violations") 0
        !violations)
    Engine.Versions.all

(* ------------------------------------------------------------------ *)
(* Facts memo                                                         *)
(* ------------------------------------------------------------------ *)

(* Facts are a function of (program, env) alone, whatever the facts
   memo holds: v3.0-fixed under the engine env and the window envs of
   its summarized layers (every pointer argument live), each analyzed
   from a cleared memo and again after the other envs, in both orders,
   gives every label the same entry state and every conditional branch
   the same [branch_info], [bi_interproc] included. *)
let test_facts_memo_invariant () =
  let prog =
    Engine.Versions.compiled (Engine.Versions.fixed Engine.Versions.v3_0)
  in
  let func fn =
    List.find (fun (f : Instr.func) -> f.Instr.fn_name = fn) prog.Instr.funcs
  in
  let window fn =
    Symex.Summary.window_env fn
      (List.map
         (fun (_, ty) ->
           match (ty : Ty.t) with
           | Ty.I1 | Ty.I64 -> Symex.Sval.SInt (Smt.Term.int 0)
           | _ -> Symex.Sval.SPtr { Value.block = 1; path = [] })
         (func fn).Instr.params)
  in
  let envs =
    ("engine", Refine.Check.engine_env ())
    :: List.map (fun fn -> (fn, window fn)) Engine.Builder.summarized_layers
  in
  let facts env =
    let s = Analysis.analyze ~env prog in
    List.concat_map
      (fun (f : Instr.func) ->
        let fn = f.Instr.fn_name in
        let ff = Analysis.func_facts s fn in
        List.map
          (fun (l, b) ->
            ( (fn, l),
              Analysis.in_state s ~fn ~label:l,
              Option.bind ff (fun ff -> Analysis.branch_info ff b) ))
          f.Instr.blocks)
      prog.Instr.funcs
  in
  let cold =
    List.map
      (fun (name, env) ->
        Analysis.clear_memo ();
        (name, facts env))
      envs
  in
  let same name order warm =
    List.iter2
      (fun ((fn, l), st, bi) ((_, _), st', bi') ->
        let what = Printf.sprintf "%s %s: %s/%s" order name fn l in
        check_bool (what ^ " in_state") true
          (match (st, st') with
          | Some a, Some b -> Analysis.state_equal a b
          | None, None -> true
          | _ -> false);
        check_bool (what ^ " branch_info") true (bi = bi'))
      (List.assoc name cold) warm
  in
  List.iter
    (fun (order, envs) ->
      Analysis.clear_memo ();
      List.iter (fun (name, env) -> same name order (facts env)) envs)
    [ ("forward", envs); ("backward", List.rev envs) ];
  Analysis.clear_memo ()

(* ------------------------------------------------------------------ *)
(* Prune invariance                                                   *)
(* ------------------------------------------------------------------ *)

let qtypes = [ Dns.Rr.A; Dns.Rr.MX ]

let scrub () =
  Faultinject.reset ();
  Smt.Solver.clear_caches ();
  Dnsv.Pipeline.clear_summary_memo ();
  Analysis.clear_memo ()

(* The re-verification workload: the four fixed engine versions, two
   passes each (interleaved, so the second pass runs on warm caches),
   over the reference zone with every query type and no layers, from
   cold caches. Returns the verdict fingerprints and the metrics delta;
   each policy's run is shared by the tests below. *)
let reverify_workload analysis =
  scrub ();
  let m0 = Trace.Metrics.snapshot () in
  let versions =
    List.map Engine.Versions.fixed Engine.Versions.[ v1_0; v2_0; v3_0; dev ]
  in
  let fps =
    List.map
      (fun cfg ->
        Dnsv.Pipeline.verify ~check_layers:false ~budget:(Budget.create ())
          ~analysis cfg Spec.Fixtures.reference_zone
        |> Dnsv.Pipeline.fingerprint)
      (versions @ versions)
  in
  (String.concat "\n" fps, Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0)

let reverify_off = lazy (reverify_workload Analysis.Off)
let reverify_trust = lazy (reverify_workload Analysis.Trust)
let reverify_distrust = lazy (reverify_workload Analysis.Distrust)

let test_prune_invariance_versions () =
  let off = fst (Lazy.force reverify_off) in
  check_string "reverify workload: trust = off" off
    (fst (Lazy.force reverify_trust));
  check_string "reverify workload: distrust = off" off
    (fst (Lazy.force reverify_distrust));
  let zone = Spec.Fixtures.reference_zone in
  List.iter
    (fun cfg ->
      let run analysis =
        scrub ();
        Dnsv.Pipeline.verify ~qtypes ~check_layers:false
          ~budget:(Budget.create ()) ~analysis cfg zone
        |> Dnsv.Pipeline.fingerprint
      in
      let off = run Analysis.Off in
      check_string
        (cfg.Engine.Builder.version ^ ": trust = off")
        off (run Analysis.Trust);
      check_string
        (cfg.Engine.Builder.version ^ ": distrust = off")
        off (run Analysis.Distrust))
    (* v1.0 refutes on the reference zone, its fixed twin proves: the
       invariance covers both verdict shapes. *)
    [ Engine.Versions.v1_0; Engine.Versions.fixed Engine.Versions.v1_0 ]

(* Under seeded fault plans the comparison arm is Distrust (same solver
   call sequence as Off, so the same plan lands on the same calls); a
   fault may degrade the verdict, but identically in both arms. *)
let test_prune_invariance_fault_seeds () =
  let zone = Spec.Fixtures.reference_zone in
  let cfg = Engine.Versions.fixed Engine.Versions.v1_0 in
  for seed = 1 to 6 do
    let run analysis =
      scrub ();
      Dnsv.Chaos.arm_plan (Dnsv.Chaos.plan_of_seed seed);
      match
        Dnsv.Pipeline.verify ~qtypes ~check_layers:false
          ~budget:(Budget.create ()) ~analysis cfg zone
      with
      | v -> Dnsv.Pipeline.fingerprint v
      | exception Faultinject.Injected site -> "injected:" ^ site
    in
    let off = run Analysis.Off in
    check_string
      (Printf.sprintf "fault seed %d: distrust = off" seed)
      off (run Analysis.Distrust)
  done;
  scrub ()

(* ------------------------------------------------------------------ *)
(* Discharge rate and cross-check cleanliness                         *)
(* ------------------------------------------------------------------ *)

let test_discharge_rate () =
  scrub ();
  let m0 = Trace.Metrics.snapshot () in
  let zone = Spec.Fixtures.reference_zone in
  let cfg = Engine.Versions.fixed Engine.Versions.v1_0 in
  ignore
    (Dnsv.Pipeline.verify ~qtypes ~check_layers:false
       ~budget:(Budget.create ()) ~analysis:Analysis.Trust cfg zone);
  let d = Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0 in
  let checks = Trace.Metrics.get d "analysis.panic_checks" in
  let discharged = Trace.Metrics.get d "analysis.panic_discharged" in
  check_bool "panic checks seen" true (checks > 0);
  (* The acceptance floor is 20%; the engines sit around 70%. *)
  check_bool
    (Printf.sprintf "discharge rate %d/%d >= 20%%" discharged checks)
    true
    (discharged * 5 >= checks);
  (* The interprocedural layer must carry some of those discharges:
     claims the plain intraprocedural facts could not make. *)
  check_bool "interprocedural discharges seen" true
    (Trace.Metrics.get d "analysis.ip_discharged" > 0);
  (* On the re-verification workload the interprocedural layer must
     discharge at least 70% of the panic-guard checks (the
     intraprocedural layer alone managed ~53%). *)
  let d = snd (Lazy.force reverify_trust) in
  let checks = Trace.Metrics.get d "analysis.panic_checks" in
  let discharged = Trace.Metrics.get d "analysis.panic_discharged" in
  check_bool
    (Printf.sprintf "reverify workload: discharge rate %d/%d >= 70%%"
       discharged checks)
    true
    (checks > 0 && float_of_int discharged >= 0.70 *. float_of_int checks)

let test_distrust_crosscheck_clean () =
  scrub ();
  let m0 = Trace.Metrics.snapshot () in
  let zone = Spec.Fixtures.reference_zone in
  let cfg = Engine.Versions.fixed Engine.Versions.v1_0 in
  ignore
    (Dnsv.Pipeline.verify ~qtypes:[ Dns.Rr.A ] ~check_layers:false
       ~budget:(Budget.create ()) ~analysis:Analysis.Distrust cfg zone);
  let d = Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0 in
  check_bool "cross-checks performed" true
    (Trace.Metrics.get d "analysis.crosscheck_pass" > 0);
  check_int "cross-check mismatches" 0
    (Trace.Metrics.get d "analysis.crosscheck_mismatch");
  check_bool "interprocedural claims cross-checked" true
    (Trace.Metrics.get d "analysis.ip_crosscheck" > 0);
  check_int "interprocedural cross-check mismatches" 0
    (Trace.Metrics.get d "analysis.ip_crosscheck_mismatch");
  let d = snd (Lazy.force reverify_distrust) in
  check_bool "reverify workload: interprocedural claims cross-checked" true
    (Trace.Metrics.get d "analysis.ip_crosscheck" > 0);
  check_int "reverify workload: interprocedural claims refuted" 0
    (Trace.Metrics.get d "analysis.ip_crosscheck_mismatch")

(* ------------------------------------------------------------------ *)
(* Lint                                                               *)
(* ------------------------------------------------------------------ *)

let lint_json prog = Analysis.Lint.to_json (Analysis.Lint.run prog)

let test_lint_deterministic () =
  List.iter
    (fun cfg ->
      let prog = Engine.Versions.compiled cfg in
      check_string
        (cfg.Engine.Builder.version ^ ": lint is deterministic")
        (lint_json prog) (lint_json prog))
    Engine.Versions.all

let test_lint_engines_clean () =
  List.iter
    (fun cfg ->
      let findings = Analysis.Lint.run (Engine.Versions.compiled cfg) in
      check_int
        (cfg.Engine.Builder.version ^ ": no lint findings")
        0
        (List.length findings))
    Engine.Versions.all

(* Lint output is independent of parallel verify runs warming the
   domain-local memos (the `--jobs` independence gate). *)
let test_lint_jobs_independent () =
  let cfg = Engine.Versions.fixed Engine.Versions.v1_0 in
  let prog = Engine.Versions.compiled cfg in
  let before = lint_json prog in
  ignore
    (Dnsv.Pipeline.verify ~qtypes ~check_layers:false
       ~budget:(Budget.create ()) ~jobs:4 cfg Spec.Fixtures.reference_zone);
  check_string "lint unchanged after jobs=4 verify" before (lint_json prog)

(* The linter catches seeded bugs (the examples/lint_demo.ml program). *)
let test_lint_catches_seeded_bugs () =
  let src =
    "func sumFirst(xs [4]int) int {\n\
    \  var total int = 0\n\
    \  var i int = 0\n\
    \  while i <= 4 {\n\
    \    total = total + xs[i]\n\
    \    i = i + 1\n\
    \  }\n\
    \  return total\n\
     }\n\n\
     func scale(x int) int {\n\
    \  var tmp int = 0\n\
    \  if x > 0 {\n\
    \    tmp = x * 3\n\
    \  }\n\
    \  return x * 2\n\
     }\n"
  in
  let prog = Golite.Compile.compile (Golite.Parse.program_of_string_exn src) in
  let findings = Analysis.Lint.run prog in
  let has rule fn =
    List.exists
      (fun (f : Analysis.Lint.finding) ->
        f.Analysis.Lint.rule = rule && f.Analysis.Lint.fn = fn)
      findings
  in
  check_bool "off-by-one caught" true (has "reachable-panic" "sumFirst");
  check_bool "dead store caught" true (has "dead-store" "scale");
  check_int "exactly the seeded bugs" 2 (List.length findings)

(* ------------------------------------------------------------------ *)
(* Wellform: use before assignment                                    *)
(* ------------------------------------------------------------------ *)

let test_wellform_use_before_assignment () =
  (* %a is read by the instruction that precedes its definition in the
     same block: straight-line use-before-assignment. *)
  let f =
    {
      Instr.fn_name = "ubd";
      params = [];
      ret_ty = Some Ty.I64;
      entry = "entry";
      blocks =
        [
          ( "entry",
            {
              Instr.insns =
                [
                  Instr.Assign
                    ("b", Instr.Binop (Instr.Add, Instr.Reg "a", Instr.Const_int 1));
                  Instr.Assign ("a", Instr.Binop (Instr.Add, Instr.Const_int 2, Instr.Const_int 3));
                ];
              term = Instr.Ret (Some (Instr.Reg "b"));
            } );
        ];
    }
  in
  let p = { Instr.tenv = []; funcs = [ f ] } in
  (match Minir.Wellform.check p with
  | Minir.Wellform.Ok -> Alcotest.fail "use-before-assignment accepted"
  | Minir.Wellform.Errors _ -> ());
  (* The same instructions in definition order are well-formed. *)
  let ok =
    {
      f with
      Instr.blocks =
        [
          ( "entry",
            {
              Instr.insns =
                [
                  Instr.Assign ("a", Instr.Binop (Instr.Add, Instr.Const_int 2, Instr.Const_int 3));
                  Instr.Assign
                    ("b", Instr.Binop (Instr.Add, Instr.Reg "a", Instr.Const_int 1));
                ];
              term = Instr.Ret (Some (Instr.Reg "b"));
            } );
        ];
    }
  in
  match Minir.Wellform.check { Instr.tenv = []; funcs = [ ok ] } with
  | Minir.Wellform.Ok -> ()
  | Minir.Wellform.Errors es ->
      Alcotest.failf "in-order program rejected: %a" Minir.Wellform.pp_error
        (List.hd es)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "intervals",
        qcheck
          [
            prop_interval_join_sound;
            prop_interval_meet_sound;
            prop_interval_widen_sound;
          ] );
      ( "soundness",
        qcheck
          [ prop_concrete_inside_abstract; prop_concrete_inside_abstract_calls ]
        @ [
            Alcotest.test_case "SCC fixpoint is sound" `Quick
              test_scc_fixpoint_sound;
            Alcotest.test_case "engine run inside abstract states" `Quick
              test_soundness_engine;
          ] );
      ( "facts",
        [
          Alcotest.test_case "memo state never changes facts" `Quick
            test_facts_memo_invariant;
        ] );
      ( "prune",
        [
          Alcotest.test_case "fingerprints equal off/trust/distrust" `Quick
            test_prune_invariance_versions;
          Alcotest.test_case "fingerprints equal under fault seeds" `Quick
            test_prune_invariance_fault_seeds;
          Alcotest.test_case "discharge rate >= 20%" `Quick
            test_discharge_rate;
          Alcotest.test_case "distrust cross-checks all pass" `Quick
            test_distrust_crosscheck_clean;
        ] );
      ( "lint",
        [
          Alcotest.test_case "deterministic" `Quick test_lint_deterministic;
          Alcotest.test_case "engines clean" `Quick test_lint_engines_clean;
          Alcotest.test_case "independent of jobs" `Quick
            test_lint_jobs_independent;
          Alcotest.test_case "catches seeded bugs" `Quick
            test_lint_catches_seeded_bugs;
        ] );
      ( "wellform",
        [
          Alcotest.test_case "use before assignment rejected" `Quick
            test_wellform_use_before_assignment;
        ] );
    ]
