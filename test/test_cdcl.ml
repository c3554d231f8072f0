(* Tests for the CDCL SAT core and the theory-aware presolve.

   The cornerstone properties check the CDCL engine against a
   brute-force reference evaluator on random CNFs (including the
   persistent add_clause-between-solves path), replay every learned
   clause's resolution-chain certificate, and exercise the
   [Faultinject.Conflict_corrupt] site: a corrupted learned clause may
   degrade an answer but can never flip one. On the theory side,
   presolve must be sound (a pruned query really is Unsat; derived
   bounds contain every model) and the DPLL(T) loop must answer the
   same with learning/presolve on and off — on random terms, and on the
   whole verification pipeline, where the defaults must also need at
   least 2x fewer DPLL(T) iterations than the legacy discipline. *)

open Smt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Reference evaluator                                                *)
(* ------------------------------------------------------------------ *)

let assignment_satisfies value (clauses : Cnf.clause list) =
  List.for_all
    (List.exists (fun l -> if l > 0 then value l else not (value (-l))))
    clauses

let brute_sat nvars clauses =
  let n = 1 lsl nvars in
  let rec go i =
    i < n
    && (assignment_satisfies (fun v -> i land (1 lsl (v - 1)) <> 0) clauses
       || go (i + 1))
  in
  go 0

let cnf_gen =
  QCheck.Gen.(
    int_range 1 6 >>= fun nvars ->
    list_size (int_range 0 14)
      (list_size (int_range 1 4)
         (map2 (fun v s -> if s then v else -v) (int_range 1 nvars) bool))
    >>= fun clauses -> return (nvars, clauses))

let print_cnf (nvars, clauses) =
  Printf.sprintf "nvars=%d [%s]" nvars
    (String.concat "; "
       (List.map
          (fun c -> String.concat "," (List.map string_of_int c))
          clauses))

let arb_cnf = QCheck.make ~print:print_cnf cnf_gen

let with_fault f =
  Faultinject.reset ();
  Fun.protect ~finally:Faultinject.reset f

(* ------------------------------------------------------------------ *)
(* SAT core                                                           *)
(* ------------------------------------------------------------------ *)

let prop_cdcl_vs_reference =
  QCheck.Test.make ~name:"CDCL agrees with the reference evaluator"
    ~count:500 arb_cnf (fun (nvars, clauses) ->
      let t = Sat.create ~nvars clauses in
      (match Sat.solve t with
      | Sat.Sat a -> assignment_satisfies (fun v -> a.(v)) clauses
      | Sat.Unsat -> not (brute_sat nvars clauses))
      && Sat.validate t)

let prop_cdcl_incremental =
  QCheck.Test.make
    ~name:"persistent add_clause between solves stays equivalent" ~count:500
    arb_cnf (fun (nvars, clauses) ->
      let k = List.length clauses / 2 in
      let first = List.filteri (fun i _ -> i < k) clauses in
      let rest = List.filteri (fun i _ -> i >= k) clauses in
      let t = Sat.create ~nvars first in
      ignore (Sat.solve t);
      List.iter (Sat.add_clause t) rest;
      (match Sat.solve t with
      | Sat.Sat a -> assignment_satisfies (fun v -> a.(v)) clauses
      | Sat.Unsat -> not (brute_sat nvars clauses))
      && Sat.validate t)

(* A corrupted learned clause only ever strengthens the clause set, so
   Sat answers stay genuine models; a wrong Unsat must fail chain
   replay — that is the degrade path the solver takes. *)
let prop_corrupt_strengthens_only =
  QCheck.Test.make ~name:"corrupted learned clauses degrade, never flip"
    ~count:500 arb_cnf (fun (nvars, clauses) ->
      with_fault (fun () ->
          Faultinject.arm ~persistent:true ~after:1
            Faultinject.Conflict_corrupt;
          let t = Sat.create ~nvars clauses in
          match Sat.solve t with
          | Sat.Sat a -> assignment_satisfies (fun v -> a.(v)) clauses
          | Sat.Unsat ->
              (not (brute_sat nvars clauses)) || not (Sat.validate t)))

let test_php_unsat_certified () =
  (* Pigeonhole php(3,2): pigeon i sits in hole j via variable 2(i-1)+j;
     every pigeon is placed, no hole holds two. *)
  let v i j = (2 * (i - 1)) + j in
  let clauses =
    [ [ v 1 1; v 1 2 ]; [ v 2 1; v 2 2 ]; [ v 3 1; v 3 2 ] ]
    @ List.concat_map
        (fun j ->
          [
            [ -(v 1 j); -(v 2 j) ];
            [ -(v 1 j); -(v 3 j) ];
            [ -(v 2 j); -(v 3 j) ];
          ])
        [ 1; 2 ]
  in
  let t = Sat.create ~nvars:6 clauses in
  (match Sat.solve t with
  | Sat.Unsat -> ()
  | Sat.Sat _ -> Alcotest.fail "php(3,2) must be unsat");
  check_bool "refutation chains replay" true (Sat.validate t);
  check_bool "conflicts counted" true (Sat.conflicts t > 0);
  check_bool "propagations counted" true (Sat.propagations t > 0)

(* ------------------------------------------------------------------ *)
(* Theory-aware presolve                                              *)
(* ------------------------------------------------------------------ *)

let lin_gen =
  QCheck.Gen.(
    map3
      (fun a b c ->
        Linear.add
          (Linear.add (Linear.var ~coeff:a "x") (Linear.var ~coeff:b "y"))
          (Linear.const c))
      (int_range (-3) 3) (int_range (-3) 3) (int_range (-6) 6))

let atom_gen =
  QCheck.Gen.(
    lin_gen >>= fun l ->
    oneofl [ Linear.Le_zero l; Linear.Eq_zero l; Linear.Neq_zero l ])

let atom_print a = Format.asprintf "%a" Linear.pp_atom a

let arb_atom = QCheck.make ~print:atom_print atom_gen

let arb_atoms =
  QCheck.make
    ~print:(fun ats -> String.concat "; " (List.map atom_print ats))
    QCheck.Gen.(list_size (int_range 1 6) atom_gen)

let model_value m k =
  Option.value ~default:0 (Lia.String_map.find_opt k m)

let prop_presolve_sound =
  QCheck.Test.make
    ~name:"presolve: pruned queries are Unsat, bounds contain every model"
    ~count:500 arb_atoms (fun atoms ->
      match Lia.presolve atoms with
      | Lia.Punsat _ -> (
          match Lia.check atoms with Lia.Sat _ -> false | _ -> true)
      | Lia.Pfeasible bounds -> (
          match Lia.check atoms with
          | Lia.Sat m ->
              Lia.String_map.for_all
                (fun k (lo, hi) ->
                  let v = model_value m k in
                  (match lo with None -> true | Some l -> v >= l)
                  && match hi with None -> true | Some h -> v <= h)
                bounds
          | _ -> true))

let prop_entailed_sound =
  QCheck.Test.make ~name:"entailed atoms hold in every model" ~count:500
    (QCheck.pair arb_atoms arb_atom) (fun (atoms, a) ->
      match Lia.presolve atoms with
      | Lia.Punsat _ -> true
      | Lia.Pfeasible bounds -> (
          match (Lia.entailed bounds a, Lia.check atoms) with
          | Some v, Lia.Sat m ->
              Linear.eval_atom (model_value m) a = v
          | _ -> true))

let test_proof_atoms () =
  (* x >= 1 (atom 1) and x <= 0 (atom 2) clash; y <= 10 (atom 0) is
     satisfiable padding the conflict core must not cite. *)
  let ge1 = Linear.Le_zero (Linear.add (Linear.const 1) (Linear.var ~coeff:(-1) "x")) in
  let le0 = Linear.Le_zero (Linear.var "x") in
  let pad = Linear.Le_zero (Linear.add (Linear.var "y") (Linear.const (-10))) in
  match Lia.check_cert [ pad; ge1; le0 ] with
  | Lia.Cunsat (Some p) ->
      let core = Lia.proof_atoms p in
      check_bool "core non-empty" true (core <> []);
      check_bool "core within input range" true
        (List.for_all (fun i -> i >= 0 && i < 3) core);
      check_bool "core excludes the padding atom" true (not (List.mem 0 core))
  | _ -> Alcotest.fail "expected certified Unsat"

(* ------------------------------------------------------------------ *)
(* DPLL(T) loop                                                       *)
(* ------------------------------------------------------------------ *)

let x = Term.int_var "x"
let y = Term.int_var "y"
let z = Term.int_var "z"
let w = Term.int_var "w"
let u = Term.int_var "u"

let term_gen : Term.t QCheck.Gen.t =
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
  fix
    (fun self n ->
      if n = 0 then cmp
      else
        frequency
          [
            (3, cmp);
            ( 2,
              map2
                (fun a b -> Term.and_ [ a; b ])
                (self (n / 2)) (self (n / 2)) );
            ( 2,
              map2
                (fun a b -> Term.or_ [ a; b ])
                (self (n / 2)) (self (n / 2)) );
            (1, map Term.not_ (self (n - 1)));
            (1, map2 Term.implies (self (n / 2)) (self (n / 2)));
          ])
    3

let arb_term = QCheck.make ~print:Term.to_string term_gen

let brute_force_sat (t : Term.t) =
  let dom = [ -3; -2; -1; 0; 1; 2; 3 ] in
  List.exists
    (fun xv ->
      List.exists
        (fun yv ->
          List.exists
            (fun zv ->
              let env = function
                | "x" -> Some (Term.VInt xv)
                | "y" -> Some (Term.VInt yv)
                | "z" -> Some (Term.VInt zv)
                | _ -> None
              in
              Term.eval_bool env t)
            dom)
        dom)
    dom

let status = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

let prop_legacy_equivalence =
  QCheck.Test.make
    ~name:"check_dpllt: CDCL verdicts match the legacy discipline" ~count:300
    arb_term (fun t ->
      let cdcl = Solver.check_dpllt t in
      let old = Solver.check_dpllt_reference t in
      String.equal (status cdcl) (status old)
      && match cdcl with Solver.Sat m -> Model.satisfies m t | _ -> true)

let prop_corrupt_never_flips_solver =
  QCheck.Test.make
    ~name:"check_dpllt under conflict corruption degrades, never flips"
    ~count:200 arb_term (fun t ->
      with_fault (fun () ->
          Faultinject.arm ~persistent:true ~after:1
            Faultinject.Conflict_corrupt;
          match Solver.check_dpllt t with
          | Solver.Sat m -> Model.satisfies m t
          | Solver.Unsat -> not (brute_force_sat t)
          | Solver.Unknown -> true))

let test_presolve_prunes () =
  Solver.clear_caches ();
  let m0 = Trace.Metrics.snapshot () in
  let t =
    Term.and_
      [
        Term.le x (Term.int 2);
        Term.le (Term.int 5) x;
        Term.or_ [ Term.eq y (Term.int 0); Term.eq y (Term.int 1) ];
      ]
  in
  let r = Solver.check_dpllt t in
  let d = Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0 in
  (match r with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "contradictory unit box must answer Unsat");
  check_int "pruned before the SAT core" 1
    (Trace.Metrics.get d "presolve.pruned")

let test_solver_steps_cap () =
  (* Five independently clashing disjuncts force at least five DPLL(T)
     refutation iterations, so a 3-step budget must trip mid-loop with
     the machine-readable reason. *)
  let clash v = Term.and_ [ Term.lt v (Term.int 0); Term.lt (Term.int 0) v ] in
  let t = Term.or_ [ clash x; clash y; clash z; clash w; clash u ] in
  let budget = Budget.create ~solver_steps:3 () in
  match Solver.with_budget budget (fun () -> Solver.check_dpllt t) with
  | exception
      Budget.Exhausted (Budget.Solver_steps_exhausted { limit } as reason) ->
      check_int "limit" 3 limit;
      Alcotest.(check string)
        "machine-readable tag" "solver-steps-exhausted"
        (Budget.reason_tag reason)
  | _ -> Alcotest.fail "expected solver-steps exhaustion"

(* The whole-pipeline workload (v3.0-fixed on the reference zone,
   layers and every query type, tracked budget) from cold caches: the
   CDCL defaults must reach the legacy discipline's verdict fingerprint
   (its digest, recorded from a whole-pipeline run under the legacy
   discipline, which took 1,326 DPLL(T) iterations) with at most half
   of those iterations. *)
let test_pipeline_vs_legacy () =
  Solver.clear_caches ();
  Dnsv.Pipeline.clear_summary_memo ();
  let m0 = Trace.Metrics.snapshot () in
  let v =
    Dnsv.Pipeline.verify ~budget:(Budget.create ())
      (Engine.Versions.fixed Engine.Versions.v3_0)
      Spec.Fixtures.reference_zone
  in
  let iters =
    Trace.Metrics.get
      (Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0)
      "solver.dpllt_iterations"
  in
  Alcotest.(check string)
    "CDCL fingerprint = legacy fingerprint" "6843840a0c6e86050edf70de365f6ebd"
    (Digest.to_hex (Digest.string (Dnsv.Pipeline.fingerprint v)));
  check_bool "the pipeline reaches the DPLL(T) loop" true (iters > 0);
  check_bool
    (Printf.sprintf "dpllt_iterations 1326 -> %d: >= 2x fewer" iters)
    true
    (2 * iters <= 1326)

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cdcl"
    [
      ( "sat-core",
        [
          Alcotest.test_case "php(3,2) unsat + certified" `Quick
            test_php_unsat_certified;
        ]
        @ qcheck
            [
              prop_cdcl_vs_reference;
              prop_cdcl_incremental;
              prop_corrupt_strengthens_only;
            ] );
      ( "presolve",
        [
          Alcotest.test_case "theory core cites the contradiction" `Quick
            test_proof_atoms;
          Alcotest.test_case "contradictory box pruned before SAT core"
            `Quick test_presolve_prunes;
        ]
        @ qcheck [ prop_presolve_sound; prop_entailed_sound ] );
      ( "dpllt",
        [
          Alcotest.test_case "budget solver-steps cap governs the loop"
            `Quick test_solver_steps_cap;
          Alcotest.test_case "pipeline: CDCL vs. legacy discipline" `Quick
            test_pipeline_vs_legacy;
        ]
        @ qcheck [ prop_legacy_equivalence; prop_corrupt_never_flips_solver ]
      );
    ]
