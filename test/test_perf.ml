(* Tests for the performance architecture of this PR: hash-consed
   terms, the solver result cache + incremental assertion stack, and
   the parallel verification pipeline.

   The load-bearing properties:

   - hash-consing is invisible: terms built through the raw data
     constructors and through the interning smart constructors evaluate
     identically on every bounded environment, and [hashcons] maps
     structurally equal terms to physically equal ones;
   - the incremental assertion stack answers exactly like a monolithic
     [Solver.check] of the same conjunction, on random push/assert/pop
     traces and on random fork/backtrack path-condition walks;
   - the parallel pipeline is invisible: [verify ~jobs:4] produces a
     verdict fingerprint byte-identical to [verify ~jobs:1] for every
     fixed engine version, and two parallel runs under the same armed
     fault plan agree with each other. *)

open Smt

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                       *)
(* ------------------------------------------------------------------ *)

let x = Term.int_var "x"
let y = Term.int_var "y"
let z = Term.int_var "z"

(* A recipe for a random boolean term, realized twice: once through the
   raw data constructors (no interning, no normalization) and once
   through the smart constructors (interned, lightly normalized). *)
let paired_gen : (Term.t * Term.t) QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> (Term.Int_const n, Term.int n)) (int_range (-4) 4);
        oneofl [ (x, x); (y, y); (z, z) ];
      ]
  in
  let arith =
    oneof
      [
        leaf;
        map2
          (fun (ra, sa) (rb, sb) -> (Term.Add [ ra; rb ], Term.add [ sa; sb ]))
          leaf leaf;
        map2
          (fun (ra, sa) (rb, sb) -> (Term.Sub (ra, rb), Term.sub sa sb))
          leaf leaf;
        map
          (fun (ra, sa) -> (Term.Mul_const (3, ra), Term.mul_const 3 sa))
          leaf;
        map (fun (ra, sa) -> (Term.Neg ra, Term.neg sa)) leaf;
      ]
  in
  let cmp =
    oneof
      [
        map2
          (fun (ra, sa) (rb, sb) -> (Term.Eq (ra, rb), Term.eq sa sb))
          arith arith;
        map2
          (fun (ra, sa) (rb, sb) -> (Term.Le (ra, rb), Term.le sa sb))
          arith arith;
        map2
          (fun (ra, sa) (rb, sb) -> (Term.Lt (ra, rb), Term.lt sa sb))
          arith arith;
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
                (fun (ra, sa) (rb, sb) ->
                  (Term.And [ ra; rb ], Term.and_ [ sa; sb ]))
                (self (n / 2))
                (self (n / 2)) );
            ( 2,
              map2
                (fun (ra, sa) (rb, sb) ->
                  (Term.Or [ ra; rb ], Term.or_ [ sa; sb ]))
                (self (n / 2))
                (self (n / 2)) );
            (1, map (fun (ra, sa) -> (Term.Not ra, Term.not_ sa)) (self (n - 1)));
            ( 1,
              map2
                (fun (ra, sa) (rb, sb) ->
                  (Term.Implies (ra, rb), Term.implies sa sb))
                (self (n / 2))
                (self (n / 2)) );
          ])
    3

let arb_paired =
  QCheck.make
    ~print:(fun (r, s) -> Term.to_string r ^ " / " ^ Term.to_string s)
    paired_gen

let every_env f =
  let dom = [ -3; -1; 0; 2 ] in
  List.for_all
    (fun xv ->
      List.for_all
        (fun yv ->
          List.for_all
            (fun zv ->
              f (function
                | "x" -> Some (Term.VInt xv)
                | "y" -> Some (Term.VInt yv)
                | "z" -> Some (Term.VInt zv)
                | _ -> None))
            dom)
        dom)
    dom

let prop_smart_constructors_preserve_semantics =
  QCheck.Test.make
    ~name:"interning smart constructors preserve evaluation" ~count:300
    arb_paired
    (fun (raw, smart) ->
      every_env (fun env -> Term.eval_bool env raw = Term.eval_bool env smart))

let prop_hashcons_physical_equality =
  QCheck.Test.make
    ~name:"hashcons: structurally equal terms become physically equal"
    ~count:300 arb_paired
    (fun (raw, _) ->
      (* A deep raw copy shares no nodes with [raw]'s interned image,
         yet hash-consing both yields the same pointer. *)
      let a = Term.hashcons raw in
      let b = Term.hashcons raw in
      a == b && Term.equal a raw && Term.hash a = Term.hash raw)

let prop_smart_terms_already_interned =
  QCheck.Test.make ~name:"smart-built terms are fixpoints of hashcons"
    ~count:300 arb_paired
    (fun (_, smart) -> Term.hashcons smart == smart)

(* ------------------------------------------------------------------ *)
(* Incremental stack vs. monolithic check                             *)
(* ------------------------------------------------------------------ *)

let lit_gen : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof [ map Term.int (int_range (-4) 4); oneofl [ x; y; z ] ]
  in
  let arith =
    oneof [ leaf; map2 (fun a b -> Term.add [ a; b ]) leaf leaf ]
  in
  let cmp =
    oneof
      [
        map2 Term.eq arith arith;
        map2 Term.le arith arith;
        map2 Term.lt arith arith;
      ]
  in
  oneof [ cmp; map Term.not_ cmp ]

let same_verdict (a : Solver.result) (b : Solver.result) =
  match (a, b) with
  | Solver.Sat _, Solver.Sat _ -> true
  | Solver.Unsat, Solver.Unsat -> true
  | Solver.Unknown, Solver.Unknown -> true
  | _ -> false

(* Random fork/backtrack walk over path conditions, the shape the
   symbolic executor produces: extend the current pc by consing, or
   backtrack to any previously seen pc (sharing its tail physically). *)
let prop_check_pc_matches_monolithic =
  QCheck.Test.make
    ~name:"check_pc agrees with monolithic check on fork/backtrack walks"
    ~count:100
    (QCheck.make
       ~print:(fun ls -> String.concat "; " (List.map Term.to_string ls))
       QCheck.Gen.(list_size (int_range 1 12) lit_gen))
    (fun lits ->
      let s = Solver.Incremental.create () in
      let seen = ref [ [] ] in
      let pc = ref [] in
      List.for_all
        (fun lit ->
          (* Every other step, backtrack to a pseudo-random saved pc
             first (deterministic in the generated literals). *)
          (match !seen with
          | choices when Term.hash lit mod 3 = 0 ->
              pc := List.nth choices (Term.hash lit mod List.length choices)
          | _ -> ());
          pc := lit :: !pc;
          seen := !pc :: !seen;
          same_verdict
            (Solver.Incremental.check_pc s !pc)
            (Solver.check !pc))
        lits)

(* Seeds 6 and 11 once drove the two sides apart: a conjunction whose
   only refutation was a disequality with an identically-zero
   difference got a certificate the checker rejects (Unknown), the
   stack kept that rejected refutation for every extension, and the
   monolithic check of a longer, certifiably refuted walk said Unsat.
   The walk property runs from cold result caches under the seed. *)
let test_seeded_walks seed () =
  Solver.clear_caches ();
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| seed |])
    prop_check_pc_matches_monolithic

(* One fork/backtrack walk with known answers, decided from cold caches
   and again from warm ones: a satisfiable pc, a refuted extension, an
   extension of the refuted prefix, and a backtrack to the satisfiable
   parent. Every answer must match the monolithic check, and the warm
   pass must replay the cold one. *)
let test_check_pc_cold_and_warm () =
  let sat_pc = [ Term.le x (Term.int 3); Term.le (Term.int 1) x ] in
  let refuted = Term.le x (Term.int 0) :: sat_pc in
  let extended = Term.le y x :: refuted in
  let walk = [ sat_pc; refuted; extended; sat_pc ] in
  let decide () =
    let s = Solver.Incremental.create () in
    List.map (Solver.Incremental.check_pc s) walk
  in
  Solver.clear_caches ();
  let cold = decide () in
  let warm = decide () in
  List.iter2
    (fun pc (c, w) ->
      let mono = Solver.check pc in
      check_bool "cold check_pc agrees with monolithic check" true
        (same_verdict c mono);
      check_bool "warm check_pc agrees with cold check_pc" true
        (same_verdict w c))
    walk (List.combine cold warm);
  check_bool "expected verdicts: sat, unsat, unsat, sat" true
    (List.for_all2 same_verdict cold
       [ Solver.Sat Model.empty; Solver.Unsat; Solver.Unsat;
         Solver.Sat Model.empty ])

(* ------------------------------------------------------------------ *)
(* Bounded memos                                                      *)
(* ------------------------------------------------------------------ *)

let memo_stat name =
  match
    List.find_opt (fun (s : Memo.stat) -> s.Memo.name = name) (Memo.stats ())
  with
  | Some s -> s
  | None -> Alcotest.failf "no memo named %s" name

module Int_memo = Memo.Make (Int)

(* A key looked up once per generation ([limit / 2] inserts) is never
   lost, however many other keys go in; a table that resets when full
   loses it at the first reset. *)
let test_memo_hot_key_survives () =
  let m = Int_memo.create ~name:"test.survival" ~limit:16 in
  Int_memo.add m (-1) "hot";
  for i = 0 to 9_999 do
    Int_memo.add m i "cold";
    if i mod 8 = 7 then
      match Int_memo.find_opt m (-1) with
      | Some "hot" -> ()
      | _ -> Alcotest.failf "hot key lost after %d other inserts" (i + 1)
  done;
  check_bool "old entries were evicted" true
    ((memo_stat "test.survival").Memo.evictions > 0)

(* Every entry is held or evicted, and never more than [limit] are held. *)
let test_memo_bounded () =
  let m = Int_memo.create ~name:"test.bounded" ~limit:16 in
  for i = 1 to 1_000 do
    Int_memo.add m i ();
    let st = memo_stat "test.bounded" in
    if st.Memo.entries > 16 then
      Alcotest.failf "%d entries after %d inserts, limit 16" st.Memo.entries i;
    Alcotest.(check int) "entries + evictions = inserts" i
      (st.Memo.entries + st.Memo.evictions)
  done

(* Each (function, entry context) is analyzed once per rsummary table:
   a second [Analysis.analyze] of the same program under the same env,
   called directly past [summarize]'s memo and with every function's
   final facts forced, runs no function fixpoint at all. *)
let test_analysis_pairs_once () =
  let prog =
    Engine.Versions.compiled (Engine.Versions.fixed Engine.Versions.v3_0)
  in
  let env = Refine.Check.engine_env () in
  let fixpoints = Trace.Metrics.counter "analysis.functions" in
  let analyze () =
    let c0 = Trace.Metrics.value fixpoints in
    let s = Analysis.analyze ~env prog in
    List.iter
      (fun (f : Minir.Instr.func) ->
        ignore (Analysis.func_facts s f.Minir.Instr.fn_name))
      prog.Minir.Instr.funcs;
    Trace.Metrics.value fixpoints - c0
  in
  Analysis.clear_memo ();
  check_bool "a cold analysis runs fixpoints" true (analyze () > 0);
  Alcotest.(check int) "fixpoints of a second analysis" 0 (analyze ())

let cleared_memos =
  [
    ( "Solver.clear_caches",
      Solver.clear_caches,
      [
        "solver.lia";
        "solver.full";
        "solver.atom_ids";
        "solver.analyses";
        "solver.checked";
      ] );
    ("Store.clear_domain_memos", Store.clear_domain_memos, [ "store.serve" ]);
    ( "Pipeline.clear_summary_memo",
      Dnsv.Pipeline.clear_summary_memo,
      [ "pipeline.summary_stores"; "store.serve" ] );
    ( "Analysis.clear_memo",
      Analysis.clear_memo,
      [
        "analysis.summarize";
        "analysis.base";
        "analysis.rsums";
        "analysis.facts";
      ] );
  ]

(* What each clear function empties is what "a fresh process" means to
   the benchmark's cache clearing: exactly its own instances, never the
   term interning table or the codec's render memo. *)
let test_memo_clear_scope () =
  let dir = Filename.temp_file "dnsv-memo-test" "" in
  Sys.remove dir;
  let st = Store.open_ dir in
  let cfg = Engine.Versions.fixed Engine.Versions.v1_0 in
  let lit = Term.le x (Term.int 1) in
  let disj = Term.or_ [ lit; Term.le y x ] in
  let populate () =
    ignore
      (Dnsv.Pipeline.verify ~qtypes:[ Dns.Rr.A ] cfg
         Spec.Fixtures.figure11_zone);
    (* The second check of each query misses the cleared solver tables
       and is served from the store through its serve memo. *)
    Store.with_solver st (fun () ->
        let both () =
          ignore (Solver.check [ lit ]);
          ignore (Solver.check [ disj ])
        in
        both ();
        Solver.clear_caches ();
        both ());
    ignore (Solver.check [ Term.le y (Term.int 2) ]);
    ignore (Store.Codec.term_to_string lit)
  in
  let all =
    List.sort_uniq compare
      ("term.intern" :: "codec.term"
      :: List.concat_map (fun (_, _, names) -> names) cleared_memos)
  in
  Fun.protect
    ~finally:(fun () ->
      Store.close st;
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      List.iter
        (fun (fname, clear, emptied) ->
          populate ();
          let entries name = (memo_stat name).Memo.entries in
          let before = List.map (fun n -> (n, entries n)) all in
          List.iter
            (fun (n, e) ->
              if e = 0 then Alcotest.failf "%s is empty before %s" n fname)
            before;
          clear ();
          List.iter
            (fun (n, e) ->
              let expect = if List.mem n emptied then 0 else e in
              Alcotest.(check int) (Printf.sprintf "%s after %s" n fname) expect
                (entries n))
            before)
        cleared_memos)

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)
(* ------------------------------------------------------------------ *)

let prop_cached_verdicts_stable =
  QCheck.Test.make ~name:"re-checking a conjunction hits the cache, same model"
    ~count:200 arb_paired
    (fun (_, smart) ->
      QCheck.assume (Term.is_bool smart);
      let first = Solver.check [ smart ] in
      let second = Solver.check [ smart ] in
      match (first, second) with
      | Solver.Sat m1, Solver.Sat m2 ->
          (* Cached models are a function of the conjunction alone. *)
          Model.satisfies m1 smart && Model.satisfies m2 smart
      | a, b -> same_verdict a b)

(* Symex path conditions share a long sorted prefix and differ in their
   last atoms; a hash that stops after the first few words of the key
   sends all of them to one bucket. Each table must spread such keys. *)
let test_cache_key_spread () =
  Solver.clear_caches ();
  let v i = Term.int_var (Printf.sprintf "x%02d" i) in
  let prefix = List.init 24 (fun i -> Term.le (v i) (Term.int i)) in
  let disj_prefix =
    List.init 8 (fun i ->
        Term.or_
          [ Term.le (v i) (Term.int 0); Term.eq (v (i + 8)) (Term.int i) ])
  in
  let y = Term.int_var "zz" in
  for i = 0 to 2047 do
    (* tag 2 (disequality) sorts after the prefix's tag-0 atoms *)
    ignore (Solver.check (prefix @ [ Term.neq y (Term.int i) ]));
    let last =
      Term.or_ [ Term.le y (Term.int i); Term.le (v 0) (Term.int (-i)) ]
    in
    ignore (Solver.check (disj_prefix @ [ last ]))
  done;
  List.iter
    (fun name ->
      let st = (memo_stat name).Memo.buckets in
      check_bool (name ^ " table holds the 2048 keys") true
        (st.Hashtbl.num_bindings >= 2048);
      if st.Hashtbl.max_bucket_length > 16 then
        Alcotest.failf "%s table: longest chain %d > 16 (%d buckets used)"
          name st.Hashtbl.max_bucket_length
          (Array.fold_left ( + ) 0 st.Hashtbl.bucket_histogram
          - st.Hashtbl.bucket_histogram.(0)))
    [ "solver.lia"; "solver.full" ]

(* ------------------------------------------------------------------ *)
(* Id-keyed LIA memo                                                  *)
(* ------------------------------------------------------------------ *)

let check_int = Alcotest.(check int)

let answer_string = function
  | Solver.Sat m -> Model.to_string m
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

(* One atom set written five ways: permuted, with a literal repeated,
   and with an atom reached through other terms (x < 4 and ¬(3 < x)
   are both x - 3 ≤ 0). *)
let atom_set_variants =
  let a = Term.le x (Term.int 3)
  and b = Term.le (Term.int 1) y
  and c = Term.lt y x in
  [
    [ a; b; c ];
    [ c; b; a ];
    [ b; a; c; a ];
    [ Term.lt x (Term.int 4); b; c; b ];
    [ c; Term.not_ (Term.lt (Term.int 3) x); b ];
  ]

(* The memo key is the atom set: every variant lands on one
   [solver.lia] entry and gets the model solved in [Linear.key] order,
   byte for byte, from cold tables and from warm ones, through [check]
   and through [check_pc]. *)
let test_lia_memo_keyed_by_atom_set () =
  let lia_entries () = (memo_stat "solver.lia").Memo.entries in
  let cold =
    List.map
      (fun ts ->
        Solver.clear_caches ();
        let r = answer_string (Solver.check ts) in
        check_int "one entry from cold" 1 (lia_entries ());
        r)
      atom_set_variants
  in
  Solver.clear_caches ();
  let s = Solver.Incremental.create () in
  let warm =
    List.concat_map
      (fun ts ->
        [
          answer_string (Solver.check ts);
          answer_string (Solver.Incremental.check_pc s ts);
        ])
      atom_set_variants
  in
  check_int "every variant hit the one entry" 1 (lia_entries ());
  List.iter
    (fun m -> check_string "byte-identical model" (List.hd cold) m)
    (cold @ warm)

(* Ids are never reused. Fill the id table past its limit (2^16) with
   the atoms of refuted three-atom conjunctions, so the first
   conjunction's atoms and analyses are evicted while its LIA entry is
   still held. Every id handed out is distinct, the first atoms get
   fresh ids when interned again, and re-checking the first conjunction
   misses its old entry rather than hitting a refuted one. *)
let test_atom_ids_never_reused () =
  Solver.clear_caches ();
  let first = List.hd atom_set_variants in
  let cold = answer_string (Solver.check first) in
  let seen = Hashtbl.create (1 lsl 17) in
  let keys ts =
    List.filter_map
      (fun t -> Option.map Linear.key_of_atom (Linear.atom_of_term t))
      ts
  in
  let record key =
    let id = Solver.atom_id key in
    if Hashtbl.mem seen id then Alcotest.failf "atom id %d handed out twice" id;
    Hashtbl.add seen id ()
  in
  List.iter record (keys first);
  let limit = 1 lsl 16 in
  for i = 0 to (limit + (limit / 4)) / 3 do
    let v = Term.int_var (Printf.sprintf "a%d" i) in
    let w = Term.int_var (Printf.sprintf "b%d" i) in
    let ts =
      [ Term.le v (Term.int 0); Term.le (Term.int 1) v; Term.le w (Term.int i) ]
    in
    ignore (Solver.check ts);
    List.iter record (keys ts)
  done;
  check_bool "the id table rotated" true
    ((memo_stat "solver.atom_ids").Memo.evictions > 0);
  check_int "no LIA entry evicted" 0 (memo_stat "solver.lia").Memo.evictions;
  check_string "the cold answer and model again" cold
    (answer_string (Solver.check first));
  (* Evicted, so interned again: fresh ids. *)
  List.iter record (keys first)

(* ------------------------------------------------------------------ *)
(* Budget charges and memo state                                      *)
(* ------------------------------------------------------------------ *)

let steps_charged f =
  let b = Budget.create ~solver_steps:1_000_000 () in
  Solver.with_budget b f;
  b.Budget.solver_steps

(* A feasibility query charges one solver step whether a memo answers
   it or not: a fixed sequence of [check] and [check_pc] calls (literal
   conjunctions, a refuted prefix and its extension, and a general
   query that presolve settles) charges the same cold and warm. The
   general path's refinement loop is the exception: each re-iteration
   charges a step and only a [solver.full] miss runs it, so a query
   that needs refinement charges more cold than warm. *)
let test_budget_charges_cold_and_warm () =
  let sat_pc = [ Term.le x (Term.int 3); Term.le (Term.int 1) x ] in
  let refuted = Term.le x (Term.int 0) :: sat_pc in
  let sequence () =
    ignore (Solver.check sat_pc);
    ignore (Solver.check (List.rev refuted));
    let s = Solver.Incremental.create () in
    List.iter
      (fun pc -> ignore (Solver.Incremental.check_pc s pc))
      [ sat_pc; refuted; Term.le y x :: refuted; sat_pc ];
    ignore
      (Solver.check
         (Term.or_ [ Term.le x (Term.int 0); Term.le (Term.int 5) x ] :: sat_pc))
  in
  Solver.clear_caches ();
  let cold = steps_charged sequence in
  let warm = steps_charged sequence in
  check_int "one step per query" 7 cold;
  check_int "warm charges = cold charges" cold warm;
  let clash v = Term.and_ [ Term.lt v (Term.int 0); Term.lt (Term.int 0) v ] in
  let refine () =
    ignore (Solver.check [ Term.or_ [ clash x; clash y; clash z ] ])
  in
  Solver.clear_caches ();
  let cold = steps_charged refine in
  let warm = steps_charged refine in
  check_int "warm: one step" 1 warm;
  check_bool
    (Printf.sprintf "cold refinement charges more (%d steps)" cold)
    true (cold > warm)

(* ------------------------------------------------------------------ *)
(* Parallel pipeline determinism                                      *)
(* ------------------------------------------------------------------ *)

let qtypes = [ Dns.Rr.A; Dns.Rr.MX ]

let test_parallel_verify_matches_sequential () =
  let zone = Spec.Fixtures.reference_zone in
  List.iter
    (fun cfg ->
      let cfg = Engine.Versions.fixed cfg in
      let run jobs =
        Dnsv.Pipeline.verify ~qtypes ~check_layers:false
          ~budget:(Budget.create ()) ~jobs cfg zone
        |> Dnsv.Pipeline.fingerprint
      in
      check_string
        (cfg.Engine.Builder.version ^ ": jobs=4 fingerprint equals jobs=1")
        (run 1) (run 4))
    Engine.Versions.all

let test_parallel_batch_matches_sequential () =
  let cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let origin = Dns.Name.of_string_exn "batch.example" in
  let run jobs =
    Dnsv.Pipeline.verify_batch ~qtypes:[ Dns.Rr.A ] ~count:3 ~seed:7
      ~budget:(Budget.create ()) ~jobs cfg origin
    |> Dnsv.Pipeline.fingerprint_batch
  in
  check_string "verify_batch jobs=2 equals jobs=1" (run 1) (run 2)

(* Two parallel runs under the same armed fault plan must agree: worker
   domains inherit the plan with fresh arrival counters, so the fault
   schedule is a deterministic function of (tasks, jobs). *)
let test_parallel_fault_determinism () =
  let zone = Spec.Fixtures.reference_zone in
  let cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let run () =
    Faultinject.reset ();
    Faultinject.arm ~persistent:true ~after:50 Faultinject.Solver_unknown;
    let v =
      Dnsv.Pipeline.verify ~qtypes ~check_layers:false
        ~budget:(Budget.create ()) ~jobs:4 cfg zone
    in
    Faultinject.reset ();
    Dnsv.Pipeline.fingerprint v
  in
  let first = run () in
  let second = run () in
  check_string "fault-injected parallel runs are replayable" first second;
  check_bool "the armed fault actually degraded the verdict" true
    (String.length first > 0)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "perf"
    [
      ( "hashcons",
        qcheck
          [
            prop_smart_constructors_preserve_semantics;
            prop_hashcons_physical_equality;
            prop_smart_terms_already_interned;
          ] );
      ( "incremental",
        qcheck
          [ prop_check_pc_matches_monolithic ]
        @ [
            Alcotest.test_case "check_pc: cold and warm verdicts agree" `Quick
              test_check_pc_cold_and_warm;
            Alcotest.test_case "seed 6 walks agree (regression)" `Quick
              (test_seeded_walks 6);
            Alcotest.test_case "seed 11 walks agree (regression)" `Quick
              (test_seeded_walks 11);
          ] );
      ( "cache",
        qcheck [ prop_cached_verdicts_stable ]
        @ [
            Alcotest.test_case "memo keys spread over buckets" `Quick
              test_cache_key_spread;
            Alcotest.test_case "one LIA entry per atom set, one model" `Quick
              test_lia_memo_keyed_by_atom_set;
            Alcotest.test_case "atom ids are never reused" `Slow
              test_atom_ids_never_reused;
            Alcotest.test_case "budget charges: cold = warm" `Quick
              test_budget_charges_cold_and_warm;
          ] );
      ( "parallel",
        [
          Alcotest.test_case "verify: jobs=4 fingerprints equal jobs=1" `Quick
            test_parallel_verify_matches_sequential;
          Alcotest.test_case "verify_batch: jobs=2 fingerprints equal jobs=1"
            `Quick test_parallel_batch_matches_sequential;
          Alcotest.test_case "fault-injected parallel runs replayable" `Quick
            test_parallel_fault_determinism;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hot key survives a memo's rotations" `Quick
            test_memo_hot_key_survives;
          Alcotest.test_case "memo entries never exceed the limit" `Quick
            test_memo_bounded;
          Alcotest.test_case "clear functions empty exactly their memos" `Quick
            test_memo_clear_scope;
          Alcotest.test_case "each analysis pair runs once" `Quick
            test_analysis_pairs_once;
        ] );
    ]
