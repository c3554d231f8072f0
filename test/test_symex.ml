(* Unit tests for the symbolic-execution substrate: symbolic values and
   the flexible memory model, the executor (forking, feasibility
   pruning, symbolic indices, panic paths), summarization (input-effect
   pairs, effect diffs, cache reuse, soundness against concrete replay),
   manual layer specifications, and the §6.3 compareRaw refinement. *)

module Term = Smt.Term
module Solver = Smt.Solver
module Ty = Minir.Ty
module Instr = Minir.Instr
module Value = Minir.Value
module Sval = Symex.Sval
module Exec = Symex.Exec
module Summary = Symex.Summary

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sym_mem () = Sval.memory_of_concrete Value.empty_memory

(* ------------------------------------------------------------------ *)
(* Memory model: partial abstraction                                  *)
(* ------------------------------------------------------------------ *)

let test_partial_abstraction () =
  (* A struct whose first field is symbolic while the second stays
     concrete and is updated through ordinary stores (§5.1). *)
  let mem = sym_mem () in
  let cell =
    Sval.CStruct [| Sval.CInt (Term.int_var "abs"); Sval.CInt (Term.int 7) |]
  in
  let mem, p = Sval.alloc mem cell in
  let concrete_field = { p with Value.path = [ 1 ] } in
  let mem = Sval.store mem concrete_field (Sval.CInt (Term.int 8)) in
  (match Sval.load mem { p with Value.path = [ 0 ] } with
  | Sval.SInt (Term.Var v) -> Alcotest.(check string) "abstract" "abs" v.Term.name
  | _ -> Alcotest.fail "abstract field lost");
  match Sval.load mem concrete_field with
  | Sval.SInt (Term.Int_const 8) -> ()
  | _ -> Alcotest.fail "concrete field not updated"

let test_cell_navigation () =
  let c =
    Sval.CStruct
      [|
        Sval.CArray [| Sval.CInt (Term.int 1); Sval.CInt (Term.int 2) |];
        Sval.CBool Term.true_;
      |]
  in
  (match Sval.cell_get c [ 0; 1 ] with
  | Sval.CInt (Term.Int_const 2) -> ()
  | _ -> Alcotest.fail "get");
  let c' = Sval.cell_set c [ 0; 0 ] (Sval.CInt (Term.int 9)) in
  (match Sval.cell_get c' [ 0; 0 ] with
  | Sval.CInt (Term.Int_const 9) -> ()
  | _ -> Alcotest.fail "set");
  (* Original untouched (persistent update). *)
  match Sval.cell_get c [ 0; 0 ] with
  | Sval.CInt (Term.Int_const 1) -> ()
  | _ -> Alcotest.fail "persistence"

let test_stack_blocks_excluded_from_diff () =
  let m0 = sym_mem () in
  let m1, _stack = Sval.alloc ~stack:true m0 (Sval.CInt (Term.int 5)) in
  let m1, _heap = Sval.alloc m1 (Sval.CInt (Term.int 6)) in
  let writes, allocs = Summary.diff_memory m0 m1 in
  check_int "no writes" 0 (List.length writes);
  check_int "only the heap alloc" 1 (List.length allocs)

(* ------------------------------------------------------------------ *)
(* Executor                                                           *)
(* ------------------------------------------------------------------ *)

(* abs(x) in Golite, executed on a symbolic input: exactly two feasible
   paths with complementary conditions. *)
let abs_prog =
  let open Golite.Dsl in
  Golite.Compile.compile
    (program []
       [
         func "abs" ~params:[ ("x", tint) ] ~ret:(Some tint)
           [ if_ (v "x" < i 0) [ return (neg (v "x")) ] [ return (v "x") ] ];
       ])

let test_fork_on_symbolic_branch () =
  let ctx = Exec.create abs_prog in
  let results =
    Exec.run ctx ~memory:(sym_mem ()) ~pc:[] ~fn:"abs"
      ~args:[ Sval.SInt (Term.int_var "x") ]
  in
  check_int "two paths" 2 (List.length results);
  (* Each path's result is non-negative under its own condition. *)
  List.iter
    (fun ((path : Exec.path), outcome) ->
      match outcome with
      | Exec.Returned (Some (Sval.SInt r)) -> (
          match
            Solver.entails ~hyps:path.Exec.pc (Term.ge r (Term.int 0))
          with
          | Solver.Valid -> ()
          | _ -> Alcotest.fail "abs must be non-negative per path")
      | _ -> Alcotest.fail "unexpected outcome")
    results

let test_feasibility_pruning () =
  let ctx = Exec.create abs_prog in
  (* Under pc x >= 5, only the non-negative branch survives. *)
  let results =
    Exec.run ctx ~memory:(sym_mem ())
      ~pc:[ Term.ge (Term.int_var "x") (Term.int 5) ]
      ~fn:"abs"
      ~args:[ Sval.SInt (Term.int_var "x") ]
  in
  check_int "one path" 1 (List.length results)

let bounds_prog =
  let open Golite.Dsl in
  Golite.Compile.compile
    (program []
       [
         func "read"
           ~params:[ ("a", tarray tint 4); ("idx", tint) ]
           ~ret:(Some tint)
           [ return (v "a" %@ v "idx") ];
       ])

let test_symbolic_index_concretization () =
  (* A fully symbolic index against a 4-cell array: four in-range paths
     plus the reachable bounds panic. *)
  let ctx = Exec.create bounds_prog in
  let mem, arr =
    Sval.alloc (sym_mem ())
      (Sval.CArray (Array.init 4 (fun j -> Sval.CInt (Term.int (10 + j)))))
  in
  let results =
    Exec.run ctx ~memory:mem ~pc:[] ~fn:"read"
      ~args:[ Sval.SPtr arr; Sval.SInt (Term.int_var "idx") ]
  in
  let panics, returns =
    List.partition
      (fun (_, o) -> match o with Exec.Panicked _ -> true | _ -> false)
      results
  in
  check_int "four in-range paths" 4 (List.length returns);
  check_bool "a reachable panic path" true (panics <> []);
  (* With the index constrained in range, the panic disappears. *)
  let ctx = Exec.create bounds_prog in
  let results =
    Exec.run ctx ~memory:mem
      ~pc:
        [
          Term.ge (Term.int_var "idx") (Term.int 0);
          Term.lt (Term.int_var "idx") (Term.int 4);
        ]
      ~fn:"read"
      ~args:[ Sval.SPtr arr; Sval.SInt (Term.int_var "idx") ]
  in
  check_bool "no panic in range" true
    (List.for_all
       (fun (_, o) -> match o with Exec.Returned _ -> true | _ -> false)
       results)

let test_nil_panic_path () =
  let prog =
    let open Golite.Dsl in
    Golite.Compile.compile
      (program
         [ struct_ "Box" [ ("v", tint) ] ]
         [
           func "deref"
             ~params:[ ("p", tptr (tstruct "Box")) ]
             ~ret:(Some tint)
             [ return (v "p" %. "v") ];
         ])
  in
  let ctx = Exec.create prog in
  let results =
    Exec.run ctx ~memory:(sym_mem ()) ~pc:[] ~fn:"deref" ~args:[ Sval.SNull ]
  in
  match results with
  | [ (_, Exec.Panicked m) ] ->
      check_bool "nil panic" true (Astring.String.is_infix ~affix:"nil" m)
  | _ -> Alcotest.fail "expected exactly the panic path"

let test_intercept_dispatch () =
  (* An intercept that overrides abs to return 42 unconditionally. *)
  let intercept : Exec.intercept =
   fun _ctx path _args -> [ (path, Exec.Returned (Some (Sval.SInt (Term.int 42)))) ]
  in
  let ctx = Exec.create ~intercepts:[ ("abs", intercept) ] abs_prog in
  match
    Exec.run ctx ~memory:(sym_mem ()) ~pc:[] ~fn:"abs"
      ~args:[ Sval.SInt (Term.int_var "x") ]
  with
  | [ (_, Exec.Returned (Some (Sval.SInt (Term.Int_const 42)))) ] -> ()
  | _ -> Alcotest.fail "intercept not applied"

(* ------------------------------------------------------------------ *)
(* Summarization                                                      *)
(* ------------------------------------------------------------------ *)

(* A small effectful module: conditional field update + append. *)
let effect_prog =
  let open Golite.Dsl in
  Golite.Compile.compile
    (program
       [ struct_ "Buf" [ ("data", tarray tint 4); ("count", tint) ] ]
       [
         func "push_if_positive"
           ~params:[ ("b", tptr (tstruct "Buf")); ("x", tint) ]
           ~ret:(Some tint)
           [
             when_ (v "x" <= i 0) [ return (i 0) ];
             when_ (v "b" %. "count" >= i 4) [ return (i (-1)) ];
             set_index (v "b" %. "data") (v "b" %. "count") (v "x");
             set_field (v "b") "count" (v "b" %. "count" + i 1);
             return (i 1);
           ];
       ])

let test_summarize_input_effect_pairs () =
  let ctx = Exec.create effect_prog in
  let mem, buf =
    Sval.alloc (sym_mem ())
      (Sval.scell_default effect_prog.Instr.tenv (Ty.Struct "Buf"))
  in
  let summary, _bindings, _key =
    Summary.summarize_at ctx ~frozen_below:0 ~mem ~fn:"push_if_positive"
      ~args:[ Sval.SPtr buf; Sval.SInt (Term.int_var "x") ]
  in
  (* Two paths: x <= 0 (no effect) and x > 0 (append; count is concrete
     0, so the capacity branch is pruned). *)
  check_int "cases" 2 (Summary.case_count summary);
  let effectful =
    List.filter (fun (c : Summary.case) -> c.Summary.writes <> []) summary.Summary.cases
  in
  check_int "one effectful case" 1 (List.length effectful);
  let c = List.hd effectful in
  (* The append pattern: a store at index 0 and the count bump (§5.3). *)
  check_int "two writes" 2 (List.length c.Summary.writes)

let test_summary_application_matches_inline () =
  (* Calling through a summary intercept must produce the same reachable
     outcomes as inlining. *)
  let caller =
    let open Golite.Dsl in
    Golite.Compile.compile
      (program
         [ struct_ "Buf" [ ("data", tarray tint 4); ("count", tint) ] ]
         [
           func "push_if_positive"
             ~params:[ ("b", tptr (tstruct "Buf")); ("x", tint) ]
             ~ret:(Some tint)
             [
               when_ (v "x" <= i 0) [ return (i 0) ];
               when_ (v "b" %. "count" >= i 4) [ return (i (-1)) ];
               set_index (v "b" %. "data") (v "b" %. "count") (v "x");
               set_field (v "b") "count" (v "b" %. "count" + i 1);
               return (i 1);
             ];
           func "push_twice"
             ~params:[ ("b", tptr (tstruct "Buf")); ("x", tint) ]
             ~ret:(Some tint)
             [
               decl_init "r1" tint (call "push_if_positive" [ v "b"; v "x" ]);
               decl_init "r2" tint (call "push_if_positive" [ v "b"; v "x" + i 1 ]);
               return (v "r1" + v "r2");
             ];
         ])
  in
  let run_mode with_summaries =
    let store = Summary.create_store () in
    let intercepts =
      if with_summaries then
        [ ("push_if_positive", Summary.intercept_for ~frozen_below:0 store "push_if_positive") ]
      else []
    in
    let ctx = Exec.create ~intercepts caller in
    let mem, buf =
      Sval.alloc (sym_mem ())
        (Sval.scell_default caller.Instr.tenv (Ty.Struct "Buf"))
    in
    let results =
      Exec.run ctx ~memory:mem ~pc:[] ~fn:"push_twice"
        ~args:[ Sval.SPtr buf; Sval.SInt (Term.int_var "x") ]
    in
    (* Project outcomes: evaluate the return term and final count under
       sample models x = -1, 0, 1, 5. *)
    List.map
      (fun sample ->
        let m = Smt.Model.add_int "x" sample Smt.Model.empty in
        List.filter_map
          (fun ((path : Exec.path), outcome) ->
            if List.for_all (Smt.Model.satisfies m) path.Exec.pc then
              match outcome with
              | Exec.Returned (Some (Sval.SInt t)) -> (
                  match Smt.Model.eval_total m t with
                  | Term.Int_const n -> Some n
                  | _ -> None)
              | _ -> None
            else None)
          results)
      [ -1; 0; 1; 5 ]
  in
  let with_sum = run_mode true and inline = run_mode false in
  check_bool "summary mode matches inline mode" true (with_sum = inline)

let test_summary_cache_hits () =
  let store = Summary.create_store () in
  let intercepts =
    [ ("push_if_positive", Summary.intercept_for ~frozen_below:0 store "push_if_positive") ]
  in
  let ctx = Exec.create ~intercepts effect_prog in
  let mem, buf =
    Sval.alloc (sym_mem ())
      (Sval.scell_default effect_prog.Instr.tenv (Ty.Struct "Buf"))
  in
  let run x =
    ignore
      (Exec.run ctx ~memory:mem ~pc:[] ~fn:"push_if_positive"
         ~args:[ Sval.SPtr buf; Sval.SInt (Term.int_var x) ])
  in
  run "x1";
  run "x2";
  run "x3";
  check_int "one miss" 1 store.Summary.misses;
  check_int "two hits" 2 store.Summary.hits

(* Summary keys are persisted in stores, so their bytes are a format.
   [spec_key] states that format apart from both walks. The copy-free
   walk ([key_cell]), the rebuilding one ([canon_cell]) and the format
   must agree on the bytes, and the two walks must bind the same names
   to the same terms in the same order. *)
let gen_scell : Sval.scell QCheck.Gen.t =
  let open QCheck.Gen in
  let term =
    oneof
      [
        map Term.int (int_range (-40) 40);
        map (fun i -> Term.int_var (Printf.sprintf "s%d" i)) (int_bound 5);
        map2
          (fun i k ->
            Term.add [ Term.int_var (Printf.sprintf "s%d" i); Term.int k ])
          (int_bound 5) (int_range 1 9);
      ]
  in
  let boolean =
    oneof
      [
        return Term.True;
        return Term.False;
        map (fun i -> Term.bool_var (Printf.sprintf "b%d" i)) (int_bound 3);
      ]
  in
  let scalar =
    oneof
      [
        map (fun t -> Sval.CInt t) term;
        map (fun t -> Sval.CBool t) boolean;
        map2
          (fun block path -> Sval.CPtr { Value.block; path })
          (int_bound 30) (list_size (int_bound 3) (int_bound 6));
        return Sval.CNull;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           let cells =
             map Array.of_list (list_size (int_bound 4) (self (n - 1)))
           in
           frequency
             [
               (2, scalar);
               (1, map (fun cs -> Sval.CStruct cs) cells);
               (1, map (fun cs -> Sval.CArray cs) cells);
             ])

let rec spec_key (counter : int ref) (c : Sval.scell) : string =
  let scalar (t : Term.t) =
    match t with
    | Term.Int_const n -> Printf.sprintf "#%d" n
    | Term.True -> "#t"
    | Term.False -> "#f"
    | _ ->
        incr counter;
        "?"
  in
  match c with
  | Sval.CInt t | Sval.CBool t -> scalar t
  | Sval.CPtr p ->
      Printf.sprintf "&%d.%s" p.Value.block
        (String.concat "." (List.map string_of_int p.Value.path))
  | Sval.CNull -> "0"
  | Sval.CStruct cs -> "{" ^ spec_keys counter cs ^ "}"
  | Sval.CArray cs -> "[" ^ spec_keys counter cs ^ "]"

and spec_keys counter cs =
  String.concat "" (Array.to_list (Array.map (spec_key counter) cs))

let prop_key_walk_matches_canon =
  QCheck.Test.make ~name:"key walk = canon_cell = key format" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Sval.pp_scell) gen_scell)
    (fun c ->
      let walked = Summary.new_state () and canon = Summary.new_state () in
      Summary.key_cell walked c;
      ignore (Summary.canon_cell canon c);
      let symbolic = ref 0 in
      let spec = spec_key symbolic c in
      Buffer.contents walked.Summary.buf = Buffer.contents canon.Summary.buf
      && Buffer.contents walked.Summary.buf = spec
      && List.equal
           (fun (n1, t1) (n2, t2) -> n1 = n2 && Term.equal t1 t2)
           walked.Summary.bindings canon.Summary.bindings
      && List.length walked.Summary.bindings = !symbolic
      && List.rev_map fst walked.Summary.bindings
         = List.init !symbolic (Printf.sprintf "$c%d"))

(* The eleven blue layers of Figure 5: the candidates
   [Engine.Builder.summarized_layers] is chosen from, and the intercepts
   the summary-key format was recorded with. *)
let candidate_layers =
  [
    "findRRSetForQuery"; "isDelegation"; "findWildcardChild"; "treeSearch";
    "appendSetAsAnswers"; "appendSOAAuthority"; "glueForTarget";
    "additionalForSet"; "buildReferral"; "answerAt"; "wildcardLookup";
  ]

(* [Check.prepare]'s harness for v3.0-fixed on [zone], with summaries
   at [layers] instead of the production list; [on_call fn] runs before
   each intercepted call. *)
let harness_with ?(on_call = ignore) ~layers store zone =
  let prog =
    Engine.Versions.compiled (Engine.Versions.fixed Engine.Versions.v3_0)
  in
  let enc = Dnstree.Encode.encode (Dnstree.Tree.build zone) in
  let h = Refine.Check.prepare ~store prog enc Refine.Check.Inline_all in
  h.Refine.Check.exec_ctx.Exec.intercepts <-
    List.map
      (fun fn ->
        let i =
          Summary.intercept_for ~frozen_below:h.Refine.Check.frozen_below store
            fn
        in
        (fn, fun ctx path args -> on_call fn; i ctx path args))
      layers;
  (h, enc)

(* Every summary key met while running fixed v3.0 (A) on the reference
   zone with summaries at [candidate_layers], in order, digested. The
   digest is fixed: stores written by earlier builds hold keys in this
   format, and a change here turns every persisted summary into a
   miss. *)
let golden_summary_keys_md5 = "2651c01166a888bd8def49708e8292ab"

let test_summary_keys_golden () =
  let keys = ref [] in
  let persist =
    {
      Summary.sp_load =
        (fun ~fn:_ ~key ->
          keys := key :: !keys;
          None);
      sp_save = (fun ~fn:_ ~key:_ _ -> ());
    }
  in
  let h, enc =
    harness_with ~layers:candidate_layers
      (Summary.create_store ~persist ())
      Spec.Fixtures.reference_zone
  in
  let paths = Refine.Check.run_engine h enc ~qtype:Dns.Rr.A in
  check_bool "no panic path" true
    (List.for_all
       (function _, Exec.Returned _ -> true | _, Exec.Panicked _ -> false)
       paths);
  check_bool "summaries were keyed" true (!keys <> []);
  Alcotest.(check string)
    "summary keys are byte-identical to the recorded ones"
    golden_summary_keys_md5
    (Digest.to_hex (Digest.string (String.concat "\n" (List.rev !keys))))

(* Summaries pay only where they are reused: a miss runs the callee
   symbolically and canonicalizes it, which costs more than inlining the
   call. Over all seven query types on the reference zone and three
   mid-sized generated zones (one summary store per zone, as
   [Pipeline.verify] keeps it), the production list is exactly the
   candidates that hit at least 2/3 of their calls, and each still does
   so when only they are intercepted (measured: at most 44% for the
   inlined ones; at least 81% for the kept ones, 78% once alone). *)
let reuse_zones =
  Spec.Fixtures.reference_zone
  :: (List.init 60 (fun seed ->
          Dns.Zonegen.generate ~seed (Dns.Name.of_string_exn "gen.example"))
     |> List.filter (fun z ->
            let n = Dns.Zone.record_count z in
            n >= 14 && n <= 20)
     |> List.filteri (fun i _ -> i < 3))

let reuse ~layers =
  let calls = Hashtbl.create 16 and misses = Hashtbl.create 16 in
  let get t fn = Option.value ~default:0 (Hashtbl.find_opt t fn) in
  let bump t fn = Hashtbl.replace t fn (1 + get t fn) in
  List.iter
    (fun zone ->
      let store = Summary.create_store () in
      let h, enc = harness_with ~on_call:(bump calls) ~layers store zone in
      List.iter
        (fun qtype -> ignore (Refine.Check.run_engine h enc ~qtype))
        Dnsv.Pipeline.all_qtypes;
      List.iter
        (fun (s : Summary.t) -> bump misses s.Summary.fn)
        (Summary.store_summaries store))
    reuse_zones;
  List.map
    (fun fn ->
      let m = get misses fn in
      Printf.printf "%-20s %5d hits %5d misses\n" fn (get calls fn - m) m;
      (fn, get calls fn - m, m))
    layers

let pays (_, hits, misses) = 3 * hits >= 2 * (hits + misses)

let test_summarized_set_is_measured_reuse () =
  check_int "four zones" 4 (List.length reuse_zones);
  let measured = reuse ~layers:candidate_layers in
  let names l = List.sort compare (List.map (fun (fn, _, _) -> fn) l) in
  Alcotest.(check (list string))
    "summarized layers = candidates reused on >= 2/3 of their calls"
    (names (List.filter pays measured))
    (List.sort compare Engine.Builder.summarized_layers);
  List.iter
    (fun ((fn, _, _) as r) ->
      check_bool (fn ^ " still reused on >= 2/3 of its calls") true (pays r))
    (reuse ~layers:Engine.Builder.summarized_layers)

(* Summarization soundness against concrete replay: any model of a
   case's condition, run through the interpreter, must reproduce the
   case's recorded effect. *)
let prop_summary_sound =
  QCheck.Test.make ~name:"summary cases replay concretely" ~count:30
    QCheck.(int_range (-10) 10)
    (fun x ->
      let ctx = Exec.create effect_prog in
      let mem, buf =
        Sval.alloc (sym_mem ())
          (Sval.scell_default effect_prog.Instr.tenv (Ty.Struct "Buf"))
      in
      let summary, _, _ =
        Summary.summarize_at ctx ~frozen_below:0 ~mem ~fn:"push_if_positive"
          ~args:[ Sval.SPtr buf; Sval.SInt (Term.int_var "x") ]
      in
      let m = Smt.Model.add_int "x" x Smt.Model.empty in
      let matching =
        List.filter
          (fun (c : Summary.case) ->
            List.for_all
              (fun t ->
                Smt.Model.satisfies m
                  (Term.subst [ ("$c0", Term.int_var "x") ] t))
              c.Summary.cond)
          summary.Summary.cases
      in
      (* Exactly one case covers each input. *)
      List.length matching = 1
      &&
      let case = List.hd matching in
      (* Concrete run. *)
      let cmem, cbuf =
        Value.alloc Value.empty_memory
          (Value.mval_default effect_prog.Instr.tenv (Ty.Struct "Buf"))
      in
      match
        Minir.Interp.run effect_prog ~memory:cmem ~fn:"push_if_positive"
          ~args:[ Value.VPtr cbuf; Value.VInt x ]
      with
      | Minir.Interp.Returned (Some (Value.VInt r), final_mem) -> (
          (match case.Summary.outcome with
          | Summary.Ret (Some (Sval.SInt t)) ->
              Smt.Model.eval_total m (Term.subst [ ("$c0", Term.int_var "x") ] t)
              = Term.int r
          | _ -> false)
          &&
          (* Count field agrees. *)
          match
            Minir.Interp.load_mval final_mem { cbuf with Value.path = [ 1 ] }
          with
          | Value.MInt concrete_count ->
              let summary_count =
                match
                  List.find_opt
                    (fun (w : Summary.write) -> w.Summary.w_path = [ 1 ])
                    case.Summary.writes
                with
                | Some w -> (
                    match w.Summary.w_cell with
                    | Sval.CInt t -> (
                        match Smt.Model.eval_total m t with
                        | Term.Int_const n -> n
                        | _ -> -99)
                    | _ -> -99)
                | None -> 0 (* unchanged *)
              in
              concrete_count = summary_count
          | _ -> false)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Manual layer specs & compareRaw                                    *)
(* ------------------------------------------------------------------ *)

let test_all_layers_verify () =
  let prog = Engine.Versions.compiled (Engine.Versions.fixed Engine.Versions.v2_0) in
  List.iter
    (fun (r : Refine.Layers.layer_report) ->
      if not (Refine.Layers.layer_ok r) then
        Alcotest.failf "layer %s: %s" r.Refine.Layers.layer
          (String.concat "; " r.Refine.Layers.mismatches);
      check_bool (r.Refine.Layers.layer ^ " explored paths") true
        (r.Refine.Layers.code_paths > 0))
    (Refine.Layers.check_all prog)

let test_layers_stable_across_versions () =
  (* Table 3's premise: the same dependency specs verify against every
     version. *)
  List.iter
    (fun cfg ->
      let prog = Engine.Versions.compiled (Engine.Versions.fixed cfg) in
      check_bool
        (cfg.Engine.Builder.version ^ " layers ok")
        true
        (List.for_all Refine.Layers.layer_ok (Refine.Layers.check_all prog)))
    [ Engine.Versions.v1_0; Engine.Versions.v3_0 ]

let test_layer_check_catches_wrong_spec () =
  (* A deliberately wrong spec (compareAbs that never answers PARTIAL)
     must be rejected. *)
  let bogus : Exec.intercept =
   fun ctx path args ->
    match args with
    | [ Sval.SPtr _; Sval.SInt _; Sval.SPtr _; Sval.SInt _ ] ->
        ignore ctx;
        [ (path, Exec.Returned (Some (Sval.SInt (Term.int 0)))) ]
    | _ -> Alcotest.fail "args"
  in
  let prog = Engine.Versions.compiled (Engine.Versions.fixed Engine.Versions.v3_0) in
  let enc = Dnstree.Encode.encode (Dnstree.Tree.build Spec.Fixtures.figure11_zone) in
  let mem, args, pc = Refine.Layers.layer_setup prog (Some enc) "compareNames" in
  let code_ctx = Exec.create prog in
  let code = Exec.run code_ctx ~memory:mem ~pc ~fn:"compareNames" ~args in
  let spec_ctx = Exec.create prog in
  let spec = bogus spec_ctx { Exec.pc; mem } args in
  let _, mismatches = Refine.Layers.compare_results mem code spec in
  check_bool "wrong spec rejected" true (mismatches <> [])

let test_compare_raw_refinement () =
  let r = Refine.Raw_name.check () in
  if not (Refine.Raw_name.ok r) then begin
    Refine.Raw_name.print r;
    Alcotest.fail "compareRaw refinement failed"
  end;
  check_bool "many cases" true (List.length r.Refine.Raw_name.cases > 100)

let test_compare_raw_concrete_sanity () =
  (* compareRaw agrees with the label-level comparison on concrete
     inputs, via the interpreter. *)
  let prog = Lazy.force Engine.Name_raw.compiled in
  let run n1 n2 =
    let mem, p1 =
      Value.alloc Value.empty_memory
        (Value.MArray
           (Array.map (fun b -> Value.MInt b) (Engine.Name_raw.wire_bytes n1)))
    in
    let mem, p2 =
      Value.alloc mem
        (Value.MArray
           (Array.map (fun b -> Value.MInt b) (Engine.Name_raw.wire_bytes n2)))
    in
    match
      Minir.Interp.run prog ~memory:mem ~fn:"compareRaw"
        ~args:[ Value.VPtr p1; Value.VPtr p2 ]
    with
    | Minir.Interp.Returned (Some (Value.VInt r), _) -> r
    | _ -> Alcotest.fail "compareRaw failed"
  in
  let n = Dns.Name.of_string_exn in
  check_int "exact" Dnstree.Layout.exactmatch
    (run (n "www.example.com") (n "www.example.com"));
  check_int "partial" Dnstree.Layout.partialmatch
    (run (n "www.example.com") (n "example.com"));
  check_int "nomatch siblings" Dnstree.Layout.nomatch
    (run (n "a.example.com") (n "b.example.com"));
  check_int "nomatch reversed ancestry" Dnstree.Layout.nomatch
    (run (n "example.com") (n "www.example.com"));
  (* The wire-format pitfall: "x3com" is one label whose bytes end like
     ".com"'s wire suffix; boundary tracking must reject it. *)
  check_int "no false suffix match" Dnstree.Layout.nomatch
    (run (n "x3com") (n "com"))

(* ------------------------------------------------------------------ *)
(* The executor itself is differentially tested: symbolically executing
   the whole engine on a fully *concrete* query must yield exactly one
   path whose response image equals the concrete interpreter's result. *)
(* ------------------------------------------------------------------ *)

let prop_symbolic_matches_concrete =
  QCheck.Test.make ~name:"symbolic execution ≡ interpreter on concrete inputs"
    ~count:25
    QCheck.(pair (int_range 0 300) (int_range 0 1_000))
    (fun (seed, qseed) ->
      let zone = Dns.Zonegen.generate ~seed (Dns.Name.of_string_exn "gen.example") in
      let rng = Random.State.make [| qseed |] in
      let q = Dns.Zonegen.random_query ~rng zone in
      QCheck.assume
        (Dns.Name.label_count q.Dns.Message.qname <= Dnstree.Layout.max_labels);
      let cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
      let prog = Engine.Versions.compiled cfg in
      let enc = Dnstree.Encode.encode (Dnstree.Tree.build zone) in
      (* Concrete run through the interpreter. *)
      let concrete =
        match Engine.Versions.run_compiled prog enc q with
        | Engine.Versions.Response r -> r
        | Engine.Versions.Engine_panic m -> Alcotest.failf "panic: %s" m
      in
      (* Symbolic run with concrete arguments. *)
      let ctx = Exec.create prog in
      let mem = Sval.memory_of_concrete enc.Dnstree.Encode.memory in
      let mem, resp_ptr =
        Sval.alloc mem (Sval.scell_default prog.Instr.tenv (Ty.Struct "Response"))
      in
      let codes, qlen =
        Dnstree.Layout.encode_name enc.Dnstree.Encode.interner q.Dns.Message.qname
      in
      let mem, qname_ptr =
        Sval.alloc mem
          (Sval.CArray (Array.map (fun c -> Sval.CInt (Term.int c)) codes))
      in
      let results =
        Exec.run ctx ~memory:mem ~pc:[] ~fn:"resolve"
          ~args:
            [
              Sval.SPtr enc.Dnstree.Encode.root;
              Sval.SPtr resp_ptr;
              Sval.SPtr qname_ptr;
              Sval.SInt (Term.int qlen);
              Sval.SInt (Term.int (Dns.Rr.rtype_code q.Dns.Message.qtype));
            ]
      in
      match results with
      | [ (path, Exec.Returned None) ] ->
          (* Decode the symbolic response (all cells are concrete). *)
          let rec mval_of_cell : Sval.scell -> Value.mval = function
            | Sval.CInt (Term.Int_const n) -> Value.MInt n
            | Sval.CBool Term.True -> Value.MBool true
            | Sval.CBool Term.False -> Value.MBool false
            | Sval.CPtr p -> Value.MPtr p
            | Sval.CNull -> Value.MNull
            | Sval.CStruct cs -> Value.MStruct (Array.map mval_of_cell cs)
            | Sval.CArray cs -> Value.MArray (Array.map mval_of_cell cs)
            | c -> Alcotest.failf "non-concrete cell %a" Sval.pp_scell c
          in
          let cell = Sval.block_value path.Exec.mem resp_ptr.Value.block in
          let symbolic = Dnstree.Encode.decode_response enc (mval_of_cell cell) in
          Dns.Message.equal_response symbolic concrete
      | _ -> false)

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "symex"
    [
      ( "memory",
        [
          Alcotest.test_case "partial abstraction" `Quick
            test_partial_abstraction;
          Alcotest.test_case "cell navigation" `Quick test_cell_navigation;
          Alcotest.test_case "stack blocks excluded" `Quick
            test_stack_blocks_excluded_from_diff;
        ] );
      ( "executor",
        [
          Alcotest.test_case "fork on symbolic branch" `Quick
            test_fork_on_symbolic_branch;
          Alcotest.test_case "feasibility pruning" `Quick
            test_feasibility_pruning;
          Alcotest.test_case "symbolic index concretization" `Quick
            test_symbolic_index_concretization;
          Alcotest.test_case "nil panic path" `Quick test_nil_panic_path;
          Alcotest.test_case "intercept dispatch" `Quick test_intercept_dispatch;
        ] );
      ( "summarization",
        [
          Alcotest.test_case "input-effect pairs" `Quick
            test_summarize_input_effect_pairs;
          Alcotest.test_case "application matches inlining" `Quick
            test_summary_application_matches_inline;
          Alcotest.test_case "cache hits" `Quick test_summary_cache_hits;
          Alcotest.test_case "summary keys match the recorded format" `Quick
            test_summary_keys_golden;
          Alcotest.test_case "summarized set = measured reuse" `Slow
            test_summarized_set_is_measured_reuse;
        ]
        @ qcheck [ prop_summary_sound; prop_key_walk_matches_canon ] );
      ( "layers",
        [
          Alcotest.test_case "all layers verify" `Slow test_all_layers_verify;
          Alcotest.test_case "stable across versions" `Slow
            test_layers_stable_across_versions;
          Alcotest.test_case "wrong spec rejected" `Quick
            test_layer_check_catches_wrong_spec;
          Alcotest.test_case "compareRaw refinement (§6.3)" `Slow
            test_compare_raw_refinement;
          Alcotest.test_case "compareRaw concrete sanity" `Quick
            test_compare_raw_concrete_sanity;
        ] );
      ("soundness", qcheck [ prop_symbolic_matches_concrete ]);
    ]
