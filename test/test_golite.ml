(* Tests for the Golite frontend and the Minir interpreter: compilation
   of representative programs, runtime semantics, automatic safety
   checks, the well-formedness checker, and the opaque-pointer pass. *)

module Ty = Minir.Ty
module Instr = Minir.Instr
module Value = Minir.Value
module Interp = Minir.Interp
open Golite.Dsl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_int ?memory prog fn args =
  let memory = Option.value ~default:Value.empty_memory memory in
  match Interp.run prog ~memory ~fn ~args with
  | Interp.Returned (Some (Value.VInt n), _) -> n
  | Interp.Returned _ -> Alcotest.fail "expected an integer result"
  | Interp.Panicked msg -> Alcotest.fail ("panicked: " ^ msg)

let expect_panic prog fn args =
  match Interp.run prog ~memory:Value.empty_memory ~fn ~args with
  | Interp.Panicked msg -> msg
  | Interp.Returned _ -> Alcotest.fail "expected a panic"

(* ------------------------------------------------------------------ *)
(* Arithmetic, loops, short-circuit                                   *)
(* ------------------------------------------------------------------ *)

let arith_prog =
  program []
    [
      func "factorial"
        ~params:[ ("n", tint) ]
        ~ret:(Some tint)
        [
          decl_init "acc" tint (i 1);
          decl_init "k" tint (i 1);
          while_
            (v "k" <= v "n")
            [ set "acc" (v "acc" * v "k"); set "k" (v "k" + i 1) ];
          return (v "acc");
        ];
      func "abs"
        ~params:[ ("x", tint) ]
        ~ret:(Some tint)
        [ if_ (v "x" < i 0) [ return (neg (v "x")) ] [ return (v "x") ] ];
      func "safe_div"
        ~params:[ ("a", tint); ("b", tint) ]
        ~ret:(Some tint)
        [ return (v "a" / v "b") ];
      (* Short-circuit: (b != 0) && (a / b > 1). Division must be skipped
         when b = 0. *)
      func "guarded"
        ~params:[ ("a", tint); ("b", tint) ]
        ~ret:(Some tint)
        [
          if_
            (v "b" != i 0 && v "a" / v "b" > i 1)
            [ return (i 1) ]
            [ return (i 0) ];
        ];
      func "loop_control"
        ~params:[ ("n", tint) ]
        ~ret:(Some tint)
        [
          (* Sum of odd numbers below n, stopping at 100. *)
          decl_init "sum" tint (i 0);
          decl_init "k" tint (i 0);
          while_ (b true)
            [
              set "k" (v "k" + i 1);
              when_ (v "k" >= v "n") [ break_ ];
              when_ (v "k" % i 2 == i 0) [ continue_ ];
              set "sum" (v "sum" + v "k");
              when_ (v "sum" > i 100) [ break_ ];
            ];
          return (v "sum");
        ];
    ]

let compiled_arith = lazy (Golite.Compile.compile arith_prog)

let test_factorial () =
  let p = Lazy.force compiled_arith in
  check_int "5! = 120" 120 (run_int p "factorial" [ Value.VInt 5 ]);
  check_int "0! = 1" 1 (run_int p "factorial" [ Value.VInt 0 ])

let test_abs () =
  let p = Lazy.force compiled_arith in
  check_int "abs -7" 7 (run_int p "abs" [ Value.VInt (-7) ]);
  check_int "abs 3" 3 (run_int p "abs" [ Value.VInt 3 ])

let test_division_panic () =
  let p = Lazy.force compiled_arith in
  check_int "10 / 2" 5 (run_int p "safe_div" [ Value.VInt 10; Value.VInt 2 ]);
  let msg = expect_panic p "safe_div" [ Value.VInt 1; Value.VInt 0 ] in
  check_bool "divide-by-zero panic" true
    (Astring.String.is_infix ~affix:"zero" msg)

let test_short_circuit () =
  let p = Lazy.force compiled_arith in
  (* b = 0 must not divide. *)
  check_int "guard blocks division" 0
    (run_int p "guarded" [ Value.VInt 10; Value.VInt 0 ]);
  check_int "guard passes" 1 (run_int p "guarded" [ Value.VInt 10; Value.VInt 2 ])

let test_loop_control () =
  let p = Lazy.force compiled_arith in
  (* odds below 7: 1+3+5 = 9 *)
  check_int "break/continue" 9 (run_int p "loop_control" [ Value.VInt 7 ])

let prop_factorial_matches_ocaml =
  QCheck.Test.make ~name:"golite factorial = OCaml factorial" ~count:30
    QCheck.(int_range 0 12)
    (fun n ->
      let rec fact k =
        Stdlib.(if k <= 1 then 1 else k * fact (k - 1))
      in
      run_int (Lazy.force compiled_arith) "factorial" [ Value.VInt n ] = fact n)

(* ------------------------------------------------------------------ *)
(* Structs, arrays, pointers, safety checks                           *)
(* ------------------------------------------------------------------ *)

let data_prog =
  program
    [
      struct_ "Point" [ ("x", tint); ("y", tint) ];
      struct_ "Stack" [ ("data", tarray tint 4); ("level", tint) ];
      struct_ "Node" [ ("value", tint); ("next", tptr (tstruct "Node")) ];
    ]
    [
      func "mk_point"
        ~params:[ ("x", tint); ("y", tint) ]
        ~ret:(Some (tptr (tstruct "Point")))
        [
          decl_init "p" (tptr (tstruct "Point")) (new_ (tstruct "Point"));
          set_field (v "p") "x" (v "x");
          set_field (v "p") "y" (v "y");
          return (v "p");
        ];
      func "manhattan"
        ~params:[ ("p", tptr (tstruct "Point")) ]
        ~ret:(Some tint)
        [ return (v "p" %. "x" + v "p" %. "y") ];
      (* The paper's Figure-3 stack: push is encapsulated, but the level
         field is also read directly by external code. *)
      func "push"
        ~params:[ ("s", tptr (tstruct "Stack")); ("x", tint) ]
        ~ret:None
        [
          set_index (v "s" %. "data") (v "s" %. "level") (v "x");
          set_field (v "s") "level" (v "s" %. "level" + i 1);
          return_void;
        ];
      func "stack_sum" ~params:[] ~ret:(Some tint)
        [
          decl "s" (tstruct "Stack");
          expr (call "push" [ v "s"; i 10 ]);
          expr (call "push" [ v "s"; i 20 ]);
          expr (call "push" [ v "s"; i 30 ]);
          decl_init "sum" tint (i 0);
          decl_init "k" tint (i 0);
          while_
            (v "k" < v "s" %. "level")
            [
              set "sum" (v "sum" + (v "s" %. "data" %@ v "k"));
              set "k" (v "k" + i 1);
            ];
          return (v "sum");
        ];
      (* Pushing 5 elements overflows the 4-cell array: the compiler's
         bounds check must panic. *)
      func "stack_overflow" ~params:[] ~ret:(Some tint)
        [
          decl "s" (tstruct "Stack");
          decl_init "k" tint (i 0);
          while_ (v "k" < i 5)
            [ expr (call "push" [ v "s"; v "k" ]); set "k" (v "k" + i 1) ];
          return (v "s" %. "level");
        ];
      func "nil_deref" ~params:[] ~ret:(Some tint)
        [
          decl_init "p" (tptr (tstruct "Point")) (nil (tstruct "Point"));
          return (v "p" %. "x");
        ];
      (* Linked list length, with heap nodes. *)
      func "list_len"
        ~params:[ ("head", tptr (tstruct "Node")) ]
        ~ret:(Some tint)
        [
          decl_init "n" tint (i 0);
          decl_init "cur" (tptr (tstruct "Node")) (v "head");
          while_
            (v "cur" != nil (tstruct "Node"))
            [ set "n" (v "n" + i 1); set "cur" (v "cur" %. "next") ];
          return (v "n");
        ];
      func "mk_list"
        ~params:[ ("n", tint) ]
        ~ret:(Some (tptr (tstruct "Node")))
        [
          decl_init "head" (tptr (tstruct "Node")) (nil (tstruct "Node"));
          decl_init "k" tint (i 0);
          while_ (v "k" < v "n")
            [
              decl_init "node" (tptr (tstruct "Node")) (new_ (tstruct "Node"));
              set_field (v "node") "value" (v "k");
              set_field (v "node") "next" (v "head");
              set "head" (v "node");
              set "k" (v "k" + i 1);
            ];
          return (v "head");
        ];
      func "roundtrip"
        ~params:[ ("n", tint) ]
        ~ret:(Some tint)
        [ return (call "list_len" [ call "mk_list" [ v "n" ] ]) ];
    ]

let compiled_data = lazy (Golite.Compile.compile data_prog)

let test_struct_fields () =
  let p = Lazy.force compiled_data in
  match
    Interp.run p ~memory:Value.empty_memory ~fn:"mk_point"
      ~args:[ Value.VInt 3; Value.VInt 4 ]
  with
  | Interp.Returned (Some (Value.VPtr ptr), heap) -> (
      match Interp.load_mval heap ptr with
      | Value.MStruct [| Value.MInt 3; Value.MInt 4 |] -> ()
      | mv -> Alcotest.failf "unexpected struct %a" Value.pp_mval mv)
  | _ -> Alcotest.fail "expected pointer result"

let test_stack () =
  let p = Lazy.force compiled_data in
  check_int "stack sum" 60 (run_int p "stack_sum" [])

let test_stack_overflow_panics () =
  let p = Lazy.force compiled_data in
  let msg = expect_panic p "stack_overflow" [] in
  check_bool "bounds panic" true
    (Astring.String.is_infix ~affix:"out of range" msg)

let test_nil_deref_panics () =
  let p = Lazy.force compiled_data in
  let msg = expect_panic p "nil_deref" [] in
  check_bool "nil panic" true (Astring.String.is_infix ~affix:"nil" msg)

let prop_list_roundtrip =
  QCheck.Test.make ~name:"linked list length roundtrip" ~count:30
    QCheck.(int_range 0 20)
    (fun n -> run_int (Lazy.force compiled_data) "roundtrip" [ Value.VInt n ] = n)

(* ------------------------------------------------------------------ *)
(* Type and well-formedness rejection                                 *)
(* ------------------------------------------------------------------ *)

let test_type_errors () =
  let reject prog =
    match Golite.Compile.compile prog with
    | _ -> Alcotest.fail "expected a Golite_error"
    | exception Golite.Ast.Golite_error _ -> ()
  in
  (* int + bool *)
  reject
    (program []
       [
         func "bad" ~params:[] ~ret:(Some tint)
           [ return (i 1 + b true) ];
       ]);
  (* unknown variable *)
  reject
    (program []
       [ func "bad" ~params:[] ~ret:(Some tint) [ return (v "ghost") ] ]);
  (* wrong arity *)
  reject
    (program []
       [
         func "id" ~params:[ ("x", tint) ] ~ret:(Some tint) [ return (v "x") ];
         func "bad" ~params:[] ~ret:(Some tint) [ return (call "id" []) ];
       ]);
  (* return type mismatch *)
  reject
    (program []
       [ func "bad" ~params:[] ~ret:(Some tint) [ return (b true) ] ])

let test_wellform_rejects () =
  (* Hand-build an ill-formed Minir function: use of undefined register. *)
  let f =
    {
      Instr.fn_name = "broken";
      params = [];
      ret_ty = Some Ty.I64;
      entry = "entry";
      blocks =
        [
          ( "entry",
            { Instr.insns = []; term = Instr.Ret (Some (Instr.Reg "ghost")) }
          );
        ];
    }
  in
  let p = { Instr.tenv = []; funcs = [ f ] } in
  match Minir.Wellform.check p with
  | Minir.Wellform.Ok -> Alcotest.fail "expected rejection"
  | Minir.Wellform.Errors _ -> ()

let test_missing_return_panics () =
  let prog =
    program []
      [
        func "no_ret" ~params:[ ("x", tint) ] ~ret:(Some tint)
          [ when_ (v "x" > i 0) [ return (i 1) ] ];
      ]
  in
  let p = Golite.Compile.compile prog in
  check_int "positive path returns" 1 (run_int p "no_ret" [ Value.VInt 5 ]);
  let msg = expect_panic p "no_ret" [ Value.VInt (-5) ] in
  check_bool "missing return" true
    (Astring.String.is_infix ~affix:"missing return" msg)

(* ------------------------------------------------------------------ *)
(* Opaque pointer resolution (§5.5)                                   *)
(* ------------------------------------------------------------------ *)

let test_opaque_resolution () =
  (* Hand-write IR that bitcasts a Point* to i8*, byte-offsets to field y
     (offset 8 under the data layout), and loads/stores through it. *)
  let tenv =
    [
      {
        Ty.sname = "Point";
        fields =
          [ { Ty.fname = "x"; fty = Ty.I64 }; { Ty.fname = "y"; fty = Ty.I64 } ];
      };
    ]
  in
  let f =
    {
      Instr.fn_name = "poke_y";
      params = [ ("p", Ty.Ptr (Ty.Struct "Point")) ];
      ret_ty = Some Ty.I64;
      entry = "entry";
      blocks =
        [
          ( "entry",
            {
              Instr.insns =
                [
                  Instr.Assign ("raw", Instr.Bitcast (Instr.Reg "p"));
                  Instr.Assign
                    ("yptr", Instr.Byte_gep (Instr.Reg "raw", Instr.Const_int 8));
                  Instr.Opaque_store (Ty.I64, Instr.Const_int 42, Instr.Reg "yptr");
                  Instr.Assign ("out", Instr.Opaque_load (Ty.I64, Instr.Reg "yptr"));
                ];
              term = Instr.Ret (Some (Instr.Reg "out"));
            } );
        ];
    }
  in
  let p = { Instr.tenv; funcs = [ f ] } in
  let resolved = Minir.Opaque.resolve p in
  Minir.Wellform.check_exn resolved;
  (* No opaque operations must remain. *)
  List.iter
    (fun f ->
      List.iter
        (fun (_, blk) ->
          List.iter
            (function
              | Instr.Assign (_, (Instr.Bitcast _ | Instr.Byte_gep _ | Instr.Opaque_load _))
              | Instr.Opaque_store _ ->
                  Alcotest.fail "opaque op left after resolution"
              | _ -> ())
            blk.Instr.insns)
        f.Instr.blocks)
    resolved.Instr.funcs;
  (* Execute: allocate a Point, run poke_y, expect 42 and memory updated. *)
  let mem, ptr =
    Value.alloc Value.empty_memory
      (Value.MStruct [| Value.MInt 1; Value.MInt 2 |])
  in
  match
    Interp.run resolved ~memory:mem ~fn:"poke_y" ~args:[ Value.VPtr ptr ]
  with
  | Interp.Returned (Some (Value.VInt 42), heap) -> (
      match Interp.load_mval heap ptr with
      | Value.MStruct [| Value.MInt 1; Value.MInt 42 |] -> ()
      | mv -> Alcotest.failf "unexpected memory %a" Value.pp_mval mv)
  | Interp.Returned _ -> Alcotest.fail "wrong result"
  | Interp.Panicked m -> Alcotest.fail ("panic: " ^ m)

let test_pretty_printer_smoke () =
  let p = Lazy.force compiled_data in
  let s = Minir.Pretty.program_to_string p in
  check_bool "mentions define" true (Astring.String.is_infix ~affix:"define @push" s);
  check_bool "mentions panic" true (Astring.String.is_infix ~affix:"panic" s)

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest


(* ------------------------------------------------------------------ *)
(* Concrete syntax: print/parse round trip                            *)
(* ------------------------------------------------------------------ *)

let test_print_parse_roundtrip_engine () =
  (* Every engine version's source survives a print/parse round trip
     structurally unchanged. *)
  List.iter
    (fun cfg ->
      let p = Engine.Builder.golite_program cfg in
      let text = Golite.Print.program_to_string p in
      match Golite.Parse.program_of_string text with
      | Ok p' ->
          check_bool (cfg.Engine.Builder.version ^ " roundtrip") true (p = p')
      | Error m -> Alcotest.failf "%s: %s" cfg.Engine.Builder.version m)
    (Engine.Versions.all @ [ Engine.Versions.fixed Engine.Versions.dev ])

let test_parse_precedence () =
  (* 1 + 2 * 3 == 7 && !false *)
  let src = "func f() bool {\n  return 1 + 2 * 3 == 7 && !false\n}\n" in
  match Golite.Parse.program_of_string src with
  | Error m -> Alcotest.fail m
  | Ok p -> (
      match (List.hd p.Golite.Ast.funcs).Golite.Ast.body with
      | [ Golite.Ast.Return (Some e) ] ->
          let open Golite.Ast in
          let expected =
            Binop
              ( And,
                Binop
                  ( Eq,
                    Binop (Add, Int 1, Binop (Mul, Int 2, Int 3)),
                    Int 7 ),
                Unop (Not, Bool false) )
          in
          check_bool "precedence" true (e = expected)
      | _ -> Alcotest.fail "unexpected body")

let test_parse_errors () =
  let reject src =
    match Golite.Parse.program_of_string src with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ src)
  in
  reject "func f( {\n}\n";
  reject "func f() int {\n  return 1 +\n}\n";
  reject "struct S {\n  x\n}\n";
  reject "func f() {\n  1 = 2\n}\n";
  reject "garbage\n"

let test_parsed_program_compiles_and_runs () =
  let src =
    "struct P {\n  x int\n  y int\n}\n\n\
     func sum(p *P) int {\n  return p.x + p.y\n}\n\n\
     func main() int {\n\
    \  var p *P = new(P)\n\
    \  p.x = 20\n\
    \  p.y = 22\n\
    \  return sum(p)\n\
     }\n"
  in
  let prog = Golite.Compile.compile (Golite.Parse.program_of_string_exn src) in
  check_int "parsed program runs" 42 (run_int prog "main" [])

(* ------------------------------------------------------------------ *)
(* The executor's contract, on hand-built Minir                       *)
(* ------------------------------------------------------------------ *)

(* Fuel, error messages and block-entry observations are part of what
   callers rely on (counterexample replay classifies Out_of_fuel, the
   serve path reports panic messages, the analysis soundness tests read
   the observer's frames), so they are pinned here on programs small
   enough to count by hand. *)
module Executor = struct
  open Stdlib

  let blk insns term = { Instr.insns; term }

  let fn ?(params = []) ?ret name entry blocks =
    { Instr.fn_name = name; params; ret_ty = ret; entry; blocks }

  let prog ?(tenv = []) funcs = { Instr.tenv; funcs }
  let r x = Instr.Reg x

  (* main(n): i := 0; while i < n { i := inc(i); nop() }; return i *)
  let counter =
    prog
      [
        fn "inc" ~params:[ ("x", Ty.I64) ] ~ret:Ty.I64 "e"
          [
            ( "e",
              blk
                [ Instr.Assign ("y", Instr.Binop (Instr.Add, r "x", Instr.Const_int 1)) ]
                (Instr.Ret (Some (r "y"))) );
          ];
        fn "nop" "e" [ ("e", blk [] (Instr.Ret None)) ];
        fn "main" ~params:[ ("n", Ty.I64) ] ~ret:Ty.I64 "entry"
          [
            ( "entry",
              blk
                [
                  Instr.Assign ("i", Instr.Alloca Ty.I64);
                  Instr.Store (Ty.I64, Instr.Const_int 0, r "i");
                ]
                (Instr.Br "head") );
            ( "head",
              blk
                [
                  Instr.Assign ("c", Instr.Load (Ty.I64, r "i"));
                  Instr.Assign ("k", Instr.Icmp (Instr.Slt, Ty.I64, r "c", r "n"));
                ]
                (Instr.Cond_br (r "k", "body", "exit")) );
            ( "body",
              blk
                [
                  Instr.Assign ("c2", Instr.Call ("inc", [ r "c" ]));
                  Instr.Store (Ty.I64, r "c2", r "i");
                  Instr.Call_void ("nop", []);
                ]
                (Instr.Br "head") );
            ( "exit",
              blk
                [ Instr.Assign ("res", Instr.Load (Ty.I64, r "i")) ]
                (Instr.Ret (Some (r "res"))) );
          ];
      ]

  let run ?fuel ?observer ?(memory = Value.empty_memory) p fn args =
    Interp.run ?fuel ?observer p ~memory ~fn ~args

  (* struct Box { tag : i64; cells : [2 x i64] } *)
  let box_tenv =
    [
      {
        Ty.sname = "Box";
        fields =
          [
            { Ty.fname = "tag"; fty = Ty.I64 };
            { Ty.fname = "cells"; fty = Ty.Array (Ty.I64, 2) };
          ];
      };
    ]

  let box = Ty.Struct "Box"

  let gep dst base path =
    Instr.Assign
      (dst, Instr.Gep (box, base, List.map (fun i -> Instr.Const_int i) path))

  let load dst p = Instr.Assign (dst, Instr.Load (Ty.I64, r p))
  let store v p = Instr.Store (Ty.I64, v, r p)
  let binop dst op a b = Instr.Assign (dst, Instr.Binop (op, r a, b))

  (* A memory holding one input block, Box { tag = 1; cells = [2; 3] }. *)
  let box_memory () =
    Value.alloc Value.empty_memory
      (Value.MStruct
         [| Value.MInt 1; Value.MArray [| Value.MInt 2; Value.MInt 3 |] |])

  let show mv = Format.asprintf "%a" Value.pp_mval mv

  (* bump(b): b.cells[1] += 1 in block "e", += 10 in block "f", and
     return it. Ten ticks; the store of "e" is the fourth. *)
  let bump =
    let add k dst =
      [
        load "x" "c";
        binop dst Instr.Add "x" (Instr.Const_int k);
        store (r dst) "c";
      ]
    in
    prog ~tenv:box_tenv
      [
        fn "bump" ~params:[ ("b", Ty.Ptr box) ] ~ret:Ty.I64 "e"
          [
            ("e", blk ((gep "c" (r "b") [ 1; 1 ] :: add 1 "y")) (Instr.Br "f"));
            ( "f",
              blk (add 10 "z" @ [ load "res" "c" ]) (Instr.Ret (Some (r "res")))
            );
          ];
      ]

  (* A run writes into an input block of the caller's memory: the
     caller's memory is unchanged and the next run from it reads the
     original value; the run's own heap and its observer snapshots
     show each store, and a snapshot stays as it was taken. *)
  let test_copy_on_write () =
    let mem, b = box_memory () in
    let seen = ref [] in
    let observer _fn label _regs m =
      seen := (label, Value.load_mval m b) :: !seen
    in
    (match run ~observer ~memory:mem bump "bump" [ Value.VPtr b ] with
    | Interp.Returned (Some (Value.VInt 14), heap) ->
        Alcotest.(check string) "the run's heap" "{1, [2, 14]}"
          (show (Interp.load_mval heap b));
        Alcotest.(check string) "the run's memory" "{1, [2, 14]}"
          (show (Value.load_mval (Interp.memory heap) b))
    | _ -> Alcotest.fail "expected bump to return 14");
    Alcotest.(check (list (pair string string)))
      "snapshots at block entries"
      [ ("e", "{1, [2, 3]}"); ("f", "{1, [2, 4]}") ]
      (List.rev_map (fun (l, mv) -> (l, show mv)) !seen);
    Alcotest.(check string) "the caller's memory" "{1, [2, 3]}"
      (show (Value.load_mval mem b));
    match run ~memory:mem bump "bump" [ Value.VPtr b ] with
    | Interp.Returned (Some (Value.VInt 14), _) -> ()
    | _ -> Alcotest.fail "a second run must start from the input"

  (* A run that runs out of fuel after its first store leaves nothing
     behind: a fresh run from the same memory returns what a clean run
     returns. *)
  let test_recovery () =
    let mem, b = box_memory () in
    (match run ~fuel:5 ~memory:mem bump "bump" [ Value.VPtr b ] with
    | exception Interp.Out_of_fuel -> ()
    | _ -> Alcotest.fail "expected Out_of_fuel after the first store");
    Alcotest.(check string) "the caller's memory" "{1, [2, 3]}"
      (show (Value.load_mval mem b));
    match run ~memory:mem bump "bump" [ Value.VPtr b ] with
    | Interp.Returned (Some (Value.VInt 14), _) -> ()
    | _ -> Alcotest.fail "expected the clean run's 14"

  (* Two allocations of one struct type start from one shared default
     and must not alias: a.tag := 5; b.cells[0] := 7; return
     a.tag*1000 + b.tag*100 + a.cells[0]*10 + b.cells[0]. *)
  let test_no_aliasing () =
    let p =
      prog ~tenv:box_tenv
        [
          fn "main" ~ret:Ty.I64 "e"
            [
              ( "e",
                blk
                  [
                    Instr.Assign ("a", Instr.Alloca box);
                    Instr.Assign ("b", Instr.Newobject box);
                    gep "at" (r "a") [ 0 ];
                    gep "ac" (r "a") [ 1; 0 ];
                    gep "bt" (r "b") [ 0 ];
                    gep "bc" (r "b") [ 1; 0 ];
                    store (Instr.Const_int 5) "at";
                    store (Instr.Const_int 7) "bc";
                    load "x1" "at";
                    load "x2" "bt";
                    load "x3" "ac";
                    load "x4" "bc";
                    binop "y1" Instr.Mul "x1" (Instr.Const_int 1000);
                    binop "y2" Instr.Mul "x2" (Instr.Const_int 100);
                    binop "y3" Instr.Mul "x3" (Instr.Const_int 10);
                    binop "s1" Instr.Add "y1" (r "y2");
                    binop "s2" Instr.Add "s1" (r "y3");
                    binop "s3" Instr.Add "s2" (r "x4");
                  ]
                  (Instr.Ret (Some (r "s3"))) );
            ];
        ]
    in
    for k = 1 to 2 do
      match run p "main" [] with
      | Interp.Returned (Some (Value.VInt 5007), heap) ->
          Alcotest.(check (list string))
            (Printf.sprintf "run %d: the two blocks" k)
            [ "{5, [0, 0]}"; "{0, [7, 0]}" ]
            [
              show (Interp.load_mval heap { Value.block = 0; path = [] });
              show (Interp.load_mval heap { Value.block = 1; path = [] });
            ]
      | Interp.Returned (Some v, _) ->
          Alcotest.failf "run %d: the allocations alias (%a)" k Value.pp v
      | _ -> Alcotest.failf "run %d: expected an integer" k
    done

  (* One tick per Assign/Store/Call_void and one per block executed:
     entry 3, each head 3 (n+1 visits), each body 7 (Assign, Store,
     Call_void, the block, inc's Assign and block, nop's block), exit 2.
     A run of T ticks needs fuel T+1. *)
  let test_fuel () =
    let n = 5 in
    let ticks = (10 * n) + 8 in
    (match run ~fuel:(ticks + 1) counter "main" [ Value.VInt n ] with
    | Interp.Returned (Some (Value.VInt k), _) -> check_int "result" n k
    | _ -> Alcotest.fail "expected the counter to return n");
    match run ~fuel:ticks counter "main" [ Value.VInt n ] with
    | exception Interp.Out_of_fuel -> ()
    | _ -> Alcotest.fail "expected Out_of_fuel one tick short"

  let one_block ?(params = []) insns term =
    prog
      [
        fn "main" ~params "entry" [ ("entry", blk insns term) ];
        fn "inc" ~params:[ ("x", Ty.I64) ] ~ret:Ty.I64 "e"
          [ ("e", blk [] (Instr.Ret (Some (r "x")))) ];
      ]

  let panics ?memory name p fn args expected =
    match run ?memory p fn args with
    | Interp.Panicked msg -> Alcotest.(check string) name expected msg
    | Interp.Returned _ -> Alcotest.failf "%s: expected a panic" name

  let invalid name f expected =
    match f () with
    | exception Invalid_argument msg -> Alcotest.(check string) name expected msg
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name

  let test_messages () =
    panics "unassigned register"
      (one_block [] (Instr.Ret (Some (r "ghost"))))
      "main" [] "read of unassigned register %ghost";
    (* Binary operands are read right to left. *)
    panics "operand order"
      (one_block
         [ Instr.Assign ("s", Instr.Binop (Instr.Add, r "a", r "b")) ]
         (Instr.Ret None))
      "main" [] "read of unassigned register %b";
    panics "arity mismatch (call)"
      (one_block [ Instr.Assign ("s", Instr.Call ("inc", [])) ] (Instr.Ret None))
      "main" [] "arity mismatch calling inc";
    panics "arity mismatch (entry)" counter "main" [] "arity mismatch calling main";
    (* Arguments are evaluated before the callee is looked up. *)
    panics "arguments before callee"
      (one_block [ Instr.Call_void ("nosuch", [ r "ghost" ]) ] (Instr.Ret None))
      "main" [] "read of unassigned register %ghost";
    invalid "unknown function"
      (fun () ->
        run (one_block [ Instr.Call_void ("nosuch", []) ] (Instr.Ret None)) "main" [])
      "Minir: unknown function nosuch";
    invalid "unknown entry function"
      (fun () -> run counter "nosuch" [])
      "Minir: unknown function nosuch";
    invalid "missing label"
      (fun () -> run (one_block [] (Instr.Br "nowhere")) "main" [])
      "Minir: no block nowhere in function main";
    invalid "missing entry label"
      (fun () -> run (prog [ fn "main" "start" [] ]) "main" [])
      "Minir: no block start in function main";
    (* Only the branch taken is looked up. *)
    (match
       run
         (prog
            [
              fn "main" "entry"
                [
                  ("entry", blk [] (Instr.Cond_br (Instr.Const_bool true, "ok", "nowhere")));
                  ("ok", blk [] (Instr.Ret (Some (Instr.Const_int 7))));
                ];
            ])
         "main" []
     with
    | Interp.Returned (Some (Value.VInt 7), _) -> ()
    | _ -> Alcotest.fail "the untaken missing label must not be looked up");
    panics "opaque op"
      (one_block
         [ Instr.Assign ("q", Instr.Bitcast (Instr.Null (Ty.Ptr Ty.I64))) ]
         (Instr.Ret None))
      "main" [] "opaque pointer op not resolved (run the Opaque pass)";
    panics "opaque store"
      (one_block
         [
           Instr.Opaque_store
             (Ty.I64, Instr.Const_int 1, Instr.Null Ty.Opaque_ptr);
         ]
         (Instr.Ret None))
      "main" [] "opaque store not resolved (run the Opaque pass)";
    panics "panic block"
      (one_block [] (Instr.Panic "index out of range"))
      "main" [] "index out of range";
    panics "unreachable"
      (one_block [] Instr.Unreachable)
      "main" [] "reached unreachable block";
    (* Memory panics, on the load path and on the store path, against an
       input block (Box { tag = 1; cells = [2; 3] }) or a dangling one. *)
    let mem, b = box_memory () in
    let ptr_param = [ ("p", Ty.Ptr box) ] in
    let access path ~write =
      let use = if write then store (Instr.Const_int 9) "q" else load "x" "q" in
      prog ~tenv:box_tenv
        [
          fn "main" ~params:ptr_param "e"
            [ ("e", blk [ gep "q" (r "p") path; use ] (Instr.Ret None)) ];
        ]
    in
    List.iter
      (fun (what, block, path, expected) ->
        List.iter
          (fun write ->
            panics ~memory:mem
              (Printf.sprintf "%s (%s)" what (if write then "store" else "load"))
              (access path ~write) "main"
              [ Value.VPtr { b with Value.block } ]
              expected)
          [ false; true ])
      [
        ("dangling block", 7, [ 0 ], "dangling block 7");
        ("negative block", -1, [], "dangling block -1");
        ("struct field", 0, [ 2 ], "struct field index 2 out of range");
        ("negative field", 0, [ -1 ], "struct field index -1 out of range");
        ("array index", 0, [ 1; 2 ], "array index 2 out of bounds (cap 2)");
        ("negative index", 0, [ 1; -1 ], "array index -1 out of bounds (cap 2)");
        ("scalar", 0, [ 0; 0 ], "indexing into a scalar");
        ("scalar, deeper", 0, [ 1; 0; 3 ], "indexing into a scalar");
      ];
    Alcotest.(check string) "the caller's memory after the panics" "{1, [2, 3]}"
      (show (Value.load_mval mem b));
    (* A store reads its pointer, then its value, then the memory. *)
    panics "store operand order"
      (one_block [ store (r "v") "p" ] (Instr.Ret None))
      "main" [] "read of unassigned register %p";
    panics ~memory:mem "store value before memory"
      (prog ~tenv:box_tenv
         [
           fn "main" ~params:ptr_param "e"
             [ ("e", blk [ store (r "v") "p" ] (Instr.Ret None)) ];
         ])
      "main"
      [ Value.VPtr { Value.block = 7; path = [] } ]
      "read of unassigned register %v";
    let undef_mem, u =
      Value.alloc Value.empty_memory (Value.mval_undef box_tenv box)
    in
    panics ~memory:undef_mem "load of undefined value" (access [ 1; 0 ] ~write:false)
      "main" [ Value.VPtr u ] "load of undefined value"

  (* Every block entry, with the frame's registers sorted as strings. *)
  let test_observer () =
    let seen = ref [] in
    let observer fn label regs _mem =
      let bindings =
        Hashtbl.fold
          (fun r v acc -> Format.asprintf "%s=%a" r Value.pp v :: acc)
          regs []
      in
      seen :=
        Printf.sprintf "%s/%s {%s}" fn label
          (String.concat " " (List.sort compare bindings))
        :: !seen
    in
    (match run ~observer counter "main" [ Value.VInt 2 ] with
    | Interp.Returned (Some (Value.VInt 2), _) -> ()
    | _ -> Alcotest.fail "expected the counter to return 2");
    Alcotest.(check (list string))
      "observed block entries"
      [
        "main/entry {n=2}";
        "main/head {i=&0 n=2}";
        "main/body {c=0 i=&0 k=true n=2}";
        "inc/e {x=0}";
        "nop/e {}";
        "main/head {c2=1 c=0 i=&0 k=true n=2}";
        "main/body {c2=1 c=1 i=&0 k=true n=2}";
        "inc/e {x=1}";
        "nop/e {}";
        "main/head {c2=2 c=1 i=&0 k=true n=2}";
        "main/exit {c2=2 c=2 i=&0 k=false n=2}";
      ]
      (List.rev !seen)
end

let () =
  Alcotest.run "golite"
    [
      ( "arith",
        [
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "abs" `Quick test_abs;
          Alcotest.test_case "division panic" `Quick test_division_panic;
          Alcotest.test_case "short circuit" `Quick test_short_circuit;
          Alcotest.test_case "break/continue" `Quick test_loop_control;
        ]
        @ qcheck [ prop_factorial_matches_ocaml ] );
      ( "data",
        [
          Alcotest.test_case "struct fields" `Quick test_struct_fields;
          Alcotest.test_case "stack push/sum" `Quick test_stack;
          Alcotest.test_case "stack overflow panics" `Quick
            test_stack_overflow_panics;
          Alcotest.test_case "nil deref panics" `Quick test_nil_deref_panics;
        ]
        @ qcheck [ prop_list_roundtrip ] );
      ( "rejection",
        [
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "wellform rejects" `Quick test_wellform_rejects;
          Alcotest.test_case "missing return" `Quick test_missing_return_panics;
        ] );
      ( "opaque",
        [
          Alcotest.test_case "resolution" `Quick test_opaque_resolution;
          Alcotest.test_case "pretty printer" `Quick test_pretty_printer_smoke;
        ] );
      ( "executor",
        [
          Alcotest.test_case "fuel ticks" `Quick Executor.test_fuel;
          Alcotest.test_case "error messages" `Quick Executor.test_messages;
          Alcotest.test_case "observer sequence" `Quick Executor.test_observer;
          Alcotest.test_case "copy-on-write isolation" `Quick
            Executor.test_copy_on_write;
          Alcotest.test_case "allocations do not alias" `Quick
            Executor.test_no_aliasing;
          Alcotest.test_case "recovery after Out_of_fuel" `Quick
            Executor.test_recovery;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "engine sources roundtrip" `Quick
            test_print_parse_roundtrip_engine;
          Alcotest.test_case "operator precedence" `Quick test_parse_precedence;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "parsed program compiles and runs" `Quick
            test_parsed_program_compiles_and_runs;
        ] );
    ]
