(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (§7) and provides Bechamel micro-benchmarks for
   the core verification operations. Performance is measured by the
   repository benchmark (perfbench/, BENCHMARK.json), not here.

     dune exec bench/main.exe              # all tables + micro-benchmarks
     dune exec bench/main.exe -- table1    # just Table 1
     dune exec bench/main.exe -- table2    # just Table 2
     dune exec bench/main.exe -- table3    # just Table 3
     dune exec bench/main.exe -- fig12     # just Figure 12
     dune exec bench/main.exe -- ablation  # summaries vs. inlining
     dune exec bench/main.exe -- micro     # just the Bechamel benches *)

open Bechamel
open Toolkit

let rule () = print_endline (String.make 78 '=')

let table1 () =
  rule ();
  Dnsv.Table1.print (Dnsv.Table1.run ());
  print_newline ()

let table2 () =
  rule ();
  Dnsv.Table2.print (Dnsv.Table2.run ());
  print_newline ()

let table3 () =
  rule ();
  Dnsv.Table3.print (Dnsv.Table3.run ());
  print_newline ()

let fig12 () =
  rule ();
  Dnsv.Fig12.print (Dnsv.Fig12.run ());
  print_newline ()

(* Ablation: the summarization design choice (§5.3) — whole-engine
   verification with summaries at resolution layers vs. naive full
   inlining. *)
let ablation () =
  rule ();
  print_endline
    "Ablation: summarized resolution layers vs. full inlining (3 qtypes,";
  print_endline "reference zone, engine v3.0-fixed)";
  print_newline ();
  let cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let zone = Spec.Fixtures.reference_zone in
  let measure mode =
    let t0 = Unix.gettimeofday () in
    (* One summary store shared across the query types: summaries are
       reused wherever the calling shape recurs, which is where the
       technique pays off. *)
    let store = Symex.Summary.create_store () in
    let reports =
      List.map
        (fun qtype -> Refine.Check.check_version ~mode ~store cfg zone ~qtype)
        [ Dns.Rr.A; Dns.Rr.MX; Dns.Rr.NS ]
    in
    let ok = List.for_all Refine.Check.ok reports in
    let solver =
      List.fold_left
        (fun a (r : Refine.Check.report) -> a + r.Refine.Check.solver_calls)
        0 reports
    in
    (Unix.gettimeofday () -. t0, ok, solver)
  in
  let t_sum, ok_sum, calls_sum = measure Refine.Check.With_summaries in
  let t_inl, ok_inl, calls_inl = measure Refine.Check.Inline_all in
  Printf.printf "%-18s %10s %8s %14s\n" "mode" "seconds" "clean" "solver calls";
  Printf.printf "%-18s %10.3f %8b %14d\n" "with summaries" t_sum ok_sum
    calls_sum;
  Printf.printf "%-18s %10.3f %8b %14d\n" "full inlining" t_inl ok_inl
    calls_inl;
  Printf.printf
    "\nSummaries amortize re-exploration across call sites; both modes must\n";
  Printf.printf "agree on the verification verdict.\n\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per experiment)           *)
(* ------------------------------------------------------------------ *)

let bench_zone = Spec.Fixtures.figure11_zone

let micro_tests () =
  let small_cfg = Engine.Versions.fixed Engine.Versions.v3_0 in
  let enc = lazy (Dnstree.Encode.encode (Dnstree.Tree.build bench_zone)) in
  let prog = lazy (Engine.Versions.compiled small_cfg) in
  [
    (* Table 1 driver: full-path symbolic execution + summarization of
       TreeSearch on the Figure-11 tree. *)
    Test.make ~name:"table1/treesearch-summarization"
      (Staged.stage (fun () -> ignore (Dnsv.Table1.run ())));
    (* Table 2 unit: one buggy-version refinement check (bug 8). *)
    Test.make ~name:"table2/verify-bug8-witness"
      (Staged.stage (fun () ->
           let w = Spec.Fixtures.witness 8 in
           ignore
             (Refine.Check.check_version Engine.Versions.v3_0
                w.Spec.Fixtures.zone ~qtype:Dns.Rr.A)));
    (* Table 3 driver: AST size accounting across versions. *)
    Test.make ~name:"table3/loc-accounting"
      (Staged.stage (fun () -> ignore (Dnsv.Table3.run ())));
    (* Figure 12 unit: one whole-engine refinement run (one qtype). *)
    Test.make ~name:"fig12/check-version-one-qtype"
      (Staged.stage (fun () ->
           ignore
             (Refine.Check.check_version small_cfg bench_zone ~qtype:Dns.Rr.A)));
    (* Substrate costs. *)
    Test.make ~name:"substrate/solver-conjunction"
      (Staged.stage (fun () ->
           let open Smt in
           let x = Term.int_var "x" and y = Term.int_var "y" in
           ignore
             (Solver.check
                [
                  Term.le (Term.int 0) x;
                  Term.le x (Term.int 6);
                  Term.eq y (Term.add [ x; Term.int 3 ]);
                  Term.lt y (Term.int 8);
                ])));
    Test.make ~name:"substrate/engine-concrete-resolve"
      (Staged.stage (fun () ->
           ignore
             (Engine.Versions.run_compiled (Lazy.force prog) (Lazy.force enc)
                (Dns.Message.query
                   (Dns.Name.of_string_exn "web.cs.example.com")
                   Dns.Rr.A))));
    Test.make ~name:"substrate/spec-resolve"
      (Staged.stage (fun () ->
           ignore
             (Spec.Rrlookup.resolve bench_zone
                (Dns.Message.query
                   (Dns.Name.of_string_exn "web.cs.example.com")
                   Dns.Rr.A))));
    Test.make ~name:"substrate/zonegen"
      (Staged.stage (fun () ->
           ignore
             (Dns.Zonegen.generate ~seed:42
                (Dns.Name.of_string_exn "bench.example"))));
  ]

let run_micro () =
  rule ();
  print_endline "Bechamel micro-benchmarks (monotonic clock, time/run)";
  print_newline ();
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let estimates = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "%-42s %14.1f ns/run\n" name t
          | _ -> Printf.printf "%-42s (no estimate)\n" name)
        estimates)
    (micro_tests ());
  print_newline ()

let () =
  let targets =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as rest) -> rest
    | _ -> [ "table1"; "table2"; "table3"; "fig12"; "ablation"; "micro" ]
  in
  List.iter
    (function
      | "table1" -> table1 ()
      | "table2" -> table2 ()
      | "table3" -> table3 ()
      | "fig12" -> fig12 ()
      | "ablation" -> ablation ()
      | "micro" -> run_micro ()
      | other ->
          Printf.eprintf
            "unknown target %s (expected \
             table1|table2|table3|fig12|ablation|micro)\n"
            other;
          exit 2)
    targets
