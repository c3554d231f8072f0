(* The dnsv command-line interface.

     dnsv verify    — verify an engine version against the top-level spec
     dnsv batch     — verify a batch of generated zones (journaled, resumable)
     dnsv chaos     — seeded fault-injection soak over the pipeline
     dnsv lint      — static-analysis findings over the bundled engines
     dnsv layers    — verify the dependency layers against manual specs
     dnsv summarize — summarize TreeSearch (Table-1 style output)
     dnsv bugs      — list the Table-2 bug registry
     dnsv zonegen   — generate random zone configurations
     dnsv replay    — run one concrete query on engine and spec
     dnsv serve     — answer RFC 1035 UDP queries with a verified engine
     dnsv loadgen   — fire a seeded (partly malformed) query mix at a server
     dnsv wire      — check the wire decoder's panic guards are discharged
     dnsv top       — live per-window dashboard over a serve stats endpoint *)

module Name = Dns.Name
module Rr = Dns.Rr
module Zone = Dns.Zone
module Message = Dns.Message

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                   *)
(* ------------------------------------------------------------------ *)

let version_arg =
  let doc = "Engine version: 1.0, 2.0, 3.0, dev, or <v>-fixed." in
  Arg.(value & opt string "3.0-fixed" & info [ "e"; "engine" ] ~docv:"VERSION" ~doc)

(* Exit codes: 0 = proved, 1 = refuted, 2 = inconclusive, 3 = internal
   or usage error. *)

let config_of_version v =
  match Engine.Versions.find v with
  | Some cfg -> cfg
  | None ->
      Printf.eprintf "unknown engine version %s\n" v;
      exit 3

let zone_file_arg =
  let doc = "Zone file (master-file format with \\$ORIGIN). Defaults to the built-in reference zone." in
  Arg.(value & opt (some file) None & info [ "z"; "zone" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Seed for generated zones." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let load_zone = function
  | None -> Spec.Fixtures.reference_zone
  | Some file -> (
      let ic = open_in file in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      match Dns.Zonefile.parse text with
      | Ok z ->
          (match Zone.validate z with
          | [] -> z
          | errs ->
              List.iter
                (fun e -> Format.eprintf "zone error: %a@." Zone.pp_error e)
                errs;
              exit 3)
      | Error m ->
          Printf.eprintf "cannot parse %s: %s\n" file m;
          exit 3)

let qtype_arg =
  let parse s =
    match Rr.rtype_of_string (String.uppercase_ascii s) with
    | Some t -> Ok t
    | None -> Error (`Msg ("unknown query type " ^ s))
  in
  let print fmt t = Format.pp_print_string fmt (Rr.rtype_to_string t) in
  Arg.conv (parse, print)

let qtypes_arg =
  let doc = "Query types to verify (comma separated)." in
  Arg.(
    value
    & opt (list qtype_arg) [ Rr.A; Rr.MX; Rr.NS ]
    & info [ "t"; "qtypes" ] ~docv:"TYPES" ~doc)

(* ------------------------------------------------------------------ *)
(* Fault injection flags (shared by verify and batch)                 *)
(* ------------------------------------------------------------------ *)

let fault_seed_arg =
  let doc =
    "Arm the deterministic fault plan the chaos harness samples for \
     $(docv) — the exact replay knob for a plan `dnsv chaos' reports."
  in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED" ~doc)

let fault_plan_arg =
  let doc =
    "Arm an explicit fault plan: comma-separated \
     $(i,site):$(i,after)[:persistent] entries, e.g. \
     solver-unknown:3,cache-corrupt:1:persistent. Sites are the \
     Faultinject sites (solver-unknown, summarize-raise, \
     summary-invalid, exec-fuel, clock-overrun, cache-corrupt, \
     journal-torn, store-corrupt, store-stale, store-lock-held, \
     conflict-corrupt, wire-garble, wire-truncate, serve-overload, \
     obsv-sink-fail)."
  in
  Arg.(value & opt (some string) None & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

let apply_faults fault_seed fault_plan =
  (match fault_seed with
  | None -> ()
  | Some s -> Dnsv.Chaos.arm_plan (Dnsv.Chaos.plan_of_seed s));
  match fault_plan with
  | None -> ()
  | Some spec ->
      String.split_on_char ',' spec
      |> List.iter (fun entry ->
             let fail () =
               Printf.eprintf
                 "bad --fault-plan entry %S (want site:after[:persistent])\n"
                 entry;
               exit 3
             in
             match String.split_on_char ':' entry with
             | site :: after :: rest -> (
                 let persistent =
                   match rest with
                   | [] -> false
                   | [ "persistent" ] -> true
                   | _ -> fail ()
                 in
                 match
                   (Faultinject.site_of_string site, int_of_string_opt after)
                 with
                 | Some s, Some n when n >= 1 ->
                     Faultinject.arm ~persistent ~after:n s
                 | _ -> fail ())
             | _ -> fail ())

(* ------------------------------------------------------------------ *)
(* Persistent-store flags (shared by verify and batch)                *)
(* ------------------------------------------------------------------ *)

let store_dir_arg =
  let doc =
    "Persistent verification store: solver results, module summaries, \
     layer verdicts and whole query-type reports are kept in $(docv) \
     under content-hash fingerprints and reused across runs, so \
     re-verifying after an edit re-derives only the edit's cone of \
     influence. Served entries are re-validated against their \
     certificates; a corrupt, stale or locked store degrades to fresh \
     work, never to a wrong verdict."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

(* Open the persistent store (if requested) around [f]. A directory
   held by a live writer opens read-only; opening never fails the run. *)
let with_store store_dir (f : Store.t option -> 'a) : 'a =
  match store_dir with
  | Some dir ->
      let st = Store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Store.close st)
        (fun () -> f (Some st))
  | None -> f None

(* ------------------------------------------------------------------ *)
(* Static-analysis flag (shared by verify and batch)                  *)
(* ------------------------------------------------------------------ *)

let analysis_arg =
  let doc =
    "How the symbolic executor uses the static analysis: $(b,trust) \
     prunes statically-dead branches without solver calls; $(b,off) \
     forks and asks the solver at every branch, discharging nothing \
     statically; $(b,distrust) still makes every solver call and \
     cross-checks each static claim against the certified solver (the \
     chaos-soak mode; mismatches are counted under \
     analysis.crosscheck_mismatch and the solver's answer wins)."
  in
  let parse s =
    match Analysis.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg ("unknown analysis policy " ^ s))
  in
  let print fmt p = Format.pp_print_string fmt (Analysis.policy_to_string p) in
  let policy = Arg.conv (parse, print) in
  Arg.(
    value
    & opt policy Analysis.Trust
    & info [ "analysis" ] ~docv:"trust|off|distrust" ~doc)

(* ------------------------------------------------------------------ *)
(* Tracing (shared by verify, batch and chaos)                        *)
(* ------------------------------------------------------------------ *)

let trace_arg =
  let doc =
    "Record a structured trace of the run and write it to $(docv) as \
     Chrome trace_event JSON: spans for every pipeline phase plus the \
     run's metrics (counters and histograms). Load it in \
     chrome://tracing / Perfetto, or render it with `dnsv report'."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] under a recording sink and write spans + this run's metrics
   delta to [path] once it returns. Only the successful return writes a
   file: every subcommand exits through its verdict printing after [f],
   and a crashed run has nothing trustworthy to export. *)
let with_trace (path : string option) (f : unit -> 'a) : 'a =
  match path with
  | None -> f ()
  | Some path ->
      let m0 = Trace.Metrics.snapshot () in
      let v, forest = Trace.recording f in
      let metrics = Trace.Metrics.diff (Trace.Metrics.snapshot ()) m0 in
      Trace.write_chrome ~metrics ~path forest;
      v

(* ------------------------------------------------------------------ *)
(* verify                                                             *)
(* ------------------------------------------------------------------ *)

let deadline_arg =
  let doc = "Wall-clock deadline in seconds for the whole verification." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let solver_steps_arg =
  let doc = "Maximum number of solver calls before giving up." in
  Arg.(value & opt (some int) None & info [ "solver-steps" ] ~docv:"N" ~doc)

let max_paths_arg =
  let doc = "Maximum number of symbolic execution forks before giving up." in
  Arg.(value & opt (some int) None & info [ "max-paths" ] ~docv:"N" ~doc)

let retries_arg =
  let doc =
    "Retry inconclusive checks up to $(docv) times under escalated \
     (geometrically growing) budgets."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Verify query types in parallel on $(docv) worker domains. Each \
     worker gets its own solver state and a clone of the budget; \
     verdicts are identical to the sequential run."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let verify_cmd =
  let run version zone_file qtypes inline no_layers deadline solver_steps
      max_paths retries jobs analysis store_dir fault_seed fault_plan trace =
    let cfg = config_of_version version in
    let zone = load_zone zone_file in
    apply_faults fault_seed fault_plan;
    let mode =
      if inline then Refine.Check.Inline_all else Refine.Check.With_summaries
    in
    let budget =
      Budget.create ?deadline_s:deadline ?solver_steps ?max_paths ()
    in
    let verdict =
      try
        with_store store_dir (fun store ->
            with_trace trace (fun () ->
                Dnsv.Pipeline.verify ~qtypes ~mode
                  ~check_layers:(not no_layers) ~budget ~retries ~jobs
                  ~analysis ?store cfg zone))
      with e ->
        Printf.eprintf "internal error: %s\n" (Printexc.to_string e);
        exit 3
    in
    print_string (Dnsv.Pipeline.verdict_to_string verdict);
    match Dnsv.Pipeline.status verdict with
    | Budget.Proved -> exit 0
    | Budget.Refuted _ -> exit 1
    | Budget.Inconclusive (Budget.Internal_error _) -> exit 3
    | Budget.Inconclusive _ -> exit 2
  in
  let inline =
    Arg.(value & flag & info [ "inline" ] ~doc:"Inline all layers instead of summarizing.")
  in
  let no_layers =
    Arg.(value & flag & info [ "no-layers" ] ~doc:"Skip the dependency-layer checks.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify an engine version against the top-level specification"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 on a full proof, 1 when a counterexample was found, 2 when \
              the result is inconclusive (budget exhausted, solver unknowns, \
              summary failure), 3 on internal or usage errors.";
         ])
    Term.(
      const run $ version_arg $ zone_file_arg $ qtypes_arg $ inline $ no_layers
      $ deadline_arg $ solver_steps_arg $ max_paths_arg $ retries_arg
      $ jobs_arg $ analysis_arg $ store_dir_arg $ fault_seed_arg
      $ fault_plan_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* batch                                                              *)
(* ------------------------------------------------------------------ *)

let batch_cmd =
  let run version origin count seed qtypes deadline solver_steps max_paths
      retries jobs analysis store_dir journal resume fault_seed fault_plan
      trace progress =
    let cfg = config_of_version version in
    let origin =
      match Name.of_string origin with
      | Ok n -> n
      | Error m ->
          Printf.eprintf "bad origin %s: %s\n" origin m;
          exit 3
    in
    apply_faults fault_seed fault_plan;
    let budget =
      Budget.create ?deadline_s:deadline ?solver_steps ?max_paths ()
    in
    (* Progress lines go to stderr (stdout carries the machine-readable
       outcome) and only with --progress: quiet by default. *)
    let t0 = Unix.gettimeofday () in
    let elapsed () = Unix.gettimeofday () -. t0 in
    let finished = ref 0
    and proved = ref 0
    and refuted = ref 0
    and inconcl = ref 0 in
    let on_start =
      if not progress then None
      else
        Some
          (fun i ->
            Printf.eprintf "[%7.2fs] zone %03d start         (%d/%d done)\n%!"
              (elapsed ()) i !finished count)
    in
    let on_item (it : Dnsv.Pipeline.batch_item) =
      let status =
        match it.Dnsv.Pipeline.bi_status with
        | Dnsv.Pipeline.Item_proved ->
            incr proved;
            "proved"
        | Dnsv.Pipeline.Item_refuted ->
            incr refuted;
            "refuted"
        | Dnsv.Pipeline.Item_inconclusive r ->
            incr inconcl;
            "inconclusive " ^ Budget.reason_to_wire r
      in
      incr finished;
      if progress then
        Printf.eprintf
          "[%7.2fs] zone %03d %-13s (%d/%d done: %d proved, %d refuted, %d \
           inconclusive)%s\n\
           %!"
          (elapsed ()) it.Dnsv.Pipeline.bi_index status !finished count !proved
          !refuted !inconcl
          (if it.Dnsv.Pipeline.bi_resumed then " (resumed)" else "")
    in
    let r =
      try
        with_store store_dir (fun store ->
            with_trace trace (fun () ->
                Dnsv.Pipeline.verify_batch_run ~qtypes ~count ~seed ~budget
                  ~retries ~jobs ~analysis ?store ?journal ~resume ?on_start
                  ~on_item cfg origin))
      with
      | Failure m ->
          Printf.eprintf "%s\n" m;
          exit 3
      | e ->
          Printf.eprintf "internal error: %s\n" (Printexc.to_string e);
          exit 3
    in
    (match r.Dnsv.Pipeline.br_outcome with
    | Some (Dnsv.Pipeline.All_clean n) ->
        Printf.printf "batch: all clean (%d zones)\n" n
    | Some (Dnsv.Pipeline.Failed { zone_index; verdict }) ->
        Printf.printf "batch: FAILED at zone %d\n" zone_index;
        print_string (Dnsv.Pipeline.verdict_to_string verdict)
    | Some (Dnsv.Pipeline.Partial { zones_done; inconclusive_zones; reason })
      ->
        Printf.printf "batch: partial, %d proved, %d inconclusive (%s)\n"
          zones_done inconclusive_zones
          (Budget.reason_to_string reason)
    | None -> Printf.printf "batch: replayed from finalized journal\n");
    Printf.printf "fingerprint crc32=%08lx over %d item(s)%s%s\n"
      (Journal.crc32 r.Dnsv.Pipeline.br_fingerprint)
      (List.length r.Dnsv.Pipeline.br_items)
      (if r.Dnsv.Pipeline.br_resumed_items > 0 then
         Printf.sprintf ", %d resumed" r.Dnsv.Pipeline.br_resumed_items
       else "")
      (if r.Dnsv.Pipeline.br_dropped_bytes > 0 then
         Printf.sprintf ", %d torn byte(s) truncated"
           r.Dnsv.Pipeline.br_dropped_bytes
       else "");
    (* Worst outcome over the items decides the exit code. *)
    let any p = List.exists p r.Dnsv.Pipeline.br_items in
    if
      any (fun it ->
          match it.Dnsv.Pipeline.bi_status with
          | Dnsv.Pipeline.Item_refuted -> true
          | _ -> false)
    then exit 1
    else if
      any (fun it ->
          match it.Dnsv.Pipeline.bi_status with
          | Dnsv.Pipeline.Item_inconclusive (Budget.Internal_error _) -> true
          | _ -> false)
    then exit 3
    else if
      any (fun it ->
          match it.Dnsv.Pipeline.bi_status with
          | Dnsv.Pipeline.Item_inconclusive _ -> true
          | _ -> false)
    then exit 2
    else exit 0
  in
  let origin_arg =
    Arg.(
      value & opt string "gen.example"
      & info [ "o"; "origin" ] ~docv:"NAME" ~doc:"Origin for generated zones.")
  in
  let count_arg =
    Arg.(
      value & opt int 10
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of generated zones.")
  in
  let journal_arg =
    let doc =
      "Write-ahead journal: each completed zone verdict is appended and \
       flushed before the next zone starts, so a killed run can be \
       resumed with --resume losing at most the zone in flight."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let resume_arg =
    let doc =
      "Resume from the journal: replay its intact records without \
       re-verifying them, truncate any torn tail, and continue from the \
       first unrecorded zone. Fails if the journal was written by a \
       different workload (engine version, origin, count, seed, query \
       types or retry policy)."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let progress_arg =
    let doc =
      "Report per-zone start/finish lines with running counts and \
       elapsed time on stderr. Quiet by default."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Verify a batch of generated zone configurations, optionally \
          journaled and resumable"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when every zone proved clean, 1 when a zone was refuted, 2 \
              when any zone was inconclusive, 3 on internal or usage errors \
              (including a journal that cannot be resumed).";
         ])
    Term.(
      const run $ version_arg $ origin_arg $ count_arg $ seed_arg $ qtypes_arg
      $ deadline_arg $ solver_steps_arg $ max_paths_arg $ retries_arg
      $ jobs_arg $ analysis_arg $ store_dir_arg $ journal_arg $ resume_arg
      $ fault_seed_arg $ fault_plan_arg $ trace_arg $ progress_arg)

(* ------------------------------------------------------------------ *)
(* chaos                                                              *)
(* ------------------------------------------------------------------ *)

let chaos_cmd =
  let run seed plans trace =
    let o =
      try with_trace trace (fun () -> Dnsv.Chaos.run ~seed ~plans ())
      with Failure m ->
        Printf.eprintf "chaos: %s\n" m;
        exit 3
    in
    Format.printf "%a@." Dnsv.Chaos.pp o;
    exit (if Dnsv.Chaos.ok o then 0 else 1)
  in
  let plans_arg =
    Arg.(
      value & opt int 200
      & info [ "plans" ] ~docv:"N" ~doc:"Number of seeded fault plans to run.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded fault-injection soak: assert the soundness monotone and \
          journal kill-and-resume fidelity"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when every plan upheld the soundness monotone (faults may \
              degrade a verdict to inconclusive, never flip it) and every \
              killed journal resumed byte-identically; 1 when any plan \
              violated either property; 3 on harness errors.";
         ])
    Term.(const run $ seed_arg $ plans_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* report                                                             *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let run file top depth validate json =
    match Trace.Report.load file with
    | Error m ->
        Printf.eprintf "cannot read trace %s: %s\n" file m;
        exit 3
    | Ok r ->
        if json then print_endline (Trace.Report.to_json r)
        else print_string (Trace.Report.render ~top ~depth r);
        if validate then begin
          (* The CI well-formedness gate: the trace must contain at
             least one span for every registered refinement layer. *)
          let layer_spans = Trace.Report.find_spans r ~name:"layer" in
          let covered name =
            List.exists
              (fun (sp : Trace.Report.rspan) ->
                List.assoc_opt "layer" sp.Trace.Report.r_attrs = Some name)
              layer_spans
          in
          let missing =
            List.filter_map
              (fun (name, _) -> if covered name then None else Some name)
              Refine.Layers.specs
          in
          match missing with
          | [] ->
              Printf.printf "validate: spans present for all %d layers\n"
                (List.length Refine.Layers.specs)
          | names ->
              Printf.eprintf "validate: no layer span for: %s\n"
                (String.concat ", " names);
              exit 1
        end
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file written by --trace.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Show the $(docv) slowest spans.")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"D"
          ~doc:"Render the span tree down to depth $(docv).")
  in
  let validate_arg =
    let doc =
      "Fail (exit 1) unless the trace contains a span for every \
       registered refinement layer — the CI well-formedness gate."
    in
    Arg.(value & flag & info [ "validate-layers" ] ~doc)
  in
  let json_arg =
    let doc =
      "Emit the machine-readable report instead: per-phase wall/count \
       plus counters and histograms (quantiles carry their \
       power-of-two-bucket error bound), one JSON object — the same \
       consumer shape `dnsv top --once --json' scrapes."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a --trace file as a human-readable profile: per-phase \
          wall/count table, span tree, slowest spans, counters and \
          histograms (or --json for the machine-readable twin)")
    Term.(const run $ file_arg $ top_arg $ depth_arg $ validate_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* layers                                                             *)
(* ------------------------------------------------------------------ *)

let layers_cmd =
  let run version =
    let cfg = config_of_version version in
    let prog = Engine.Versions.compiled cfg in
    let reports = Refine.Layers.check_all prog in
    List.iter
      (fun (r : Refine.Layers.layer_report) ->
        Printf.printf "%-18s code=%3d spec=%3d  %.3fs  %s\n"
          r.Refine.Layers.layer r.Refine.Layers.code_paths
          r.Refine.Layers.spec_paths r.Refine.Layers.elapsed
          (if Refine.Layers.layer_ok r then "ok"
           else String.concat "; " r.Refine.Layers.mismatches))
      reports;
    if List.for_all Refine.Layers.layer_ok reports then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "layers"
       ~doc:"Verify the dependency layers against their manual specifications")
    Term.(const run $ version_arg)

(* ------------------------------------------------------------------ *)
(* summarize                                                          *)
(* ------------------------------------------------------------------ *)

let summarize_cmd =
  let run zone_file =
    let zone =
      match zone_file with
      | None -> Spec.Fixtures.figure11_zone
      | some -> load_zone some
    in
    Dnsv.Table1.print (Dnsv.Table1.run ~zone ())
  in
  Cmd.v
    (Cmd.info "summarize"
       ~doc:"Summarize TreeSearch over a concrete domain tree (Table 1)")
    Term.(const run $ zone_file_arg)

(* ------------------------------------------------------------------ *)
(* bugs                                                               *)
(* ------------------------------------------------------------------ *)

let bugs_cmd =
  let run () =
    Printf.printf "%-3s %-8s %-20s %s\n" "#" "Version" "Classification"
      "Description";
    List.iter
      (fun (i : Engine.Bugs.info) ->
        Printf.printf "%-3d %-8s %-20s %s\n" i.Engine.Bugs.index
          i.Engine.Bugs.version i.Engine.Bugs.classification
          i.Engine.Bugs.description)
      Engine.Bugs.table2
  in
  Cmd.v
    (Cmd.info "bugs" ~doc:"List the Table-2 bug registry")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* zonegen                                                            *)
(* ------------------------------------------------------------------ *)

let zonegen_cmd =
  let run seed origin =
    let origin = Name.of_string_exn origin in
    let zone = Dns.Zonegen.generate ~seed origin in
    print_string (Dns.Zonefile.render zone)
  in
  let origin =
    Arg.(
      value & opt string "gen.example"
      & info [ "o"; "origin" ] ~docv:"NAME" ~doc:"Zone origin.")
  in
  Cmd.v
    (Cmd.info "zonegen" ~doc:"Generate a random zone configuration (§6.5)")
    Term.(const run $ seed_arg $ origin)

(* ------------------------------------------------------------------ *)
(* replay                                                             *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let run version zone_file qname qtype =
    let cfg = config_of_version version in
    let zone = load_zone zone_file in
    let q = Message.query (Name.of_string_exn qname) qtype in
    Format.printf "query: %a@.@." Message.pp_query q;
    (match Engine.Versions.run cfg zone q with
    | Engine.Versions.Response r ->
        Format.printf "engine %s:@.%a@." version Message.pp_response r
    | Engine.Versions.Engine_panic m ->
        Format.printf "engine %s: PANIC (%s)@." version m);
    Format.printf "@.specification:@.%a@." Message.pp_response
      (Spec.Rrlookup.resolve zone q)
  in
  let qname =
    Arg.(
      required
      & opt (some string) None
      & info [ "q"; "qname" ] ~docv:"NAME" ~doc:"Query name.")
  in
  let qtype =
    Arg.(value & opt qtype_arg Rr.A & info [ "qtype" ] ~docv:"TYPE" ~doc:"Query type.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Run one concrete query on the engine and the specification")
    Term.(const run $ version_arg $ zone_file_arg $ qname $ qtype)

(* ------------------------------------------------------------------ *)
(* source                                                             *)
(* ------------------------------------------------------------------ *)

let source_cmd =
  let run version ir =
    let cfg = config_of_version version in
    if ir then
      print_string
        (Minir.Pretty.program_to_string (Engine.Versions.compiled cfg))
    else
      print_string
        (Golite.Print.program_to_string (Engine.Builder.golite_program cfg))
  in
  let ir =
    Arg.(
      value & flag
      & info [ "ir" ] ~doc:"Print the compiled Minir IR instead of the Golite source.")
  in
  Cmd.v
    (Cmd.info "source"
       ~doc:"Print an engine version's Golite source (or its compiled IR)")
    Term.(const run $ version_arg $ ir)

(* ------------------------------------------------------------------ *)
(* rawname                                                            *)
(* ------------------------------------------------------------------ *)

let rawname_cmd =
  let run () =
    let r = Refine.Raw_name.check () in
    Refine.Raw_name.print r;
    if Refine.Raw_name.ok r then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "rawname"
       ~doc:
         "Verify the byte-level compareRaw against the word-level compareAbs \
          (the paper's section 6.3)")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* lint                                                               *)
(* ------------------------------------------------------------------ *)

(* Read a baseline file (the --json output of a previous run) into
   per-version (errors, warnings, infos) budgets. *)
let lint_baseline_budgets path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  match Trace.Json.parse text with
  | Error m ->
      Printf.eprintf "cannot parse baseline %s: %s\n" path m;
      exit 3
  | Ok j -> (
      let num name o =
        match Trace.Json.member name o with
        | Some (Trace.Json.Num f) -> int_of_float f
        | _ -> 0
      in
      match Trace.Json.member "versions" j with
      | Some (Trace.Json.Arr vs) ->
          List.filter_map
            (fun v ->
              match Trace.Json.member "version" v with
              | Some (Trace.Json.Str name) ->
                  let counts =
                    match Trace.Json.member "lint" v with
                    | Some l -> (
                        match Trace.Json.member "counts" l with
                        | Some c -> c
                        | None -> Trace.Json.Null)
                    | None -> Trace.Json.Null
                  in
                  Some
                    ( name,
                      (num "error" counts, num "warning" counts,
                       num "info" counts) )
              | _ -> None)
            vs
      | _ ->
          Printf.eprintf "baseline %s: no \"versions\" array\n" path;
          exit 3)

(* Atomic baseline rewrite: the new content lands under a temp name in
   the same directory, then renames over the old file, so a reader (or
   a crash) sees either the old baseline or the new one, never a torn
   mix. *)
let write_file_atomic path text =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".lint_baseline" ".tmp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      output_string oc text;
      close_out oc;
      Sys.rename tmp path)

let lint_cmd =
  let run engine golite json baseline update store_dir =
    (* Each target: display name, program, analysis env, dead-callee
       entry points. Engines get the full interprocedural environment
       (resolve entry facts, Layout field invariants) and `resolve` as
       the sole entry; a standalone Golite file gets the env-free
       analysis and no dead-callee class (its entry set is unknown). *)
    let targets =
      match golite with
      | Some path -> (
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Golite.Parse.program_of_string text with
          | Error m ->
              Printf.eprintf "cannot parse %s: %s\n" path m;
              exit 3
          | Ok ast -> (
              match Golite.Compile.compile ast with
              | prog -> [ (Filename.basename path, prog, None, None) ]
              | exception e ->
                  Printf.eprintf "cannot compile %s: %s\n" path
                    (Printexc.to_string e);
                  exit 3))
      | None ->
          let cfgs =
            match engine with
            | None -> Engine.Versions.all
            | Some v -> [ config_of_version v ]
          in
          List.map
            (fun (cfg : Engine.Builder.config) ->
              ( cfg.Engine.Builder.version,
                Engine.Versions.compiled cfg,
                Some (Refine.Check.engine_env ()),
                Some [ "resolve" ] ))
            cfgs
    in
    with_store store_dir @@ fun store ->
    let results =
      List.map
        (fun (name, prog, env, entries) ->
          let with_hooks f =
            match store with
            | None -> f ()
            | Some st -> Store.with_analysis st prog f
          in
          with_hooks @@ fun () ->
          let fs = Analysis.Lint.run ?env ?entries prog in
          let s = Analysis.summarize ?env prog in
          let hits, misses = Analysis.store_traffic s in
          let stats = Analysis.interproc_stats s in
          if store <> None then
            Printf.eprintf "lint %s: summary store hits %d, misses %d\n%!"
              name hits misses;
          (name, fs, stats))
        targets
    in
    let json_doc () =
      let b = Buffer.create 1024 in
      Buffer.add_string b "{\"versions\": [";
      List.iteri
        (fun i (v, fs, stats) ->
          let interproc =
            String.concat ", "
              (List.map
                 (fun (k, n) -> Printf.sprintf "\"%s\": %d" k n)
                 stats)
          in
          Buffer.add_string b
            (Printf.sprintf
               "%s\n {\"version\": \"%s\", \"lint\": %s, \"interproc\": {%s}}"
               (if i = 0 then "" else ",")
               v (Analysis.Lint.to_json fs) interproc))
        results;
      Buffer.add_string b "\n]}\n";
      Buffer.contents b
    in
    if update then begin
      match baseline with
      | None ->
          Printf.eprintf "--update-baseline requires --baseline FILE\n";
          exit 3
      | Some path ->
          write_file_atomic path (json_doc ());
          Printf.eprintf "lint: baseline %s updated\n" path;
          exit 0
    end;
    if json then print_string (json_doc ())
    else
      List.iter
        (fun (v, fs, _) ->
          let e, w, n = Analysis.Lint.counts fs in
          Printf.printf "engine %-9s %d error(s), %d warning(s), %d info\n" v e
            w n;
          List.iter
            (fun f -> Format.printf "  %a@." Analysis.Lint.pp_finding f)
            fs)
        results;
    let results = List.map (fun (v, fs, _) -> (v, fs)) results in
    match baseline with
    | Some path -> (
        let budgets = lint_baseline_budgets path in
        let regressions =
          List.concat_map
            (fun (v, fs) ->
              let e, w, n = Analysis.Lint.counts fs in
              let be, bw, bn =
                Option.value ~default:(0, 0, 0) (List.assoc_opt v budgets)
              in
              let over sev cur bud =
                if cur > bud then
                  [
                    Printf.sprintf "engine %s: %d %s finding(s), baseline %d" v
                      cur sev bud;
                  ]
                else []
              in
              over "error" e be @ over "warning" w bw @ over "info" n bn)
            results
        in
        match regressions with
        | [] ->
            Printf.eprintf "lint: within baseline %s\n" path;
            exit 0
        | rs ->
            List.iter (fun r -> Printf.eprintf "lint regression: %s\n" r) rs;
            exit 1)
    | None ->
        let errors =
          List.exists
            (fun (_, fs) ->
              let e, _, _ = Analysis.Lint.counts fs in
              e > 0)
            results
        in
        exit (if errors then 1 else 0)
  in
  let engine_opt_arg =
    let doc =
      "Lint only engine $(docv) instead of every bundled version."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "e"; "engine" ] ~docv:"VERSION" ~doc)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit machine-readable JSON (per-version counts and findings) on \
             stdout instead of text.")
  in
  let baseline_arg =
    let doc =
      "Gate against a checked-in baseline (the --json output of a previous \
       run): exit 1 when any version's error, warning or info count exceeds \
       the baseline's. With --update-baseline, the file to (re)write."
    in
    Arg.(
      value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let golite_arg =
    let doc =
      "Lint a standalone Golite source file instead of the bundled engines. \
       The interprocedural summaries still apply; the dead-callee class is \
       off (a lone file declares no entry points)."
    in
    Arg.(value & opt (some file) None & info [ "golite" ] ~docv:"FILE" ~doc)
  in
  let update_arg =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:
            "Rewrite the --baseline file with this run's findings \
             (atomically: temp file + rename) and exit 0.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze the bundled engine versions: dead blocks, \
          reachable panics, use-before-init loads, dead stores, division by \
          zero, nil dereferences, guaranteed-panic call chains, dead \
          callees, ill-typed calls"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "Without --baseline: 0 when no Error-severity findings, 1 \
              otherwise. With --baseline: 0 when every version's counts are \
              within the baseline, 1 on any regression. 3 on usage errors.";
           `S "STORE";
           `P
             "With --store DIR, interprocedural function summaries are \
              persisted under cone fingerprints: re-linting after an edit \
              recomputes only the edited function's cone of influence \
              (hit/miss counts go to stderr).";
         ])
    Term.(
      const run $ engine_opt_arg $ golite_arg $ json_arg $ baseline_arg
      $ update_arg $ store_dir_arg)

(* ------------------------------------------------------------------ *)
(* store                                                              *)
(* ------------------------------------------------------------------ *)

let store_dir_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Persistent store directory.")

let store_stat_cmd =
  let run dir =
    if not (Sys.file_exists dir) then begin
      Printf.eprintf "no store at %s\n" dir;
      exit 3
    end;
    Format.printf "%a@." Store.pp_stat (Store.stat dir)
  in
  Cmd.v
    (Cmd.info "stat" ~doc:"Summarize a store: live entries by kind, bytes")
    Term.(const run $ store_dir_pos)

let store_gc_cmd =
  let run dir =
    let st = Store.open_ dir in
    let r = Store.gc st in
    Store.close st;
    match r with
    | Ok n ->
        Printf.printf "store gc: compacted to %d live entr%s\n" n
          (if n = 1 then "y" else "ies")
    | Error m ->
        Printf.eprintf "store gc: %s\n" m;
        exit 3
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Compact the store to its live entries with an atomic \
          tmp-and-rename rewrite")
    Term.(const run $ store_dir_pos)

let store_fsck_cmd =
  let run dir =
    if not (Sys.file_exists dir) then begin
      Printf.eprintf "no store at %s\n" dir;
      exit 3
    end;
    let r = Store.fsck dir in
    Format.printf "%a@." Store.pp_fsck r;
    exit (if Store.fsck_clean r then 0 else 1)
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check every frame and deep-check every live entry; truncate a \
          torn tail"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when the store is clean (a repaired torn tail — the \
              expected crash signature — still counts as clean), 1 when \
              any live entry is structurally corrupt or the header does \
              not match, 3 on usage errors.";
         ])
    Term.(const run $ store_dir_pos)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect, compact and check the persistent verification store \
          written by --store")
    [ store_stat_cmd; store_gc_cmd; store_fsck_cmd ]

(* ------------------------------------------------------------------ *)
(* serve                                                              *)
(* ------------------------------------------------------------------ *)

let port_arg =
  let doc = "UDP port on 127.0.0.1 (0 picks a free port)." in
  Arg.(value & opt int 5300 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let serve_cmd =
  let run version zone_file port query_deadline max_queries stats_port qlog
      qlog_sample seed window_s windows p99_limit servfail_limit fault_seed
      fault_plan trace =
    let cfg = config_of_version version in
    let zone = load_zone zone_file in
    apply_faults fault_seed fault_plan;
    let identity =
      {
        Obsv.Expo.id_version = "dnsv 1.0.0";
        id_engine = version;
        id_zone = Name.to_string (Zone.origin zone);
      }
    in
    let server =
      Dnsv.Serve.create ~deadline_s:query_deadline ~identity ~config:cfg zone
    in
    let qlog_t =
      Option.map
        (fun path -> Obsv.Qlog.create ~path ~seed ~rate_pct:qlog_sample ())
        qlog
    in
    let windows_t =
      Obsv.Windows.create ~window_s ~windows ?p99_limit_ms:p99_limit
        ?servfail_limit ()
    in
    Dnsv.Serve.attach_obsv server
      (Obsv.sink ?qlog:qlog_t ~windows:windows_t ());
    let stats =
      Option.map (fun p -> Obsv.Endpoint.create ~port:p ()) stats_port
    in
    (* SIGTERM/SIGINT become a cooperative stop: the loop returns, the
       final snapshot and query-log tail are flushed, and we exit 0. *)
    Dnsv.Serve.clear_stop ();
    Dnsv.Serve.install_stop_signals ();
    (try
       with_trace trace (fun () ->
           Dnsv.Serve.serve_udp ?max_queries ?stats
             ~ready:(fun p ->
               Printf.eprintf "dnsv serve: zone %s, engine %s, 127.0.0.1:%d\n%!"
                 (Name.to_string (Zone.origin zone)) version p;
               match stats with
               | Some ep ->
                   Printf.eprintf "dnsv serve: stats on 127.0.0.1:%d\n%!"
                     (Obsv.Endpoint.port ep)
               | None -> ())
             ~port server)
     with e ->
       Printf.eprintf "serve: %s\n" (Printexc.to_string e);
       exit 3);
    (* Final flush: close the current SLO window, emit the whole
       registry as a last scrape-equivalent snapshot, finalize the
       query log (its CRC frame discipline makes the tail recoverable
       even without this; finalizing marks the log complete). *)
    Obsv.Windows.roll windows_t;
    prerr_string (Dnsv.Serve.exposition server `Text);
    (match qlog_t with
    | Some q ->
        Printf.eprintf "qlog: %d record(s) in %s\n" (Obsv.Qlog.logged q)
          (Obsv.Qlog.path q);
        Obsv.Qlog.close q
    | None -> ());
    (match stats with Some ep -> Obsv.Endpoint.close ep | None -> ());
    exit 0
  in
  let query_deadline_arg =
    let doc = "Per-query wall-clock budget in seconds; an overrun degrades \
               that query to SERVFAIL." in
    Arg.(value & opt float 0.25 & info [ "query-deadline" ] ~docv:"SECS" ~doc)
  in
  let max_queries_arg =
    let doc = "Stop after receiving $(docv) datagrams (for scripted runs); \
               serves forever by default." in
    Arg.(value & opt (some int) None & info [ "max-queries" ] ~docv:"N" ~doc)
  in
  let stats_port_arg =
    let doc =
      "Serve a live stats endpoint on 127.0.0.1:$(docv) (0 picks a free \
       port): a UDP control socket answering any datagram with Prometheus \
       text exposition (or JSON when the request starts with `json') of \
       the full metrics registry, server identity and the rolling SLO \
       windows — scrapeable under load, `dnsv top' renders it."
    in
    Arg.(value & opt (some int) None & info [ "stats-port" ] ~docv:"PORT" ~doc)
  in
  let qlog_arg =
    let doc =
      "Write a sampled query log to $(docv): one CRC-framed record per \
       sampled query (index, id, qname/qtype, disposition, rcode, \
       degradation reason, wall latency, budget). A torn tail loses at \
       most one record, and a log failure can never affect an answer."
    in
    Arg.(value & opt (some string) None & info [ "qlog" ] ~docv:"FILE" ~doc)
  in
  let qlog_sample_arg =
    let doc =
      "Query-log sample rate in percent. Sampling is a pure function of \
       (--seed, query index), so the same seed replays the same sampled \
       index set."
    in
    Arg.(value & opt int 10 & info [ "qlog-sample" ] ~docv:"PCT" ~doc)
  in
  let window_s_arg =
    let doc = "Nominal rolling-SLO window length in seconds." in
    Arg.(value & opt float 10.0 & info [ "window-s" ] ~docv:"SECS" ~doc)
  in
  let windows_arg =
    let doc = "Rolling-SLO ring capacity (windows kept)." in
    Arg.(value & opt int 60 & info [ "windows" ] ~docv:"N" ~doc)
  in
  let p99_limit_arg =
    let doc =
      "SLO threshold: emit an slo.alert trace instant when a closed \
       window's p99 latency exceeds $(docv) milliseconds."
    in
    Arg.(value & opt (some float) None & info [ "p99-limit" ] ~docv:"MS" ~doc)
  in
  let servfail_limit_arg =
    let doc =
      "SLO threshold: emit an slo.alert trace instant when a closed \
       window's SERVFAIL rate exceeds $(docv) (a 0..1 fraction)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "servfail-limit" ] ~docv:"FRACTION" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Answer RFC 1035 UDP queries over a verified engine version — \
          crash-proof by contract, observable by default"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Binds 127.0.0.1 and answers standard queries with the chosen \
              engine. Degradations, never crashes: garbage datagrams get \
              FORMERR, unsupported opcodes NOTIMP, engine panics and \
              per-query budget overruns SERVFAIL (with the machine-readable \
              reason in the trace), oversized answers are truncated with TC. \
              Responses and headerless fragments are dropped to avoid reply \
              loops. The wire fault sites (wire-garble, wire-truncate, \
              serve-overload, obsv-sink-fail) can be armed with \
              --fault-seed/--fault-plan to rehearse the degradations.";
           `P
             "Operations observability rides strictly off the answer path: \
              --stats-port serves a live Prometheus/JSON exposition, --qlog \
              writes a seeded sampled query log through the CRC journal \
              framing, and rolling SLO windows derive per-window QPS, \
              latency percentiles and SERVFAIL rate (with threshold alerts \
              as typed trace instants). On SIGTERM/SIGINT the loop stops \
              cooperatively, flushes a final metrics snapshot and the \
              query-log tail, and exits 0.";
         ])
    Term.(
      const run $ version_arg $ zone_file_arg $ port_arg $ query_deadline_arg
      $ max_queries_arg $ stats_port_arg $ qlog_arg $ qlog_sample_arg
      $ seed_arg $ window_s_arg $ windows_arg $ p99_limit_arg
      $ servfail_limit_arg $ fault_seed_arg $ fault_plan_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* loadgen                                                            *)
(* ------------------------------------------------------------------ *)

let loadgen_cmd =
  let run version zone_file host port queries malformed seed timeout inproc
      trace =
    let zone = load_zone zone_file in
    let mix =
      { Dnsv.Loadgen.queries; malformed_pct = malformed; seed }
    in
    let r =
      try
        with_trace trace (fun () ->
            if inproc then begin
              let cfg = config_of_version version in
              let server = Dnsv.Serve.create ~config:cfg zone in
              Dnsv.Loadgen.run ~zone (Dnsv.Loadgen.inproc server) mix
            end
            else begin
              let inet =
                try Unix.inet_addr_of_string host
                with Failure _ ->
                  Printf.eprintf "bad host %s\n" host;
                  exit 3
              in
              Dnsv.Loadgen.with_udp ~timeout_s:timeout
                (Unix.ADDR_INET (inet, port))
                (fun transport -> Dnsv.Loadgen.run ~zone transport mix)
            end)
      with e ->
        Printf.eprintf "loadgen: %s\n" (Printexc.to_string e);
        exit 3
    in
    Format.printf "%a@." Dnsv.Loadgen.pp r;
    exit (if Dnsv.Loadgen.all_answered r then 0 else 1)
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let queries_arg =
    Arg.(
      value & opt int 500
      & info [ "n"; "queries" ] ~docv:"N" ~doc:"Number of datagrams to send.")
  in
  let malformed_arg =
    let doc =
      "Percentage of datagrams that are seeded garbage (header intact, QR \
       clear, body malformed): the server must answer them FORMERR, not \
       drop them or die."
    in
    Arg.(value & opt int 10 & info [ "malformed" ] ~docv:"PCT" ~doc)
  in
  let timeout_arg =
    let doc = "Per-query receive timeout in seconds." in
    Arg.(value & opt float 0.5 & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let inproc_arg =
    let doc =
      "Skip the network: run the mix straight through the serve loop of an \
       in-process server built from --engine and --zone."
    in
    Arg.(value & flag & info [ "inproc" ] ~doc)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Fire a seeded query mix (exact owners, misses, out-of-zone names, \
          malformed datagrams) at a DNS server and report answer rates, QPS \
          and latency percentiles"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when every datagram was answered with a decodable reply \
              (malformed ones with FORMERR); 1 when any query timed out or a \
              reply failed to decode; 3 on usage errors.";
         ])
    Term.(
      const run $ version_arg $ zone_file_arg $ host_arg $ port_arg
      $ queries_arg $ malformed_arg $ seed_arg $ timeout_arg $ inproc_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* wire                                                               *)
(* ------------------------------------------------------------------ *)

let wire_cmd =
  let run cases seed =
    let report = Wire.Selfcheck.run ~seed ~cases () in
    Format.printf "%a@." Wire.Selfcheck.pp report;
    exit (if Wire.Selfcheck.ok report then 0 else 1)
  in
  let cases_arg =
    Arg.(
      value & opt int 5000
      & info [ "cases" ] ~docv:"N" ~doc:"Number of seeded decoder inputs.")
  in
  Cmd.v
    (Cmd.info "wire"
       ~doc:
         "Check that the wire decoder's panic guards are discharged: replay \
          the seeded malformed-input battery and require zero escaped \
          exceptions, zero catch-all barrier hits, zero round-trip failures, \
          and every typed guard class exercised"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when the decoder is total on the whole battery with live \
              typed guards (the wire analogue of `dnsv lint' discharging an \
              engine's panic checks); 1 otherwise.";
         ])
    Term.(const run $ cases_arg $ seed_arg)

let top_cmd =
  let module J = Trace.Json in
  (* Tolerant readers over the endpoint's JSON exposition: a missing
     field renders as its zero, never a crash — `top' must keep
     painting even if it scrapes an older server. *)
  let jget path j =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
  in
  let jstr ?(default = "?") path j =
    match jget path j with Some (J.Str s) -> s | _ -> default
  in
  let jnum path j = match jget path j with Some (J.Num n) -> n | _ -> 0.0 in
  let jint path j = int_of_float (jnum path j) in
  let counter j name = jint [ "counters"; name ] j in
  let render j =
    let b = Buffer.create 2048 in
    Printf.bprintf b "dnsv top — %s  engine=%s  zone=%s\n"
      (jstr [ "identity"; "version" ] j)
      (jstr [ "identity"; "engine" ] j)
      (jstr [ "identity"; "zone" ] j);
    let served =
      List.fold_left
        (fun a n -> a + counter j ("serve." ^ n))
        0
        [ "answered"; "formerr"; "notimp"; "servfail"; "dropped" ]
    in
    Printf.bprintf b
      "totals: served=%d answered=%d servfail=%d dropped=%d | qlog \
       sampled=%d sink_failures=%d | alerts=%d scrapes=%d\n"
      served
      (counter j "serve.answered")
      (counter j "serve.servfail")
      (counter j "serve.dropped")
      (counter j "obsv.sampled")
      (counter j "obsv.sink_failures")
      (jint [ "alerts_total" ] j)
      (counter j "obsv.scrapes");
    Printf.bprintf b "%6s %8s %9s %9s %9s %9s %6s %6s  %s\n" "win" "served"
      "qps" "p50ms" "p90ms" "p99ms" "sf%" "alert" "rcodes";
    let windows =
      match jget [ "windows" ] j with Some (J.Arr ws) -> ws | _ -> []
    in
    if windows = [] then
      Buffer.add_string b "  (no closed windows yet — scrape again)\n";
    List.iter
      (fun w ->
        let pairs path =
          match jget path w with
          | Some (J.Obj kvs) ->
              List.map
                (fun (k, v) ->
                  Printf.sprintf "%s=%d" k
                    (match v with J.Num n -> int_of_float n | _ -> 0))
                kvs
          | _ -> []
        in
        let alerts =
          match jget [ "alerts" ] w with Some (J.Arr l) -> List.length l | _ -> 0
        in
        Printf.bprintf b "%6d %8d %9.0f %9.3g %9.3g %9.3g %6.2f %6d  %s\n"
          (jint [ "index" ] w) (jint [ "served" ] w) (jnum [ "qps" ] w)
          (jnum [ "p50_ms" ] w) (jnum [ "p90_ms" ] w) (jnum [ "p99_ms" ] w)
          (100.0 *. jnum [ "servfail_rate" ] w)
          alerts
          (String.concat " " (pairs [ "rcodes" ]));
        let reasons = pairs [ "reasons" ] in
        if reasons <> [] then
          Printf.bprintf b "%6s degradation reasons: %s\n" ""
            (String.concat " " reasons))
      windows;
    Buffer.contents b
  in
  let run host port once json interval timeout =
    let scrape () = Obsv.Endpoint.scrape ~timeout_s:timeout ~host ~port `Json in
    let paint first =
      match scrape () with
      | Error e ->
          Printf.eprintf "top: scrape of %s:%d failed: %s\n" host port e;
          exit 1
      | Ok body ->
          if json then print_endline body
          else (
            (match J.parse body with
            | Error e ->
                Printf.eprintf "top: endpoint returned unparseable JSON: %s\n"
                  e;
                exit 1
            | Ok j ->
                if (not once) && not first then print_string "\027[2J\027[H";
                print_string (render j));
            flush stdout)
    in
    if once then paint true
    else begin
      let first = ref true in
      while true do
        paint !first;
        first := false;
        Unix.sleepf interval
      done
    end;
    exit 0
  in
  let host_arg =
    let doc = "Stats endpoint host." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc = "Stats endpoint port (the serve --stats-port value)." in
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let once_arg =
    let doc = "Render a single snapshot and exit (for scripts and CI)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let json_arg =
    let doc =
      "Print the endpoint's raw JSON exposition instead of the table — \
       the same shape `dnsv report --json' consumers parse."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let interval_arg =
    let doc = "Refresh interval in seconds (ignored with --once)." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECS" ~doc)
  in
  let timeout_arg =
    let doc = "Per-scrape receive timeout in seconds." in
    Arg.(value & opt float 1.0 & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live per-window serving dashboard: scrape a `dnsv serve \
          --stats-port' endpoint and render the rolling SLO windows"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Scrapes the server's stats endpoint and renders identity, \
              lifetime totals and a newest-first table of closed SLO \
              windows (served, QPS, latency percentiles, SERVFAIL rate, \
              alert count, rcode mix, degradation reasons), refreshing \
              every --interval seconds. --once renders a single snapshot; \
              --json emits the raw JSON exposition for machine consumers.";
           `S Manpage.s_exit_status;
           `P "0 on success; 1 when the scrape times out or the reply does \
               not parse.";
         ])
    Term.(
      const run $ host_arg $ port_arg $ once_arg $ json_arg $ interval_arg
      $ timeout_arg)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "dnsv" ~version:"1.0.0"
      ~doc:
        "DNS-V: automated verification of an in-production DNS authoritative \
         engine"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           verify_cmd; batch_cmd; chaos_cmd; lint_cmd; report_cmd; layers_cmd;
           summarize_cmd; bugs_cmd; zonegen_cmd; replay_cmd; source_cmd;
           rawname_cmd; store_cmd; serve_cmd; loadgen_cmd; wire_cmd; top_cmd;
         ])
  in
  (* Fold cmdliner's cli/internal error codes (124/125) into the
     documented contract: 3 = internal or usage error. *)
  exit (if code = 124 || code = 125 then 3 else code)
