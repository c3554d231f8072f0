(* Experiment: Figure 12 (§7) — per-layer symbolic execution and
   summarization time.

   The paper reports that DNS-V finishes each layer in under a minute.
   We verify v2.0 end-to-end on the reference zone and report, per
   layer: manual layers with their specification-equivalence check
   time, summarized layers with their total summarization time and the
   number of summary cases, and the top layer (Resolve) with the
   whole-engine refinement time. *)

module Rr = Dns.Rr
module Check = Refine.Check
module Layers = Refine.Layers
module Versions = Engine.Versions
module Builder = Engine.Builder

type row = {
  layer : string;
  kind : string; (* "manual spec" / "summarized" / "top-level" *)
  seconds : float;
  detail : string;
}

type result = { rows : row list; total : float }

let run ?(cfg = Versions.fixed Versions.v2_0)
    ?(zone = Spec.Fixtures.reference_zone) ?(qtypes = [ Rr.A; Rr.MX; Rr.NS ])
    () : result =
  let t0 = Unix.gettimeofday () in
  let prog = Versions.compiled cfg in
  (* Manual layers: refinement against the hand-written specifications. *)
  let manual_rows =
    List.map
      (fun (r : Layers.layer_report) ->
        {
          layer = r.Layers.layer;
          kind = "manual spec";
          seconds = r.Layers.elapsed;
          detail =
            Printf.sprintf "%d code paths vs %d spec paths%s"
              r.Layers.code_paths r.Layers.spec_paths
              (if Layers.layer_ok r then "" else " [FAILED]");
        })
      (Layers.check_all ~zone prog)
  in
  (* The byte-level Name module (§6.3): compareRaw against compareAbs. *)
  let raw_row =
    let r = Refine.Raw_name.check () in
    {
      layer = "compareRaw";
      kind = "manual spec";
      seconds = r.Refine.Raw_name.elapsed;
      detail =
        Printf.sprintf "%d byte-level paths over %d structures%s"
          r.Refine.Raw_name.total_paths
          (List.length r.Refine.Raw_name.cases)
          (if Refine.Raw_name.ok r then "" else " [FAILED]");
    }
  in
  (* Summarized layers + the top level: whole-engine verification per
     query type, aggregating summarization times per layer. *)
  let reports = List.map (fun qtype -> Check.check_version cfg zone ~qtype) qtypes in
  let times : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let cases : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Check.report) ->
      List.iter
        (fun (fn, t) ->
          Hashtbl.replace times fn
            (Option.value ~default:0.0 (Hashtbl.find_opt times fn) +. t))
        r.Check.summary_times;
      List.iter
        (fun (fn, c) ->
          Hashtbl.replace cases fn
            (max c (Option.value ~default:0 (Hashtbl.find_opt cases fn))))
        r.Check.summary_cases)
    reports;
  let summarized_rows =
    List.filter_map
      (fun fn ->
        match Hashtbl.find_opt times fn with
        | Some t ->
            Some
              {
                layer = fn;
                kind = "summarized";
                seconds = t;
                detail =
                  Printf.sprintf "largest summary: %d input-effect pairs"
                    (Option.value ~default:0 (Hashtbl.find_opt cases fn));
              }
        | None -> None)
      Builder.summarized_layers
  in
  let top_row =
    let total = List.fold_left (fun a (r : Check.report) -> a +. r.Check.elapsed) 0.0 reports in
    let paths = List.fold_left (fun a (r : Check.report) -> a + r.Check.engine_paths) 0 reports in
    {
      layer = "resolve";
      kind = "top-level";
      seconds = total;
      detail =
        Printf.sprintf "%d engine paths over %d query types, all %s" paths
          (List.length qtypes)
          (if List.for_all Check.ok reports then "verified" else "FAILED");
    }
  in
  let rows = manual_rows @ [ raw_row ] @ summarized_rows @ [ top_row ] in
  { rows; total = Unix.gettimeofday () -. t0 }

let print (r : result) =
  Printf.printf
    "Figure 12: per-layer symbolic execution / summarization time\n";
  Printf.printf
    "(paper: every layer under one minute; engine v2.0-fixed, reference zone)\n\n";
  Printf.printf "%-20s %-12s %10s   %s\n" "Layer" "Kind" "Seconds" "Detail";
  List.iter
    (fun row ->
      Printf.printf "%-20s %-12s %10.3f   %s\n" row.layer row.kind row.seconds
        row.detail)
    r.rows;
  Printf.printf "\nTotal wall-clock: %.2fs (paper: < 1 min per layer)\n" r.total
