(* The repository benchmark: three fixed-work workloads, each run in its
   own process from one seed.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   - verify_zones: Pipeline.verify of the corrected v3.0 engine over a
     seeded stream of generated zones (all query types, dependency
     layers checked, Trust analysis, no store, one domain). One op is
     one zone brought to a verdict.
   - reverify_store: each op re-verifies one engine build against a
     fresh copy of a store snapshot primed by its counterpart build
     (fixed after buggy must prove, buggy after fixed must refute with
     a replaying witness). One op is open + verify + close.
   - serve_udp: a Serve server in its own process, one generator socket
     in this one, the Loadgen datagram mix against a seeded zone with
     the query log and SLO windows attached. An open loop at a fixed
     rate gives the loadgen.open_* layer figures; a closed loop with a
     fixed window of queries in flight gives the end-to-end latencies
     and throughput.

   [S] sizes the fixed work: each workload runs a number of ops fixed
   by [S] and a nominal per-op cost, so the same (seed, S) repeats the
   same work exactly. Every op is checked against an oracle after its
   timing ends; failures count against the ops attempted.

   With --trace 0 the last stdout line carries the end-to-end metrics.
   With --trace 1 the timed part runs traced — the spans Pipeline.verify
   records, counter snapshots, in-process replays of the serve path —
   and the line carries the per-layer metrics
   (run.py adds the tracing overhead against an untraced run). A
   preceding "WORK {...}" line carries the exact work counters the
   determinism guard in run.py compares across runs. *)

module Pipeline = Dnsv.Pipeline
module Serve = Dnsv.Serve
module Versions = Engine.Versions
module Builder = Engine.Builder
module Message = Dns.Message
module Zone = Dns.Zone
module Rr = Dns.Rr
module M = Trace.Metrics

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a and n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* p99 when there are at least 1,000 samples, otherwise the highest
   rank with at least ten samples beyond it. *)
let tail_index n =
  if n >= 1000 then int_of_float (ceil (0.99 *. float_of_int n)) - 1
  else max 0 (n - 11)

let tail a = if a = [||] then 0.0 else (sorted a).(tail_index (Array.length a))
let rank_note n = Printf.sprintf "rank %d of %d ops" (tail_index n + 1) n

let mean a =
  if a = [||] then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Per-run state                                                      *)
(* ------------------------------------------------------------------ *)

type opts = { workload : string; seed : int; seconds : int; traced : bool }

(* Oracle bookkeeping: every op counts as attempted; a failed check
   counts it as failed and the first few reasons go to stderr. *)
let attempted = ref 0
let failed = ref 0

let check what = function
  | Ok () -> incr attempted
  | Error why ->
      incr attempted;
      incr failed;
      if !failed <= 10 then Printf.eprintf "perfbench: FAILED %s: %s\n%!" what why

(* Per-layer values of the traced pass, by name. *)
let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let set_layer name v = Hashtbl.replace layer name v

let add_layer name v =
  Hashtbl.replace layer name (v +. Option.value ~default:0.0 (Hashtbl.find_opt layer name))

(* The scratch directory every workload writes into: inside the
   working directory, removed on exit. *)
let work_dir =
  lazy
    (let parent = Filename.concat (Sys.getcwd ()) "perfbench/.work" in
     let d = Filename.concat parent (string_of_int (Unix.getpid ())) in
     List.iter
       (fun p -> try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
       [ parent; d ];
     d)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let ic = open_in_bin src in
  let b = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc b;
  close_out oc

(* Drop every in-memory cache a fresh process would not have (the
   compiled-engine memo stays: it is set-up work). *)
let clear_caches () =
  Smt.Solver.clear_caches ();
  Pipeline.clear_summary_memo ();
  Analysis.clear_memo ()

let clear_compile_memo () = Hashtbl.reset (Domain.DLS.get Versions.compiled_cache_key)

(* Set-up runs [reps] times (five for the sub-second set-ups, three for
   the store priming); setup_s is the median. *)
let timed_setup ?(reps = 5) ?(discard = ignore) f =
  let times = Array.make reps 0.0 and last = ref None in
  for r = 0 to reps - 1 do
    Option.iter discard !last;
    let t0 = now () in
    last := Some (f ());
    times.(r) <- now () -. t0
  done;
  (Option.get !last, median times)

(* Compile-memo and analysis probes shared by every workload: the cost
   of compiling [cfgs] from scratch and of one unmemoized analysis of
   the first of them under the engine environment. *)
let probe_compile_and_analysis cfgs =
  let reps = 3 in
  let compile = Array.make reps 0.0 and analyze = Array.make reps 0.0 in
  for r = 0 to reps - 1 do
    clear_compile_memo ();
    let t0 = now () in
    List.iter (fun c -> ignore (Versions.compiled c)) cfgs;
    compile.(r) <- (now () -. t0) *. 1000.0;
    let prog = Versions.compiled (List.hd cfgs) in
    let t0 = now () in
    ignore (Analysis.analyze ~env:(Refine.Check.engine_env ()) prog);
    analyze.(r) <- (now () -. t0) *. 1000.0
  done;
  set_layer "engine.compile_ms" (median compile);
  set_layer "analysis.analyze_ms" (median analyze)

(* Counter deltas over a pass: registry counters plus the GC. *)
type window = { w_m : M.snapshot; w_minor : float; w_major : int }

let open_window () =
  let g = Gc.quick_stat () in
  { w_m = M.snapshot (); w_minor = g.Gc.minor_words; w_major = g.Gc.major_collections }

type delta = { d_m : M.snapshot; d_minor : float; d_major : int }

let close_window w =
  let g = Gc.quick_stat () in
  {
    d_m = M.diff (M.snapshot ()) w.w_m;
    d_minor = g.Gc.minor_words -. w.w_minor;
    d_major = g.Gc.major_collections - w.w_major;
  }

let get d name = M.get d.d_m name

(* The solver/analysis/store/GC per-layer values of a traced pass. *)
let record_counter_layers d ~ops =
  let per_op name = float_of_int (get d name) /. float_of_int (max 1 ops) in
  set_layer "smt.checks" (per_op "solver.checks");
  set_layer "smt.dpllt_iterations" (per_op "solver.dpllt_iterations");
  set_layer "smt.fast_path_pct" (pct (get d "solver.fast_path") (get d "solver.checks"));
  set_layer "smt.cache_hit_pct"
    (pct (get d "solver.cache_hits") (get d "solver.cache_hits" + get d "solver.cache_misses"));
  set_layer "cert.checks" (per_op "solver.cert_checks");
  set_layer "symex.paths" (per_op "budget.paths");
  set_layer "symex.fuel" (per_op "budget.fuel");
  set_layer "summary.hit_pct"
    (pct (get d "summary.hits") (get d "summary.hits" + get d "summary.misses"));
  set_layer "analysis.discharge_pct"
    (pct (get d "analysis.panic_discharged") (get d "analysis.panic_checks"));
  set_layer "store.hit_pct" (pct (get d "store.hits") (get d "store.hits" + get d "store.misses"));
  set_layer "store.appends" (per_op "store.appends");
  set_layer "store.cert_failures" (float_of_int (get d "store.cert_failures"));
  set_layer "gc.alloc_mw" (d.d_minor /. 1e6 /. float_of_int (max 1 ops));
  set_layer "gc.major_collections" (float_of_int d.d_major);
  set_layer "gc.top_heap_mb"
    (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0)

(* The exact work counters a pass did, for the determinism guard. *)
let work_counters d =
  [
    ("gc.alloc_words", int_of_float d.d_minor);
    ("smt.checks", get d "solver.checks");
    ("store.appends", get d "store.appends");
  ]

(* One pass over the timed part of a workload. *)
type pass = {
  lat_ms : float array; (* per-op latency, the p50 sample *)
  tail_ms : float;
  tail_rank : string; (* how tail_ms was taken, for stderr *)
  ops_per_s : float;
  work : (string * string) list;
}

let ints l = List.map (fun (k, v) -> (k, string_of_int v)) l
let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                      *)
(* ------------------------------------------------------------------ *)

let name s = match Dns.Name.of_string s with Ok n -> n | Error m -> die "bad name %s: %s" s m

(* The first [count] zones of the seed's generator stream whose record
   count lies in [band] and that [accept] takes; zone [i] is generated
   at [origin i]. The seed picks the contents, the band fixes the size,
   so every seed does comparable work. *)
let draw_zones ?config ?(accept = fun _ -> true) ~seed ~origin ~band count =
  let lo, hi = band and cursor = ref 0 in
  Array.init count (fun i ->
      let rec next tries =
        if tries > 100_000 then die "no zone with %d..%d records in the stream" lo hi;
        let z =
          Dns.Zonegen.generate ?config ~seed:(Hashtbl.hash (0x5EED, seed, !cursor)) (origin i)
        in
        incr cursor;
        let n = Zone.record_count z in
        if n >= lo && n <= hi && accept z then z else next (tries + 1)
      in
      next 0)

(* Generated subtrees go one level below their parent zone's apex, so
   they are generated one level shallower. *)
let shallower =
  { Dns.Zonegen.default_config with max_depth = Dns.Zonegen.default_config.max_depth - 1 }

(* [z]'s records without its apex SOA and NS, for grafting below
   another apex. *)
let below_apex z =
  List.filter
    (fun (r : Rr.t) ->
      not (r.Rr.rname = Zone.origin z && (r.Rr.rtype = Rr.SOA || r.Rr.rtype = Rr.NS)))
    (Zone.records z)

(* Every owner and target name fits the engine layout's label capacity
   (the verifier's input domain). *)
let fits_layout z =
  let ok n = List.length n <= Dnstree.Layout.max_labels in
  List.for_all
    (fun (r : Rr.t) ->
      ok r.Rr.rname && Option.fold ~none:true ~some:ok (Rr.rdata_target r.Rr.rdata))
    (Zone.records z)

let status_name v =
  match Pipeline.status v with
  | Budget.Proved -> "proved"
  | Budget.Refuted _ -> "refuted"
  | Budget.Inconclusive r -> "inconclusive " ^ Budget.reason_to_string r

(* The traced run's refine.* figures, from the spans Pipeline.verify
   emits: each "layer" span under the "verify" root, and the "qtype"
   span of each query type. *)
let refine_layers =
  "refine.layers_ms" :: "refine.check_ms"
  :: List.map (fun q -> "refine.check_ms." ^ Rr.rtype_to_string q) Pipeline.all_qtypes

let record_verify_spans forest =
  List.iter
    (fun (root : Trace.span) ->
      List.iter
        (fun (c : Trace.span) ->
          let ms = c.Trace.sp_dur *. 1000.0 in
          match c.Trace.sp_name with
          | "layer" -> add_layer "refine.layers_ms" ms
          | "qtype" ->
              List.iter
                (fun (k, v, _) ->
                  if k = "qtype" then begin
                    add_layer "refine.check_ms" ms;
                    add_layer ("refine.check_ms." ^ v) ms
                  end)
                c.Trace.sp_attrs
          | _ -> ())
        root.Trace.sp_children)
    forest

(* [f ()], with its verify spans recorded when traced. *)
let traced_call ~traced f =
  if not traced then f ()
  else
    let r, forest = Trace.recording f in
    record_verify_spans forest;
    r

(* The refine.* totals as means over [units]. *)
let refine_per units =
  List.iter
    (fun k -> Option.iter (fun v -> set_layer k (v /. float_of_int units)) (Hashtbl.find_opt layer k))
    refine_layers

(* ------------------------------------------------------------------ *)
(* verify_zones                                                       *)
(* ------------------------------------------------------------------ *)

let vz_origin = name "gen.example"
let vz_build = Versions.fixed Versions.v3_0
let vz_nominal_zone_s = 1.2

(* Every zone's record count lies in this band: verification cost
   grows with zone size, and one size class keeps the work of different
   seeds alike. About a fifth of the default Zonegen stream falls in it
   (956 of the first 5,000 zones of seed 1). *)
let vz_band = (14, 20)

(* One op is one zone brought to a verdict, as [dnsv verify] does it:
   its dependency layers, then all seven query types. A zone costs
   about a second, half of it the layer check, so a run holds 20-30
   zones and the tail rank (ten ops beyond it) sits at or near the
   median. Whole zones rather than single steps (the layer check or one
   query type) because the median of a mixture of steps moved 9%
   between seeds, while whole zones of the band cost the same to
   within 2.5%. *)
let vz_zones seconds = max 21 (int_of_float (Float.round (float_of_int seconds /. vz_nominal_zone_s)))

let verify_zones o =
  let n = vz_zones o.seconds in
  let setup () =
    clear_compile_memo ();
    clear_caches ();
    let prog = Versions.compiled vz_build in
    let zones =
      draw_zones ~accept:fits_layout ~seed:o.seed ~origin:(fun _ -> vz_origin) ~band:vz_band n
    in
    (* Warm-up: the engine-environment analysis every first query type
       would otherwise pay. *)
    ignore (Analysis.summarize ~env:(Refine.Check.engine_env ()) prog);
    zones
  in
  let zones, setup_s = timed_setup setup in
  let pass ~traced =
    let lat = Array.make n 0.0 and fps = Array.make n "" in
    let w = open_window () in
    let t0 = now () in
    Array.iteri
      (fun i zone ->
        let budget = Budget.create () in
        let q0 = now () in
        let v =
          traced_call ~traced (fun () ->
              Pipeline.verify ~check_layers:true ~budget ~analysis:Analysis.Trust vz_build zone)
        in
        lat.(i) <- (now () -. q0) *. 1000.0;
        fps.(i) <- Pipeline.fingerprint v;
        check (Printf.sprintf "verify_zones zone %d" i)
          (if Pipeline.status v = Budget.Proved then Ok ()
           else Error ("expected proved, got " ^ status_name v)))
      zones;
    let wall = now () -. t0 in
    let d = close_window w in
    if traced then begin
      record_counter_layers d ~ops:n;
      refine_per n
    end;
    {
      lat_ms = lat;
      tail_ms = tail lat;
      tail_rank = rank_note n;
      ops_per_s = float_of_int n /. wall;
      work = ints (work_counters d) @ [ ("verdicts", digest (Array.to_list fps)) ];
    }
  in
  (setup_s, pass, [ vz_build ])

(* ------------------------------------------------------------------ *)
(* reverify_store                                                     *)
(* ------------------------------------------------------------------ *)

(* The query types an operator re-verifies by default; each of the
   four buggy builds is refuted on at least one of them. *)
let rv_qtypes = [ Rr.A; Rr.MX; Rr.NS ]
let rv_nominal_op_s = 0.75

type rv_kind = { build : Builder.config; primer : Builder.config; proves : bool }

(* Fixed build after its buggy build, then buggy after fixed, per
   version, in this fixed order. *)
let rv_kinds =
  Array.of_list
    (List.concat_map
       (fun v ->
         [
           { build = Versions.fixed v; primer = v; proves = true };
           { build = v; primer = Versions.fixed v; proves = false };
         ])
       Versions.all)

let rv_ops seconds =
  let k = Array.length rv_kinds in
  k * max 3 (int_of_float (Float.round (float_of_int seconds /. rv_nominal_op_s /. float_of_int k)))

(* The reference zone (where every buggy build has a witness) plus a
   seeded generated subtree of [rv_subtree_rrs] records below it. *)
let rv_subtree_rrs = (7, 9)

let rv_zone seed =
  let base = Spec.Fixtures.reference_zone in
  let graft sub = Zone.make (Zone.origin base) (Zone.records base @ below_apex sub) in
  let accept sub =
    let z = graft sub in
    Zone.is_valid z && fits_layout z
  in
  graft
    (draw_zones ~config:shallower ~accept ~seed
       ~origin:(fun _ -> "seeded" :: Zone.origin base)
       ~band:rv_subtree_rrs 1).(0)

(* Store entries and solver results whose certificate failed to
   validate; a correct re-verification meets none. *)
let cert_failure_counters = [ M.counter "store.cert_failures"; M.counter "solver.cert_failures" ]
let cert_failures () = List.fold_left (fun a c -> a + M.value c) 0 cert_failure_counters

let verify_with_store dir cfg zone =
  let t0 = now () in
  let st = Store.open_ dir in
  let open_ms = (now () -. t0) *. 1000.0 in
  let v =
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () ->
        Pipeline.verify ~qtypes:rv_qtypes ~check_layers:false ~budget:(Budget.create ())
          ~analysis:Analysis.Trust ~store:st cfg zone)
  in
  (v, open_ms)

(* A refutation counts only with a witness that replays: the engine's
   concrete answer differs from the specification's (or panics). *)
let replays cfg zone v =
  let witnesses =
    List.concat_map
      (fun (r : Refine.Check.report) ->
        List.map (fun (m : Refine.Check.mismatch) -> m.Refine.Check.query) r.Refine.Check.mismatches
        @ List.map (fun (p : Refine.Check.panic_report) -> p.Refine.Check.panic_query) r.Refine.Check.panics)
      v.Pipeline.reports
  in
  witnesses <> []
  && List.for_all
       (fun q ->
         match Versions.run cfg zone q with
         | Versions.Engine_panic _ -> true
         | Versions.Response r -> not (Message.equal_response r (Spec.Rrlookup.resolve zone q)))
       witnesses

let reverify_store o =
  let n = rv_ops o.seconds in
  let builds = Array.to_list (Array.map (fun k -> k.build) rv_kinds) in
  let dir = Lazy.force work_dir in
  let snap k = Filename.concat dir (Printf.sprintf "snapshot-%d" k) in
  let setup () =
    clear_compile_memo ();
    List.iter (fun c -> ignore (Versions.compiled c)) builds;
    let zone = rv_zone o.seed in
    Array.iteri
      (fun k kind ->
        rm_rf (snap k);
        clear_caches ();
        ignore (verify_with_store (snap k) kind.primer zone))
      rv_kinds;
    zone
  in
  let zone, setup_s = timed_setup ~reps:3 setup in
  let pass ~traced =
    let lat = Array.make n 0.0 and fps = Hashtbl.create 8 and open_ms = ref 0.0 in
    let bytes = ref 0 in
    let w = open_window () in
    let wall = ref 0.0 in
    for i = 0 to n - 1 do
      let k = i mod Array.length rv_kinds in
      let kind = rv_kinds.(k) and op_dir = Filename.concat dir "op" in
      rm_rf op_dir;
      Unix.mkdir op_dir 0o755;
      copy_file (Filename.concat (snap k) "store.data") (Filename.concat op_dir "store.data");
      let before = (Store.stat op_dir).Store.st_bytes in
      clear_caches ();
      let cf0 = cert_failures () in
      let q0 = now () in
      let v, oms = traced_call ~traced (fun () -> verify_with_store op_dir kind.build zone) in
      let dt = now () -. q0 in
      let cf = cert_failures () - cf0 in
      wall := !wall +. dt;
      lat.(i) <- dt *. 1000.0;
      open_ms := !open_ms +. oms;
      bytes := !bytes + (Store.stat op_dir).Store.st_bytes - before;
      let fp = Pipeline.fingerprint v in
      let expected = if kind.proves then "proved" else "refuted" in
      check
        (Printf.sprintf "reverify_store op %d (%s after %s)" i kind.build.Builder.version
           kind.primer.Builder.version)
        (if status_name v <> expected then Error ("expected " ^ expected ^ ", got " ^ status_name v)
         else if cf > 0 then Error (Printf.sprintf "%d certificate failures" cf)
         else if (not kind.proves) && not (replays kind.build zone v) then
           Error "refutation without a replaying witness"
         else
           match Hashtbl.find_opt fps k with
           | Some fp0 when fp0 <> fp -> Error "verdict fingerprint changed between repeats"
           | _ ->
               Hashtbl.replace fps k fp;
               Ok ())
    done;
    rm_rf (Filename.concat dir "op");
    let d = close_window w in
    if traced then begin
      record_counter_layers d ~ops:n;
      refine_per n;
      set_layer "store.open_ms" (!open_ms /. float_of_int n);
      set_layer "store.bytes" (float_of_int !bytes /. float_of_int n)
    end;
    {
      lat_ms = lat;
      tail_ms = tail lat;
      tail_rank = rank_note (Array.length lat);
      ops_per_s = float_of_int n /. !wall;
      work =
        ints (work_counters d)
        @ [
            ( "verdicts",
              digest
                (List.init (Array.length rv_kinds) (fun k ->
                     Option.value ~default:"" (Hashtbl.find_opt fps k))) );
          ];
    }
  in
  (setup_s, pass, builds)

(* ------------------------------------------------------------------ *)
(* serve_udp                                                          *)
(* ------------------------------------------------------------------ *)

let sv_origin = name "serve.example"

(* The served zone: [sv_subtrees] seeded generated subtrees of
   [sv_subtree_rrs] records each, grafted below one apex. Per-query
   engine cost depends on the tree's shape; a sum of many small
   same-size subtrees keeps that cost alike across seeds. *)
let sv_subtrees = 16
let sv_subtree_rrs = (6, 8)

let sv_zone seed =
  let apex = Rr.soa sv_origin ~mname:(name "ns1.serve.example") ~serial:1 in
  let subs =
    draw_zones ~config:shallower ~seed
      ~origin:(fun i -> Printf.sprintf "z%d" i :: sv_origin)
      ~band:sv_subtree_rrs sv_subtrees
  in
  let z =
    Zone.make sv_origin
      ([ apex; Rr.ns sv_origin (name "ns1.serve.example"); Rr.a (name "ns1.serve.example") 1 ]
      @ List.concat_map below_apex (Array.to_list subs))
  in
  if not (Zone.is_valid z && fits_layout z) then die "seed %d gives an invalid served zone" seed;
  z

let sv_build = Versions.fixed Versions.v3_0

(* Open-loop rate: about a quarter of the closed-loop capacity of a
   2-core box (1,400-2,200 QPS over seeds and machine noise), so a host
   running at half speed still keeps up; at 900 QPS on a loaded host the
   backlog overflowed the server's socket and queries went unanswered.
   The open loop gives the loadgen.open_* layer figures; p50_ms, tail_ms
   and ops_per_s come from the closed loop. On a machine whose host
   steals a few percent of the CPU, open-loop latencies track that steal:
   over eight runs at 250 QPS the p50 spread 26% and the p99 1.9-17 ms,
   while the closed loop keeps the server busy and its round trips track
   the server. *)
let sv_rate_qps = 500.0
let sv_nominal_closed_qps = 1900.0
let sv_window = 4
let sv_warmup = 400

(* Latency tails and closed-loop throughput are taken per segment of
   this many queries and reported as the median over segments, so a
   stretch of a few seconds in which the shared machine runs slow moves
   a few segments, not the result. *)
let sv_segment = 1000

let segment_median a f =
  median
    (Array.init
       (max 1 (Array.length a / sv_segment))
       (fun k -> f (Array.sub a (k * sv_segment) (min sv_segment (Array.length a)))))
let sv_malformed_pct = 10
let sv_qlog_pct = 10

let sv_counts seconds =
  let s = float_of_int seconds in
  ( max sv_segment (int_of_float (0.3 *. s *. sv_rate_qps)),
    max sv_segment (int_of_float (0.7 *. s *. sv_nominal_closed_qps)) )

(* The mix's datagram [i], its id forced to [i land 0xFFFF] so every
   reply names its query (malformed datagrams carry random ids). *)
let sv_datagram zone seed i =
  let _, d =
    Dnsv.Loadgen.datagram ~zone
      { Dnsv.Loadgen.queries = max_int; malformed_pct = sv_malformed_pct; seed }
      i
  in
  let b = Bytes.of_string d in
  if Bytes.length b >= 2 then begin
    Bytes.set_uint8 b 0 ((i lsr 8) land 0xFF);
    Bytes.set_uint8 b 1 (i land 0xFF)
  end;
  Bytes.to_string b

(* What the serve contract owes a datagram, derived from the bytes
   alone: FORMERR for anything undecodable or without exactly one
   question, NOTIMP for other opcodes, SERVFAIL for a name deeper than
   the engine layout holds (the verified core's capacity; the serve
   loop degrades its panic), else the specification's answer. *)
let sv_expect zone d =
  match Wire.decode d with
  | Error _ -> `Formerr
  | Ok m when m.Wire.opcode <> 0 -> `Notimp
  | Ok { Wire.question = [ q ]; _ } when List.length q.Message.qname > Dnstree.Layout.max_labels ->
      `Servfail
  | Ok ({ Wire.question = [ q ]; _ } as m) -> `Answer (m, Spec.Rrlookup.resolve zone q)
  | Ok _ -> `Formerr

let sv_check zone d reply =
  match reply with
  | None -> Error "no reply"
  | Some r -> (
      match Wire.decode r with
      | Error e -> Error ("undecodable reply: " ^ Wire.error_to_string e)
      | Ok r -> (
          let id = if String.length d >= 2 then String.get_uint16_be d 0 else -1 in
          if r.Wire.id <> id || not r.Wire.qr then Error "reply id/qr mismatch"
          else
            match sv_expect zone d with
            | `Formerr -> if r.Wire.rcode = Message.FormErr then Ok () else Error "expected FORMERR"
            | `Notimp -> if r.Wire.rcode = Message.NotImp then Ok () else Error "expected NOTIMP"
            | `Servfail ->
                if r.Wire.rcode = Message.ServFail then Ok () else Error "expected SERVFAIL"
            | `Answer (m, expected) ->
                if r.Wire.tc then
                  let full =
                    Wire.encode
                      (Wire.response ~id ~rd:m.Wire.rd ~question:m.Wire.question expected)
                  in
                  if String.length full <= Wire.max_udp_payload then
                    Error "TC set on a reply that fits"
                  else if r.Wire.rcode <> expected.Message.rcode then Error "truncated rcode differs"
                  else Ok ()
                else if Message.equal_response (Wire.to_response r) expected then Ok ()
                else
                  Error
                    (Printf.sprintf "answer differs from the specification: got %s, want %s"
                       (Message.response_to_string (Wire.to_response r))
                       (Message.response_to_string expected))))

(* Dispositions, counted by the server process. *)
let dispositions =
  [ "serve.answered"; "serve.formerr"; "serve.notimp"; "serve.servfail"; "serve.dropped"; "serve.truncated" ]

let on_query tally (o : Serve.outcome) =
  let bump k = Hashtbl.replace tally k (1 + Hashtbl.find tally k) in
  bump
    (match o.Serve.disposition with
    | Serve.Answered -> "serve.answered"
    | Serve.Formerr _ -> "serve.formerr"
    | Serve.Notimp _ -> "serve.notimp"
    | Serve.Servfail _ -> "serve.servfail"
    | Serve.Dropped _ -> "serve.dropped");
  if o.Serve.truncated then bump "serve.truncated"

(* Peak RSS of the last server process, for peak_rss_mb. *)
let server_rss_mb = ref 0.0

(* Server processes still running, stopped at exit whatever happens. *)
let children = ref []

let stop_child (pid, rd) =
  children := List.filter (fun (p, _) -> p <> pid) !children;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  List.filter_map
    (fun kv ->
      match String.split_on_char '=' kv with
      | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
      | _ -> None)
    (String.split_on_char ' ' line)

let () = at_exit (fun () -> List.iter (fun c -> ignore (stop_child c)) !children)

(* Serve [server] with the query log at [qlog_path] and SLO windows
   attached, in a child process — alone on its runtime, as `dnsv serve`
   runs. With the server on a second domain of the generator's process
   every minor collection stops both, and the open-loop p50 read
   2-5 ms where it reads 0.8 ms this way. When SIGTERM stops it, the
   child reports its dispositions, GC counts and peak RSS over a pipe. *)
let fork_server server ~qlog_path ~seed fd =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Unix.close rd;
          (* Copy the live heap out of the pages shared with the parent
             now, rather than one copy-on-write fault at a time in the
             middle of serving. *)
          Gc.compact ();
          Serve.install_stop_signals ();
          let qlog = Obsv.Qlog.create ~path:qlog_path ~seed ~rate_pct:sv_qlog_pct () in
          Serve.attach_obsv server (Obsv.sink ~qlog ~windows:(Obsv.Windows.create ()) ());
          let tally = Hashtbl.create 8 in
          List.iter (fun k -> Hashtbl.replace tally k 0) dispositions;
          let g0 = Gc.quick_stat () in
          Serve.serve_fd ~on_query:(on_query tally) server fd;
          Obsv.Qlog.close qlog;
          let g = Gc.quick_stat () in
          let line =
            String.concat " "
              (List.map (fun k -> Printf.sprintf "%s=%d" k (Hashtbl.find tally k)) dispositions
              @ [
                  Printf.sprintf "gc.minor_words=%.0f" (g.Gc.minor_words -. g0.Gc.minor_words);
                  Printf.sprintf "gc.major_collections=%d"
                    (g.Gc.major_collections - g0.Gc.major_collections);
                  Printf.sprintf "gc.top_heap_words=%d" g.Gc.top_heap_words;
                  Printf.sprintf "vmhwm_kb=%.0f" (peak_rss_mb () *. 1024.0);
                ])
            ^ "\n"
          in
          ignore (Unix.write_substring wr line 0 (String.length line));
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      children := (pid, rd) :: !children;
      (pid, rd)

(* The generator: one connected UDP socket; replies are matched to
   queries by id. [replies.(i)]/[got.(i)] receive datagram [i]'s reply
   and its arrival time. *)
type gen = {
  sock : Unix.file_descr;
  buf : Bytes.t;
  owner : int array; (* id -> datagram index in flight, or -1 *)
  sent_at : float array; (* datagram index -> send time *)
  mutable inflight : int;
}

let gen_send g dgs i =
  let d = dgs.(i) in
  g.owner.(i land 0xFFFF) <- i;
  g.sent_at.(i) <- now ();
  g.inflight <- g.inflight + 1;
  ignore (Unix.send_substring g.sock d 0 (String.length d) [])

(* Wait up to [timeout] for one reply; false if none came. *)
let gen_recv g replies got timeout =
  let deadline = now () +. timeout in
  (* Busy-poll rather than sleep: a sleeping generator wakes late by
     however long the host takes to resume an idle vCPU, and that delay
     varies with the machine's other tenants. *)
  let rec ready () =
    match Unix.select [ g.sock ] [] [] 0.0 with
    | [], _, _ -> now () < deadline && ready ()
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ready ()
  in
  ready ()
  &&
  match Unix.recv g.sock g.buf 0 (Bytes.length g.buf) [] with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.ECONNREFUSED), _, _) -> true
  | len ->
      let t = now () in
      (if len >= 2 then
         let id = Bytes.get_uint16_be g.buf 0 in
         let i = g.owner.(id) in
         if i >= 0 && replies.(i) = None then begin
           g.owner.(id) <- -1;
           g.inflight <- g.inflight - 1;
           replies.(i) <- Some (Bytes.sub_string g.buf 0 len);
           got.(i) <- t
         end);
      true

let forget g = Array.fill g.owner 0 (Array.length g.owner) (-1); g.inflight <- 0

(* Open loop over [lo, hi): datagram [i] is due at [t0 + (i-lo)/rate];
   returns the due times. *)
let open_loop g dgs replies got ~lo ~hi ~rate =
  let n = hi - lo in
  let due = Array.make n 0.0 in
  let t0 = now () +. 0.01 in
  for k = 0 to n - 1 do
    due.(k) <- t0 +. (float_of_int k /. rate)
  done;
  let next = ref 0 in
  while !next < n do
    let t = now () in
    if t >= due.(!next) then begin
      gen_send g dgs (lo + !next);
      incr next
    end
    else ignore (gen_recv g replies got (due.(!next) -. t))
  done;
  let deadline = now () +. 2.0 in
  while g.inflight > 0 && now () < deadline do
    ignore (gen_recv g replies got (deadline -. now ()))
  done;
  forget g;
  due

(* Closed loop over [lo, hi) with [window] queries in flight; a reply
   missing for a second is given up on. *)
let closed_loop g dgs replies got ~lo ~hi ~window =
  let next = ref lo in
  let fill () =
    while g.inflight < window && !next < hi do
      gen_send g dgs !next;
      incr next
    done
  in
  fill ();
  while g.inflight > 0 do
    if gen_recv g replies got 1.0 then fill () else (forget g; fill ())
  done

(* Mean microseconds of [f] per item, the best of three passes. *)
let mean_us f items =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = now () in
    Array.iter f items;
    best := Float.min !best ((now () -. t0) *. 1e6 /. float_of_int (max 1 (Array.length items)))
  done;
  !best

(* In-process replay of the first [sv_replay] open-loop datagrams
   through each layer of the serve path; [rtt_us.(i)] is datagram [i]'s
   round trip in the open loop, which runs well below capacity, so few
   queries wait behind another. *)
let sv_replay = 2000

let serve_layers zone dgs ~rtt_us ~qlog_path =
  let plain = Serve.create ~config:sv_build zone in
  let sinked = Serve.create ~config:sv_build zone in
  let qlog = Obsv.Qlog.create ~path:qlog_path ~seed:0 ~rate_pct:sv_qlog_pct () in
  Serve.attach_obsv sinked (Obsv.sink ~qlog ~windows:(Obsv.Windows.create ()) ());
  let timed s d =
    let t0 = now () in
    ignore (Serve.handle s d);
    (now () -. t0) *. 1e6
  in
  (* Each datagram's handle time without and with the sink, the best of
     three passes; within a pass each datagram goes through both servers
     back to back, in alternating order, so machine drift and cache
     warmth cancel in the difference and the minimum drops the passes a
     stall lands in. *)
  let n = Array.length dgs in
  let handle_us = Array.make n infinity and sinked_us = Array.make n infinity in
  for _ = 1 to 3 do
    Array.iteri
      (fun i d ->
        let plain_first = i mod 2 = 0 in
        let run s a = a.(i) <- Float.min a.(i) (timed s d) in
        if plain_first then run plain handle_us;
        run sinked sinked_us;
        if not plain_first then run plain handle_us)
      dgs
  done;
  Obsv.Qlog.close qlog;
  let sink_cost = Array.mapi (fun i k -> k -. handle_us.(i)) sinked_us in
  let queries =
    Array.of_list
      (List.filter_map
         (fun d ->
           match Wire.decode d with
           | Ok ({ Wire.question = [ q ]; opcode = 0; _ } as m) -> Some (m, q)
           | _ -> None)
         (Array.to_list dgs))
  in
  let prog = Versions.compiled sv_build in
  let enc = Dnstree.Encode.encode (Dnstree.Tree.build zone) in
  (* Queries the engine answers (names deeper than its layout panic). *)
  let answered =
    Array.of_list
      (List.filter_map
         (fun (m, q) ->
           match Versions.run_compiled prog enc q with
           | Versions.Response r -> Some (m, q, r)
           | Versions.Engine_panic _ -> None)
         (Array.to_list queries))
  in
  set_layer "serve.handle_us" (mean handle_us);
  set_layer "obsv.sink_us" (mean sink_cost);
  set_layer "wire.decode_us" (mean_us (fun d -> ignore (Wire.decode d)) dgs);
  set_layer "engine.run_us"
    (mean_us (fun (_, q, _) -> ignore (Versions.run_compiled prog enc q)) answered);
  set_layer "spec.resolve_us"
    (mean_us (fun (_, q, _) -> ignore (Spec.Rrlookup.resolve zone q)) answered);
  set_layer "wire.encode_us"
    (mean_us
       (fun (m, _, r) ->
         ignore
           (Wire.encode_truncated ~max_size:Wire.max_udp_payload
              (Wire.response ~id:m.Wire.id ~rd:m.Wire.rd ~question:m.Wire.question r)))
       answered);
  (* What a round trip costs beyond Serve.handle of the same datagram:
     the sockets, select, the disposition callback and the sink. *)
  let over = ref [] in
  Array.iteri
    (fun i h -> if Float.is_finite rtt_us.(i) then over := (rtt_us.(i) -. h) :: !over)
    handle_us;
  set_layer "udp.overhead_us" (median (Array.of_list !over))

let serve_udp o =
  let n_open, n_closed = sv_counts o.seconds in
  let total = sv_warmup + n_open + n_closed in
  let dir = Lazy.force work_dir in
  let qlog_path = Filename.concat dir "serve.qlog" in
  (* Bound and serving in its own process, forked before the datagrams
     exist so it shares little heap with the generator. *)
  let start_server server =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port = match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
    let child = fork_server server ~qlog_path ~seed:o.seed fd in
    Unix.close fd;
    let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    ( {
        sock;
        buf = Bytes.create 4096;
        owner = Array.make 65536 (-1);
        sent_at = Array.make total 0.0;
        inflight = 0;
      },
      child )
  in
  let warm ((g, _) as server) dgs =
    closed_loop g dgs (Array.make total None) (Array.make total 0.0) ~lo:0 ~hi:sv_warmup
      ~window:sv_window;
    server
  in
  let setup () =
    clear_compile_memo ();
    let zone = sv_zone o.seed in
    (try Sys.remove qlog_path with Sys_error _ -> ());
    let server = start_server (Serve.create ~config:sv_build zone) in
    let dgs = Array.init total (sv_datagram zone o.seed) in
    (zone, dgs, warm server dgs)
  in
  let stop (g, child) =
    Unix.close g.sock;
    stop_child child
  in
  let (zone, dgs, running), setup_s = timed_setup ~discard:(fun (_, _, r) -> ignore (stop r)) setup in
  let g = fst running in
  let pass ~traced =
    let replies = Array.make total None and got = Array.make total 0.0 in
    let lo = sv_warmup and mid = sv_warmup + n_open in
    let due = open_loop g dgs replies got ~lo ~hi:mid ~rate:sv_rate_qps in
    let closed_t0 = now () in
    closed_loop g dgs replies got ~lo:mid ~hi:total ~window:sv_window;
    let report = stop running in
    let stat k = Option.value ~default:0 (List.assoc_opt k report) in
    let tl = List.map (fun k -> (k, stat k)) dispositions in
    server_rss_mb := float_of_int (stat "vmhwm_kb") /. 1024.0;
    for i = lo to total - 1 do
      check (Printf.sprintf "serve_udp datagram %d" i) (sv_check zone dgs.(i) replies.(i))
    done;
    (* Open loop: from each query's due time; closed loop: round trips. *)
    let latency i t0 = match replies.(i) with Some _ -> (got.(i) -. t0) *. 1000.0 | None -> infinity in
    let open_lat = Array.init n_open (fun k -> latency (lo + k) due.(k)) in
    let closed_lat = Array.init n_closed (fun k -> latency (mid + k) g.sent_at.(mid + k)) in
    (* Closed-loop throughput per segment, from the completion times. *)
    let done_at = Array.sub got mid n_closed in
    Array.sort compare done_at;
    let seg_qps seg_end =
      let start = if seg_end < sv_segment then closed_t0 else done_at.(seg_end - sv_segment) in
      float_of_int sv_segment /. (done_at.(seg_end) -. start)
    in
    let ops_per_s =
      median (Array.init (n_closed / sv_segment) (fun k -> seg_qps (((k + 1) * sv_segment) - 1)))
    in
    if traced then begin
      (* The server process's collector, over everything it served. *)
      let served = List.fold_left (fun a (_, v) -> a + v) 0 tl - stat "serve.truncated" in
      set_layer "gc.alloc_mw" (float_of_int (stat "gc.minor_words") /. 1e6 /. float_of_int served);
      set_layer "gc.major_collections" (float_of_int (stat "gc.major_collections"));
      set_layer "gc.top_heap_mb" (float_of_int (stat "gc.top_heap_words") *. 8.0 /. 1048576.0);
      set_layer "serve.formerr_pct" (pct (stat "serve.formerr") served);
      set_layer "serve.truncated" (float_of_int (stat "serve.truncated"));
      set_layer "loadgen.late_ms"
        (tail (Array.mapi (fun k d -> (g.sent_at.(lo + k) -. d) *. 1000.0) due));
      set_layer "loadgen.open_p50_ms" (median open_lat);
      set_layer "loadgen.open_p99_ms" (segment_median open_lat tail);
      let k = min n_open sv_replay in
      serve_layers zone (Array.sub dgs lo k)
        ~rtt_us:(Array.init k (fun i -> 1000.0 *. latency (lo + i) g.sent_at.(lo + i)))
        ~qlog_path:(Filename.concat dir "replay.qlog")
    end;
    {
      lat_ms = closed_lat;
      tail_ms = segment_median closed_lat tail;
      tail_rank =
        Printf.sprintf "median over %d segments of %s"
          (max 1 (n_closed / sv_segment))
          (rank_note (min n_closed sv_segment));
      ops_per_s;
      work =
        ints tl
        @ [ ("replies", digest (List.init (total - lo) (fun k -> Option.value ~default:"" replies.(lo + k)))) ];
    }
  in
  (setup_s, pass, [ sv_build ])

(* ------------------------------------------------------------------ *)
(* Command line and report                                            *)
(* ------------------------------------------------------------------ *)

(* Per-layer metrics with their units, in report order. Layers a
   workload does not exercise read 0. *)
let per_layer =
  [
    ("refine.layers_ms", "ms");
    ("refine.check_ms", "ms");
  ]
  @ List.map (fun q -> ("refine.check_ms." ^ Rr.rtype_to_string q, "ms")) Pipeline.all_qtypes
  @ [
      ("analysis.discharge_pct", "%");
      ("smt.checks", "count/op");
      ("smt.dpllt_iterations", "count/op");
      ("smt.fast_path_pct", "%");
      ("cert.checks", "count/op");
      ("symex.paths", "count/op");
      ("symex.fuel", "count/op");
      ("summary.hit_pct", "%");
      ("analysis.analyze_ms", "ms");
      ("engine.compile_ms", "ms");
      ("store.open_ms", "ms");
      ("store.hit_pct", "%");
      ("store.appends", "count/op");
      ("store.bytes", "B/op");
      ("store.cert_failures", "count");
      ("smt.cache_hit_pct", "%");
      ("serve.handle_us", "us");
      ("engine.run_us", "us");
      ("wire.decode_us", "us");
      ("wire.encode_us", "us");
      ("spec.resolve_us", "us");
      ("obsv.sink_us", "us");
      ("udp.overhead_us", "us");
      ("serve.formerr_pct", "%");
      ("serve.truncated", "count");
      ("loadgen.late_ms", "ms");
      ("loadgen.open_p50_ms", "ms");
      ("loadgen.open_p99_ms", "ms");
      ("gc.alloc_mw", "Mw/op");
      ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB");
      ("trace.ops_per_s", "1/s");
    ]

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %s" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some traced when seconds >= 1 ->
      { workload = !workload; seed; seconds; traced }
  | _ -> die "usage: bench.exe --workload W --seed N --seconds S --trace 0|1"

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_metrics l =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_num v) u)
         l)
  ^ "}"

let () =
  let o = parse_args () in
  let run =
    match o.workload with
    | "verify_zones" -> verify_zones
    | "reverify_store" -> reverify_store
    | "serve_udp" -> serve_udp
    | w -> die "unknown workload %S" w
  in
  Fun.protect
    ~finally:(fun () -> if Lazy.is_val work_dir then rm_rf (Lazy.force work_dir))
    (fun () ->
      let setup_s, pass, builds = run o in
      let p = pass ~traced:o.traced in
      let metrics, work =
        if not o.traced then
          ( [
              ("setup_s", setup_s, "s");
              ("ops_per_s", p.ops_per_s, "1/s");
              ("p50_ms", median p.lat_ms, "ms");
              ("tail_ms", p.tail_ms, "ms");
              ("peak_rss_mb", Float.max (peak_rss_mb ()) !server_rss_mb, "MB");
            ],
            p.work )
        else begin
          probe_compile_and_analysis builds;
          set_layer "trace.ops_per_s" p.ops_per_s;
          ( List.map
              (fun (k, u) -> (k, Option.value ~default:0.0 (Hashtbl.find_opt layer k), u))
              per_layer,
            p.work )
        end
      in
      let n = Array.length p.lat_ms in
      let s = sorted p.lat_ms in
      Printf.eprintf "perfbench: latency percentiles (ms): %s\n%!"
        (String.concat " "
           (List.map
              (fun q ->
                Printf.sprintf "p%g=%.2f" q
                  s.(max 0 (min (n - 1) (int_of_float (ceil (q /. 100.0 *. float_of_int n)) - 1))))
              [ 10.; 25.; 50.; 75.; 90.; 95.; 99.; 100. ]));
      Printf.eprintf "perfbench: %s seed=%d: %d latency samples, tail_ms at %s\n%!" o.workload
        o.seed n p.tail_rank;
      Printf.printf "WORK {%s}\n"
        (String.concat ", "
           ((Printf.sprintf "\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d"
               o.workload o.seed o.seconds (if o.traced then 1 else 0))
           :: List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) work));
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
        (!failed = 0) !attempted !failed (json_metrics metrics))
