(* The DNS-V pipeline facade (Figure 6): end-to-end verification of one
   engine version — dependency layers against their manual
   specifications, then the whole engine (with automatic summaries at
   the resolution layers) against the top-level specification, for a
   set of query types over one or many zone configurations.

   Every entry point is resource-governed: one [Budget.t] (wall-clock
   deadline, solver budget, path cap, fuel) bounds the whole run, query
   types are fault-isolated from each other, inconclusive obligations
   are retried under geometrically escalated budgets, and the verdict is
   three-valued — a check that leaned on a solver Unknown or stopped
   short is reported inconclusive, never silently clean. *)

module Rr = Dns.Rr
module Zone = Dns.Zone
module Name = Dns.Name
module Check = Refine.Check
module Layers = Refine.Layers
module Versions = Engine.Versions
module Builder = Engine.Builder
module Solver = Smt.Solver
module Summary = Symex.Summary

(* The query types exercised by full verification; PTR/SRV behave like
   the others and are included for completeness. *)
let all_qtypes = [ Rr.A; Rr.AAAA; Rr.NS; Rr.CNAME; Rr.SOA; Rr.MX; Rr.TXT ]

(* Domain-local summary-store memo: one store per (version, mode, zone,
   analysis, persistent store), shared across query types, retries, and
   repeated [verify] calls — re-verifying an unchanged version reuses
   its module summaries instead of rebuilding them per check. Keying on
   the version string relies on the same invariant as the compile memo
   in [Engine.Versions.compiled]: a version string uniquely identifies
   the program. The zone and the persistent store are keyed by physical
   identity, so distinct zones (e.g. per-bug witness zones) can never
   share summaries; only the structural parts are hashed (a [Store.t]
   is mutable). *)
type store_key = {
  sk_version : string;
  sk_inline : bool;
  sk_zone : Zone.t;
  sk_analysis : Analysis.policy;
  sk_pstore : Store.t option;
}

module Store_memo = Memo.Make (struct
  type t = store_key

  let hash k = Hashtbl.hash (k.sk_version, k.sk_inline, k.sk_analysis)

  let equal a b =
    a.sk_zone == b.sk_zone
    && a.sk_inline = b.sk_inline
    && String.equal a.sk_version b.sk_version
    && a.sk_analysis = b.sk_analysis
    && Option.equal ( == ) a.sk_pstore b.sk_pstore
end)

let store_memo : Summary.store Store_memo.t =
  Store_memo.create ~name:"pipeline.summary_stores" ~limit:32

(* Benchmark/test isolation: forget this domain's memoized stores (and
   the persistent store's parsed-entry memos, which cache the same
   served artifacts one level down). *)
let clear_summary_memo () =
  Store_memo.clear store_memo;
  Store.clear_domain_memos ()

(* The persistence hook for module summaries: keyed under each
   function's cone fingerprint (an edit invalidates exactly the cone of
   influence that could change its summary) plus the zone and analysis
   policy, which both shape what the summarizer sees. If the version
   cannot compile there is nothing to fingerprint — the hook is simply
   absent and summaries stay in-memory only. *)
let summary_persist_for (pstore : Store.t option) (cfg : Builder.config)
    (analysis : Analysis.policy) (zone : Zone.t) : Summary.persist option =
  match pstore with
  | None -> None
  | Some st -> (
      match Versions.compiled cfg with
      | exception _ -> None
      | prog ->
          let tag =
            Printf.sprintf "z%s,a%s" (Layers.zone_fp zone)
              (Analysis.policy_to_string analysis)
          in
          Some (Store.summary_persist st prog ~tag))

let store_for ?pstore (cfg : Builder.config) (mode : Check.mode)
    (analysis : Analysis.policy) (zone : Zone.t) : Summary.store =
  let key =
    {
      sk_version = cfg.Builder.version;
      sk_inline = (match mode with Check.Inline_all -> true | _ -> false);
      sk_zone = zone;
      sk_analysis = analysis;
      sk_pstore = pstore;
    }
  in
  match Store_memo.find_opt store_memo key with
  | Some store -> store
  | None ->
      let persist = summary_persist_for pstore cfg analysis zone in
      let store = Summary.create_store ?persist () in
      Store_memo.add store_memo key store;
      store

type verdict = {
  version : string;
  zone_origin : string;
  layer_reports : Layers.layer_report list;
  reports : Check.report list; (* one per query type *)
  retries : int; (* budget escalations performed across all checks *)
  elapsed : float;
}

(* Total solver Unknowns the verdict's checks leaned on. *)
let unknowns (v : verdict) =
  List.fold_left (fun a (r : Check.report) -> a + r.Check.unknowns) 0 v.reports
  + List.fold_left
      (fun a (r : Layers.layer_report) -> a + r.Layers.unknowns)
      0 v.layer_reports

(* Total certificate re-validation failures across the verdict. *)
let cert_failures (v : verdict) =
  List.fold_left
    (fun a (r : Check.report) -> a + r.Check.cert_failures)
    0 v.reports
  + List.fold_left
      (fun a (r : Layers.layer_report) -> a + r.Layers.cert_failures)
      0 v.layer_reports

(* The three-valued verdict. Refutation wins over inconclusiveness: a
   confirmed counterexample is a real bug even if another query type
   ran out of budget. *)
let status (v : verdict) : verdict Budget.outcome =
  let refuted =
    List.exists (fun (r : Check.report) -> not (Check.ok r)) v.reports
    || List.exists
         (fun (r : Layers.layer_report) -> r.Layers.mismatches <> [])
         v.layer_reports
  in
  if refuted then Budget.Refuted v
  else
    let first_reason =
      List.find_map (fun (r : Check.report) -> r.Check.inconclusive) v.reports
    in
    let first_reason =
      match first_reason with
      | Some _ -> first_reason
      | None ->
          List.find_map
            (fun (r : Layers.layer_report) -> r.Layers.inconclusive)
            v.layer_reports
    in
    match first_reason with
    | Some reason -> Budget.Inconclusive reason
    | None ->
        let cf = cert_failures v in
        if cf > 0 then
          Budget.Inconclusive
            (Budget.Cert_invalid
               (Printf.sprintf "%d certificate(s) failed re-validation" cf))
        else
          let u = unknowns v in
          if u > 0 then
            Budget.Inconclusive (Budget.Solver_unknowns { count = u })
          else Budget.Proved

(* [clean] now means *proved*: a verdict that relied on a solver
   Unknown or stopped short of its budget is not clean. *)
let clean (v : verdict) = match status v with Budget.Proved -> true | _ -> false

let issues (v : verdict) =
  List.concat_map
    (fun (r : Check.report) ->
      List.map
        (fun (m : Check.mismatch) ->
          Printf.sprintf "[%s] functional mismatch on %s: %s"
            (Rr.rtype_to_string r.Check.qtype)
            (Format.asprintf "%a" Dns.Message.pp_query m.Check.query)
            m.Check.detail)
        r.Check.mismatches
      @ List.map
          (fun (p : Check.panic_report) ->
            Printf.sprintf "[%s] runtime error on %s: %s"
              (Rr.rtype_to_string r.Check.qtype)
              (Format.asprintf "%a" Dns.Message.pp_query p.Check.panic_query)
              p.Check.reason)
          r.Check.panics
      @
      match r.Check.inconclusive with
      | Some reason ->
          [
            Printf.sprintf "[%s] inconclusive: %s"
              (Rr.rtype_to_string r.Check.qtype)
              (Budget.reason_to_string reason);
          ]
      | None -> [])
    v.reports

(* ------------------------------------------------------------------ *)
(* Persistent query-type reports (the store's "R" entries)            *)
(* ------------------------------------------------------------------ *)

(* A clean (proved) query-type report can be served from the store: its
   key covers every input that shapes it — the cone fingerprint of the
   engine entry point (any edit that could reach [resolve] invalidates
   it), the zone, the query type, the checking mode, the analysis
   policy, the budget limits and the retry policy. Degraded reports are
   never persisted: a verdict that leaned on an Unknown or stopped
   short must be re-derived, never replayed. Nothing is served under
   [Analysis.Distrust] — that mode exists to re-check the static
   analysis, and serving recorded verdicts would defeat it. *)
let report_clean (r : Check.report) =
  r.Check.mismatches = [] && r.Check.panics = [] && r.Check.unknowns = 0
  && r.Check.cert_failures = 0
  && r.Check.inconclusive = None

(* Query-type report entries ("R|"): the payload is the clean report's
   counts plus the retries it took. Decoding cannot know the version and
   query type (they are part of the key); [verify] fills them in. *)
let report_entries =
  let module C = Store.Codec in
  Store.kind ~prefix:'R' ~name:"report"
    ~key:(fun (prog, zone, budget, qtype, mode, analysis, retries, escalation) ->
      Digest.to_hex
        (Digest.string
           (String.concat "\x00"
              [
                "report-v2";
                Store.Fingerprint.cone_fp prog "resolve";
                Layers.zone_fp zone;
                Rr.rtype_to_string qtype;
                (match mode with Check.Inline_all -> "inline" | _ -> "summ");
                Analysis.policy_to_string analysis;
                Layers.limits_tag budget;
                Printf.sprintf "r%d,e%d" retries escalation;
              ])))
    ~encode:(fun ((r : Check.report), nretries) ->
      let b = Buffer.create 128 in
      C.wint b nretries;
      C.wint b r.Check.engine_paths;
      C.wint b r.Check.spec_paths;
      C.wint b r.Check.pairs_checked;
      C.wint b r.Check.solver_calls;
      C.wint b r.Check.static_discharged;
      C.wint b r.Check.ip_discharged;
      C.wint b r.Check.cert_checks;
      C.wbool b r.Check.stateless;
      C.wbool b r.Check.summary_fallback;
      C.wint b (List.length r.Check.summary_cases);
      List.iter
        (fun (fn, n) ->
          C.wstr b fn;
          C.wint b n)
        r.Check.summary_cases;
      Buffer.contents b)
    ~decode:
      (C.whole (fun r ->
           let nretries = C.rint r in
           let engine_paths = C.rint r in
           let spec_paths = C.rint r in
           let pairs_checked = C.rint r in
           let solver_calls = C.rint r in
           let static_discharged = C.rint r in
           let ip_discharged = C.rint r in
           let cert_checks = C.rint r in
           let stateless = C.rbool r in
           let summary_fallback = C.rbool r in
           let n = C.rint r in
           if n < 0 || n > 1_000_000 then raise (C.Bad "summary cases");
           let summary_cases =
             List.init n (fun _ ->
                 let fn = C.rstr r in
                 (fn, C.rint r))
           in
           ( {
               Check.version = "";
               qtype = Rr.A;
               engine_paths;
               spec_paths;
               pairs_checked;
               solver_calls;
               static_discharged;
               ip_discharged;
               unknowns = 0;
               cert_checks;
               cert_failures = 0;
               summary_cases;
               summary_times = [];
               mismatches = [];
               panics = [];
               stateless;
               inconclusive = None;
               summary_fallback;
               elapsed = 0.0;
             },
             nretries )))
    ~check:(fun _ -> Ok ())

(* Verify [cfg] on [zone] for [qtypes].

   Fault isolation is per query type: an exception or budget exhaustion
   in one [check_version] downgrades that report to inconclusive and
   the remaining query types still run. A retryable inconclusive report
   is retried up to [retries] times, each under a budget [escalation]×
   larger (fresh counters, restarted deadline).

   [store] threads the persistent verification store through every
   level: solver results (via the [Smt.Solver] persistence hook
   installed for the duration of the call), module summaries, layer
   verdicts and whole query-type reports. The store accelerates, never
   decides — everything served was re-validated against its
   certificate, and anything that fails validation is evicted and
   recomputed. *)
let verify ?(qtypes = all_qtypes) ?(mode = Check.With_summaries)
    ?(check_layers = true) ?budget ?(retries = 0) ?(escalation = 2)
    ?(jobs = 1) ?(analysis = Analysis.Trust) ?store (cfg : Builder.config)
    (zone : Zone.t) : verdict =
  Trace.with_span "verify"
    ~attrs:
      [
        ("version", cfg.Builder.version);
        ("zone", Name.to_string (Zone.origin zone));
      ]
  @@ fun () ->
  (* How the work was scheduled must not show up in the deterministic
     skeleton — identical span trees across [--jobs] values is an
     acceptance invariant. *)
  Trace.add_attr ~det:false "jobs" (string_of_int jobs);
  let t0 = Unix.gettimeofday () in
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  (* The budget's *limits* are part of the run's identity (determinism
     across jobs/schedulings); its consumption is not. *)
  (let limit name v =
     Option.iter (fun x -> Trace.add_attr name (string_of_int x)) v
   in
   Option.iter
     (fun s -> Trace.add_attr "budget.deadline_s" (Printf.sprintf "%g" s))
     budget.Budget.deadline_s;
   limit "budget.solver_steps" budget.Budget.max_solver_steps;
   limit "budget.paths" budget.Budget.max_paths;
   limit "budget.fuel" budget.Budget.max_fuel);
  let with_store f =
    match store with
    | None -> f ()
    | Some st -> (
        Store.with_solver st @@ fun () ->
        (* Persist interprocedural summaries too — but only when the
           version compiles, so there is a program to fingerprint
           cones against. *)
        match Versions.compiled cfg with
        | exception _ -> f ()
        | prog -> Store.with_analysis st prog f)
  in
  with_store @@ fun () ->
  let layer_reports =
    if not check_layers then []
    else
      match Versions.compiled cfg with
      | prog -> Layers.check_all ~zone ~budget ?store ~analysis prog
      | exception e ->
          (* The version failed to compile: one synthetic inconclusive
             layer report carries the reason, engine checks still run
             their own (memoized, possibly succeeding) compilation. *)
          [
            {
              Layers.layer = "(compile)";
              code_paths = 0;
              spec_paths = 0;
              pairs = 0;
              mismatches = [];
              unknowns = 0;
              cert_failures = 0;
              inconclusive = Some (Budget.reason_of_exn e);
              elapsed = 0.0;
            };
          ]
  in
  let check_one b qtype : Check.report * int =
    Trace.with_span "qtype" ~attrs:[ ("qtype", Rr.rtype_to_string qtype) ]
    @@ fun () ->
    let sumstore = store_for ?pstore:store cfg mode analysis zone in
    let rec go attempt nretries b =
      let r =
        Trace.with_span "attempt"
          ~attrs:[ ("attempt", string_of_int attempt) ]
        @@ fun () ->
        try
          Check.check_version ~budget:b ~mode ~store:sumstore ~analysis cfg
            zone ~qtype
        with e ->
          (* check_version converts its own failures; this catches
             anything escaping before it (e.g. zone encoding). *)
          Check.inconclusive_report ~version:cfg.Builder.version ~qtype
            ~elapsed:0.0 (Check.reason_of_check_exn e)
      in
      match Check.status r with
      | Budget.Inconclusive reason
        when attempt < retries && Budget.retryable reason ->
          go (attempt + 1) (nretries + 1) (Budget.escalate ~factor:escalation b)
      | Budget.Inconclusive reason ->
          (* The final answer for this qtype is degraded: name the root
             cause on the qtype span, so an Inconclusive verdict's trace
             carries its reason. *)
          Trace.event "degraded"
            ~attrs:[ ("reason", Budget.reason_tag reason) ];
          (r, nretries)
      | _ -> (r, nretries)
    in
    let rkey =
      match store with
      | Some st when analysis <> Analysis.Distrust -> (
          match Versions.compiled cfg with
          | exception _ -> None
          | prog ->
              Some
                ( st,
                  Store.key report_entries
                    (prog, zone, b, qtype, mode, analysis, retries, escalation)
                ))
      | _ -> None
    in
    match rkey with
    | None -> go 0 0 b
    | Some (st, key) -> (
        match Store.load st report_entries key ~check:(fun _ -> Ok ()) with
        | Some (r, n) ->
            Trace.add_attr ~det:false "store" "hit";
            ({ r with Check.version = cfg.Builder.version; qtype }, n)
        | None ->
            let ((r, _) as res) = go 0 0 b in
            if report_clean r then Store.save st report_entries key res;
            res)
  in
  let results =
    if jobs <= 1 then List.map (check_one budget) qtypes
    else
      (* One task per query type, fanned out over a deterministic domain
         pool. Each task charges a clone of the caller's budget (per-task
         isolation under the shared absolute deadline) and runs against
         its worker's domain-local solver state. The pool itself merges
         each worker's metrics delta and span forest into this domain at
         the join barrier, in task order. *)
      Parallel.Domainpool.map ~jobs
        (fun qtype -> check_one (Budget.clone budget) qtype)
        qtypes
  in
  {
    version = cfg.Builder.version;
    zone_origin = Name.to_string (Zone.origin zone);
    layer_reports;
    reports = List.map fst results;
    retries = List.fold_left (fun a (_, n) -> a + n) 0 results;
    elapsed = Unix.gettimeofday () -. t0;
  }

(* A batch stops at the first zone exposing a confirmed issue; under a
   shared budget a deadline overrun ends the batch with partial results
   instead of hanging, and per-zone inconclusive verdicts are counted
   without aborting the rest. *)
type batch_outcome =
  | All_clean of int (* zones verified *)
  | Failed of { zone_index : int; verdict : verdict }
  | Partial of {
      zones_done : int; (* zones proved clean before stopping *)
      inconclusive_zones : int;
      reason : Budget.reason; (* why the batch is incomplete *)
    }

let pp_verdict fmt (v : verdict) =
  Format.fprintf fmt "@[<v>engine %s on zone %s: %s (%.2fs%s)@," v.version
    v.zone_origin
    (match status v with
    | Budget.Proved -> "VERIFIED"
    | Budget.Refuted _ -> "ISSUES FOUND"
    | Budget.Inconclusive reason ->
        "INCONCLUSIVE (" ^ Budget.reason_to_string reason ^ ")")
    v.elapsed
    (if v.retries = 0 then ""
     else Printf.sprintf ", %d budget escalation(s)" v.retries);
  List.iter
    (fun (r : Layers.layer_report) ->
      Format.fprintf fmt "  layer %-18s %s@," r.Layers.layer
        (if Layers.layer_ok r then "ok"
         else
           match r.Layers.inconclusive with
           | Some reason -> "inconclusive: " ^ Budget.reason_to_string reason
           | None -> String.concat "; " r.Layers.mismatches))
    v.layer_reports;
  List.iter (fun i -> Format.fprintf fmt "  %s@," i) (issues v);
  Format.fprintf fmt "@]"

let verdict_to_string v = Format.asprintf "%a" pp_verdict v

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                       *)
(* ------------------------------------------------------------------ *)

(* A deterministic rendering of everything semantically meaningful in a
   verdict — statuses, path/pair/solver-call counts, mismatches with
   their concrete replays, panics, layer outcomes, retries — excluding
   the wall-clock fields ([elapsed], [summary_times]), which can never
   be byte-identical across runs. Two runs that agree on fingerprints
   agree on every verdict-relevant bit; used to assert that parallel
   and sequential verification coincide exactly. *)
let fingerprint_report (b : Buffer.t) (r : Check.report) =
  (* [solver_calls] and [summary_cases] are deliberately excluded: they
     report how much work the caches saved, which depends on how query
     types were scheduled over workers, not on what was proved. *)
  Printf.bprintf b "report %s/%s paths=%d/%d pairs=%d unk=%d certfail=%d\n"
    r.Check.version
    (Rr.rtype_to_string r.Check.qtype)
    r.Check.engine_paths r.Check.spec_paths r.Check.pairs_checked
    r.Check.unknowns r.Check.cert_failures;
  List.iter
    (fun (m : Check.mismatch) ->
      Printf.bprintf b " mismatch %s | %s | engine=%s | spec=%s\n"
        (Format.asprintf "%a" Dns.Message.pp_query m.Check.query)
        m.Check.detail m.Check.engine_replay m.Check.spec_replay)
    r.Check.mismatches;
  List.iter
    (fun (p : Check.panic_report) ->
      Printf.bprintf b " panic %s | %s\n"
        (Format.asprintf "%a" Dns.Message.pp_query p.Check.panic_query)
        p.Check.reason)
    r.Check.panics;
  Printf.bprintf b " stateless=%b fallback=%b inconclusive=%s\n"
    r.Check.stateless r.Check.summary_fallback
    (match r.Check.inconclusive with
    | None -> "-"
    | Some reason -> Budget.reason_to_string reason)

let fingerprint_layer (b : Buffer.t) (r : Layers.layer_report) =
  Printf.bprintf b
    "layer %s paths=%d/%d pairs=%d unk=%d certfail=%d inconclusive=%s\n"
    r.Layers.layer r.Layers.code_paths r.Layers.spec_paths r.Layers.pairs
    r.Layers.unknowns r.Layers.cert_failures
    (match r.Layers.inconclusive with
    | None -> "-"
    | Some reason -> Budget.reason_to_string reason);
  List.iter (fun m -> Printf.bprintf b " layer-mismatch %s\n" m)
    r.Layers.mismatches

let fingerprint (v : verdict) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "verdict %s zone=%s retries=%d status=%s\n" v.version
    v.zone_origin v.retries
    (match status v with
    | Budget.Proved -> "proved"
    | Budget.Refuted _ -> "refuted"
    | Budget.Inconclusive reason ->
        "inconclusive:" ^ Budget.reason_to_string reason);
  List.iter (fingerprint_layer b) v.layer_reports;
  List.iter (fingerprint_report b) v.reports;
  Buffer.contents b

let fingerprint_batch (o : batch_outcome) : string =
  match o with
  | All_clean n -> Printf.sprintf "all-clean %d" n
  | Failed { zone_index; verdict } ->
      Printf.sprintf "failed zone=%d\n%s" zone_index (fingerprint verdict)
  | Partial { zones_done; inconclusive_zones; reason } ->
      Printf.sprintf "partial done=%d inconclusive=%d reason=%s" zones_done
        inconclusive_zones (Budget.reason_to_string reason)

(* ------------------------------------------------------------------ *)
(* Journaled batch runs                                               *)
(* ------------------------------------------------------------------ *)

type item_status =
  | Item_proved
  | Item_refuted
  | Item_inconclusive of Budget.reason

type batch_item = {
  bi_index : int;
  bi_status : item_status;
  bi_fingerprint : string; (* the zone verdict's [fingerprint] text *)
  bi_resumed : bool; (* replayed from the journal, not re-verified *)
}

type batch_run = {
  br_outcome : batch_outcome option;
  br_items : batch_item list;
  br_fingerprint : string;
  br_resumed_items : int;
  br_dropped_bytes : int;
}

let item_status_wire = function
  | Item_proved -> "proved"
  | Item_refuted -> "refuted"
  | Item_inconclusive r -> "inconclusive " ^ Budget.reason_to_wire r

let item_status_of_wire s =
  match s with
  | "proved" -> Some Item_proved
  | "refuted" -> Some Item_refuted
  | _ ->
      let pre = "inconclusive " in
      let n = String.length pre in
      if String.length s > n && String.sub s 0 n = pre then
        Option.map
          (fun r -> Item_inconclusive r)
          (Budget.reason_of_wire (String.sub s n (String.length s - n)))
      else None

(* The workload identity recorded as the journal header: resuming is
   only legal when every input that shapes the batch transcript —
   engine version, origin, zone recipe, query types, retry policy —
   agrees byte-for-byte. *)
let batch_header (cfg : Builder.config) (origin : Name.t) ~count ~seed ~retries
    ~qtypes =
  Printf.sprintf
    "dnsv-batch v1 version=%s origin=%s count=%d seed=%d qtypes=%s retries=%d"
    cfg.Builder.version (Name.to_string origin) count seed
    (String.concat "," (List.map Rr.rtype_to_string qtypes))
    retries

(* One journal record per completed item:

     item <index>
     status <wire>
     budget <solver_steps> <paths> <fuel> <retries>
     <verdict fingerprint, multi-line>

   The budget line snapshots cumulative shared-budget consumption so a
   resumed sequential run keeps counting where the killed run stopped
   instead of granting itself a fresh allowance. *)
let record_of_item (it : batch_item) (b : Budget.t) : string =
  let c = Budget.consumption b in
  Printf.sprintf "item %d\nstatus %s\nbudget %d %d %d %d\n%s" it.bi_index
    (item_status_wire it.bi_status)
    c.Budget.solver_steps_used c.Budget.paths_used c.Budget.fuel_used
    c.Budget.retries_used it.bi_fingerprint

let parse_item_record (s : string) :
    (batch_item * (int * int * int * int)) option =
  match String.split_on_char '\n' s with
  | l1 :: l2 :: l3 :: rest -> (
      match (String.split_on_char ' ' l1, String.split_on_char ' ' l3) with
      | [ "item"; i ], [ "budget"; a; b; c; d ] ->
          let ( let* ) = Option.bind in
          let* i = int_of_string_opt i in
          let* st =
            if String.length l2 > 7 && String.sub l2 0 7 = "status " then
              item_status_of_wire (String.sub l2 7 (String.length l2 - 7))
            else None
          in
          let* a = int_of_string_opt a in
          let* b = int_of_string_opt b in
          let* c = int_of_string_opt c in
          let* d = int_of_string_opt d in
          Some
            ( {
                bi_index = i;
                bi_status = st;
                bi_fingerprint = String.concat "\n" rest;
                bi_resumed = true;
              },
              (a, b, c, d) )
      | _ -> None)
  | _ -> None

(* Fold one item status into (proved, inconclusive, first_reason);
   [Error] is the early stop with its outcome, shared by live, resumed
   and replayed items. A refutation has an outcome only when its
   verdict is at hand ([Some v]): a journal keeps just its
   fingerprint. *)
let step_status i st verdict (proved, inconcl, first) =
  match st with
  | Item_proved -> Ok (proved + 1, inconcl, first)
  | Item_refuted ->
      Error
        (Option.map (fun v -> Failed { zone_index = i; verdict = v }) verdict)
  | Item_inconclusive reason -> (
      let first = match first with Some _ -> first | None -> Some reason in
      match reason with
      | Budget.Deadline_exceeded _ ->
          Error
            (Some
               (Partial
                  {
                    zones_done = proved;
                    inconclusive_zones = inconcl + 1;
                    reason;
                  }))
      | _ -> Ok (proved, inconcl + 1, first))

(* Fold [f] over [xs] until it returns [Error]. *)
let fold_until f init xs =
  List.fold_left (fun acc x -> Result.bind acc (fun st -> f st x)) (Ok init) xs

let fold_items items =
  fold_until
    (fun st it -> step_status it.bi_index it.bi_status None st)
    (0, 0, None) items

(* The outcome of a batch that verified every zone without stopping. *)
let finish_outcome count (proved, inconcl, first_reason) =
  if inconcl = 0 then All_clean count
  else
    Partial
      {
        zones_done = proved;
        inconclusive_zones = inconcl;
        reason =
          Option.value first_reason
            ~default:(Budget.Internal_error "inconclusive zones");
      }

(* Best-effort outcome when the run is replayed entirely from a
   finalized journal: [None] after a refutation (callers fall back on
   the item transcript) and for a transcript that neither stopped nor
   covered every zone. *)
let outcome_of_items (items : batch_item list) (count : int) :
    batch_outcome option =
  match fold_items items with
  | Error outcome -> outcome
  | Ok (proved, 0, _) when proved < count -> None
  | Ok st -> Some (finish_outcome count st)

(* The derived final line, computed from the item transcript alone
   through the same fold as the outcome, so a resumed run and an
   uninterrupted run of the same workload produce byte-identical text
   and the line names the same reason as the batch outcome. *)
let batch_final_line (items : batch_item list) (count : int) : string =
  match outcome_of_items items count with
  | Some (All_clean n) -> Printf.sprintf "all-clean %d" n
  | Some (Partial { zones_done; inconclusive_zones; reason }) ->
      Printf.sprintf "partial done=%d inconclusive=%d reason=%s" zones_done
        inconclusive_zones
        (Budget.reason_to_wire reason)
  | Some (Failed _) | None -> (
      (* A refutation (a transcript keeps no verdict, so the fold has no
         outcome for it) or a run that neither stopped nor covered every
         zone. *)
      match List.find_opt (fun it -> it.bi_status = Item_refuted) items with
      | Some it -> Printf.sprintf "failed zone=%d" it.bi_index
      | None -> Printf.sprintf "interrupted done=%d" (List.length items))

let run_fingerprint (items : batch_item list) (count : int) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun it ->
      Printf.bprintf b "item %d %s\n%s" it.bi_index
        (item_status_wire it.bi_status)
        it.bi_fingerprint)
    items;
  Buffer.add_string b (batch_final_line items count);
  Buffer.add_char b '\n';
  Buffer.contents b

(* [verify_batch] with a write-ahead journal and resume: each completed
   zone verdict is appended (status, budget snapshot, fingerprint) and
   flushed before the next zone starts, so killing the process at any
   instant loses at most the zone in flight. [resume] salvages the
   journal's intact prefix, truncates any torn tail, replays the
   recorded items without re-verifying them, restores the shared budget
   counters, and continues from the first unrecorded zone. The run
   fingerprint is derived uniformly from the item transcript, so a
   killed-and-resumed run is byte-identical to an uninterrupted one. *)
let verify_batch_run ?(qtypes = [ Rr.A; Rr.MX ]) ?(count = 10) ?(seed = 0)
    ?budget ?(retries = 0) ?(jobs = 1) ?(analysis = Analysis.Trust) ?store
    ?journal ?(resume = false) ?on_start ?on_item (cfg : Builder.config)
    (origin : Name.t) : batch_run =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let header = batch_header cfg origin ~count ~seed ~retries ~qtypes in
  let zones = Dns.Zonegen.generate_many ~seed ~count origin in
  let indexed = List.mapi (fun i z -> (i, z)) zones in
  let notify it = match on_item with Some f -> f it | None -> () in
  (* Fired on the calling domain just before a zone's verification is
     dispatched (never for replayed items) — progress reporting. *)
  let notify_start i = match on_start with Some f -> f i | None -> () in
  let run jn replayed dropped : batch_run =
    let start = List.length replayed in
    List.iter notify replayed;
    let acc = ref (List.rev replayed) (* newest first *) in
    let emit it =
      acc := it :: !acc;
      (match jn with
      | Some j -> Journal.append j (record_of_item it budget)
      | None -> ());
      notify it
    in
    let item_of i v =
      let st =
        match status v with
        | Budget.Proved -> Item_proved
        | Budget.Refuted _ -> Item_refuted
        | Budget.Inconclusive r -> Item_inconclusive r
      in
      {
        bi_index = i;
        bi_status = st;
        bi_fingerprint = fingerprint v;
        bi_resumed = false;
      }
    in
    let verify_zone (i, zone) =
      let b = if jobs <= 1 then budget else Budget.clone budget in
      verify ~qtypes ~check_layers:(i = 0) ~budget:b ~retries ~analysis ?store
        cfg zone
    in
    let finish_run (outcome : batch_outcome option) =
      let items = List.rev !acc in
      (match jn with
      | Some j ->
          Journal.finalize j (batch_final_line items count);
          Journal.close j
      | None -> ());
      {
        br_outcome = outcome;
        br_items = items;
        br_fingerprint = run_fingerprint items count;
        br_resumed_items = start;
        br_dropped_bytes = dropped;
      }
    in
    match fold_items replayed with
    (* The killed run had already stopped: nothing left to verify. *)
    | Error outcome -> finish_run outcome
    | Ok st0 ->
        let pending = List.filter (fun (i, _) -> i >= start) indexed in
        let step (i, _) st v =
          let it = item_of i v in
          emit it;
          step_status i it.bi_status (Some v) st
        in
        (* Waves of [jobs] zones, merged in zone order; a stop mid-wave
           discards (and does not journal) the rest of the wave. With
           one job a wave is one zone verified on this domain, so the
           early stop is the sequential one. *)
        let rec take n = function
          | x :: rest when n > 0 ->
              let wave, rest' = take (n - 1) rest in
              (x :: wave, rest')
          | rest -> ([], rest)
        in
        let rec go st = function
          | [] -> Some (finish_outcome count st)
          | pending -> (
              let wave, rest = take (max 1 jobs) pending in
              List.iter (fun (i, _) -> notify_start i) wave;
              let verdicts = Parallel.Domainpool.map ~jobs verify_zone wave in
              match
                fold_until
                  (fun st (iz, v) -> step iz st v)
                  st (List.combine wave verdicts)
              with
              | Ok st -> go st rest
              | Error o -> o)
        in
        finish_run (go st0 pending)
  in
  let guarded jn replayed dropped =
    (* An injected torn-write kill (or any other escape) must not leak
       the journal's descriptor: the torn bytes are already flushed, so
       closing adds nothing to the file. *)
    try run jn replayed dropped
    with e ->
      (match jn with
      | Some j -> ( try Journal.close j with _ -> ())
      | None -> ());
      raise e
  in
  match journal with
  | None -> run None [] 0
  | Some path when not resume ->
      guarded (Some (Journal.create ~path ~header)) [] 0
  | Some path -> (
      match Journal.open_resume ~path ~header with
      | Error msg -> failwith ("cannot resume journal " ^ path ^ ": " ^ msg)
      | Ok (j, rec_) ->
          let parsed = List.filter_map parse_item_record rec_.Journal.records in
          let items = List.map fst parsed in
          if rec_.Journal.final <> None then begin
            (* A finalized journal is a complete transcript: replay it
               without re-running anything. *)
            Journal.close j;
            (match on_item with Some f -> List.iter f items | None -> ());
            {
              br_outcome = outcome_of_items items count;
              br_items = items;
              br_fingerprint = run_fingerprint items count;
              br_resumed_items = List.length items;
              br_dropped_bytes = rec_.Journal.dropped_bytes;
            }
          end
          else begin
            (* Restore the shared budget counters recorded with the
               last completed item. *)
            (match List.rev parsed with
            | (_, (s, p, f, r)) :: _ ->
                budget.Budget.solver_steps <- s;
                budget.Budget.paths <- p;
                budget.Budget.fuel <- f;
                budget.Budget.retries <- r
            | [] -> ());
            guarded (Some j) items rec_.Journal.dropped_bytes
          end)

(* Verify over a batch of generated zone configurations (§6.5: each run
   proves correctness for one concrete zone snapshot). Without a
   journal the run's outcome is always present. *)
let verify_batch ?qtypes ?count ?seed ?budget ?retries ?jobs ?analysis ?store
    (cfg : Builder.config) (origin : Name.t) : batch_outcome =
  Option.get
    (verify_batch_run ?qtypes ?count ?seed ?budget ?retries ?jobs ?analysis
       ?store cfg origin)
      .br_outcome
