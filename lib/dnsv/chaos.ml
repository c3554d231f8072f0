(* Deterministic chaos soak: seeded fault plans over every injection
   site, asserting the soundness monotone (faults may lose verdicts,
   never flip them) and journal kill-and-resume fidelity. See chaos.mli
   for the contract. *)

module Rr = Dns.Rr
module Name = Dns.Name
module Message = Dns.Message
module Solver = Smt.Solver
module Versions = Engine.Versions
module Fixtures = Spec.Fixtures

type outcome = {
  plans : int;
  verify_runs : int;
  torn_runs : int;
  store_runs : int;
  truncated_store_runs : int;
  wire_runs : int;
  fired : int;
  survived : int;
  degraded : int;
  resumed_identical : int;
  store_resumed_identical : int;
  violations : string list;
}

let ok (o : outcome) = o.violations = []

(* ------------------------------------------------------------------ *)
(* Seeded plans                                                       *)
(* ------------------------------------------------------------------ *)

(* The same minimal-standard LCG as [Faultinject.arm_seeded], so a plan
   is a pure function of its seed. *)
let lcg s = ((s * 48271) + 11) land 0x3FFFFFFF

type plan = {
  sites : Faultinject.site list; (* 1-2 distinct sites *)
  after : int; (* base firing index, small so faults actually land *)
  persistent : bool;
}

let plan_of_seed seed : plan =
  let all = Array.of_list Faultinject.all_sites in
  let r1 = lcg (seed + 1) in
  let r2 = lcg r1 in
  let r3 = lcg r2 in
  let r4 = lcg r3 in
  let r5 = lcg r4 in
  let s1 = all.(r2 mod Array.length all) in
  let s2 = all.(r3 mod Array.length all) in
  let sites = if r1 mod 2 = 0 || s1 = s2 then [ s1 ] else [ s1; s2 ] in
  { sites; after = 1 + (r5 mod 8); persistent = r4 mod 4 = 0 }

let site_names sites =
  String.concat "+" (List.map Faultinject.site_to_string sites)

let arm_plan (p : plan) =
  List.iteri
    (fun k s -> Faultinject.arm ~persistent:p.persistent ~after:(p.after + k) s)
    p.sites

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

(* Both monotone workloads run the same witness zone and query type:
   engine 1.0 refutes on it (Table-2 bug 1), its -fixed twin proves.
   Small on purpose — the soak runs hundreds of them. *)
let witness_zone () = (Fixtures.witness 1).Fixtures.zone
let proved_cfg = Versions.fixed Versions.v1_0
let refuted_cfg = Versions.v1_0

(* A generous deadline, reachable only through injected clock skew, so
   the [Clock_overrun] site has a deadline to overrun. *)
(* Chaos runs distrust the static analysis: every solver call is still
   made (so injected-fault firing order matches the fault-free plan) and
   each static claim is cross-checked against the certified solver —
   the degrade-never-flip monotone covers the analysis too. *)
let verify_wl ?store cfg zone =
  let budget = Budget.create ~deadline_s:3600.0 () in
  Pipeline.verify ~qtypes:[ Rr.MX ] ~check_layers:false ~budget
    ~analysis:Analysis.Distrust ?store cfg zone

(* The batch workload for the journal kill-and-resume leg. *)
let batch_origin = Name.of_string_exn "chaos.example"
let batch_count = 3

let batch_wl ?journal ?resume () =
  Pipeline.verify_batch_run ~qtypes:[ Rr.A ] ~count:batch_count ~seed:7
    ~analysis:Analysis.Distrust ?journal ?resume proved_cfg batch_origin

let status_name = function
  | Budget.Proved -> "proved"
  | Budget.Refuted _ -> "refuted"
  | Budget.Inconclusive r -> "inconclusive:" ^ Budget.reason_tag r

let scrub () =
  Faultinject.reset ();
  Solver.clear_caches ();
  Pipeline.clear_summary_memo ()

(* ------------------------------------------------------------------ *)
(* Persistent-store legs                                              *)
(* ------------------------------------------------------------------ *)

let store_sites =
  [ Faultinject.Store_corrupt; Faultinject.Store_stale;
    Faultinject.Store_lock_held ]

let has_store_site (p : plan) =
  List.exists (fun s -> List.mem s store_sites) p.sites

(* ------------------------------------------------------------------ *)
(* Wire legs                                                          *)
(* ------------------------------------------------------------------ *)

(* Obsv_sink_fail rides the wire leg: the leg's server carries a live
   100%-sampled query log, so every query is an arrival at the sink
   site, and the verdict check proves a failing log never changes an
   answer (degrade-never-affect). *)
let wire_sites =
  [ Faultinject.Wire_garble; Faultinject.Wire_truncate;
    Faultinject.Serve_overload; Faultinject.Obsv_sink_fail ]

let has_wire_site (p : plan) =
  List.exists (fun s -> List.mem s wire_sites) p.sites

(* How many datagrams each wire leg pushes through the serve loop, and
   what fraction of them is deliberate garbage. Small: the soak runs
   many plans, and one fault plan only needs a handful of arrivals to
   land inside the window. *)
let wire_queries = 24
let wire_malformed_pct = 25

(* Truthfulness check for one serve-loop reply under faults. A garbled
   datagram can legitimately decode to a *different* well-formed
   question, so the ground truth is computed for the question the
   reply echoes, not the one the leg meant to send: whatever question
   the server claims to be answering, the answer must be the
   specification's. Degradations (FORMERR, SERVFAIL, NOTIMP,
   truncation, a missing echo, a drop) lose the answer — allowed; a
   decodable full reply that disagrees with [Spec.Rrlookup.resolve] is
   a flip — a violation. *)
type wire_verdict = Wire_ok | Wire_degraded | Wire_flip of string

let wire_reply_verdict zone (reply : string option) : wire_verdict =
  match reply with
  | None -> Wire_degraded
  | Some bytes -> (
      match Wire.decode bytes with
      | Error e -> Wire_flip ("reply undecodable: " ^ Wire.error_to_string e)
      | Ok msg -> (
          match (msg.Wire.rcode, msg.Wire.question) with
          | (Message.ServFail | Message.FormErr | Message.NotImp), _ ->
              Wire_degraded
          | _, [ q ] ->
              if msg.Wire.tc then Wire_degraded
              else begin
                let want = Spec.Rrlookup.resolve zone q in
                let got = Wire.to_response msg in
                if Message.equal_response want got then Wire_ok
                else
                  Wire_flip
                    (Printf.sprintf "answer for %s %s differs from the spec"
                       (Name.to_string q.Message.qname)
                       (Rr.rtype_to_string q.Message.qtype))
              end
          | _, _ -> Wire_degraded))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* A scratch copy of the warmed store's data file, so injected
   corruption, evictions and truncation never bleed into later plans. *)
let copy_store src =
  let dst = Filename.temp_file "dnsv-chaos" ".store" in
  Sys.remove dst;
  Sys.mkdir dst 0o755;
  let from = Filename.concat src "store.data" in
  if Sys.file_exists from then begin
    let ic = open_in_bin from in
    let n = in_channel_length ic in
    let bytes = really_input_string ic n in
    close_in ic;
    let oc = open_out_bin (Filename.concat dst "store.data") in
    output_string oc bytes;
    close_out oc
  end;
  dst

(* Cut the store's data file at a seeded offset, simulating a kill
   mid-append (or any partial write) at an arbitrary byte boundary. *)
let truncate_store dir offset =
  let path = Filename.concat dir "store.data" in
  if Sys.file_exists path then begin
    let size = (Unix.stat path).Unix.st_size in
    if size > 0 then Unix.truncate path (offset mod size)
  end

(* ------------------------------------------------------------------ *)
(* The soak                                                           *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 1) ?(plans = 200) () : outcome =
  scrub ();
  let zone = witness_zone () in
  (* Fault-free baselines: the soak is meaningless if the workloads do
     not start where they claim to. Their fingerprints are the
     reference the store legs must keep reproducing. *)
  let v_proved = verify_wl proved_cfg zone in
  (match Pipeline.status v_proved with
  | Budget.Proved -> ()
  | s -> failwith ("chaos: proved baseline is " ^ status_name s));
  let v_refuted = verify_wl refuted_cfg zone in
  (match Pipeline.status v_refuted with
  | Budget.Refuted _ -> ()
  | s -> failwith ("chaos: refuted baseline is " ^ status_name s));
  let fp_proved = Pipeline.fingerprint v_proved in
  let fp_refuted = Pipeline.fingerprint v_refuted in
  (* The warmed store the store-fault legs copy from: populated once,
     fault-free, by the same workloads. Forced lazily so soaks whose
     plans never sample a store site pay nothing. *)
  let warm_dir =
    lazy
      (let dir = Filename.temp_file "dnsv-chaos" ".warmstore" in
       Sys.remove dir;
       Sys.mkdir dir 0o755;
       let st = Store.open_ dir in
       Fun.protect
         ~finally:(fun () -> Store.close st)
         (fun () ->
           ignore (verify_wl ~store:st proved_cfg zone);
           ignore (verify_wl ~store:st refuted_cfg zone));
       dir)
  in
  let batch_ref = batch_wl () in
  (* The serve loop the wire legs mangle datagrams at: a verified-fixed
     engine (v3.0-fixed knows SRV) over the kitchen-sink zone. Forced
     lazily so soaks whose plans never sample a wire site never pay
     the encode + compile. *)
  let wire_server =
    lazy
      (let s =
         Serve.create ~config:(Versions.fixed Versions.v3_0)
           Fixtures.reference_zone
       in
       (* A live 100%-sampled query log so Obsv_sink_fail has one
          arrival per query; windows ride along. The sink is strictly
          off the answer path — that is exactly what the leg checks. *)
       let qpath = Filename.temp_file "dnsv-chaos" ".qlog" in
       let qlog = Obsv.Qlog.create ~path:qpath ~seed:1 ~rate_pct:100 () in
       Serve.attach_obsv s
         (Obsv.sink ~qlog ~windows:(Obsv.Windows.create ()) ());
       (s, qlog, qpath))
  in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  let verify_runs = ref 0
  and torn_runs = ref 0
  and store_runs = ref 0
  and truncated_store_runs = ref 0
  and wire_runs = ref 0
  and fired = ref 0
  and survived = ref 0
  and degraded = ref 0
  and resumed_identical = ref 0
  and store_resumed_identical = ref 0 in
  (* One monotone run under the armed plan: alternate the proved and
     refuted workloads by seed and assert the soundness monotone on
     whatever comes back. [run_wl] lets the store legs substitute a
     store-backed workload; arming happens here, before the workload
     starts, so faults at store-open time land too. Returns which
     workload ran. *)
  let monotone_leg ?(run_wl = fun cfg -> verify_wl cfg zone) pseed plan =
    let refuted_wl = pseed land 1 = 1 in
    arm_plan plan;
    let cfg = if refuted_wl then refuted_cfg else proved_cfg in
    let result =
      match run_wl cfg with
      | v -> Ok (Pipeline.status v)
      | exception e -> Error e
    in
    let plan_fired =
      (* A one-shot site disarms itself when it fires; a persistent
         site fired iff its arrival counter reached its index. *)
      List.exists
        (fun (k, s) ->
          if plan.persistent then Faultinject.calls s >= plan.after + k
          else not (Faultinject.armed s))
        (List.mapi (fun k s -> (k, s)) plan.sites)
    in
    if plan_fired then incr fired;
    (match result with
    | Error (Faultinject.Injected _) | Error (Budget.Exhausted _) ->
        (* An injected fault escaped the isolated checks entirely:
           no verdict was produced, which is a loss, not a flip. *)
        incr degraded
    | Error e ->
        violation "plan %d (%s): escaped exception %s" pseed
          (site_names plan.sites) (Printexc.to_string e)
    | Ok st -> (
        match (st, refuted_wl) with
        | Budget.Refuted _, false ->
            violation
              "plan %d (%s, after=%d%s): proved workload REFUTED under faults"
              pseed (site_names plan.sites) plan.after
              (if plan.persistent then ", persistent" else "")
        | Budget.Proved, true ->
            violation
              "plan %d (%s, after=%d%s): refuted workload PROVED under faults"
              pseed (site_names plan.sites) plan.after
              (if plan.persistent then ", persistent" else "")
        | (Budget.Proved, false) | (Budget.Refuted _, true) -> incr survived
        | Budget.Inconclusive _, _ -> incr degraded));
    refuted_wl
  in
  for i = 0 to plans - 1 do
    let pseed = seed + i in
    let plan = plan_of_seed pseed in
    (* One span per plan: a violating plan's trace names its seed and
       the sites it armed. *)
    Trace.with_span "plan"
      ~attrs:
        [
          ("seed", string_of_int pseed);
          ("sites", site_names plan.sites);
          ("after", string_of_int plan.after);
          ("persistent", string_of_bool plan.persistent);
        ]
    @@ fun () ->
    Faultinject.reset ();
    if List.mem Faultinject.Journal_torn plan.sites then begin
      (* Kill-and-resume leg. Only the tear site is armed: the resumed
         transcript is compared byte-for-byte against the fault-free
         reference, so any other armed fault would be a real
         difference, not a soundness signal. Firing index 2..5 covers
         every frame after the header (tearing the header makes the
         journal unresumable by design, which is a different test). *)
      incr torn_runs;
      let path = Filename.temp_file "dnsv-chaos" ".journal" in
      Faultinject.arm ~after:(2 + (plan.after mod 4)) Faultinject.Journal_torn;
      let killed =
        match batch_wl ~journal:path () with
        | _ -> false
        | exception Faultinject.Injected _ -> true
      in
      if killed then incr fired;
      Faultinject.reset ();
      (match batch_wl ~journal:path ~resume:true () with
      | r ->
          if String.equal r.Pipeline.br_fingerprint batch_ref.Pipeline.br_fingerprint
          then incr resumed_identical
          else
            violation
              "plan %d (journal-torn, killed=%b): resumed transcript differs \
               from the uninterrupted run"
              pseed killed
      | exception e ->
          violation "plan %d (journal-torn): resume raised %s" pseed
            (Printexc.to_string e));
      (try Sys.remove path with Sys_error _ -> ())
    end
    else if has_wire_site plan then begin
      (* Wire leg: a seeded query mix (a quarter deliberate garbage)
         through the serve loop while the plan's faults mangle
         datagrams and exhaust budgets under it. Nothing may escape
         [Serve.handle], and every decodable full reply must match the
         spec on its echoed question. *)
      incr wire_runs;
      let server, _, _ = Lazy.force wire_server in
      let zone = Serve.zone server in
      arm_plan plan;
      let mix =
        { Loadgen.queries = wire_queries; malformed_pct = wire_malformed_pct;
          seed = pseed }
      in
      let okq = ref 0 and deg = ref 0 in
      for qi = 0 to wire_queries - 1 do
        let _kind, bytes = Loadgen.datagram ~zone mix qi in
        match Serve.handle server bytes with
        | exception e ->
            violation "plan %d (%s): Serve.handle raised %s" pseed
              (site_names plan.sites) (Printexc.to_string e)
        | o -> (
            match wire_reply_verdict zone o.Serve.reply with
            | Wire_ok -> incr okq
            | Wire_degraded -> incr deg
            | Wire_flip why ->
                violation "plan %d (%s, after=%d%s): %s" pseed
                  (site_names plan.sites) plan.after
                  (if plan.persistent then ", persistent" else "")
                  why)
      done;
      let plan_fired =
        List.exists
          (fun (k, s) ->
            if plan.persistent then Faultinject.calls s >= plan.after + k
            else not (Faultinject.armed s))
          (List.mapi (fun k s -> (k, s)) plan.sites)
      in
      if plan_fired then incr fired;
      if !deg > 0 then incr degraded else if !okq > 0 then incr survived;
      Faultinject.reset ()
    end
    else if has_store_site plan then begin
      (* Store leg: the same monotone assertion, run over a scratch
         copy of the warmed store with store fault sites armed —
         corruption, staleness and lock contention may cost reuse,
         never truth. Followed by the kill-mid-store-write leg: cut the
         scratch store at a seeded byte (simulating a kill at any
         instant of an append) and re-verify fault-free from cold
         caches; the verdict fingerprint must match the fault-free
         baseline byte-for-byte. *)
      incr store_runs;
      let scratch = copy_store (Lazy.force warm_dir) in
      let refuted_wl =
        monotone_leg pseed plan ~run_wl:(fun cfg ->
            let st = Store.open_ scratch in
            Fun.protect
              ~finally:(fun () -> Store.close st)
              (fun () -> verify_wl ~store:st cfg zone))
      in
      Faultinject.reset ();
      (* Cold caches: the truncated-store run must answer from the
         (shortened) store plus fresh work, not from this process's
         in-memory caches warmed by the faulted run. *)
      Solver.clear_caches ();
      Pipeline.clear_summary_memo ();
      Store.clear_domain_memos ();
      incr truncated_store_runs;
      truncate_store scratch (lcg (pseed + 13));
      let cfg = if refuted_wl then refuted_cfg else proved_cfg in
      (match
         let st = Store.open_ scratch in
         Fun.protect
           ~finally:(fun () -> Store.close st)
           (fun () -> Pipeline.fingerprint (verify_wl ~store:st cfg zone))
       with
      | fp ->
          let want = if refuted_wl then fp_refuted else fp_proved in
          if String.equal fp want then incr store_resumed_identical
          else
            violation
              "plan %d (%s): truncated-store re-verify differs from the \
               fault-free fingerprint"
              pseed (site_names plan.sites)
      | exception e ->
          violation "plan %d (%s): truncated-store re-verify raised %s" pseed
            (site_names plan.sites) (Printexc.to_string e));
      rm_rf scratch
    end
    else begin
      (* Monotone leg: alternate the proved and refuted workloads. *)
      incr verify_runs;
      ignore (monotone_leg pseed plan : bool);
      Faultinject.reset ();
      (* Corrupted cache entries persist in the memo tables by design
         (validation rejects them on every later hit); scrub so the
         next plan starts from honest caches. *)
      if List.mem Faultinject.Cache_corrupt plan.sites then begin
        Solver.clear_caches ();
        Pipeline.clear_summary_memo ()
      end
    end
  done;
  if Lazy.is_val warm_dir then rm_rf (Lazy.force warm_dir);
  if Lazy.is_val wire_server then begin
    let _, qlog, qpath = Lazy.force wire_server in
    Obsv.Qlog.close qlog;
    try Sys.remove qpath with Sys_error _ -> ()
  end;
  scrub ();
  {
    plans;
    verify_runs = !verify_runs;
    torn_runs = !torn_runs;
    store_runs = !store_runs;
    truncated_store_runs = !truncated_store_runs;
    wire_runs = !wire_runs;
    fired = !fired;
    survived = !survived;
    degraded = !degraded;
    resumed_identical = !resumed_identical;
    store_resumed_identical = !store_resumed_identical;
    violations = List.rev !violations;
  }

let pp fmt (o : outcome) =
  Format.fprintf fmt
    "@[<v>chaos soak: %d plans (%d monotone, %d store, %d wire, %d \
     journal-torn), faults fired in %d@,monotone: %d survived, %d degraded \
     to inconclusive@,journal: %d/%d resumed byte-identical@,store: %d/%d \
     truncated-store re-verifies matched the fault-free \
     fingerprint@,violations: %d@]"
    o.plans o.verify_runs o.store_runs o.wire_runs o.torn_runs o.fired
    o.survived o.degraded o.resumed_identical o.torn_runs
    o.store_resumed_identical o.truncated_store_runs
    (List.length o.violations);
  List.iter (fun v -> Format.fprintf fmt "@,  VIOLATION: %s" v) o.violations
