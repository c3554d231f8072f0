(* The refinement checker (§4.3, Figure 6).

   Engine side: full-path symbolic execution of `resolve` over the
   concrete in-heap domain tree with a symbolic query, yielding path
   conditions and the final Response memory image per path.
   Specification side: Specsym's partition of the same query space.

   For every overlapping (engine path, spec path) pair the checker
   discharges equality of the response images with the SMT solver;
   failures concretize into a real query via the model, which is
   replayed concretely on both the engine interpreter and the concrete
   specification (so every reported bug comes with a confirmed
   counterexample). Reachable panic paths are safety violations
   (§4.1). *)

module Term = Smt.Term
module Solver = Smt.Solver
module Model = Smt.Model
module Value = Minir.Value
module Name = Dns.Name
module Rr = Dns.Rr
module Zone = Dns.Zone
module Message = Dns.Message
module Layout = Dnstree.Layout
module Encode = Dnstree.Encode
module Rrlookup = Spec.Rrlookup
module Sval = Symex.Sval
module Exec = Symex.Exec
module Summary = Symex.Summary

(* Execution mode for the engine side: plain inlining, or applying
   automatically generated summaries at the summarized layers (§5.3) —
   the paper's configuration. *)
type mode = Inline_all | With_summaries

type mismatch = {
  query : Message.query;
  detail : string;
  engine_replay : string; (* rendered engine response / panic *)
  spec_replay : string;
}

type panic_report = { panic_query : Message.query; reason : string }

type report = {
  version : string;
  qtype : Rr.rtype;
  engine_paths : int;
  spec_paths : int;
  pairs_checked : int;
  solver_calls : int;
  static_discharged : int; (* branches pruned by the static analysis *)
  ip_discharged : int;
      (* ... of which only the interprocedural layer could justify *)
  unknowns : int; (* solver Unknowns this check leaned on *)
  cert_checks : int; (* verdict certificates validated *)
  cert_failures : int; (* certificates rejected (answers degraded) *)
  summary_cases : (string * int) list; (* per summary instance *)
  summary_times : (string * float) list; (* per layer, total summarization s *)
  mismatches : mismatch list;
  panics : panic_report list;
  stateless : bool;
  inconclusive : Budget.reason option; (* the check stopped short *)
  summary_fallback : bool; (* With_summaries degraded to Inline_all *)
  elapsed : float;
}

let ok (r : report) = r.mismatches = [] && r.panics = []

(* The three-valued verdict for one check. A report with no mismatches
   is only a proof if it ran to completion *and* never leaned on a
   solver Unknown — an Unknown-as-feasible branch or Unknown-validity
   entailment means the obligation was not actually discharged. *)
let status (r : report) : report Budget.outcome =
  match r.inconclusive with
  | Some reason -> Budget.Inconclusive reason
  | None ->
      if r.mismatches <> [] || r.panics <> [] || not r.stateless then
        Budget.Refuted r
      else if r.cert_failures > 0 then
        (* A rejected certificate means some answer this check consumed
           could not be justified (it was degraded to Unknown, so
           [unknowns] is also positive) — name the sharper cause. *)
        Budget.Inconclusive
          (Budget.Cert_invalid
             (Printf.sprintf "%d certificate(s) failed re-validation"
                r.cert_failures))
      else if r.unknowns > 0 then
        Budget.Inconclusive (Budget.Solver_unknowns { count = r.unknowns })
      else Budget.Proved

(* A placeholder report for a check that stopped before producing
   results: everything zero, the reason recorded. *)
let inconclusive_report ?(summary_fallback = false) ?(cert_checks = 0)
    ?(cert_failures = 0) ~(version : string) ~(qtype : Rr.rtype)
    ~(elapsed : float) (reason : Budget.reason) : report =
  {
    version;
    qtype;
    engine_paths = 0;
    spec_paths = 0;
    pairs_checked = 0;
    solver_calls = 0;
    static_discharged = 0;
    ip_discharged = 0;
    unknowns = 0;
    cert_checks;
    cert_failures;
    summary_cases = [];
    summary_times = [];
    mismatches = [];
    panics = [];
    stateless = true;
    inconclusive = Some reason;
    summary_fallback;
    elapsed;
  }

(* Install the solver-independent certificate checker: from here on,
   every solver answer this module consumes is certificate-validated
   (including cache and incremental-stack replays). *)
let () = Cert.install ()

(* ------------------------------------------------------------------ *)
(* Engine-side harness                                                *)
(* ------------------------------------------------------------------ *)

let qname_cells () =
  Sval.CArray (Array.init Layout.max_labels (fun j -> Sval.CInt (Specsym.qsym_label j)))

(* ------------------------------------------------------------------ *)
(* The engine's analysis environment                                  *)
(* ------------------------------------------------------------------ *)

(* What this harness (and every other caller of the compiled engine —
   the pipeline, the lint CLI, the chaos soak) guarantees about its
   top-level calls into the program, handed to [Analysis.summarize]:

   - root: `resolve` — the only function the harness enters directly,
     so every other function's parameters may soundly be narrowed to
     the join of its in-program call sites.
   - entry facts for `resolve`: [run_engine] always passes non-nil
     root/resp/qname pointers, a query length within the name-array
     capacity ([Specsym.domain_constraints]), and a one-byte rtype code.
   - field invariants of the encoded domain tree: [Encode.encode]
     rejects inputs exceeding the Layout capacities, and the engine
     never stores into tree structs (statelessness is itself checked
     per run). [Analysis.field_invariants_filter] re-verifies the
     no-store half against each program before any use.

   This env is sound ONLY for runs entering `resolve` on the real
   encoded heap; [Summary.summarize_at]'s canonicalized re-runs of
   intercepted layers pass [Exec.run] their own per-window env built
   from the canonical arguments — [Exec.run] selects per entry. *)
let engine_env () : Analysis.env =
  let itv lo hi =
    Analysis.AInt (Analysis.Interval.I (Some lo, Some hi))
  in
  let fidx = Layout.field_index in
  {
    Analysis.env_roots = [ "resolve" ];
    env_entry =
      [
        ( "resolve",
          [
            (0, Analysis.APtr Analysis.Nullness.NNot);
            (1, Analysis.APtr Analysis.Nullness.NNot);
            (2, Analysis.APtr Analysis.Nullness.NNot);
            (3, itv 0 Layout.max_labels);
            (4, itv 0 255);
          ] );
      ];
    env_fields =
      [
        ("TreeNode", fidx "TreeNode" "labelsLen", itv 0 Layout.max_labels);
        ("TreeNode", fidx "TreeNode" "nsets", itv 0 Layout.max_rrsets);
        ("RRSet", fidx "RRSet" "count", itv 0 Layout.max_rdatas);
        ("Rdata", fidx "Rdata" "targetLen", itv 0 Layout.max_labels);
      ];
  }

type harness = {
  exec_ctx : Exec.ctx;
  resp_ptr : Value.ptr;
  init_mem : Sval.memory;
  frozen_below : int;
  store : Summary.store;
}

let prepare ?store ?budget ?(analysis = Analysis.Trust)
    ?(env = engine_env ()) (prog : Minir.Instr.program) (enc : Encode.t)
    (mode : mode) : harness =
  let frozen_below = enc.Encode.memory.Value.next_block in
  let store =
    match store with Some s -> s | None -> Summary.create_store ()
  in
  let intercepts =
    match mode with
    | Inline_all -> []
    | With_summaries ->
        List.map
          (fun fn -> (fn, Summary.intercept_for ~frozen_below store fn))
          Engine.Builder.summarized_layers
  in
  let exec_ctx = Exec.create ?budget ~intercepts ~analysis ~env prog in
  let mem0 = Sval.memory_of_concrete enc.Encode.memory in
  let mem0, resp_ptr =
    Sval.alloc mem0
      (Sval.scell_default prog.Minir.Instr.tenv (Minir.Ty.Struct "Response"))
  in
  { exec_ctx; resp_ptr; init_mem = mem0; frozen_below; store }

let run_engine (h : harness) (enc : Encode.t) ~(qtype : Rr.rtype) : Exec.result
    =
  let mem, qname_ptr = Sval.alloc h.init_mem (qname_cells ()) in
  let args =
    [
      Sval.SPtr enc.Encode.root;
      Sval.SPtr h.resp_ptr;
      Sval.SPtr qname_ptr;
      Sval.SInt Specsym.qsym_len;
      Sval.SInt (Term.int (Rr.rtype_code qtype));
    ]
  in
  Exec.run h.exec_ctx ~memory:mem
    ~pc:(Specsym.domain_constraints ~max_labels:Layout.max_labels)
    ~fn:"resolve" ~args

(* ------------------------------------------------------------------ *)
(* Response images                                                    *)
(* ------------------------------------------------------------------ *)

type slot = {
  s_rname : Term.t array;
  s_rname_len : Term.t;
  s_rtype : Term.t;
  s_data_id : Term.t;
  s_target : Term.t array;
  s_target_len : Term.t;
  s_has_target : Term.t;
}

type image = {
  i_rcode : Term.t;
  i_aa : Term.t;
  i_counts : Term.t array; (* answer, authority, additional *)
  i_slots : slot array array;
}

let as_int_cell = function
  | Sval.CInt t -> t
  | c -> Sval.error "expected int cell, got %a" Sval.pp_scell c

let as_bool_cell = function
  | Sval.CBool t -> t
  | c -> Sval.error "expected bool cell, got %a" Sval.pp_scell c

let slot_of_cell (c : Sval.scell) : slot =
  match c with
  | Sval.CStruct [| rname; rlen; rtype; target; tlen; has; did |] ->
      let arr = function
        | Sval.CArray cells -> Array.map as_int_cell cells
        | c -> Sval.error "expected name array, got %a" Sval.pp_scell c
      in
      {
        s_rname = arr rname;
        s_rname_len = as_int_cell rlen;
        s_rtype = as_int_cell rtype;
        s_data_id = as_int_cell did;
        s_target = arr target;
        s_target_len = as_int_cell tlen;
        s_has_target = as_bool_cell has;
      }
  | c -> Sval.error "malformed RR cell %a" Sval.pp_scell c

let image_of_mem (mem : Sval.memory) (resp : Value.ptr) : image =
  match Sval.block_value mem resp.Value.block with
  | Sval.CStruct [| rc; aa; na; ans; nu; auth; nd; add |] ->
      let slots = function
        | Sval.CArray cells -> Array.map slot_of_cell cells
        | c -> Sval.error "malformed section %a" Sval.pp_scell c
      in
      {
        i_rcode = as_int_cell rc;
        i_aa = as_bool_cell aa;
        i_counts = [| as_int_cell na; as_int_cell nu; as_int_cell nd |];
        i_slots = [| slots ans; slots auth; slots add |];
      }
  | c -> Sval.error "malformed Response %a" Sval.pp_scell c

(* The expected slot terms for a specification record. [qlen_pin] is the
   concrete query length entailed by the combined path condition (only
   needed for symbolic owners). *)
let expected_slot (it : Layout.interner) (qlen_pin : int option)
    (s : Specsym.srr) : slot =
  let name_terms (codes : int list) =
    Array.init Layout.max_labels (fun j ->
        match List.nth_opt codes j with
        | Some c -> Term.int c
        | None -> Term.int 0)
  in
  let rname, rlen =
    match s.Specsym.owner with
    | Specsym.Concrete n ->
        let codes = Name.codes it.Layout.coder n in
        (name_terms codes, Term.int (List.length codes))
    | Specsym.Sym_query ->
        let k =
          match qlen_pin with
          | Some k -> k
          | None -> Sval.error "symbolic owner with unpinned query length"
        in
        ( Array.init Layout.max_labels (fun j ->
              if j < k then Specsym.qsym_label j else Term.int 0),
          Term.int k )
  in
  let data_id = Layout.intern_rdata it s.Specsym.srdata in
  let target, tlen, has =
    match Rr.rdata_target s.Specsym.srdata with
    | Some t ->
        let codes = Name.codes it.Layout.coder t in
        (name_terms codes, Term.int (List.length codes), Term.true_)
    | None ->
        (Array.make Layout.max_labels (Term.int 0), Term.int 0, Term.false_)
  in
  {
    s_rname = rname;
    s_rname_len = rlen;
    s_rtype = Term.int (Rr.rtype_code s.Specsym.srtype);
    s_data_id = Term.int data_id;
    s_target = target;
    s_target_len = tlen;
    s_has_target = has;
  }

(* ------------------------------------------------------------------ *)
(* Quick syntactic refutation of path-pair overlap                    *)
(* ------------------------------------------------------------------ *)

exception Refuted

let rec collect_eqs env (t : Term.t) =
  match t with
  | Term.And ts -> List.iter (collect_eqs env) ts
  | Term.Eq (Term.Var v, Term.Int_const n) | Term.Eq (Term.Int_const n, Term.Var v)
    -> (
      match Hashtbl.find_opt env v.Term.name with
      | Some n' when n' <> n -> raise Refuted
      | Some _ -> ()
      | None -> Hashtbl.replace env v.Term.name n)
  | _ -> ()

let partial_eval env (t : Term.t) : bool option =
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some n -> Some (Term.VInt n)
    | None -> None
  in
  match Term.eval lookup t with
  | Term.VBool b -> Some b
  | Term.VInt _ -> None
  | exception Term.Unassigned _ -> None
  | exception Term.Sort_error _ -> None

(* Cheap check: do the constant equalities of [a] contradict any
   conjunct of [b] (or vice versa)? *)
let quick_refute (a : Term.t list) (b : Term.t list) : bool =
  let env = Hashtbl.create 16 in
  try
    List.iter (collect_eqs env) a;
    List.iter (collect_eqs env) b;
    List.exists (fun t -> partial_eval env t = Some false) b
    || List.exists (fun t -> partial_eval env t = Some false) a
  with Refuted -> true

(* ------------------------------------------------------------------ *)
(* The checker                                                        *)
(* ------------------------------------------------------------------ *)

(* Entailment, routed through an incremental assertion stack when one is
   in scope: the hypotheses of successive obligations share their tail
   (the engine path condition) physically, so only the goal literal is
   analyzed fresh per call. *)
let entails ?incr ~hyps goal =
  match incr with
  | Some s -> Solver.Incremental.entails s ~hyps goal
  | None -> Solver.entails ~hyps goal

let check_eq ?incr ~(pc : Term.t list) (a : Term.t) (b : Term.t) : bool =
  Term.equal a b
  ||
  match (a, b) with
  | Term.Int_const x, Term.Int_const y -> x = y
  | _ -> (
      match entails ?incr ~hyps:pc (Term.eq a b) with
      | Solver.Valid -> true
      | Solver.Counterexample _ | Solver.Unknown_validity -> false)

let check_slot ?incr ~pc ~(where : string) (eng : slot) (exp : slot) :
    (unit, string) result =
  let checks =
    [
      ("rnameLen", eng.s_rname_len, exp.s_rname_len);
      ("rtype", eng.s_rtype, exp.s_rtype);
      ("dataId", eng.s_data_id, exp.s_data_id);
      ("targetLen", eng.s_target_len, exp.s_target_len);
    ]
    @ List.init Layout.max_labels (fun j ->
          (Printf.sprintf "rname[%d]" j, eng.s_rname.(j), exp.s_rname.(j)))
    @ List.init Layout.max_labels (fun j ->
          (Printf.sprintf "target[%d]" j, eng.s_target.(j), exp.s_target.(j)))
  in
  let bad =
    List.find_opt (fun (_, a, b) -> not (check_eq ?incr ~pc a b)) checks
  in
  match bad with
  | Some (field, a, b) ->
      Error
        (Format.asprintf "%s.%s: engine %a vs spec %a" where field Term.pp a
           Term.pp b)
  | None ->
      if check_eq ?incr ~pc eng.s_has_target exp.s_has_target then Ok ()
      else Error (where ^ ".hasTarget differs")

let section_names = [| "answer"; "authority"; "additional" |]

let check_images ?incr ~pc (it : Layout.interner) (eng : image)
    (spec : Specsym.sresponse) ~(qlen_pin : int option) : (unit, string) result
    =
  let expected_sections =
    [| spec.Specsym.sanswer; spec.Specsym.sauthority; spec.Specsym.sadditional |]
  in
  let rc = Term.int (Message.rcode_code spec.Specsym.srcode) in
  if not (check_eq ?incr ~pc eng.i_rcode rc) then
    Error
      (Format.asprintf "rcode: engine %a vs spec %s" Term.pp eng.i_rcode
         (Message.rcode_to_string spec.Specsym.srcode))
  else if not (check_eq ?incr ~pc eng.i_aa (Term.of_bool spec.Specsym.saa)) then
    Error
      (Format.asprintf "aa: engine %a vs spec %b" Term.pp eng.i_aa
         spec.Specsym.saa)
  else
    let rec sections k =
      if k >= 3 then Ok ()
      else
        let expected = expected_sections.(k) in
        let count = List.length expected in
        if not (check_eq ?incr ~pc eng.i_counts.(k) (Term.int count)) then
          Error
            (Format.asprintf "%s count: engine %a vs spec %d"
               section_names.(k) Term.pp eng.i_counts.(k) count)
        else
          let rec slots i = function
            | [] -> sections (k + 1)
            | srr :: rest -> (
                let exp = expected_slot it qlen_pin srr in
                match
                  check_slot ?incr ~pc
                    ~where:(Printf.sprintf "%s[%d]" section_names.(k) i)
                    eng.i_slots.(k).(i) exp
                with
                | Ok () -> slots (i + 1) rest
                | Error e -> Error e)
          in
          slots 0 expected
    in
    sections 0

(* Try to pin the query length under [pc]: take the model's value and
   confirm entailment. *)
let pin_qlen ?incr (pc : Term.t list) (m : Model.t) : int option =
  let k = Model.get_int "q.len" m in
  match entails ?incr ~hyps:pc (Term.eq Specsym.qsym_len (Term.int k)) with
  | Solver.Valid -> Some k
  | _ -> None

let replay_engine (cfg : Engine.Builder.config) (zone : Zone.t)
    (q : Message.query) : string =
  match Engine.Versions.run cfg zone q with
  | Engine.Versions.Response r -> Message.response_to_string r
  | Engine.Versions.Engine_panic m -> "panic: " ^ m
  | exception Minir.Interp.Out_of_fuel ->
      "replay aborted: interpreter out of fuel"

let replay_spec (zone : Zone.t) (q : Message.query) : string =
  Message.response_to_string (Rrlookup.resolve zone q)

(* One verification attempt under [budget]: the existing full-path
   product check, now charging every solver call, fork, and step to the
   budget, and recording how many solver Unknowns it leaned on. Raises
   (Budget.Exhausted, Summary.Summary_failed, …) on failure; the
   [check_version] wrapper below converts those into verdicts. *)
let check_version_attempt ~(budget : Budget.t) ~(mode : mode)
    ~(summary_fallback : bool) ?store ?(analysis = Analysis.Trust)
    (cfg : Engine.Builder.config) (zone : Zone.t) ~(qtype : Rr.rtype) : report =
  Trace.with_span "check"
    ~attrs:
      [
        ("version", cfg.Engine.Builder.version);
        ("qtype", Rr.rtype_to_string qtype);
        ( "mode",
          match mode with
          | Inline_all -> "inline-all"
          | With_summaries -> "with-summaries" );
      ]
  @@ fun () ->
  Solver.with_budget budget @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Solver.reset_stats ();
  let prog = Engine.Versions.compiled cfg in
  let tree = Dnstree.Tree.build zone in
  let enc = Encode.encode tree in
  let h = prepare ?store ~budget ~analysis prog enc mode in
  let engine_results = run_engine h enc ~qtype in
  let spec_paths, spec_solver_calls =
    Specsym.paths zone enc.Encode.interner.Layout.coder ~qtype
      ~max_labels:Layout.max_labels
  in
  (* One assertion stack for the whole product check: consecutive
     obligations share the engine path condition as their physical tail,
     so its analysis is reused across spec paths and slot checks. *)
  let incr = Solver.Incremental.create () in
  let mismatches = ref [] in
  let panics = ref [] in
  let pairs = ref 0 in
  let stateless = ref true in
  let unconfirmed = ref 0 in
  let record_mismatch q detail =
    let engine_replay = replay_engine cfg zone q in
    let spec_replay = replay_spec zone q in
    (* Every reported bug must come with a *confirmed* counterexample:
       a symbolic disagreement whose concretization replays identically
       on both sides (typically one derived from a solver Unknown and
       an empty model) is not evidence, and must not flip the verdict
       to Refuted — it downgrades the run to inconclusive instead. *)
    if String.equal engine_replay spec_replay then Stdlib.incr unconfirmed
    else
      mismatches :=
        { query = q; detail; engine_replay; spec_replay } :: !mismatches
  in
  List.iter
    (fun ((path : Exec.path), outcome) ->
      match outcome with
      | Exec.Panicked reason -> (
          match Solver.Incremental.check_pc incr path.Exec.pc with
          | Solver.Sat m ->
              let q =
                Specsym.query_of_model enc.Encode.interner.Layout.coder m ~qtype
              in
              panics := { panic_query = q; reason } :: !panics
          | _ -> () (* infeasible panic path: pruned conservatively *))
      | Exec.Returned _ ->
          (* Statelessness: the engine must not modify the domain tree. *)
          Sval.Int_map.iter
            (fun b cell ->
              if b < h.frozen_below then
                match Sval.Int_map.find_opt b path.Exec.mem.Sval.blocks with
                | Some cell' when cell' == cell || cell' = cell -> ()
                | _ -> stateless := false)
            h.init_mem.Sval.blocks;
          let eng_image = image_of_mem path.Exec.mem h.resp_ptr in
          List.iter
            (fun (sp : Specsym.spath) ->
              if not (quick_refute path.Exec.pc sp.Specsym.cond) then begin
                let combined = sp.Specsym.cond @ path.Exec.pc in
                let handle_overlap (m : Model.t) =
                  Stdlib.incr pairs;
                  let qlen_pin = pin_qlen ~incr combined m in
                  match
                    check_images ~incr ~pc:combined enc.Encode.interner
                      eng_image sp.Specsym.resp ~qlen_pin
                  with
                  | Ok () -> ()
                  | Error detail ->
                      (* Concretize a witness for the mismatch. *)
                      let q =
                        Specsym.query_of_model
                          enc.Encode.interner.Layout.coder m ~qtype
                      in
                      record_mismatch q detail
                in
                match Solver.Incremental.check_pc incr combined with
                | Solver.Unsat -> ()
                | Solver.Sat m -> handle_overlap m
                | Solver.Unknown -> handle_overlap Model.empty
              end)
            spec_paths)
    engine_results;
  (* Cache behavior depends on what ran before on this domain, so these
     tallies are informational only (det:false — excluded from the
     deterministic span-tree fingerprint). *)
  (let s = Solver.stats () in
   Trace.add_attr ~det:false "cache_hits" (string_of_int s.Solver.cache_hits);
   Trace.add_attr ~det:false "cache_misses"
     (string_of_int s.Solver.cache_misses);
   Trace.add_attr ~det:false "incremental_checks"
     (string_of_int s.Solver.incremental_checks);
   Trace.add_attr ~det:false "scratch_checks"
     (string_of_int s.Solver.scratch_checks));
  {
    version = cfg.Engine.Builder.version;
    qtype;
    engine_paths = List.length engine_results;
    spec_paths = List.length spec_paths;
    pairs_checked = !pairs;
    solver_calls = h.exec_ctx.Exec.solver_calls + spec_solver_calls;
    static_discharged = h.exec_ctx.Exec.static_discharged;
    ip_discharged = h.exec_ctx.Exec.ip_discharged;
    (* Global since reset above: covers Unknown-as-feasible branches in
       the executor *and* Unknown-validity entailments in check_eq. *)
    unknowns = (Solver.stats ()).Solver.unknowns;
    cert_checks = (Solver.stats ()).Solver.cert_checks;
    cert_failures = (Solver.stats ()).Solver.cert_failures;
    summary_cases =
      List.map
        (fun (s : Summary.t) -> (s.Summary.fn, Summary.case_count s))
        (Summary.store_summaries h.store);
    summary_times =
      List.fold_left
        (fun acc (s : Summary.t) ->
          let prev = Option.value ~default:0.0 (List.assoc_opt s.Summary.fn acc) in
          (s.Summary.fn, prev +. s.Summary.elapsed)
          :: List.remove_assoc s.Summary.fn acc)
        []
        (Summary.store_summaries h.store);
    mismatches = List.rev !mismatches;
    panics = List.rev !panics;
    stateless = !stateless;
    inconclusive =
      (* Unconfirmed symbolic disagreements normally ride on a solver
         Unknown, which already forces an inconclusive status; if one
         appears without any Unknown it is checker imprecision, and the
         run still must not count as a proof. *)
      (if !unconfirmed > 0 && (Solver.stats ()).Solver.unknowns = 0 then
         Some
           (Budget.Internal_error
              (Printf.sprintf
                 "%d symbolic disagreement(s) did not replay concretely"
                 !unconfirmed))
       else None);
    summary_fallback;
    elapsed = Unix.gettimeofday () -. t0;
  }

(* Map an exception escaping an attempt to a machine-readable reason. *)
let reason_of_check_exn = function
  | Minir.Interp.Out_of_fuel ->
      Budget.Fuel_exhausted { limit = Minir.Interp.default_fuel }
  | Summary.Summary_failed m -> Budget.Summary_failed m
  | e -> Budget.reason_of_exn e

(* Verify one engine version against the top-level specification for
   one query type over one zone.

   Every failure mode terminates in a report: budget exhaustion, fuel
   exhaustion, injected faults and unexpected exceptions all become
   [inconclusive = Some reason] rather than escaping. When summarization
   itself fails or times out under [With_summaries] (and [fallback] is
   allowed), the check degrades once to [Inline_all] under an escalated
   budget — the summaries are an optimization, never a prerequisite for
   a verdict. *)
let check_version ?budget ?(mode = With_summaries) ?(fallback = true) ?store
    ?(analysis = Analysis.Trust) (cfg : Engine.Builder.config) (zone : Zone.t)
    ~(qtype : Rr.rtype) : report =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let version = cfg.Engine.Builder.version in
  let t0 = Unix.gettimeofday () in
  let attempt ~budget ~mode ~summary_fallback =
    match
      check_version_attempt ~budget ~mode ~summary_fallback ?store ~analysis
        cfg zone ~qtype
    with
    | r -> Ok r
    | exception e ->
        (* The attempt's cert counters are still live ([reset_stats]
           runs at attempt start). A crash downstream of a certificate
           rejection is reported as the rejection, not as the crash: the
           corrupted answer was degraded to Unknown and the engine fell
           over in the resulting unexpected state — the root cause is
           the unjustifiable verdict. Sharper reasons (deadline, fuel,
           an injected fault) keep priority. *)
        let s = Solver.stats () in
        let cc = s.Solver.cert_checks and cf = s.Solver.cert_failures in
        let reason =
          match reason_of_check_exn e with
          | Budget.Internal_error m when cf > 0 ->
              Budget.Cert_invalid
                (Printf.sprintf
                   "%d certificate(s) failed re-validation before the check \
                    stopped (%s)"
                   cf m)
          | r -> r
        in
        Error (reason, cc, cf)
  in
  let degraded reason =
    Trace.event "degraded" ~attrs:[ ("reason", Budget.reason_tag reason) ]
  in
  match attempt ~budget ~mode ~summary_fallback:false with
  | Ok r -> r
  | Error (Budget.Summary_failed _, _, _) when mode = With_summaries && fallback
    -> (
      Trace.event "summary.fallback"
        ~attrs:
          [ ("version", version); ("qtype", Rr.rtype_to_string qtype) ];
      match
        attempt ~budget:(Budget.escalate budget) ~mode:Inline_all
          ~summary_fallback:true
      with
      | Ok r -> r
      | Error (reason, cert_checks, cert_failures) ->
          degraded reason;
          inconclusive_report ~summary_fallback:true ~cert_checks
            ~cert_failures ~version ~qtype
            ~elapsed:(Unix.gettimeofday () -. t0)
            reason)
  | Error (reason, cert_checks, cert_failures) ->
      degraded reason;
      inconclusive_report ~cert_checks ~cert_failures ~version ~qtype
        ~elapsed:(Unix.gettimeofday () -. t0)
        reason

let pp_report fmt (r : report) =
  Format.fprintf fmt
    "@[<v>version %s qtype %s: %d engine paths, %d spec paths, %d pairs, %d \
     solver calls, %.3fs%s%s%s%s@,%a%a@]"
    r.version
    (Rr.rtype_to_string r.qtype)
    r.engine_paths r.spec_paths r.pairs_checked r.solver_calls r.elapsed
    (if r.stateless then "" else " [NOT STATELESS]")
    ((if r.unknowns = 0 then ""
      else Printf.sprintf " [%d solver unknowns]" r.unknowns)
    ^
    if r.cert_failures = 0 then ""
    else Printf.sprintf " [%d certificate failures]" r.cert_failures)
    (if r.summary_fallback then " [summaries fell back to inlining]" else "")
    (match r.inconclusive with
    | None -> ""
    | Some reason ->
        Printf.sprintf " INCONCLUSIVE (%s)" (Budget.reason_to_string reason))
    (fun fmt ms ->
      List.iter
        (fun m ->
          Format.fprintf fmt "MISMATCH on %a: %s@," Message.pp_query m.query
            m.detail)
        ms)
    r.mismatches
    (fun fmt ps ->
      List.iter
        (fun p ->
          Format.fprintf fmt "PANIC on %a: %s@," Message.pp_query p.panic_query
            p.reason)
        ps)
    r.panics
