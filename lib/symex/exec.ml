(* Full-path symbolic execution over Minir (the verifier's core, §5.2).

   Every feasible control path is explored; branch feasibility is decided
   by the SMT solver against the accumulated path condition, so panics
   reported here are reachable modulo solver completeness. Calls are
   inlined by default; an *intercept* table redirects chosen callees to
   manual layer specifications or automatically generated summaries —
   the layered verification hook (§4.3). *)

module Term = Smt.Term
module Solver = Smt.Solver
module Instr = Minir.Instr
module Ty = Minir.Ty
module Value = Minir.Value
module Typing = Minir.Typing

type path = { pc : Term.t list; mem : Sval.memory }

(* A program is resolved once, memoised per domain by its physical
   identity as the concrete interpreter's is: callee names become
   indices into [funcs] and branch labels indices into the function's
   [blocks]. An unknown callee or a missing label resolves to a negative
   index and raises where the by-name lookup did. Blocks keep their
   [Instr.block], whose physical identity keys the analysis's branch
   facts. *)
type rblock = {
  block : Instr.block;
  insns : (Instr.instr * int) array; (* with the callee index of a call *)
  targets : int array; (* the terminator's labels, in order *)
}

type rfunc = {
  func : Instr.func;
  arity : int;
  entry : int;
  blocks : rblock array;
  missing : Instr.label array; (* target [t < 0] is [missing.(-t - 1)] *)
}

type code = { funcs : rfunc array; by_name : (string, int) Hashtbl.t }

let resolve (p : Instr.program) : code =
  let by_name =
    Instr.index_first (List.map (fun f -> f.Instr.fn_name) p.Instr.funcs)
  in
  let callee name = Option.value (Hashtbl.find_opt by_name name) ~default:(-1) in
  let insn (i : Instr.instr) =
    match i with
    | Instr.Call_void (name, _) | Instr.Assign (_, Instr.Call (name, _)) ->
        (i, callee name)
    | _ -> (i, -1)
  in
  let resolve_func (f : Instr.func) =
    let target, missing = Instr.block_indexer f in
    let blocks =
      Array.of_list
        (List.map
           (fun (_, (b : Instr.block)) ->
             {
               block = b;
               insns = Array.of_list (List.map insn b.Instr.insns);
               targets =
                 (match b.Instr.term with
                 | Instr.Br l -> [| target l |]
                 | Instr.Cond_br (_, l1, l2) -> [| target l1; target l2 |]
                 | Instr.Ret _ | Instr.Panic _ | Instr.Unreachable -> [||]);
             })
           f.Instr.blocks)
    in
    let entry = target f.Instr.entry in
    {
      func = f;
      arity = List.length f.Instr.params;
      entry;
      blocks;
      missing = missing ();
    }
  in
  { funcs = Array.of_list (List.map resolve_func p.Instr.funcs); by_name }

let resolved : Instr.program -> code = Instr.per_program resolve

type outcome = Returned of Sval.sval option | Panicked of string
type result = (path * outcome) list

type ctx = {
  prog : Instr.program;
  code : code; (* [prog], resolved *)
  mutable intercepts : (string * intercept) list;
  mutable steps : int;
  max_steps : int;
  budget : Budget.t; (* fuel, path cap, deadline; shared with the solver *)
  mutable forks : int;
  mutable solver_calls : int;
  mutable unknowns : int; (* solver Unknowns treated as feasible *)
  incr : Solver.Incremental.t;
      (* assertion stack mirroring the current path condition: branch
         feasibility extends the parent path's analyzed solver state by
         one literal instead of re-translating the whole conjunction *)
  analysis : Analysis.policy;
      (* whether branch queries consult the static analysis first *)
  env : Analysis.env option;
      (* harness facts (roots/entry args/field invariants) forwarded to
         [Analysis.summarize] — None analyzes for arbitrary entries.
         Sound ONLY for runs entering one of its [env_roots]: the
         harness vouches for the entry facts and the heap invariants
         of those entries alone. A run entering any other function
         falls back to the env-free analysis, unless the caller of
         [run] supplies its own vouched-for env (the summarizer's
         canonicalized window re-runs do). *)
  mutable active_env : Analysis.env option;
      (* the env of the innermost live [run]; selects the fact tables
         the branch oracle consults *)
  mutable facts : Analysis.summary option; (* computed on first branch *)
  mutable fn_facts : (Instr.func * Analysis.func_facts option) option;
      (* one-entry cache keyed by physical function identity: branch
         lookups below are per-branch-execution, so the per-function
         name hash must not be paid on every conditional *)
  br_cache : (Instr.block * Analysis.branch_info option) option array;
  mutable br_cache_next : int;
      (* tiny round-robin branch-info cache (physical identity): the
         executor spends most branch executions cycling through the
         few conditionals of the current loop, and even the bounded
         structural hash of a block is too expensive to pay per
         iteration *)
  mutable static_discharged : int; (* branches pruned without the solver *)
  mutable panic_checks : int; (* symbolic branches guarding a Panic block *)
  mutable panic_discharged : int; (* ... of which statically pruned *)
  mutable crosscheck_mismatches : int; (* Distrust: solver disagreed *)
  mutable ip_discharged : int;
      (* ... of [static_discharged], prunes only the interprocedural
         layer (summaries / env) could justify *)
  mutable ip_crosschecked : int; (* Distrust: interprocedural claims checked *)
  mutable ip_crosscheck_mismatches : int; (* ... of which refuted *)
}

and intercept = ctx -> path -> Sval.sval list -> result

exception Budget_exceeded of string

let default_max_steps = 5_000_000

let m_static_discharged = Trace.Metrics.counter "analysis.static_discharged"
let m_panic_checks = Trace.Metrics.counter "analysis.panic_checks"
let m_panic_discharged = Trace.Metrics.counter "analysis.panic_discharged"
let m_crosscheck_pass = Trace.Metrics.counter "analysis.crosscheck_pass"
let m_crosscheck_mismatch = Trace.Metrics.counter "analysis.crosscheck_mismatch"
let m_ip_discharged = Trace.Metrics.counter "analysis.ip_discharged"
let m_ip_crosscheck = Trace.Metrics.counter "analysis.ip_crosscheck"

let m_ip_crosscheck_mismatch =
  Trace.Metrics.counter "analysis.ip_crosscheck_mismatch"

let create ?(max_steps = default_max_steps) ?budget ?(intercepts = [])
    ?(analysis = Analysis.Off) ?env prog =
  {
    prog;
    code = resolved prog;
    intercepts;
    steps = 0;
    max_steps;
    budget = (match budget with Some b -> b | None -> Budget.unlimited ());
    forks = 0;
    solver_calls = 0;
    unknowns = 0;
    incr = Solver.Incremental.create ();
    analysis;
    env;
    active_env = env;
    facts = None;
    fn_facts = None;
    br_cache = Array.make 8 None;
    br_cache_next = 0;
    static_discharged = 0;
    panic_checks = 0;
    panic_discharged = 0;
    crosscheck_mismatches = 0;
    ip_discharged = 0;
    ip_crosschecked = 0;
    ip_crosscheck_mismatches = 0;
  }

let tick ctx =
  ctx.steps <- ctx.steps + 1;
  if ctx.steps > ctx.max_steps then
    raise (Budget_exceeded "symbolic execution step budget exceeded");
  if Faultinject.fire Faultinject.Exec_fuel then
    raise
      (Budget.Exhausted
         (Budget.Fuel_exhausted
            { limit = Option.value ~default:0 ctx.budget.Budget.max_fuel }));
  Budget.tick_fuel ctx.budget

(* Charge one freshly forked path against the budget's path cap. *)
let charge_fork ctx =
  ctx.forks <- ctx.forks + 1;
  Budget.tick_path ctx.budget

(* Feasibility of a path condition. Unknown counts as feasible (sound
   for bug finding: we may report a spurious path, never miss one). *)
let feasible ctx (pc : Term.t list) : bool =
  ctx.solver_calls <- ctx.solver_calls + 1;
  match Solver.Incremental.check_pc ctx.incr pc with
  | Solver.Sat _ -> true
  | Solver.Unsat -> false
  | Solver.Unknown ->
      ctx.unknowns <- ctx.unknowns + 1;
      true

(* Fork on a boolean term. When only one side is feasible the condition
   is entailed and the path condition is left unchanged (keeps pc small). *)
let fork_bool ctx (path : path) (t : Term.t) ~(then_ : path -> 'a list)
    ~(else_ : path -> 'a list) : 'a list =
  match t with
  | Term.True -> then_ path
  | Term.False -> else_ path
  | t -> (
      (* Allocate each extended pc once and reuse it for both the
         feasibility query and the forked path: the assertion stack is
         keyed on the cons cells' physical identity, so the descent into
         the branch finds its condition already analyzed. *)
      let pc_t = t :: path.pc and pc_n = Term.not_ t :: path.pc in
      let sat_t = feasible ctx pc_t in
      let sat_n = feasible ctx pc_n in
      match (sat_t, sat_n) with
      | true, false -> then_ path
      | false, true -> else_ path
      | true, true ->
          charge_fork ctx;
          then_ { path with pc = pc_t } @ else_ { path with pc = pc_n }
      | false, false -> [] (* path condition itself became unsat *))

(* Concretize an integer term against the candidates 0..n-1 (symbolic
   array indexing): fork one branch per feasible value. Out-of-range
   values are the caller's panic case. *)
let fork_index ctx (path : path) (t : Term.t) ~(cap : int)
    ~(k : path -> int -> 'a list) ~(out_of_range : path -> 'a list) : 'a list =
  match t with
  | Term.Int_const v ->
      if v >= 0 && v < cap then k path v else out_of_range path
  | t ->
      let results = ref [] in
      for v = cap - 1 downto 0 do
        let pc_v = Term.eq t (Term.int v) :: path.pc in
        if feasible ctx pc_v then begin
          charge_fork ctx;
          results := k { path with pc = pc_v } v @ !results
        end
      done;
      let pc_oob =
        Term.or_ [ Term.lt t (Term.int 0); Term.ge t (Term.int cap) ]
        :: path.pc
      in
      if feasible ctx pc_oob then
        results := !results @ out_of_range { path with pc = pc_oob };
      !results

(* ------------------------------------------------------------------ *)
(* Static-analysis assisted branching                                 *)
(* ------------------------------------------------------------------ *)

let facts_for ctx =
  match ctx.facts with
  | Some s -> s
  | None ->
      let s = Analysis.summarize ?env:ctx.active_env ctx.prog in
      ctx.facts <- Some s;
      s

(* Switch the branch oracle to the fact tables of [e], flushing the
   physical-identity caches (both analyses walk the same program value,
   so a stale entry would silently serve the other env's facts). *)
let set_active_env ctx (e : Analysis.env option) =
  if not (ctx.active_env == e) then begin
    ctx.active_env <- e;
    ctx.facts <- None;
    ctx.fn_facts <- None;
    Array.fill ctx.br_cache 0 (Array.length ctx.br_cache) None;
    ctx.br_cache_next <- 0
  end

(* The env whose soundness contract covers a run entering [fn]: the
   harness env if [fn] is one of its declared roots, the env-free
   analysis otherwise — the harness vouches for nothing about entries
   it never declared. *)
let env_for_entry ctx (fn : string) : Analysis.env option =
  match ctx.env with
  | Some e when List.mem fn e.Analysis.env_roots -> ctx.env
  | _ -> None

(* Per-function facts behind a one-entry physical-identity cache: the
   executor stays inside one function for long runs of branches, and
   the hash of the function name is too expensive to pay per
   conditional. *)
let facts_for_fn ctx (f : Instr.func) =
  match ctx.fn_facts with
  | Some (f', ff) when f' == f -> ff
  | _ ->
      let ff = Analysis.func_facts (facts_for ctx) f.Instr.fn_name in
      ctx.fn_facts <- Some (f, ff);
      ff

(* Branch info for [b], via the round-robin cache: blocks are unique
   across functions, so entries never need invalidation. *)
let branch_info_for ctx (f : Instr.func) (b : Instr.block) =
  let cache = ctx.br_cache in
  let n = Array.length cache in
  let rec scan i =
    if i >= n then begin
      let info =
        match facts_for_fn ctx f with
        | None -> None
        | Some ff -> Analysis.branch_info ff b
      in
      cache.(ctx.br_cache_next) <- Some (b, info);
      ctx.br_cache_next <- (ctx.br_cache_next + 1) mod n;
      info
    end
    else
      match cache.(i) with
      | Some (b', info) when b' == b -> info
      | _ -> scan (i + 1)
  in
  scan 0

(* Like [fork_bool], but first consults the abstract interpretation's
   edge facts for the conditional terminating [b] (matched by physical
   block identity — executor and analysis walk the same program value).
   The consultation happens *before* the condition term is even
   inspected: a statically-dead edge is skipped whether the term would
   have constant-folded or gone to the solver, and every panic-guard
   branch execution is counted against [panic_checks].

   Under [Trust], a branch with exactly one statically-dead edge takes
   the surviving edge without evaluating the condition, with the path
   condition left unchanged — byte-for-byte the same path [fork_bool]
   produces when it rules the same side out (constant fold or solver),
   so verdict fingerprints are preserved. Under [Distrust] the
   condition is resolved exactly as with the analysis off (constant
   folds stay free, symbolic terms make both solver calls) and each
   static claim is checked against that answer: a mismatch is counted
   and the executor's own answer wins (degrade, never flip). *)
let fork_branch ctx (path : path) (f : Instr.func) (b : Instr.block)
    (t : Term.t) ~(then_ : path -> 'a list) ~(else_ : path -> 'a list) :
    'a list =
  if ctx.analysis = Analysis.Off then fork_bool ctx path t ~then_ ~else_
  else begin
    let info = branch_info_for ctx f b in
    let guards_panic =
      match info with Some i -> i.Analysis.bi_guards_panic | None -> false
    in
    if guards_panic then begin
      ctx.panic_checks <- ctx.panic_checks + 1;
      Trace.Metrics.incr m_panic_checks
    end;
    let claim_then_dead, claim_else_dead =
      match info with
      | Some { Analysis.bi_fact = { Analysis.then_dead; else_dead }; _ } ->
          (then_dead, else_dead)
      | None -> (false, false)
    in
    let interproc =
      match info with Some i -> i.Analysis.bi_interproc | None -> false
    in
    let crosscheck ~sat_t ~sat_n =
      (* a dead claim is refuted by that side being (found) feasible *)
      if claim_then_dead || claim_else_dead then begin
        if interproc then begin
          ctx.ip_crosschecked <- ctx.ip_crosschecked + 1;
          Trace.Metrics.incr m_ip_crosscheck
        end;
        let ok =
          ((not claim_then_dead) || not sat_t)
          && ((not claim_else_dead) || not sat_n)
        in
        if ok then Trace.Metrics.incr m_crosscheck_pass
        else begin
          ctx.crosscheck_mismatches <- ctx.crosscheck_mismatches + 1;
          Trace.Metrics.incr m_crosscheck_mismatch;
          Trace.event ~det:false "analysis.crosscheck_mismatch"
            ~attrs:[ ("fn", f.Instr.fn_name) ];
          if interproc then begin
            ctx.ip_crosscheck_mismatches <- ctx.ip_crosscheck_mismatches + 1;
            Trace.Metrics.incr m_ip_crosscheck_mismatch
          end
        end
      end
    in
    match ctx.analysis with
    | Analysis.Trust when claim_then_dead <> claim_else_dead ->
        ctx.static_discharged <- ctx.static_discharged + 1;
        Trace.Metrics.incr m_static_discharged;
        if interproc then begin
          ctx.ip_discharged <- ctx.ip_discharged + 1;
          Trace.Metrics.incr m_ip_discharged
        end;
        if guards_panic then begin
          ctx.panic_discharged <- ctx.panic_discharged + 1;
          Trace.Metrics.incr m_panic_discharged;
          Trace.event ~det:true "analysis.panic_discharged"
            ~attrs:[ ("fn", f.Instr.fn_name) ]
        end;
        if claim_then_dead then else_ path else then_ path
    | Analysis.Trust | Analysis.Off ->
        (* no usable fact (or both edges claimed dead, which a sound
           analysis only produces on an unsat path — let the executor
           decide) *)
        fork_bool ctx path t ~then_ ~else_
    | Analysis.Distrust -> (
        match t with
        | Term.True | Term.False ->
            let truth = t = Term.True in
            crosscheck ~sat_t:truth ~sat_n:(not truth);
            if truth then then_ path else else_ path
        | t -> (
            let pc_t = t :: path.pc and pc_n = Term.not_ t :: path.pc in
            let sat_t = feasible ctx pc_t in
            let sat_n = feasible ctx pc_n in
            crosscheck ~sat_t ~sat_n;
            match (sat_t, sat_n) with
            | true, false -> then_ path
            | false, true -> else_ path
            | true, true ->
                charge_fork ctx;
                then_ { path with pc = pc_t } @ else_ { path with pc = pc_n }
            | false, false -> []))
  end

(* ------------------------------------------------------------------ *)
(* Operand and operator evaluation                                    *)
(* ------------------------------------------------------------------ *)

module Regs = Map.Make (String)

type regs = Sval.sval Regs.t

let operand_value (regs : regs) : Instr.operand -> Sval.sval = function
  | Instr.Const_int n -> Sval.SInt (Term.int n)
  | Instr.Const_bool b -> Sval.SBool (Term.of_bool b)
  | Instr.Null _ -> Sval.SNull
  | Instr.Reg r -> (
      match Regs.find_opt r regs with
      | Some v -> v
      | None -> Sval.error "read of unassigned register %%%s" r)

let as_int_term = function
  | Sval.SInt t -> t
  | v -> Sval.error "expected integer, got %a" Sval.pp_sval v

let as_bool_term = function
  | Sval.SBool t -> t
  | v -> Sval.error "expected boolean, got %a" Sval.pp_sval v

let eval_binop op a b : Sval.sval =
  match op with
  | Instr.Add -> Sval.SInt (Term.add [ as_int_term a; as_int_term b ])
  | Instr.Sub -> Sval.SInt (Term.sub (as_int_term a) (as_int_term b))
  | Instr.Mul -> (
      (* The logic is linear (§4.2): at least one operand must be
         constant. The engine only multiplies by constants. *)
      match (as_int_term a, as_int_term b) with
      | Term.Int_const k, t | t, Term.Int_const k -> Sval.SInt (Term.mul_const k t)
      | _ -> Sval.error "non-linear multiplication in symbolic execution")
  | Instr.Sdiv | Instr.Srem -> (
      match (as_int_term a, as_int_term b) with
      | Term.Int_const x, Term.Int_const y when y <> 0 ->
          Sval.SInt
            (Term.int (if op = Instr.Sdiv then x / y else x mod y))
      | _ -> Sval.error "symbolic division is not supported")
  | Instr.And_ -> Sval.SBool (Term.and_ [ as_bool_term a; as_bool_term b ])
  | Instr.Or_ -> Sval.SBool (Term.or_ [ as_bool_term a; as_bool_term b ])
  | Instr.Xor -> Sval.SBool (Term.not_ (Term.iff (as_bool_term a) (as_bool_term b)))

let eval_icmp op ty a b : Sval.sval =
  let bool_of t = Sval.SBool t in
  match ty with
  | Ty.Ptr _ | Ty.Opaque_ptr | Ty.Struct _ | Ty.Array _ -> (
      (* Pointer comparison: pointers are concrete, so this is decided
         immediately. *)
      let eq =
        match (a, b) with
        | Sval.SPtr p, Sval.SPtr q -> p = q
        | Sval.SNull, Sval.SNull -> true
        | Sval.SPtr _, Sval.SNull | Sval.SNull, Sval.SPtr _ -> false
        | _ -> Sval.error "pointer comparison on non-pointers"
      in
      match op with
      | Instr.Eq -> bool_of (Term.of_bool eq)
      | Instr.Ne -> bool_of (Term.of_bool (not eq))
      | _ -> Sval.error "ordered comparison on pointers")
  | Ty.I1 -> (
      let ta = as_bool_term a and tb = as_bool_term b in
      match op with
      | Instr.Eq -> bool_of (Term.iff ta tb)
      | Instr.Ne -> bool_of (Term.not_ (Term.iff ta tb))
      | _ -> Sval.error "ordered comparison on booleans")
  | Ty.I64 -> (
      let ta = as_int_term a and tb = as_int_term b in
      match op with
      | Instr.Eq -> bool_of (Term.eq ta tb)
      | Instr.Ne -> bool_of (Term.neq ta tb)
      | Instr.Slt -> bool_of (Term.lt ta tb)
      | Instr.Sle -> bool_of (Term.le ta tb)
      | Instr.Sgt -> bool_of (Term.gt ta tb)
      | Instr.Sge -> bool_of (Term.ge ta tb))

(* ------------------------------------------------------------------ *)
(* The executor                                                       *)
(* ------------------------------------------------------------------ *)

(* Resolve GEP indices against the pointee type, forking on symbolic
   array indices. Continues with the fully concrete pointer. *)
let rec resolve_gep ctx (path : path) (ty : Ty.t) (base : Value.ptr)
    (indices : Sval.sval list) (k : path -> Value.ptr -> 'a list) : 'a list =
  match indices with
  | [] -> k path base
  | idx :: rest -> (
      match ty with
      | Ty.Array (elt, cap) ->
          fork_index ctx path (as_int_term idx) ~cap
            ~k:(fun path i ->
              resolve_gep ctx path elt
                { base with Value.path = base.Value.path @ [ i ] }
                rest k)
            ~out_of_range:(fun _ ->
              Sval.error
                "gep index out of range (missing bounds check in frontend)")
      | Ty.Struct name -> (
          let def = Ty.find_struct ctx.prog.Instr.tenv name in
          match as_int_term idx with
          | Term.Int_const i ->
              let fty = (Ty.field_at def i).Ty.fty in
              resolve_gep ctx path fty
                { base with Value.path = base.Value.path @ [ i ] }
                rest k
          | _ -> Sval.error "symbolic struct field index")
      | _ -> Sval.error "gep into scalar type")

let rec exec_call (ctx : ctx) (path : path) (fn_name : string) (fi : int)
    (args : Sval.sval list) : result =
  match List.assoc_opt fn_name ctx.intercepts with
  | Some handler -> handler ctx path args
  | None ->
      if fi < 0 then invalid_arg ("Minir: unknown function " ^ fn_name);
      let rf = ctx.code.funcs.(fi) in
      if List.length args <> rf.arity then
        Sval.error "arity mismatch calling %s" fn_name;
      let regs =
        List.fold_left2
          (fun m (r, _) v -> Regs.add r v m)
          Regs.empty rf.func.Instr.params args
      in
      goto ctx path rf regs rf.entry

and goto ctx path rf regs t : result =
  if t < 0 then
    invalid_arg
      (Printf.sprintf "Minir: no block %s in function %s" rf.missing.(-t - 1)
         rf.func.Instr.fn_name)
  else exec_block ctx path rf regs rf.blocks.(t)

and exec_block ctx path rf regs (rb : rblock) : result =
  exec_insns ctx path regs rb.insns 0 (fun path regs ->
      tick ctx;
      match rb.block.Instr.term with
      | Instr.Br _ -> goto ctx path rf regs rb.targets.(0)
      | Instr.Cond_br (c, _, _) ->
          let t = as_bool_term (operand_value regs c) in
          fork_branch ctx path rf.func rb.block t
            ~then_:(fun path -> goto ctx path rf regs rb.targets.(0))
            ~else_:(fun path -> goto ctx path rf regs rb.targets.(1))
      | Instr.Ret None -> [ (path, Returned None) ]
      | Instr.Ret (Some o) -> [ (path, Returned (Some (operand_value regs o))) ]
      | Instr.Panic reason -> [ (path, Panicked reason) ]
      | Instr.Unreachable -> [ (path, Panicked "reached unreachable block") ])

(* Execute the straight-line instructions of a block from [i] on,
   forking as needed, then continue with [k]. *)
and exec_insns ctx path regs (insns : (Instr.instr * int) array) i
    (k : path -> regs -> result) : result =
  if i = Array.length insns then k path regs
  else begin
    tick ctx;
    let continue_ path regs = exec_insns ctx path regs insns (i + 1) k in
    match insns.(i) with
    | Instr.Assign (r, rv), callee ->
        eval_rvalue ctx path regs rv callee (fun path v ->
            continue_ path (Regs.add r v regs))
    | Instr.Store (_ty, vo, po), _ -> (
        let v = operand_value regs vo in
        match operand_value regs po with
        | Sval.SPtr p ->
            continue_
              { path with mem = Sval.store path.mem p (Sval.scell_of_sval v) }
              regs
        | Sval.SNull -> [ (path, Panicked "nil store") ]
        | _ -> Sval.error "store through non-pointer")
    | Instr.Opaque_store _, _ ->
        Sval.error "opaque store not resolved (run the Opaque pass)"
    | Instr.Call_void (name, args), callee ->
        let vs = List.map (operand_value regs) args in
        let results = exec_call ctx path name callee vs in
        List.concat_map
          (fun (path', outcome) ->
            match outcome with
            | Returned _ -> continue_ path' regs
            | Panicked m -> [ (path', Panicked m) ])
          results
  end

and eval_rvalue ctx path regs (rv : Instr.rvalue) (callee : int)
    (k : path -> Sval.sval -> result) : result =
  match rv with
  | Instr.Binop (op, a, b) ->
      k path (eval_binop op (operand_value regs a) (operand_value regs b))
  | Instr.Icmp (op, ty, a, b) ->
      k path (eval_icmp op ty (operand_value regs a) (operand_value regs b))
  | Instr.Not a ->
      k path (Sval.SBool (Term.not_ (as_bool_term (operand_value regs a))))
  | Instr.Alloca ty ->
      let mem, ptr =
        Sval.alloc ~stack:true path.mem
          (Sval.scell_default ctx.prog.Instr.tenv ty)
      in
      k { path with mem } (Sval.SPtr ptr)
  | Instr.Newobject ty ->
      let mem, ptr =
        Sval.alloc path.mem (Sval.scell_default ctx.prog.Instr.tenv ty)
      in
      k { path with mem } (Sval.SPtr ptr)
  | Instr.Load (_ty, po) -> (
      match operand_value regs po with
      | Sval.SPtr p -> k path (Sval.load path.mem p)
      | Sval.SNull -> [ (path, Panicked "nil load") ]
      | _ -> Sval.error "load through non-pointer")
  | Instr.Gep (pointee, base, indices) -> (
      match operand_value regs base with
      | Sval.SPtr p ->
          let idx_vals = List.map (operand_value regs) indices in
          resolve_gep ctx path pointee p idx_vals (fun path ptr ->
              k path (Sval.SPtr ptr))
      | Sval.SNull -> [ (path, Panicked "nil gep") ]
      | _ -> Sval.error "gep through non-pointer")
  | Instr.Call (name, args) ->
      let vs = List.map (operand_value regs) args in
      let results = exec_call ctx path name callee vs in
      List.concat_map
        (fun (path', outcome) ->
          match outcome with
          | Returned (Some v) -> k path' v
          | Returned None -> k path' Sval.SUnit
          | Panicked m -> [ (path', Panicked m) ])
        results
  | Instr.Bitcast _ | Instr.Byte_gep _ | Instr.Opaque_load _ ->
      Sval.error "opaque pointer op not resolved (run the Opaque pass)"

(* Top-level entry: run [fn] on [args] from [memory] under the initial
   path condition [pc]. The ctx's budget also governs every solver call
   made for branch feasibility while the run is in progress. *)
let run ?env_override (ctx : ctx) ~(memory : Sval.memory)
    ~(pc : Term.t list) ~(fn : string) ~(args : Sval.sval list) : result =
  Trace.with_span "exec" ~attrs:[ ("fn", fn) ] @@ fun () ->
  (* Select the env whose soundness contract covers this entry — the
     caller's own vouched-for env if given (a summarization window),
     the harness env for its declared roots, the env-free analysis
     otherwise — and restore the caller's choice on the way out: the
     summarizer nests [run]s (canonicalized window re-runs) inside a
     harness run. *)
  let outer = ctx.active_env in
  set_active_env ctx
    (match env_override with
    | Some e -> Some e
    | None -> env_for_entry ctx fn);
  Fun.protect
    ~finally:(fun () -> set_active_env ctx outer)
    (fun () ->
      let r =
        Solver.with_budget ctx.budget (fun () ->
            exec_call ctx { pc; mem = memory } fn
              (Option.value (Hashtbl.find_opt ctx.code.by_name fn) ~default:(-1))
              args)
      in
      Trace.add_attr "paths" (string_of_int (List.length r));
      r)
