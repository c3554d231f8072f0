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
type path = { pc : Term.t list; mem : Sval.memory; }
type outcome = Returned of Sval.sval option | Panicked of string
type result = (path * outcome) list

(* A program resolved to index-addressed code, once per domain. *)
type code

type ctx = {
  prog : Instr.program;
  code : code;
  mutable intercepts : (string * intercept) list;
  mutable steps : int;
  max_steps : int;
  budget : Budget.t; (* fuel, path cap, deadline; shared with the solver *)
  mutable forks : int;
  mutable solver_calls : int;
  mutable unknowns : int;
  incr : Solver.Incremental.t;
      (* assertion stack mirroring the current path condition *)
  analysis : Analysis.policy;
      (* whether branch queries consult the static analysis first *)
  env : Analysis.env option;
      (* harness facts forwarded to [Analysis.summarize]; sound only
         for runs entering one of its [env_roots] — other entries fall
         back to the env-free analysis or the [run] caller's override *)
  mutable active_env : Analysis.env option;
      (* env of the innermost live [run] *)
  mutable facts : Analysis.summary option;
  mutable fn_facts : (Instr.func * Analysis.func_facts option) option;
      (* one-entry per-function lookup cache (physical identity) *)
  br_cache : (Instr.block * Analysis.branch_info option) option array;
  mutable br_cache_next : int;
      (* round-robin branch-info cache (physical identity) *)
  mutable static_discharged : int; (* branches pruned without the solver *)
  mutable panic_checks : int; (* symbolic branches guarding a Panic block *)
  mutable panic_discharged : int; (* ... of which statically pruned *)
  mutable crosscheck_mismatches : int; (* Distrust: solver disagreed *)
  mutable ip_discharged : int; (* prunes only the interproc layer justifies *)
  mutable ip_crosschecked : int; (* Distrust: interprocedural claims checked *)
  mutable ip_crosscheck_mismatches : int; (* ... of which refuted *)
}
and intercept = ctx -> path -> Sval.sval list -> result
exception Budget_exceeded of string
val default_max_steps : int
val create :
  ?max_steps:int ->
  ?budget:Budget.t ->
  ?intercepts:(string * intercept) list ->
  ?analysis:Analysis.policy -> ?env:Analysis.env -> Instr.program -> ctx
val tick : ctx -> unit
val charge_fork : ctx -> unit
val feasible : ctx -> Term.t list -> bool
val fork_bool :
  ctx ->
  path ->
  Term.t -> then_:(path -> 'a list) -> else_:(path -> 'a list) -> 'a list
val fork_index :
  ctx ->
  path ->
  Term.t ->
  cap:int ->
  k:(path -> int -> 'a list) -> out_of_range:(path -> 'a list) -> 'a list

(* [fork_bool] that first consults the static analysis' edge facts for
   the conditional terminating the given block, per the ctx's policy. *)
val fork_branch :
  ctx ->
  path ->
  Instr.func ->
  Instr.block ->
  Term.t -> then_:(path -> 'a list) -> else_:(path -> 'a list) -> 'a list
module Regs :
  sig
    type key = String.t
    type 'a t = 'a Map.Make(String).t
    val empty : 'a t
    val add : key -> 'a -> 'a t -> 'a t
    val add_to_list : key -> 'a -> 'a list t -> 'a list t
    val update : key -> ('a option -> 'a option) -> 'a t -> 'a t
    val singleton : key -> 'a -> 'a t
    val remove : key -> 'a t -> 'a t
    val merge :
      (key -> 'a option -> 'b option -> 'c option) -> 'a t -> 'b t -> 'c t
    val union : (key -> 'a -> 'a -> 'a option) -> 'a t -> 'a t -> 'a t
    val cardinal : 'a t -> int
    val bindings : 'a t -> (key * 'a) list
    val min_binding : 'a t -> key * 'a
    val min_binding_opt : 'a t -> (key * 'a) option
    val max_binding : 'a t -> key * 'a
    val max_binding_opt : 'a t -> (key * 'a) option
    val choose : 'a t -> key * 'a
    val choose_opt : 'a t -> (key * 'a) option
    val find : key -> 'a t -> 'a
    val find_opt : key -> 'a t -> 'a option
    val find_first : (key -> bool) -> 'a t -> key * 'a
    val find_first_opt : (key -> bool) -> 'a t -> (key * 'a) option
    val find_last : (key -> bool) -> 'a t -> key * 'a
    val find_last_opt : (key -> bool) -> 'a t -> (key * 'a) option
    val iter : (key -> 'a -> unit) -> 'a t -> unit
    val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
    val map : ('a -> 'b) -> 'a t -> 'b t
    val mapi : (key -> 'a -> 'b) -> 'a t -> 'b t
    val filter : (key -> 'a -> bool) -> 'a t -> 'a t
    val filter_map : (key -> 'a -> 'b option) -> 'a t -> 'b t
    val partition : (key -> 'a -> bool) -> 'a t -> 'a t * 'a t
    val split : key -> 'a t -> 'a t * 'a option * 'a t
    val is_empty : 'a t -> bool
    val mem : key -> 'a t -> bool
    val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
    val compare : ('a -> 'a -> int) -> 'a t -> 'a t -> int
    val for_all : (key -> 'a -> bool) -> 'a t -> bool
    val exists : (key -> 'a -> bool) -> 'a t -> bool
    val to_list : 'a t -> (key * 'a) list
    val of_list : (key * 'a) list -> 'a t
    val to_seq : 'a t -> (key * 'a) Seq.t
    val to_rev_seq : 'a t -> (key * 'a) Seq.t
    val to_seq_from : key -> 'a t -> (key * 'a) Seq.t
    val add_seq : (key * 'a) Seq.t -> 'a t -> 'a t
    val of_seq : (key * 'a) Seq.t -> 'a t
  end
type regs = Sval.sval Regs.t
val operand_value : regs -> Instr.operand -> Sval.sval
val as_int_term : Sval.sval -> Sval.Term.t
val as_bool_term : Sval.sval -> Sval.Term.t
val eval_binop :
  Instr.binop -> Sval.sval -> Sval.sval -> Sval.sval
val eval_icmp :
  Instr.icmp -> Ty.t -> Sval.sval -> Sval.sval -> Sval.sval
val resolve_gep :
  ctx ->
  path ->
  Ty.t ->
  Value.ptr ->
  Sval.sval list -> (path -> Value.ptr -> 'a list) -> 'a list
(* [env_override] substitutes the caller's own vouched-for env for the
   duration of this run (the summarizer passes a per-window env built
   from its canonicalized arguments); without it, [ctx.env] applies to
   runs entering one of its roots and the env-free analysis to any
   other entry. *)
val run :
  ?env_override:Analysis.env ->
  ctx ->
  memory:Sval.memory ->
  pc:Term.t list -> fn:string -> args:Sval.sval list -> result
