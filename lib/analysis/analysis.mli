(* Forward abstract interpretation over Minir CFGs: a worklist fixpoint
   with widening over a product domain (intervals × nullness × tribools
   × definite-initialization of non-escaping stack slots).

   Produces per-block entry states and per-branch edge facts that
   [Symex.Exec] uses to skip statically-proved panic checks, and a
   [Lint] pass that reports findings per function. Input programs are
   assumed well-formed ([Minir.Wellform.check]): in particular, the
   single-static-assignment of registers is what makes the def-map
   driven branch refinement sound. *)

module Instr = Minir.Instr
module Ty = Minir.Ty
module Value = Minir.Value
module Callgraph = Minir.Callgraph

(* How the symbolic executor treats analysis facts. [Trust] prunes
   statically-dead edges without consulting the solver; [Distrust]
   still makes every solver call and cross-checks each static claim
   against the certified answer (the chaos/soak configuration). *)
type policy = Off | Trust | Distrust

val policy_to_string : policy -> string
val policy_of_string : string -> policy option

module Interval : sig
  type t = Bot | I of int option * int option (* None = infinite bound *)

  val top : t
  val of_int : int -> t
  val join : t -> t -> t
  val meet : t -> t -> t
  val widen : t -> t -> t
  val mem : int -> t -> bool
  val finite : t -> bool
  val is_singleton : t -> bool
  val pp : Format.formatter -> t -> unit
end

module Tribool : sig
  type t = TBot | TT | TF | TTop

  val of_bool : bool -> t
  val join : t -> t -> t
  val meet : t -> t -> t
  val not_ : t -> t
  val pp : Format.formatter -> t -> unit
end

module Nullness : sig
  type t = NBot | NNull | NNot | NTop

  val join : t -> t -> t
  val meet : t -> t -> t
  val pp : Format.formatter -> t -> unit
end

type aval = AInt of Interval.t | ABool of Tribool.t | APtr of Nullness.t | ATop

val a_join : aval -> aval -> aval

(* Sound meet for two covers of the same outcome: an empty
   intersection keeps the left side rather than introduce ⊥. *)
val a_meet : aval -> aval -> aval

(* Do the two avals intersect at all? (The lint-side emptiness test.) *)
val a_compatible : aval -> aval -> bool
val top_of_ty : Ty.t -> aval
val default_of_ty : Ty.t -> aval
val pp_aval : Format.formatter -> aval -> unit

(* ------------------------------------------------------------------ *)
(* Relational function summaries                                      *)
(* ------------------------------------------------------------------ *)

(* Computed bottom-up over the call-graph SCC condensation with all
   parameters at ⊤, so every component is sound for arbitrary calls:
   [rs_ret] covers any normally-returned value, [rs_rel] lists
   difference bounds [ret - arg_i ∈ itv] valid at every normal return,
   [rs_pre] is a *necessary* per-argument condition for normal return
   (lint-only — never used to refine caller state), [rs_pure] means no
   caller-visible store (transitively), and [rs_may_panic] /
   [rs_returns] expose exit reachability. *)
type rsummary = {
  rs_fn : string;
  rs_params : (string * Ty.t) list;
  rs_ret_ty : Ty.t option;
  rs_ret : aval;
  rs_rel : (int * Interval.t) list;
  rs_pre : (int * aval) list;
  rs_pure : bool;
  rs_may_panic : bool;
  rs_returns : bool;
}

val havoc_rsummary : Instr.func -> rsummary

(* Signature/shape agreement between a (possibly store-loaded) summary
   and the live function; summaries failing this are never trusted. *)
val rsummary_matches : Instr.func -> rsummary -> bool

(* Persistence hooks installed by the store layer (which owns the
   cone-fingerprint keying): [ipp_load fn] may serve a cached summary,
   [ipp_save fn rs] records a freshly computed one. [envfp] digests the
   filtered field invariants in effect — part of the key, because a
   store edit anywhere in the program can change a summary without
   touching that function's call cone. *)
type ip_persist = {
  ipp_load : envfp:string -> string -> rsummary option;
  ipp_save : envfp:string -> string -> rsummary -> unit;
}

val set_ip_persist : ip_persist option -> unit
val ip_persist_installed : unit -> ip_persist option

(* ------------------------------------------------------------------ *)
(* Analysis environments                                              *)
(* ------------------------------------------------------------------ *)

(* Harness-supplied facts, all optional — [summarize] without an env is
   sound for any entry into any function. [env_roots] are the functions
   the harness may call directly (every non-root's parameters narrow to
   the join of syntactic call-site arguments); [env_entry] gives
   per-root argument facts (parameter index ↦ aval) the harness
   enforces; [env_fields] declares struct-field invariants of the
   harness-built heap, re-verified against the program by
   [field_invariants_filter] before use. *)
type env = {
  env_roots : string list;
  env_entry : (string * (int * aval) list) list;
  env_fields : (string * int * aval) list;
}

(* Drop declared field invariants the program could invalidate: kept
   invariants admit the zero value (covers freshly-allocated objects)
   and provably have no store targeting their cell anywhere. *)
val field_invariants_filter :
  Instr.program -> (string * int * aval) list -> (string * int * aval) list

module Env : Map.S with type key = string
module SSet : Set.S with type elt = string

type st = {
  regs : aval Env.t; (* absent = ⊤ *)
  slots : aval Env.t; (* tracked (non-escaping scalar) slot contents *)
  inited : SSet.t; (* slots definitely explicitly stored *)
  prov : Instr.reg Env.t; (* reg ↦ slot it was loaded from, still valid *)
}

type state = Bot | St of st

(* Transitively write-free functions (no store through a non-local
   pointer, no opaque store, no call to an unknown or impure callee). *)
val pure_set : Instr.program -> Callgraph.t -> SSet.t
val state_join : state -> state -> state
val state_equal : state -> state -> bool
val state_is_bottom : state -> bool
val pp_state : Format.formatter -> state -> unit

(* The generic engine, exposed for reuse by derived passes. *)
module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
end

module Fixpoint (D : DOMAIN) : sig
  val solve :
    blocks:(Instr.label * Instr.block) list ->
    entry:Instr.label ->
    init:D.t ->
    transfer:(Instr.label -> Instr.block -> D.t -> (Instr.label * D.t) list) ->
    (Instr.label, D.t) Hashtbl.t
end

(* Facts about one [Cond_br]: which outgoing edge the abstract state
   proves infeasible. *)
type edge_fact = { then_dead : bool; else_dead : bool }

(* Precomputed per-[Cond_br] record: the edge fact plus whether either
   successor block panics, plus whether the interprocedural layer
   (summaries / environment) added dead-edge knowledge the plain
   intraprocedural pass lacked. One hash-table probe on the executor's
   hottest path. *)
type branch_info = {
  bi_fact : edge_fact;
  bi_guards_panic : bool;
  bi_interproc : bool;
}

type func_facts
type summary

(* Analyze every function: bottom-up relational summaries (persisted
   through [ip_persist] when installed), then per-function fixpoints
   with summaries applied at call sites; with an [env], a context
   fixpoint additionally narrows non-root parameters. One [analyze]
   trace span per function fixpoint. A (function, entry context) pair's
   facts come from a domain-local memo shared by every analysis of the
   same program under the same field invariants, so each pair runs one
   fixpoint. *)
val analyze : ?env:env -> Instr.program -> summary

(* Domain-local memoized [analyze], keyed on the program's physical
   identity plus the structural env (the version compile memo yields
   one program value per domain, so re-verification never
   re-analyzes). *)
val summarize : ?env:env -> Instr.program -> summary

(* Empty this domain's analysis memos, the per-pair facts included. *)
val clear_memo : unit -> unit

val func_facts : summary -> string -> func_facts option

(* The converged summary of one function, if defined. *)
val rsummary_of : summary -> string -> rsummary option
val callgraph : summary -> Callgraph.t

(* (hits, misses) of the persistence hook during this analysis. *)
val store_traffic : summary -> int * int

(* Aggregate counters for `dnsv lint --json` / CI stats upload. *)
val interproc_stats : summary -> (string * int) list

(* Fact for the branch terminating [block], matched by physical
   identity — callers must pass a block of the analyzed program value. *)
val branch_fact : summary -> string -> Instr.block -> edge_fact option

(* Same lookup, one probe, for callers that cache the [func_facts]. *)
val branch_info : func_facts -> Instr.block -> branch_info option

(* Entry state of a block; [Some Bot] = proved unreachable, [None] =
   unknown function. *)
val in_state : summary -> fn:string -> label:Instr.label -> state option
val reachable : summary -> fn:string -> label:Instr.label -> bool

(* γ-membership for the soundness tests: is a concrete frame/memory
   snapshot at some block entry inside [state]? [lookup] reads a live
   frame register (absent is vacuously inside); [load] dereferences the
   pointer a slot register holds. *)
val check_concrete :
  state ->
  lookup:(string -> Value.t option) ->
  load:(Value.ptr -> Value.t option) ->
  (unit, string) result

module Lint : sig
  type severity = Error | Warning | Info

  val severity_to_string : severity -> string

  type finding = {
    rule : string;
    severity : severity;
    fn : string;
    block : Instr.label;
    index : int; (* instruction index in the block; -1 = terminator *)
    message : string;
  }

  (* Deterministic (program-order) findings over every function.
     [entries] switches on the dead-callee class (functions
     unreachable from every listed entry); [env] sharpens the facts
     the value-flow rules see. *)
  val run : ?env:env -> ?entries:string list -> Instr.program -> finding list

  val counts : finding list -> int * int * int (* errors, warnings, infos *)
  val pp_finding : Format.formatter -> finding -> unit
  val to_json : finding list -> string
end
