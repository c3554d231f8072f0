(* The solver facade: lazy DPLL(T) over the SAT core and the LIA theory.

   This plays the role Z3 plays in the paper (§5.2): every branch decision
   of the symbolic executor and every refinement obligation lands here.
   Two paths:

   - conjunctions of literals (the overwhelmingly common case — path
     conditions) go straight to the LIA procedure;
   - arbitrary boolean structure goes through Tseitin CNF + DPLL, with
     theory-refuted assignments blocked by clauses until convergence.

   A domain-local result cache (canonical-conjunction → result memo) and
   an incremental assertion stack sit on top; see [Incremental]. *)

type result = Sat of Model.t | Unsat | Unknown

type stats = {
  mutable checks : int;
  mutable fast_path : int;
  mutable dpllt_iterations : int;
  mutable unknowns : int; (* Unknown answers, incl. injected ones *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable incremental_checks : int;
  mutable scratch_checks : int;
  mutable cert_checks : int; (* checker runs; see [validate] *)
  mutable cert_failures : int; (* certificates that failed validation *)
}

(* The counters live in the metrics registry (lib/trace) under the
   "solver.*" names, domain-local; the record is a snapshot view over
   them. [stats ()] is this domain's window since the last
   [reset_stats]. *)
val stats : unit -> stats
val reset_stats : unit -> unit

(* Drop this domain's solver memos: the result caches (Unknown answers
   are never cached), the atom ids and literal analyses they are keyed
   by, and the accepted certificates. *)
val clear_caches : unit -> unit

(* Certificates: when a validator is installed ([Proof.set_validator],
   done by [Cert.install]), every Sat and Unsat answer handed out —
   fresh, replayed from a cache, or served by the incremental stack's
   refuted-prefix short-circuit — is validated against its certificate
   first; an unjustifiable answer is degraded to Unknown and counted in
   [stats.cert_failures]. A corrupted memo entry can therefore degrade a
   verdict but never flip one.

   Validation is a pure function of (terms, result, certificate), so
   the checker runs once per triple: a triple the installed validator
   accepted is served again without a check ([stats.cert_checks] counts
   checker runs). Only acceptances are remembered, the key compares
   terms, models and proof trees structurally, a validator installed
   later re-checks everything, and [clear_caches] forgets them all. *)

(* The gatekeeper every answer passes: the result, or Unknown when the
   certificate does not check out. Exposed for the certificate
   test-suite. *)
val validate : Term.t list -> result * Proof.t option -> result

(* Persistent-store hook (installed by [Store.with_solver] in lib/store,
   which sits above this library). Consulted only on in-memory cache
   misses. [p_lookup] gets
   the canonical term list of a query and must return nothing it cannot
   justify — the store re-validates certificates on load and falls
   through to a fresh solve on any failure; whatever it serves still
   passes the solver's own [validate] gatekeeper. [p_save] receives
   Sat-with-model and Unsat-with-certificate answers only; Unknown is
   never persisted. Atomic: installing on the main domain is observed
   by parallel workers. *)
type persist = {
  p_lookup : Term.t list -> (result * Proof.t option) option;
  p_save : Term.t list -> result * Proof.t option -> unit;
}

val set_persist : persist option -> unit
val persist_installed : unit -> persist option

(* Scope a resource budget over every [check]/[entails] call made by
   [f]: each call charges one solver step and honors the deadline. The
   scope is domain-local. *)
val current_budget : unit -> Budget.t option ref
val with_budget : Budget.t -> (unit -> 'a) -> 'a

(* The id of a canonical atom key, interned in a bounded domain-local
   table; the result memo keys literal conjunctions by sorted atom ids.
   Ids are never reused: a key evicted and interned again gets a fresh
   one, so a stale id can only make a lookup miss. *)
val atom_id : Linear.key -> int

exception Not_conjunctive

val literals_of_conjunction :
  Term.t list -> Linear.atom list * (string * bool) list

(* Like [literals_of_conjunction], but each atom keeps its source
   literal (the asserted term, negated for negative occurrences) so
   certificates can cite it as a fact. *)
val literals_of_conjunction_src :
  Term.t list -> (Linear.atom * Term.t) list * (string * bool) list

val model_of_lia_model :
  Lia.model ->
  (Model.String_map.key * bool) list ->
  Term.value Model.String_map.t

(* Backstop iteration cap for the DPLL(T) refutation loop when no
   budget is in scope (a bare cap hit answers Unknown). With a budget,
   each loop re-iteration charges one solver step, so `--solver-steps`
   governs the loop and a cap hit surfaces as the machine-readable
   [Budget.Solver_steps_exhausted] Inconclusive reason. *)
val max_dpllt_iterations : int
val check_dpllt : Term.t -> result

(* The same loop under the legacy discipline — no presolve, and each
   theory refutation blocks the full assignment and restarts the SAT
   search — kept as the reference the tests and the solver fuzzer
   compare [check_dpllt] against. *)
val check_dpllt_reference : Term.t -> result

(* The certificate-producing core (no budget charge, no validation):
   exposed for the certificate test-suite. *)
val check_core_cert : Term.t list -> result * Proof.t option
val check : Term.t list -> result
val is_sat : Term.t list -> bool
val is_unsat : Term.t list -> bool

type entailment = Valid | Counterexample of Model.t | Unknown_validity

val entails : hyps:Term.t list -> Term.t -> entailment

(* Incremental assertion stack: one frame per path-condition literal,
   so a branch decision extends the parent path's analyzed solver state
   by one literal instead of re-translating the whole conjunction.
   Refuted prefixes short-circuit every extension. Each [check_pc]
   charges the budget and fault plan exactly like a top-level [check]. *)
module Incremental : sig
  type t

  val create : unit -> t

  (* Decide path condition [pc] (newest literal first), syncing the
     stack to it by physical identity of the cons cells — sibling
     branches and parent paths share tails, and shared literals keep
     their analysis. *)
  val check_pc : t -> Term.t list -> result
  val entails : t -> hyps:Term.t list -> Term.t -> entailment
end
