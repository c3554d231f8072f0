(* Automated specification summarization (§4.2, §5.3, §6.4).

   A summary represents a module as the set of input-effect pairs
   collected by full-path symbolic execution: for the k-th path, its
   path condition θ_k and effects f_k (writes to memory, allocations,
   return value). Inputs are canonicalized — every symbolic scalar
   reachable from the arguments is renamed to a positional symbol
   ($a0, $c3, …) following a consistent naming convention — so one
   summary is reusable at every call site that presents the same
   *shape*: same pointer structure and same concrete values, with
   arbitrary symbolic terms in the symbolic slots.

   Two deliberate deviations from the paper, documented in DESIGN.md:
   summaries are specialized on the concrete parts of the calling
   context (the paper instead represents appends abstractly), and the
   read-only heap region (the concrete domain tree, §6.5) is identified
   by a [frozen_below] bound rather than by annotation. *)

module Term = Smt.Term
module Value = Minir.Value
type write = { w_block : int; w_path : int list; w_cell : Sval.scell; }
type outcome_kind = Ret of Sval.sval option | Panic of string
type case = {
  cond : Term.t list;
  writes : write list;
  allocs : (int * Sval.scell) list;
  outcome : outcome_kind;
}
type t = {
  fn : string;
  cases : case list;
  canon_next_block : int;
  elapsed : float;
}
val case_count : t -> int

(* Raised when a summary cannot be built or fails validation; the
   refinement checker catches it and falls back to inlining. *)
exception Summary_failed of string

(* Structural validation applied before a summary enters the cache. *)
val validate : t -> (unit, string) result
type canon_state = {
  mutable bindings : (string * Term.t) list;
  mutable counter : int;
  buf : Buffer.t;
}
val new_state : unit -> canon_state

(* [key_cell] writes the key text and bindings of a cell; [canon_*]
   write the same bytes and bindings and also return the canonical value
   (symbolic scalars renamed to their canonical variables). *)
val key_cell : canon_state -> Sval.scell -> unit
val canon_term : canon_state -> Term.t -> Term.sort -> Term.t
val canon_cell : canon_state -> Sval.scell -> Sval.scell
val canon_sval : canon_state -> Sval.sval -> Sval.sval
val reachable_blocks :
  frozen_below:int -> Sval.memory -> Sval.sval list -> int list
val diff_cells :
  (int list * Sval.scell) list ->
  int list ->
  Sval.scell -> Sval.scell -> (int list * Sval.scell) list
val diff_memory :
  Sval.memory ->
  Sval.memory -> write list * (int * Sval.scell) list
(* The analysis env a summarization window of [fn] vouches for, given
   its canonical arguments: [fn] is the only root, pointer arguments are
   definitely non-null or null, nothing else is known. Interned per
   nullness pattern. *)
val window_env : string -> Sval.sval list -> Analysis.env
val summarize_at :
  ?reach:int list ->
  Exec.ctx ->
  frozen_below:int ->
  mem:Sval.memory ->
  fn:string ->
  args:Sval.sval list -> t * (string * Term.t) list * string
val subst_cell :
  (string * Term.t) list -> Sval.scell -> Sval.scell
val remap_ptr : (int * int) list -> Value.ptr -> Value.ptr
val remap_cell : (int * int) list -> Sval.scell -> Sval.scell
val apply :
  Exec.ctx ->
  t -> (string * Term.t) list -> Exec.path -> Exec.result
(* Persistence hook (installed by lib/store, which sits above this
   library): [sp_load] is tried on in-memory misses before summarizing
   (a served summary counts as a hit and enters the in-memory cache);
   [sp_save] fires after a fresh summarize. Keys are the canonical
   call-shape keys, so a loaded summary applies under the current
   call's bindings. The hook must validate what it serves. *)
type persist = {
  sp_load : fn:string -> key:string -> t option;
  sp_save : fn:string -> key:string -> t -> unit;
}
type store = {
  cache : (string, t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable summarize_time : float;
  persist : persist option;
}
val create_store : ?persist:persist -> unit -> store
val store_summaries : store -> t list
val intercept_for :
  frozen_below:int -> store -> string -> Exec.intercept
