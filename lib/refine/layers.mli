(* Manual specifications for the stable dependency layers (the yellow
   boxes of Figure 5) and the refinement check that each layer's code
   is equivalent to its specification (§5.2, §6.3).

   Specifications are written in the executable AbsLLVM style (§6.1):
   OCaml functions over symbolic values that fork on abstract,
   word-level conditions — e.g. compareAbs (Figure 10) compares whole
   labels as integers where compareRaw grinds through bytes. They serve
   two purposes:

   - each is *verified* against the corresponding Golite code by
     full-path product checking (code paths × spec paths, SMT-discharged
     equivalence of return values and memory effects);
   - they can then be installed as intercepts during whole-engine
     verification, which is the layered-verification configuration.

   These layers are stable across engine versions (Table 3): the same
   specifications verify against every version's code. *)

module Term = Smt.Term
module Solver = Smt.Solver
module Value = Minir.Value
module Ty = Minir.Ty
module Layout = Dnstree.Layout
module Sval = Symex.Sval
module Exec = Symex.Exec
module Summary = Symex.Summary
val maxl : int
val ret : Exec.path -> Symex.Sval.sval -> Exec.result
val ret_int : Exec.path -> int -> Exec.result
val ret_void : Exec.path -> Exec.result
val read_name_cells : Sval.memory -> Value.ptr -> Term.t array
val fork_length :
  Exec.ctx ->
  Exec.path -> Term.t -> (Exec.path -> int -> Exec.result) -> Exec.result
val prefix_eq : Term.t array -> Term.t array -> int -> Term.t
val compare_names_spec : Exec.intercept
val name_order_spec : Exec.intercept
val copy_name_spec : Exec.intercept
val stack_push_spec : Exec.intercept
val find_rrset_spec : Exec.intercept
val append_spec :
  count_field:int -> section_field:int -> cap:int -> Exec.intercept
val specs : (string * (Exec.intercept * int)) list
val spec_for : string -> Exec.intercept option
val spec_loc : string -> int option
type layer_report = {
  layer : string;
  code_paths : int;
  spec_paths : int;
  pairs : int;
  mismatches : string list;
  unknowns : int; (* solver Unknowns this layer check leaned on *)
  cert_failures : int; (* certificates rejected during this layer *)
  inconclusive : Budget.reason option; (* the check stopped short *)
  elapsed : float;
}
val layer_ok : layer_report -> bool
val compare_results :
  Sval.memory -> Exec.result -> Exec.result -> int * string list
val sym_name_block : Sval.memory -> string -> Sval.memory * Sval.Value.ptr
val len_var : string -> Term.t
val len_bounds : Term.t -> Term.t list
val layer_setup :
  Minir.Instr.program ->
  Dnstree.Encode.t option ->
  string -> Sval.memory * Sval.sval list * Term.t list
(* The tags every persistent-store key over a zone and a budget uses:
   the zone's rendered text, digested, and the budget's semantic limits
   (never its wall-clock deadline). *)
val zone_fp : Dns.Zone.t -> string
val limits_tag : Budget.t -> string

(* [store] serves a clean layer verdict persisted under the layer's
   cone fingerprint (plus zone and budget-limits tags) and persists
   fresh clean verdicts; degraded verdicts are always re-derived. *)
(* [analysis] applies the static-analysis oracle (with the engine env)
   to the engine-code side of the comparison only; the spec side stays
   solver-only so an analysis bug cannot cancel out. *)
val check_layer :
  ?zone:Spec.Fixtures.Zone.t ->
  ?budget:Budget.t ->
  ?store:Store.t ->
  ?analysis:Analysis.policy ->
  Minir.Instr.program -> string -> layer_report
val check_all :
  ?zone:Spec.Fixtures.Zone.t ->
  ?budget:Budget.t ->
  ?store:Store.t ->
  ?analysis:Analysis.policy ->
  Minir.Instr.program -> layer_report list
