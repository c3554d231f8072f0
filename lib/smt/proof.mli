(* Certificate data carried alongside every solver verdict.

   A certificate is pure data — no closures, no solver state — so it can
   be stored in memo tables, compared with [equal], and checked by a
   component that shares nothing with the decision procedures:

   - satisfiable answers are certified by the model itself (the checker
     evaluates every asserted term under it);
   - unsatisfiable answers are certified by a *split tree*: a semantic
     decision tree over boolean-sorted terms whose leaves close either
     propositionally ([Bool_leaf]: some asserted term constant-folds to
     false under the branch's assignments) or arithmetically ([Farkas]:
     a nonnegative linear combination of in-scope ≤-facts — plus freely
     signed =-facts — whose variables cancel and whose constant is
     strictly positive). Disequality reasoning enters through
     [Split_neq], which tightens an integer disequality lin ≠ 0 into
     the exhaustive case split lin ≤ −1 ∨ −lin ≤ −1.

   This module also hosts the validator registration hook. The solver
   consults the registered validator (installed by [Cert.install] from
   the solver-independent checker library) on every result it hands
   out, including results replayed from a cache or an incremental
   assertion stack. The hook lives here, below the solver, so the
   checker library never needs to depend on solver internals. *)

(* Rational Farkas multiplier, kept as plain integers so certificates
   contain no solver number types. *)
type coeff = { pnum : int; pden : int }

val coeff_of_ints : int -> int -> coeff
val pp_coeff : Format.formatter -> coeff -> unit

type step = { fact : Term.t; lam : coeff }

type tree =
  | Split of { atom : Term.t; if_true : tree; if_false : tree }
      (* case split on a boolean-sorted term *)
  | Split_neq of {
      neq : Term.t; (* an in-scope disequality literal *)
      le1 : Term.t; (* lin ≤ −1, asserted in [left] *)
      ge1 : Term.t; (* −lin ≤ −1, asserted in [right] *)
      left : tree;
      right : tree;
    }
  | Bool_leaf (* some asserted term folds to false under the branch *)
  | Farkas of step list (* positive combination of in-scope facts *)

type t = Model_witness of Model.t | Unsat_witness of tree

(* Structural equality: terms by [Term.equal], models binding by
   binding. Equal certificates get the same verdict from any checker. *)
val equal_model : Model.t -> Model.t -> bool
val equal : t -> t -> bool

type verdict = Valid | Invalid of string

type validator = {
  validate_sat : Term.t list -> Model.t -> verdict;
  validate_unsat : Term.t list -> tree -> verdict;
}

(* Registration is atomic so installing on the main domain is observed
   by parallel pipeline workers. [validator] returns the currently
   installed checker, if any; with none installed the solver skips
   validation (certificates are still produced). *)
val set_validator : validator -> unit
val validator : unit -> validator option
