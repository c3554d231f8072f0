(* Certificate data carried alongside every solver verdict; see the
   interface for the format. Pure data plus the validator hook. *)

type coeff = { pnum : int; pden : int }

let coeff_of_ints n d =
  if d = 0 then invalid_arg "Proof.coeff_of_ints: zero denominator";
  if d < 0 then { pnum = -n; pden = -d } else { pnum = n; pden = d }

let pp_coeff fmt { pnum; pden } =
  if pden = 1 then Format.fprintf fmt "%d" pnum
  else Format.fprintf fmt "%d/%d" pnum pden

type step = { fact : Term.t; lam : coeff }

type tree =
  | Split of { atom : Term.t; if_true : tree; if_false : tree }
  | Split_neq of {
      neq : Term.t;
      le1 : Term.t;
      ge1 : Term.t;
      left : tree;
      right : tree;
    }
  | Bool_leaf
  | Farkas of step list

type t = Model_witness of Model.t | Unsat_witness of tree

type verdict = Valid | Invalid of string

type validator = {
  validate_sat : Term.t list -> Model.t -> verdict;
  validate_unsat : Term.t list -> tree -> verdict;
}

let installed : validator option Atomic.t = Atomic.make None
let set_validator v = Atomic.set installed (Some v)
let validator () = Atomic.get installed
