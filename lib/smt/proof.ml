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

let rec equal_tree a b =
  a == b
  ||
  match (a, b) with
  | Split x, Split y ->
      Term.equal x.atom y.atom
      && equal_tree x.if_true y.if_true
      && equal_tree x.if_false y.if_false
  | Split_neq x, Split_neq y ->
      Term.equal x.neq y.neq && Term.equal x.le1 y.le1
      && Term.equal x.ge1 y.ge1 && equal_tree x.left y.left
      && equal_tree x.right y.right
  | Bool_leaf, Bool_leaf -> true
  | Farkas s, Farkas s' ->
      List.equal
        (fun p q -> Term.equal p.fact q.fact && p.lam = q.lam)
        s s'
  | (Split _ | Split_neq _ | Bool_leaf | Farkas _), _ -> false

let equal_model (m : Model.t) m' = m == m' || Model.String_map.equal ( = ) m m'

let equal a b =
  match (a, b) with
  | Model_witness m, Model_witness m' -> equal_model m m'
  | Unsat_witness t, Unsat_witness t' -> equal_tree t t'
  | (Model_witness _ | Unsat_witness _), _ -> false

type verdict = Valid | Invalid of string

type validator = {
  validate_sat : Term.t list -> Model.t -> verdict;
  validate_unsat : Term.t list -> tree -> verdict;
}

let installed : validator option Atomic.t = Atomic.make None
let set_validator v = Atomic.set installed (Some v)
let validator () = Atomic.get installed
