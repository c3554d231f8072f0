(* The solver-independent certificate checker.

   Certificates (see Smt.Proof) are checked here with deliberately
   little machinery:

   - a model witness is checked by *evaluating* every asserted term
     under the assignment — a total, defaulting evaluator written here,
     not the solver's;
   - an unsat witness (a split tree) is checked by walking the tree,
     tracking the truth context each split introduces, and discharging
     leaves either propositionally (some asserted term constant-folds
     to false) or arithmetically (a Farkas combination: a positive
     linear combination of in-scope ≤-facts, plus freely signed
     =-facts, whose variables cancel and whose constant is strictly
     positive — a manifest contradiction).

   The arithmetic lives on a private rational type with overflow
   checking: an overflow rejects the certificate (fail closed) rather
   than wrapping around into a bogus acceptance. Nothing in this module
   calls into Simplex, Lia, Sat or Solver — that separation is the
   point: the decision procedures that produced the verdict share no
   code with the checker that has to be convinced of it. *)

module Term = Smt.Term
module Model = Smt.Model
module Proof = Smt.Proof

module Tbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

(* ------------------------------------------------------------------ *)
(* Checked rationals (private to the checker)                          *)
(* ------------------------------------------------------------------ *)

exception Overflow

let mul_int a b =
  if a = 0 || b = 0 then 0
  else
    let c = a * b in
    if c / a <> b then raise Overflow else c

let add_int a b =
  let c = a + b in
  if a >= 0 = (b >= 0) && c >= 0 <> (a >= 0) then raise Overflow else c

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Invariant: d > 0, n/d reduced. *)
type rat = { n : int; d : int }

let rat n d =
  if d = 0 then reject "certificate rational with zero denominator";
  let s = if d < 0 then -1 else 1 in
  let n = s * n and d = s * d in
  let g = gcd n d in
  if g = 0 then { n = 0; d = 1 } else { n = n / g; d = d / g }

let rat_of_int n = { n; d = 1 }
let r_zero = rat_of_int 0
let r_one = rat_of_int 1
let r_is_zero r = r.n = 0
let r_is_int r = r.d = 1
let r_add a b = rat (add_int (mul_int a.n b.d) (mul_int b.n a.d)) (mul_int a.d b.d)
let r_mul a b = rat (mul_int a.n b.n) (mul_int a.d b.d)
let r_div a b = if b.n = 0 then reject "division by zero" else r_mul a (rat b.d b.n)
let r_sign r = compare r.n 0
let r_equal a b = a.n = b.n && a.d = b.d

(* ------------------------------------------------------------------ *)
(* Linear forms over named integer variables                           *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

(* Σ coeffs·vars + const, with zero coefficients never stored. *)
type lin = { coeffs : rat Smap.t; const : rat }

let l_const c = { coeffs = Smap.empty; const = c }
let l_var x = { coeffs = Smap.singleton x r_one; const = r_zero }

let l_add a b =
  {
    coeffs =
      Smap.union
        (fun _ p q ->
          let s = r_add p q in
          if r_is_zero s then None else Some s)
        a.coeffs b.coeffs;
    const = r_add a.const b.const;
  }

let l_scale k l =
  if r_is_zero k then l_const r_zero
  else { coeffs = Smap.map (r_mul k) l.coeffs; const = r_mul k l.const }

let l_neg = l_scale (rat_of_int (-1))
let l_sub a b = l_add a (l_neg b)
let l_is_const l = Smap.is_empty l.coeffs
let l_equal a b = Smap.equal r_equal a.coeffs b.coeffs && r_equal a.const b.const

(* All coefficients and the constant integral (an integer-valued form —
   the justification for integer tightenings like d≠0 ⇒ |d|≥1). *)
let l_integral l = r_is_int l.const && Smap.for_all (fun _ c -> r_is_int c) l.coeffs

let rec linof (t : Term.t) : lin =
  match t with
  | Term.Int_const k -> l_const (rat_of_int k)
  | Term.Var { Term.sort = Term.Int; name } -> l_var name
  | Term.Add l ->
      List.fold_left (fun acc t -> l_add acc (linof t)) (l_const r_zero) l
  | Term.Sub (a, b) -> l_sub (linof a) (linof b)
  | Term.Neg a -> l_neg (linof a)
  | Term.Mul_const (k, a) -> l_scale (rat_of_int k) (linof a)
  | _ -> reject "non-linear term in certificate fact: %s" (Term.to_string t)

(* A usable arithmetic fact: lin ≤ 0 or lin = 0. [sign] is the polarity
   under which the fact holds; negations are integer-strengthened
   (¬(a ≤ b) over the integers means b+1 ≤ a). A constant comparison
   the term library folded away reads as what it was: [false] as the
   fact 1 ≤ 0. *)
type form = Le0 of lin | Eq0 of lin

let rec form_of ~(sign : bool) (t : Term.t) : form =
  match t with
  | Term.Not a -> form_of ~sign:(not sign) a
  | Term.False when sign -> Le0 (l_const r_one)
  | Term.Le (a, b) ->
      if sign then Le0 (l_sub (linof a) (linof b))
      else Le0 (l_add (l_sub (linof b) (linof a)) (l_const r_one))
  | Term.Lt (a, b) ->
      if sign then Le0 (l_add (l_sub (linof a) (linof b)) (l_const r_one))
      else Le0 (l_sub (linof b) (linof a))
  | Term.Eq (a, _) when Term.is_bool a ->
      reject "boolean equality used as an arithmetic fact"
  | Term.Eq (a, b) ->
      if sign then Eq0 (l_sub (linof a) (linof b))
      else reject "bare disequality used as a Farkas fact (needs Split_neq)"
  | _ -> reject "unusable Farkas fact: %s" (Term.to_string t)

(* ------------------------------------------------------------------ *)
(* Partial evaluation under a split context                            *)
(* ------------------------------------------------------------------ *)

(* Constant-fold [t] under the truth assignments in [ctx]. Split atoms
   are substituted wherever they occur (including atoms first exposed
   by folding their operands); everything else reduces through the term
   library's smart constructors, which the solver's own certificate
   producer also folds through — agreement by construction. *)
let fold_term (ctx : bool Tbl.t) (t : Term.t) : Term.t =
  let lk t = Tbl.find_opt ctx t in
  let rec go t =
    match lk t with
    | Some b -> Term.of_bool b
    | None -> (
        match t with
        | Term.True | Term.False | Term.Int_const _ | Term.Var _ -> t
        | Term.Not a -> Term.not_ (go a)
        | Term.And l -> Term.and_ (List.map go l)
        | Term.Or l -> Term.or_ (List.map go l)
        | Term.Implies (a, b) -> Term.implies (go a) (go b)
        | Term.Iff (a, b) -> Term.iff (go a) (go b)
        | Term.Ite (c, a, b) -> Term.ite (go c) (go a) (go b)
        | Term.Add l -> Term.add (List.map go l)
        | Term.Sub (a, b) -> Term.sub (go a) (go b)
        | Term.Neg a -> Term.neg (go a)
        | Term.Mul_const (k, a) -> Term.mul_const k (go a)
        | Term.Eq (a, b) -> re (Term.eq (go a) (go b))
        | Term.Le (a, b) -> re (Term.le (go a) (go b))
        | Term.Lt (a, b) -> re (Term.lt (go a) (go b)))
  and re t = match lk t with Some b -> Term.of_bool b | None -> t in
  go t

(* ------------------------------------------------------------------ *)
(* Unsat witness checking                                              *)
(* ------------------------------------------------------------------ *)

(* Σ λᵢ·linᵢ over in-scope facts, λ > 0 on inequalities (each lin ≤ 0)
   and λ ≠ 0 on equalities (each lin = 0): if every variable cancels
   and the constant is strictly positive, the fact set claims
   0 ≥ Σ λᵢ·linᵢ = c > 0 — a manifest contradiction. *)
let check_farkas (facts : unit Tbl.t) (steps : Proof.step list) : unit =
  if steps = [] then reject "empty Farkas combination";
  let total =
    List.fold_left
      (fun acc { Proof.fact; lam = { Proof.pnum; pden } } ->
        if not (Tbl.mem facts fact) then
          reject "Farkas fact not in scope: %s" (Term.to_string fact);
        let lam = rat pnum pden in
        match form_of ~sign:true fact with
        | Le0 lin ->
            if r_sign lam <= 0 then
              reject "nonpositive multiplier on inequality fact %s"
                (Term.to_string fact);
            l_add acc (l_scale lam lin)
        | Eq0 lin ->
            if r_is_zero lam then
              reject "zero multiplier on equality fact %s" (Term.to_string fact);
            l_add acc (l_scale lam lin))
      (l_const r_zero) steps
  in
  if not (l_is_const total) then
    reject "Farkas combination does not cancel (%s survives)"
      (fst (Smap.min_binding total.coeffs));
  if r_sign total.const <= 0 then reject "Farkas combination is not positive"

(* Verify that [le1]/[ge1] are exactly the two integer tightenings of
   the in-scope disequality [neq]: for some integer-valued form e
   proportional to the disequality's difference d (e = s·d, s ≠ 0),
   le1 ⇔ e+1 ≤ 0 and ge1 ⇔ 1−e ≤ 0. Over the integers d ≠ 0 forces
   e ≤ −1 ∨ e ≥ 1, so the two branches are exhaustive. The one other
   accepted split is on an identically-zero difference (x+y ≠ y+x)
   with e ≡ 0, both sides reading 1 ≤ 0: the in-scope d ≠ 0 is then
   itself false, so any branches follow from it. *)
let check_neq_split (neq : Term.t) (le1 : Term.t) (ge1 : Term.t) : unit =
  let d =
    match neq with
    | Term.Not (Term.Eq (a, b)) when not (Term.is_bool a) ->
        l_sub (linof a) (linof b)
    | _ -> reject "Split_neq fact is not an integer disequality"
  in
  let side t =
    match form_of ~sign:true t with
    | Le0 lin -> lin
    | Eq0 _ -> reject "Split_neq side is not an inequality"
  in
  let e = l_sub (side le1) (l_const r_one) in
  if not (l_equal (side ge1) (l_sub (l_const r_one) e)) then
    reject "Split_neq sides are not mirror tightenings";
  if not (l_integral e) then reject "Split_neq tightening is not integral";
  if l_equal d (l_const r_zero) then begin
    if not (l_equal e (l_const r_zero)) then
      reject "Split_neq on an identically-zero difference"
  end
  else begin
    (* e = s·d for some s ≠ 0. *)
    let s =
      match (Smap.choose_opt d.coeffs, Smap.choose_opt e.coeffs) with
      | Some (x, dc), Some _ -> (
          match Smap.find_opt x e.coeffs with
          | Some ec -> r_div ec dc
          | None -> reject "Split_neq tightening drops a variable")
      | None, None -> r_div e.const d.const
      | _ -> reject "Split_neq tightening does not match the disequality"
    in
    if r_is_zero s then reject "Split_neq tightening is trivial";
    if not (l_equal e (l_scale s d)) then
      reject "Split_neq tightening is not proportional to the disequality"
  end

let check_tree (asserted : Term.t list) (tree : Proof.tree) : unit =
  let facts : unit Tbl.t = Tbl.create 64 in
  let ctx : bool Tbl.t = Tbl.create 16 in
  (* The initially available facts: the asserted terms and, since a
     conjunction asserts its conjuncts, the And-flattening closure. *)
  let rec add_fact t =
    Tbl.replace facts t ();
    match t with Term.And l -> List.iter add_fact l | _ -> ()
  in
  List.iter add_fact asserted;
  (* Hashtbl add/remove nest like a stack, so scoped facts shadow and
     restore any identical outer fact. *)
  let with_fact t k =
    Tbl.add facts t ();
    Fun.protect ~finally:(fun () -> Tbl.remove facts t) k
  in
  let with_assign atom b k =
    Tbl.add ctx atom b;
    let fact = if b then atom else Term.not_ atom in
    Tbl.add facts fact ();
    Fun.protect
      ~finally:(fun () ->
        Tbl.remove facts fact;
        Tbl.remove ctx atom)
      k
  in
  let rec go = function
    | Proof.Bool_leaf ->
        if
          not
            (List.exists
               (fun t -> fold_term ctx t = Term.False)
               asserted)
        then reject "Bool_leaf: no asserted term folds to false"
    | Proof.Farkas steps -> check_farkas facts steps
    | Proof.Split { atom; if_true; if_false } ->
        if not (Term.is_bool atom) then
          reject "split on a non-boolean term: %s" (Term.to_string atom);
        with_assign atom true (fun () -> go if_true);
        with_assign atom false (fun () -> go if_false)
    | Proof.Split_neq { neq; le1; ge1; left; right } ->
        if not (Tbl.mem facts neq) then
          reject "Split_neq on an out-of-scope disequality: %s"
            (Term.to_string neq);
        check_neq_split neq le1 ge1;
        with_fact le1 (fun () -> go left);
        with_fact ge1 (fun () -> go right)
  in
  go tree

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Checker-side tallies, split by witness kind (the solver's
   [cert_checks]/[cert_failures] count at its gatekeeper; these count
   what this independent checker actually examined). *)
let c_sat_validations = Trace.Metrics.counter "cert.sat_validations"
let c_unsat_validations = Trace.Metrics.counter "cert.unsat_validations"

(* Total evaluation with the solver's defaulting convention (absent
   variables are 0 / false) — written here rather than borrowed, so a
   shared evaluation bug cannot vouch for itself. *)
let validate_sat (ts : Term.t list) (m : Model.t) : Proof.verdict =
  Trace.Metrics.incr c_sat_validations;
  let rec ev t =
    match t with
    | Term.True -> Term.VBool true
    | Term.False -> Term.VBool false
    | Term.Int_const k -> Term.VInt k
    | Term.Var { Term.name; sort } -> (
        match Model.find_opt name m with
        | Some v -> v
        | None -> (
            match sort with
            | Term.Bool -> Term.VBool false
            | Term.Int -> Term.VInt 0))
    | Term.Not a -> Term.VBool (not (evb a))
    | Term.And l -> Term.VBool (List.for_all evb l)
    | Term.Or l -> Term.VBool (List.exists evb l)
    | Term.Implies (a, b) -> Term.VBool ((not (evb a)) || evb b)
    | Term.Iff (a, b) -> Term.VBool (evb a = evb b)
    | Term.Ite (c, a, b) -> if evb c then ev a else ev b
    | Term.Add l -> Term.VInt (List.fold_left (fun acc t -> acc + evi t) 0 l)
    | Term.Sub (a, b) -> Term.VInt (evi a - evi b)
    | Term.Neg a -> Term.VInt (-evi a)
    | Term.Mul_const (k, a) -> Term.VInt (k * evi a)
    | Term.Eq (a, b) -> (
        match (ev a, ev b) with
        | Term.VBool x, Term.VBool y -> Term.VBool (x = y)
        | Term.VInt x, Term.VInt y -> Term.VBool (x = y)
        | _ -> reject "sort mismatch under Eq")
    | Term.Le (a, b) -> Term.VBool (evi a <= evi b)
    | Term.Lt (a, b) -> Term.VBool (evi a < evi b)
  and evb t =
    match ev t with
    | Term.VBool b -> b
    | Term.VInt _ -> reject "integer term where boolean expected"
  and evi t =
    match ev t with
    | Term.VInt k -> k
    | Term.VBool _ -> reject "boolean term where integer expected"
  in
  try
    match List.find_opt (fun t -> not (evb t)) ts with
    | None -> Proof.Valid
    | Some t -> Proof.Invalid ("model does not satisfy " ^ Term.to_string t)
  with Reject m -> Proof.Invalid m

let validate_unsat (ts : Term.t list) (tree : Proof.tree) : Proof.verdict =
  Trace.Metrics.incr c_unsat_validations;
  try
    check_tree ts tree;
    Proof.Valid
  with
  | Reject m -> Proof.Invalid m
  | Overflow -> Proof.Invalid "rational overflow while checking certificate"

let install () = Proof.set_validator { Proof.validate_sat; validate_unsat }
