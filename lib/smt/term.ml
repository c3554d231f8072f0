(* First-order terms over booleans and integers — the verifier's logic.

   DNS-V restricts specification branch conditions to linear integer
   arithmetic (paper §4.2, §6.3): comparisons between integer variables and
   constants, composed with boolean connectives. This module is the shared
   term language between the symbolic executor, the summarizer and the
   solver. Variable-length lists (domain names, sections) are *not* a term
   sort: per §5.4 they are encoded upstream as one integer variable per
   active element plus a symbolic length variable. *)

type sort = Bool | Int

let pp_sort fmt = function
  | Bool -> Format.pp_print_string fmt "Bool"
  | Int -> Format.pp_print_string fmt "Int"

let equal_sort (a : sort) (b : sort) = a = b

type t =
  | True
  | False
  | Int_const of int
  | Var of var
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Ite of t * t * t
  | Add of t list
  | Sub of t * t
  | Neg of t
  | Mul_const of int * t
  | Eq of t * t
  | Le of t * t
  | Lt of t * t

and var = { name : string; sort : sort }

exception Sort_error of string

let sort_error fmt = Format.kasprintf (fun s -> raise (Sort_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Hash-consing                                                       *)
(* ------------------------------------------------------------------ *)

(* Every term built by a smart constructor is interned in a
   domain-local table, so structurally equal terms built through the
   constructors are physically equal within a domain (maximal sharing).
   [equal] then short-circuits on [==] for the overwhelmingly common
   case, and the solver's memo tables get cheap, well-distributed keys.
   Like every [Memo], the table is domain-local: worker domains intern
   independently, without a lock. *)

(* Bounded-depth structural hash: O(1) on arbitrarily deep terms, and
   consistent with structural equality (the interning invariant only
   strengthens [=] into [==], never changes it). *)
let hash (t : t) = Hashtbl.hash_param 30 120 t

let equal (a : t) (b : t) = a == b || a = b

module Intern = Memo.Make (struct
  type nonrec t = t

  let hash = hash
  let equal = equal
end)

(* Interning is an optimization: an evicted term only costs sharing. *)
let intern_memo : t Intern.t = Intern.create ~name:"term.intern" ~limit:(1 lsl 17)

let intern (t : t) : t =
  match Intern.find_opt intern_memo t with
  | Some t' -> t'
  | None ->
      Intern.add intern_memo t t;
      t

(* Recursively intern a term built with the raw data constructors
   (maximal sharing without re-normalizing). Terms from the smart
   constructors are already interned. *)
let rec hashcons (t : t) : t =
  match t with
  | True | False -> t
  | Int_const _ | Var _ -> intern t
  | Not a -> intern (Not (hashcons a))
  | And ts -> intern (And (List.map hashcons ts))
  | Or ts -> intern (Or (List.map hashcons ts))
  | Implies (a, b) -> intern (Implies (hashcons a, hashcons b))
  | Iff (a, b) -> intern (Iff (hashcons a, hashcons b))
  | Ite (c, a, b) -> intern (Ite (hashcons c, hashcons a, hashcons b))
  | Add ts -> intern (Add (List.map hashcons ts))
  | Sub (a, b) -> intern (Sub (hashcons a, hashcons b))
  | Neg a -> intern (Neg (hashcons a))
  | Mul_const (k, a) -> intern (Mul_const (k, hashcons a))
  | Eq (a, b) -> intern (Eq (hashcons a, hashcons b))
  | Le (a, b) -> intern (Le (hashcons a, hashcons b))
  | Lt (a, b) -> intern (Lt (hashcons a, hashcons b))

(* ------------------------------------------------------------------ *)
(* Sorts                                                              *)
(* ------------------------------------------------------------------ *)

let rec sort_of = function
  | True | False | Not _ | And _ | Or _ | Implies _ | Iff _ | Eq _ | Le _
  | Lt _ ->
      Bool
  | Int_const _ | Add _ | Sub _ | Neg _ | Mul_const _ -> Int
  | Var v -> v.sort
  | Ite (_, t, _) -> sort_of t

let is_bool t = sort_of t = Bool
let is_int t = sort_of t = Int

(* ------------------------------------------------------------------ *)
(* Smart constructors: light normalization at construction time.      *)
(* ------------------------------------------------------------------ *)

let true_ = True
let false_ = False
let int n = intern (Int_const n)
let var name sort = intern (Var { name; sort })
let bool_var name = var name Bool
let int_var name = var name Int
let of_bool b = if b then True else False

let check_bool ctx t =
  if not (is_bool t) then sort_error "%s: expected Bool, got Int term" ctx

let check_int ctx t =
  if not (is_int t) then sort_error "%s: expected Int, got Bool term" ctx

let not_ t =
  check_bool "not" t;
  match t with
  | True -> False
  | False -> True
  | Not t -> t
  | t -> intern (Not t)

let and_ ts =
  List.iter (check_bool "and") ts;
  let ts =
    List.concat_map (function And xs -> xs | True -> [] | t -> [ t ]) ts
  in
  if List.exists (fun t -> t = False) ts then False
  else
    match ts with [] -> True | [ t ] -> t | ts -> intern (And ts)

let or_ ts =
  List.iter (check_bool "or") ts;
  let ts =
    List.concat_map (function Or xs -> xs | False -> [] | t -> [ t ]) ts
  in
  if List.exists (fun t -> t = True) ts then True
  else
    match ts with [] -> False | [ t ] -> t | ts -> intern (Or ts)

let implies a b =
  check_bool "implies" a;
  check_bool "implies" b;
  match (a, b) with
  | True, b -> b
  | False, _ -> True
  | _, True -> True
  | a, False -> not_ a
  | a, b -> intern (Implies (a, b))

let iff a b =
  check_bool "iff" a;
  check_bool "iff" b;
  match (a, b) with
  | True, b -> b
  | b, True -> b
  | False, b -> not_ b
  | b, False -> not_ b
  | a, b -> if equal a b then True else intern (Iff (a, b))

let ite c a b =
  check_bool "ite" c;
  if not (equal_sort (sort_of a) (sort_of b)) then
    sort_error "ite: branch sorts differ";
  match c with
  | True -> a
  | False -> b
  | c -> if equal a b then a else intern (Ite (c, a, b))

let add ts =
  List.iter (check_int "add") ts;
  let ts = List.concat_map (function Add xs -> xs | t -> [ t ]) ts in
  (* Fold all constants into one summand; loop counters stay concrete. *)
  let const, rest =
    List.fold_left
      (fun (c, rest) t ->
        match t with Int_const n -> (c + n, rest) | t -> (c, t :: rest))
      (0, []) ts
  in
  let rest = List.rev rest in
  match (const, rest) with
  | c, [] -> intern (Int_const c)
  | 0, [ t ] -> t
  | 0, ts -> intern (Add ts)
  | c, ts -> intern (Add (ts @ [ intern (Int_const c) ]))

let sub a b =
  check_int "sub" a;
  check_int "sub" b;
  match (a, b) with
  | Int_const x, Int_const y -> intern (Int_const (x - y))
  | a, Int_const 0 -> a
  | a, b -> if equal a b then intern (Int_const 0) else intern (Sub (a, b))

let neg t =
  check_int "neg" t;
  match t with
  | Int_const n -> intern (Int_const (-n))
  | Neg t -> t
  | t -> intern (Neg t)

let mul_const k t =
  check_int "mul" t;
  match (k, t) with
  | 0, _ -> intern (Int_const 0)
  | 1, t -> t
  | k, Int_const n -> intern (Int_const (k * n))
  | k, Mul_const (k', t) -> intern (Mul_const (k * k', t))
  | k, t -> intern (Mul_const (k, t))

let eq a b =
  if not (equal_sort (sort_of a) (sort_of b)) then
    sort_error "eq: operand sorts differ";
  match (a, b) with
  | Int_const x, Int_const y -> of_bool (x = y)
  | True, b -> b
  | b, True -> b
  | False, b -> not_ b
  | b, False -> not_ b
  | a, b -> if equal a b then True else intern (Eq (a, b))

let le a b =
  check_int "le" a;
  check_int "le" b;
  match (a, b) with
  | Int_const x, Int_const y -> of_bool (x <= y)
  | a, b -> if equal a b then True else intern (Le (a, b))

let lt a b =
  check_int "lt" a;
  check_int "lt" b;
  match (a, b) with
  | Int_const x, Int_const y -> of_bool (x < y)
  | a, b -> if equal a b then False else intern (Lt (a, b))

let ge a b = le b a
let gt a b = lt b a
let neq a b = not_ (eq a b)

(* ------------------------------------------------------------------ *)
(* Traversals                                                         *)
(* ------------------------------------------------------------------ *)

module Var_set = Set.Make (struct
  type nonrec t = var

  let compare = compare
end)

let rec fold_vars f acc = function
  | True | False | Int_const _ -> acc
  | Var v -> f acc v
  | Not t | Neg t | Mul_const (_, t) -> fold_vars f acc t
  | And ts | Or ts | Add ts -> List.fold_left (fold_vars f) acc ts
  | Implies (a, b) | Iff (a, b) | Sub (a, b) | Eq (a, b) | Le (a, b)
  | Lt (a, b) ->
      fold_vars f (fold_vars f acc a) b
  | Ite (c, a, b) -> fold_vars f (fold_vars f (fold_vars f acc c) a) b

let vars t = fold_vars (fun s v -> Var_set.add v s) Var_set.empty t

let rec map_vars f t =
  match t with
  | True | False | Int_const _ -> t
  | Var v -> f v
  | Not t -> not_ (map_vars f t)
  | Neg t -> neg (map_vars f t)
  | Mul_const (k, t) -> mul_const k (map_vars f t)
  | And ts -> and_ (List.map (map_vars f) ts)
  | Or ts -> or_ (List.map (map_vars f) ts)
  | Add ts -> add (List.map (map_vars f) ts)
  | Implies (a, b) -> implies (map_vars f a) (map_vars f b)
  | Iff (a, b) -> iff (map_vars f a) (map_vars f b)
  | Sub (a, b) -> sub (map_vars f a) (map_vars f b)
  | Eq (a, b) -> eq (map_vars f a) (map_vars f b)
  | Le (a, b) -> le (map_vars f a) (map_vars f b)
  | Lt (a, b) -> lt (map_vars f a) (map_vars f b)
  | Ite (c, a, b) -> ite (map_vars f c) (map_vars f a) (map_vars f b)

(* Substitute variables by name. *)
let subst bindings t =
  map_vars
    (fun v ->
      match List.assoc_opt v.name bindings with
      | Some replacement ->
          if not (equal_sort (sort_of replacement) v.sort) then
            sort_error "subst: sort mismatch for %s" v.name;
          replacement
      | None -> Var v)
    t

let rec size = function
  | True | False | Int_const _ | Var _ -> 1
  | Not t | Neg t | Mul_const (_, t) -> 1 + size t
  | And ts | Or ts | Add ts -> List.fold_left (fun a t -> a + size t) 1 ts
  | Implies (a, b) | Iff (a, b) | Sub (a, b) | Eq (a, b) | Le (a, b)
  | Lt (a, b) ->
      1 + size a + size b
  | Ite (c, a, b) -> 1 + size c + size a + size b

(* ------------------------------------------------------------------ *)
(* Evaluation under a concrete assignment — the reference semantics
   that the SAT/LIA machinery is property-tested against.             *)
(* ------------------------------------------------------------------ *)

type value = VBool of bool | VInt of int

exception Unassigned of string

let rec eval env t =
  match t with
  | True -> VBool true
  | False -> VBool false
  | Int_const n -> VInt n
  | Var v -> (
      match env v.name with
      | Some value -> value
      | None -> raise (Unassigned v.name))
  | Not t -> VBool (not (eval_bool env t))
  | And ts -> VBool (List.for_all (eval_bool env) ts)
  | Or ts -> VBool (List.exists (eval_bool env) ts)
  | Implies (a, b) -> VBool ((not (eval_bool env a)) || eval_bool env b)
  | Iff (a, b) -> VBool (eval_bool env a = eval_bool env b)
  | Ite (c, a, b) -> if eval_bool env c then eval env a else eval env b
  | Add ts -> VInt (List.fold_left (fun acc t -> acc + eval_int env t) 0 ts)
  | Sub (a, b) -> VInt (eval_int env a - eval_int env b)
  | Neg t -> VInt (-eval_int env t)
  | Mul_const (k, t) -> VInt (k * eval_int env t)
  | Eq (a, b) -> VBool (eval env a = eval env b)
  | Le (a, b) -> VBool (eval_int env a <= eval_int env b)
  | Lt (a, b) -> VBool (eval_int env a < eval_int env b)

and eval_bool env t =
  match eval env t with
  | VBool b -> b
  | VInt _ -> sort_error "eval: expected Bool"

and eval_int env t =
  match eval env t with
  | VInt n -> n
  | VBool _ -> sort_error "eval: expected Int"

(* ------------------------------------------------------------------ *)
(* Pretty printing (SMT-LIB flavoured)                                *)
(* ------------------------------------------------------------------ *)

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Int_const n -> Format.fprintf fmt "%d" n
  | Var v -> Format.pp_print_string fmt v.name
  | Not t -> Format.fprintf fmt "@[<hv 2>(not@ %a)@]" pp t
  | And ts -> pp_nary fmt "and" ts
  | Or ts -> pp_nary fmt "or" ts
  | Implies (a, b) -> Format.fprintf fmt "@[<hv 2>(=>@ %a@ %a)@]" pp a pp b
  | Iff (a, b) -> Format.fprintf fmt "@[<hv 2>(iff@ %a@ %a)@]" pp a pp b
  | Ite (c, a, b) ->
      Format.fprintf fmt "@[<hv 2>(ite@ %a@ %a@ %a)@]" pp c pp a pp b
  | Add ts -> pp_nary fmt "+" ts
  | Sub (a, b) -> Format.fprintf fmt "@[<hv 2>(-@ %a@ %a)@]" pp a pp b
  | Neg t -> Format.fprintf fmt "@[<hv 2>(-@ %a)@]" pp t
  | Mul_const (k, t) -> Format.fprintf fmt "@[<hv 2>(*@ %d@ %a)@]" k pp t
  | Eq (a, b) -> Format.fprintf fmt "@[<hv 2>(=@ %a@ %a)@]" pp a pp b
  | Le (a, b) -> Format.fprintf fmt "@[<hv 2>(<=@ %a@ %a)@]" pp a pp b
  | Lt (a, b) -> Format.fprintf fmt "@[<hv 2>(<@ %a@ %a)@]" pp a pp b

and pp_nary fmt op ts =
  Format.fprintf fmt "@[<hv 2>(%s" op;
  List.iter (fun t -> Format.fprintf fmt "@ %a" pp t) ts;
  Format.fprintf fmt ")@]"

let to_string t = Format.asprintf "%a" pp t
