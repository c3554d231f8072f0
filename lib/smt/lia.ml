(* Linear integer arithmetic decision procedure: branch-and-bound over the
   rational simplex, plus disequality splitting.

   Conjunctions of `Linear.atom`s are decided here. Integrality is
   enforced by branching  x ≤ ⌊v⌋ ∨ x ≥ ⌈v⌉  on a fractional variable of
   the relaxation; disequalities split as  lin ≤ −1 ∨ lin ≥ 1. A depth cap
   returns [Unknown] rather than diverging on adversarial unbounded
   instances (never reached by DNS-V's bounded-list encodings).

   [check_cert] additionally returns a *proof* for every Unsat answer: a
   branch-and-bound tree whose leaves are Farkas combinations of input
   atoms, branching bounds, and disequality-split tightenings. Facts are
   index-based (input atoms by position in the — already canonicalized —
   input list) so the caller can re-anchor them to whatever term-level
   provenance it holds; the proof is therefore reusable across cache hits
   on the same canonical key. *)

module String_map = Map.Make (String)

type model = int String_map.t
type result = Sat of model | Unsat | Unknown

(* A fact usable in a Farkas step:
   - [F_atom i]: the i-th input atom (0-based, as given to [check_cert]);
   - [F_le (x, k)] / [F_ge (x, k)]: a branching bound on variable x;
   - [F_neq_le i] / [F_neq_ge i]: the two tightenings  lin ≤ −1  and
     −lin ≤ −1  of disequality input atom i (lin ≠ 0). *)
type fact =
  | F_atom of int
  | F_le of string * int
  | F_ge of string * int
  | F_neq_le of int
  | F_neq_ge of int

(* Farkas multipliers: nonnegative on ≤-facts, free on =-facts. The sum
   of multiplier·(≤0-form) must cancel every variable and leave a
   strictly positive constant. *)
type proof =
  | P_farkas of (fact * Q.t) list
  | P_branch of string * int * proof * proof (* x ≤ k  ∨  x ≥ k+1 *)
  | P_split of int * proof * proof (* neq atom i: lin ≤ −1 ∨ −lin ≤ −1 *)

(* A proof is [None] only if certificate construction failed while the
   answer itself is still sound — never expected, but the caller treats
   a missing proof as a validation failure, not as license to trust. *)
type cert_result = Csat of model | Cunsat of proof option | Cunknown

let max_depth = 10_000

(* A constraint row: Σ ci·xi ≤ b or Σ ci·xi = b with named variables. *)
type row = { coeffs : (int * string) list; rhs : int; is_eq : bool }

let pp_model fmt m =
  String_map.iter (fun v n -> Format.fprintf fmt "%s=%d " v n) m

exception Trivially_unsat of proof

let combine2 f a b =
  match (a, b) with Some a, Some b -> Some (f a b) | _ -> None

let check_cert (atoms : Linear.atom list) : cert_result =
  (* Partition atoms; constant atoms decide immediately. *)
  let rows = ref [] and neqs = ref [] and zero_neq = ref None in
  let add_row i is_eq lin =
    match Linear.const_value lin with
    | Some c ->
        if (is_eq && c <> 0) || ((not is_eq) && c > 0) then
          (* The multiplier must leave a positive constant: an equality
             row can be cited with either sign, so pick sign c. *)
          let lam = if is_eq && c < 0 then Q.minus_one else Q.one in
          raise (Trivially_unsat (P_farkas [ (F_atom i, lam) ]))
    | None ->
        let coeffs = Linear.fold_coeffs (fun acc v c -> (c, v) :: acc) [] lin in
        rows := ({ coeffs; rhs = -Linear.coeff_free lin; is_eq }, F_atom i) :: !rows
  in
  try
    List.iteri
      (fun i atom ->
        match atom with
        | Linear.Le_zero lin -> add_row i false lin
        | Linear.Eq_zero lin -> add_row i true lin
        | Linear.Neq_zero lin -> (
            match Linear.const_value lin with
            | Some 0 -> if !zero_neq = None then zero_neq := Some i
            | Some _ -> ()
            | None -> neqs := (lin, i) :: !neqs))
      atoms;
    let rows = !rows and neqs = !neqs in
    (* Variable index assignment. *)
    let index = Hashtbl.create 16 in
    let names = ref [] in
    let intern v =
      match Hashtbl.find_opt index v with
      | Some i -> i
      | None ->
          let i = Hashtbl.length index in
          Hashtbl.add index v i;
          names := v :: !names;
          i
    in
    List.iter
      (fun (r, _) -> List.iter (fun (_, v) -> ignore (intern v)) r.coeffs)
      rows;
    List.iter
      (fun (lin, _) -> List.iter (fun v -> ignore (intern v)) (Linear.vars lin))
      neqs;
    let nvars = Hashtbl.length index in
    let names = Array.of_list (List.rev !names) in
    (* Branch state: per-variable integer bounds (with the fact that
       introduced each side) plus extra ≤-rows from disequality splits. *)
    let solve_relaxation var_bounds all_rows =
      let simplex_rows =
        List.map
          (fun (r, _) -> List.map (fun (c, v) -> (Q.of_int c, intern v)) r.coeffs)
          all_rows
      in
      let bound_of i =
        if i < nvars then var_bounds.(i)
        else
          let r, _ = List.nth all_rows (i - nvars) in
          let rhs = Q.of_int r.rhs in
          if r.is_eq then { Simplex.lower = Some rhs; upper = Some rhs }
          else { Simplex.lower = None; upper = Some rhs }
      in
      let s = Simplex.create ~nvars ~rows:simplex_rows ~bound_of in
      Simplex.check s
    in
    (* Farkas certificate from a simplex conflict. The violated basic
       satisfies  cvar = Σ crow  identically (tableau rows are linear
       consequences of the definitional rows), and every nonbasic in
       crow is pinned at the bound blocking movement, so combining the
       basic's violated bound with each nonbasic's blocking bound —
       weights |a_j| on inequality facts, signed a_j on equality rows —
       cancels all variables and leaves the (strictly positive) bound
       violation. *)
    let farkas_of_conflict bprov all_rows { Simplex.cvar; cbelow; crow } =
      let exception Fail in
      let steps = ref [] in
      let add fact lam = steps := (fact, lam) :: !steps in
      let use_bound v ~upper ~w =
        if v < nvars then (
          let lo_f, up_f = bprov.(v) in
          match if upper then up_f else lo_f with
          | Some f -> add f w
          | None -> raise Fail)
        else
          let r, f = List.nth all_rows (v - nvars) in
          if r.is_eq then
            (* Equality fact lin = 0: the upper side contributes +w·lin,
               the lower side −w·lin; record the signed multiplier. *)
            add f (if upper then w else Q.neg w)
          else if upper then add f w
          else (* a ≤-row has no lower bound to lean on *) raise Fail
      in
      try
        use_bound cvar ~upper:(not cbelow) ~w:Q.one;
        List.iter
          (fun (a, j) ->
            let sign = Q.sign a in
            if sign > 0 then use_bound j ~upper:cbelow ~w:a
            else if sign < 0 then use_bound j ~upper:(not cbelow) ~w:(Q.neg a))
          crow;
        Some (P_farkas !steps)
      with Fail -> None
    in
    (* Tighten one side of a bound, keeping the provenance of whichever
       side wins. Returns [Ok (bound, prov)] or, when the tightened side
       crosses the other, [Error cross_proof]: the two crossing facts sum
       to a positive constant. *)
    let tighten (b : Simplex.bound) (plo, pup) ~upper k fact =
      let kq = Q.of_int k in
      if upper then
        let u', pu' =
          match b.Simplex.upper with
          | Some u when Q.le u kq -> (u, pup)
          | _ -> (kq, Some fact)
        in
        match b.Simplex.lower with
        | Some l when Q.gt l u' ->
            Error
              (combine2
                 (fun lf uf -> P_farkas [ (lf, Q.one); (uf, Q.one) ])
                 plo pu')
        | _ -> Ok ({ b with Simplex.upper = Some u' }, (plo, pu'))
      else
        let l', pl' =
          match b.Simplex.lower with
          | Some l when Q.ge l kq -> (l, plo)
          | _ -> (kq, Some fact)
        in
        match b.Simplex.upper with
        | Some u when Q.gt l' u ->
            Error
              (combine2
                 (fun lf uf -> P_farkas [ (lf, Q.one); (uf, Q.one) ])
                 pl' pup)
        | _ -> Ok ({ b with Simplex.lower = Some l' }, (pl', pup))
    in
    let rec branch var_bounds bprov extra_rows pending_neqs depth : cert_result
        =
      if depth > max_depth then Cunknown
      else
        let all_rows = extra_rows @ rows in
        match solve_relaxation var_bounds all_rows with
        | Simplex.Infeasible c ->
            Cunsat (farkas_of_conflict bprov all_rows c)
        | Simplex.Feasible beta -> (
            (* Find a fractional original variable. *)
            let frac = ref None in
            for i = 0 to nvars - 1 do
              if !frac = None && not (Q.is_integer beta.(i)) then frac := Some i
            done;
            match !frac with
            | Some i -> (
                let v = beta.(i) in
                let k = Q.floor v in
                (* v is fractional, so ⌈v⌉ = k+1. *)
                let name = names.(i) in
                let f_le = F_le (name, k) and f_ge = F_ge (name, k + 1) in
                let node l r = P_branch (name, k, l, r) in
                let left = Array.copy var_bounds in
                let lprov = Array.copy bprov in
                let right = Array.copy var_bounds in
                let rprov = Array.copy bprov in
                match
                  ( tighten left.(i) lprov.(i) ~upper:true k f_le,
                    tighten right.(i) rprov.(i) ~upper:false (k + 1) f_ge )
                with
                | Error pl, Error pr -> Cunsat (combine2 node pl pr)
                | Ok (bl, pvl), Error pr -> (
                    left.(i) <- bl;
                    lprov.(i) <- pvl;
                    match branch left lprov extra_rows pending_neqs (depth + 1) with
                    | Cunsat pl -> Cunsat (combine2 node pl pr)
                    | (Csat _ | Cunknown) as r -> r)
                | Error pl, Ok (br, pvr) -> (
                    right.(i) <- br;
                    rprov.(i) <- pvr;
                    match
                      branch right rprov extra_rows pending_neqs (depth + 1)
                    with
                    | Cunsat pr -> Cunsat (combine2 node pl pr)
                    | (Csat _ | Cunknown) as r -> r)
                | Ok (bl, pvl), Ok (br, pvr) -> (
                    left.(i) <- bl;
                    lprov.(i) <- pvl;
                    right.(i) <- br;
                    rprov.(i) <- pvr;
                    match branch left lprov extra_rows pending_neqs (depth + 1) with
                    | Cunsat pl -> (
                        match
                          branch right rprov extra_rows pending_neqs (depth + 1)
                        with
                        | Cunsat pr -> Cunsat (combine2 node pl pr)
                        | (Csat _ | Cunknown) as r -> r)
                    | (Csat _ | Cunknown) as r -> r))
            | None -> (
                (* Integral; validate disequalities. *)
                let env v = Q.to_int_exn beta.(Hashtbl.find index v) in
                match
                  List.find_opt
                    (fun (lin, _) -> Linear.eval env lin = 0)
                    pending_neqs
                with
                | None ->
                    let m =
                      Array.to_seq (Array.sub beta 0 nvars)
                      |> Seq.mapi (fun i q -> (names.(i), Q.to_int_exn q))
                      |> String_map.of_seq
                    in
                    Csat m
                | Some ((lin, idx) as picked) -> (
                    (* lin ≠ 0 over ℤ: lin ≤ −1 ∨ −lin ≤ −1 *)
                    let remaining =
                      List.filter (fun p -> not (p == picked)) pending_neqs
                    in
                    let mk lin' =
                      let coeffs =
                        Linear.fold_coeffs (fun acc v c -> (c, v) :: acc) [] lin'
                      in
                      { coeffs; rhs = -Linear.coeff_free lin' - 1; is_eq = false }
                    in
                    let node l r = P_split (idx, l, r) in
                    match
                      branch var_bounds bprov
                        ((mk lin, F_neq_le idx) :: extra_rows)
                        remaining (depth + 1)
                    with
                    | Cunsat pl -> (
                        match
                          branch var_bounds bprov
                            ((mk (Linear.neg lin), F_neq_ge idx) :: extra_rows)
                            remaining (depth + 1)
                        with
                        | Cunsat pr -> Cunsat (combine2 node pl pr)
                        | (Csat _ | Cunknown) as r -> r)
                    | (Csat _ | Cunknown) as r -> r)))
    in
    let init_bounds = Array.make nvars Simplex.no_bound in
    let init_prov = Array.make nvars (None, None) in
    match (branch init_bounds init_prov [] neqs 0, !zero_neq) with
    | (Csat _ | Cunknown), Some i ->
        (* A disequality whose difference is the constant 0 refutes the
           conjunction on its own (both tightenings read 1 ≤ 0), but the
           certificate checker rejects a split on an identically-zero
           difference. So it is the last resort: a refutation of the
           other atoms is preferred, which keeps every extension of a
           certifiably refuted conjunction certifiable. *)
        Cunsat
          (Some
             (P_split
                ( i,
                  P_farkas [ (F_neq_le i, Q.one) ],
                  P_farkas [ (F_neq_ge i, Q.one) ] )))
    | r, _ -> r
  with Trivially_unsat p -> Cunsat (Some p)

let check (atoms : Linear.atom list) : result =
  match check_cert atoms with
  | Csat m -> Sat m
  | Cunsat _ -> Unsat
  | Cunknown -> Unknown

(* ------------------------------------------------------------------ *)
(* Proof introspection                                                *)
(* ------------------------------------------------------------------ *)

(* Input atom indices a proof actually cites — the theory conflict
   *core*. The DPLL(T) loop blocks just these atoms instead of the full
   assignment, which is what turns one theory conflict into a clause
   that prunes every assignment sharing the core. *)
let proof_atoms (p : proof) : int list =
  let rec go acc = function
    | P_farkas steps ->
        List.fold_left
          (fun acc (f, _) ->
            match f with
            | F_atom i | F_neq_le i | F_neq_ge i -> i :: acc
            | F_le _ | F_ge _ -> acc)
          acc steps
    | P_branch (_, _, l, r) -> go (go acc l) r
    | P_split (i, l, r) -> go (go (i :: acc) l) r
  in
  List.sort_uniq compare (go [] p)

(* ------------------------------------------------------------------ *)
(* Theory-aware presolve: interval propagation + gcd tightening        *)
(* ------------------------------------------------------------------ *)

module Int_set = Set.Make (Int)

type bounds = (int option * int option) String_map.t

type presolve_result = Pfeasible of bounds | Punsat of proof option

(* floor(a/b) and ceil(a/b) for b > 0 *)
let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)
let cdiv a b = fdiv (a + b - 1) b

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

type pbound = {
  mutable lo : int option;
  mutable lo_sup : Int_set.t; (* input atoms justifying lo *)
  mutable hi : int option;
  mutable hi_sup : Int_set.t;
}

exception Infeasible_core of Int_set.t

(* Re-anchor a proof over the conflict core back to the original atom
   indices: facts in the core proof are positions in the core list. *)
let remap_proof (orig : int array) (p : proof) : proof =
  let rf = function
    | F_atom i -> F_atom orig.(i)
    | F_neq_le i -> F_neq_le orig.(i)
    | F_neq_ge i -> F_neq_ge orig.(i)
    | (F_le _ | F_ge _) as f -> f
  in
  let rec go = function
    | P_farkas steps -> P_farkas (List.map (fun (f, l) -> (rf f, l)) steps)
    | P_branch (x, k, l, r) -> P_branch (x, k, go l, go r)
    | P_split (i, l, r) -> P_split (orig.(i), go l, go r)
  in
  go p

(* Certify a contradiction found by propagation: run the full decision
   procedure on just the support core (tiny by construction) and remap
   its proof to original indices. Certificates therefore stay in the
   existing Farkas/split-tree forms — presolve introduces no new proof
   constructor for `lib/cert` to learn. *)
let certify_core (atoms : Linear.atom array) (core : Int_set.t) :
    presolve_result option =
  let orig = Array.of_list (Int_set.elements core) in
  let sub = Array.to_list (Array.map (fun i -> atoms.(i)) orig) in
  match check_cert sub with
  | Cunsat (Some p) -> Some (Punsat (Some (remap_proof orig p)))
  | Cunsat None -> Some (Punsat None)
  | Csat _ | Cunknown -> None

(* Interval presolve over the conjunction. Propagates integer bounds
   through every (in)equality — with gcd coefficient tightening applied
   to each row first — until fixpoint (bounded passes). On a detected
   contradiction the support core is re-checked and certified by
   [check_cert]; a core the checker cannot confirm falls back to
   feasible, so presolve can prune but never decide on its own
   authority. *)
let presolve (atoms : Linear.atom list) : presolve_result =
  let atoms_arr = Array.of_list atoms in
  let tbl : (string, pbound) Hashtbl.t = Hashtbl.create 16 in
  let bnd x =
    match Hashtbl.find_opt tbl x with
    | Some b -> b
    | None ->
        let b =
          { lo = None; lo_sup = Int_set.empty; hi = None; hi_sup = Int_set.empty }
        in
        Hashtbl.add tbl x b;
        b
  in
  let changed = ref false in
  let set_hi x v sup =
    let b = bnd x in
    match b.hi with
    | Some h when h <= v -> ()
    | _ -> (
        b.hi <- Some v;
        b.hi_sup <- sup;
        changed := true;
        match b.lo with
        | Some l when l > v ->
            raise (Infeasible_core (Int_set.union b.lo_sup sup))
        | _ -> ())
  in
  let set_lo x v sup =
    let b = bnd x in
    match b.lo with
    | Some l when l >= v -> ()
    | _ -> (
        b.lo <- Some v;
        b.lo_sup <- sup;
        changed := true;
        match b.hi with
        | Some h when h < v ->
            raise (Infeasible_core (Int_set.union b.hi_sup sup))
        | _ -> ())
  in
  try
    (* Rows in  Σ ci·xi ≤ b  form; an equality contributes both sides.
       Each row remembers the input atom it came from. *)
    let rows = ref [] in
    Array.iteri
      (fun i atom ->
        let push lin =
          match Linear.const_value lin with
          | Some c -> if c > 0 then raise (Infeasible_core (Int_set.singleton i))
          | None ->
              let coeffs =
                Linear.fold_coeffs (fun acc v c -> (c, v) :: acc) [] lin
              in
              let b = -Linear.coeff_free lin in
              (* gcd coefficient tightening: Σ g·ci'·xi ≤ b entails
                 Σ ci'·xi ≤ ⌊b/g⌋ over the integers. *)
              let g = List.fold_left (fun g (c, _) -> gcd g c) 0 coeffs in
              let coeffs, b =
                if g > 1 then (List.map (fun (c, v) -> (c / g, v)) coeffs, fdiv b g)
                else (coeffs, b)
              in
              rows := (coeffs, b, i) :: !rows
        in
        match atom with
        | Linear.Le_zero lin -> push lin
        | Linear.Eq_zero lin -> (
            (* Divisibility check before splitting into two ≤-rows:
               g | ci for all i but g ∤ c0 refutes the equality alone. *)
            match Linear.const_value lin with
            | Some c -> if c <> 0 then raise (Infeasible_core (Int_set.singleton i))
            | None ->
                let g =
                  Linear.fold_coeffs (fun g _ c -> gcd g c) 0 lin
                in
                if g > 1 && Linear.coeff_free lin mod g <> 0 then
                  raise (Infeasible_core (Int_set.singleton i));
                push lin;
                push (Linear.neg lin))
        | Linear.Neq_zero lin -> (
            match Linear.const_value lin with
            | Some 0 -> raise (Infeasible_core (Int_set.singleton i))
            | _ -> ()))
      atoms_arr;
    let rows = !rows in
    (* Bounded fixpoint: each pass strengthens monotonically; the cap
       keeps adversarial ping-pong chains from stalling the solver —
       presolve is allowed to under-approximate. *)
    let passes = ref 0 in
    changed := true;
    while !changed && !passes < 20 do
      changed := false;
      incr passes;
      List.iter
        (fun (coeffs, b, i) ->
          (* For each variable: cj·xj ≤ b − Σ_{k≠j} min(ck·xk). *)
          List.iter
            (fun (cj, xj) ->
              let rest = ref (Some 0) and sup = ref (Int_set.singleton i) in
              List.iter
                (fun (ck, xk) ->
                  if xk <> xj then
                    match !rest with
                    | None -> ()
                    | Some acc -> (
                        let bk = bnd xk in
                        let contrib =
                          if ck > 0 then
                            Option.map (fun l -> (l, bk.lo_sup)) bk.lo
                          else Option.map (fun h -> (h, bk.hi_sup)) bk.hi
                        in
                        match contrib with
                        | None -> rest := None
                        | Some (v, s) ->
                            rest := Some (acc + (ck * v));
                            sup := Int_set.union !sup s))
                coeffs;
              match !rest with
              | None -> ()
              | Some rest_min ->
                  let r = b - rest_min in
                  if cj > 0 then set_hi xj (fdiv r cj) !sup
                  else set_lo xj (cdiv (-r) (-cj)) !sup)
            coeffs)
        rows
    done;
    let out =
      Hashtbl.fold
        (fun x b acc -> String_map.add x (b.lo, b.hi) acc)
        tbl String_map.empty
    in
    Pfeasible out
  with Infeasible_core core -> (
    match certify_core atoms_arr core with
    | Some r -> r
    | None ->
        (* The core checker would not confirm the contradiction —
           presolve never decides on its own authority. *)
        Pfeasible String_map.empty)

(* Three-valued evaluation of an atom under interval bounds: entailed
   true / entailed false when every integer point in the box agrees,
   [None] otherwise. Used to seed unit literals on the SAT trail. *)
let entailed (bounds : bounds) (atom : Linear.atom) : bool option =
  let range lin =
    let lo = ref (Some (Linear.coeff_free lin))
    and hi = ref (Some (Linear.coeff_free lin)) in
    Linear.fold_coeffs
      (fun () x c ->
        let blo, bhi =
          match String_map.find_opt x bounds with
          | Some (l, h) -> (l, h)
          | None -> (None, None)
        in
        let mn, mx = if c > 0 then (blo, bhi) else (bhi, blo) in
        lo := combine2 (fun a v -> a + (c * v)) !lo mn;
        hi := combine2 (fun a v -> a + (c * v)) !hi mx)
      () lin;
    (!lo, !hi)
  in
  match atom with
  | Linear.Le_zero lin -> (
      match range lin with
      | _, Some h when h <= 0 -> Some true
      | Some l, _ when l > 0 -> Some false
      | _ -> None)
  | Linear.Eq_zero lin -> (
      match range lin with
      | Some 0, Some 0 -> Some true
      | Some l, _ when l > 0 -> Some false
      | _, Some h when h < 0 -> Some false
      | _ -> None)
  | Linear.Neq_zero lin -> (
      match range lin with
      | Some 0, Some 0 -> Some false
      | Some l, _ when l > 0 -> Some true
      | _, Some h when h < 0 -> Some true
      | _ -> None)
