(* Seeded solver-fuzz smoke battery: random CNFs through the CDCL core
   against a brute-force reference evaluator, random LIA conjunctions
   through presolve + branch-and-bound, and random boolean-structure
   terms through the DPLL(T) loop with learning/presolve on vs. off.

   Deterministic: every case is a pure function of (seed, index), so a
   failure replays with the same arguments. Usage:

     fuzz_solver [cases] [seed]     (defaults: 2000 cases, seed 213)

   Exits 1 on the first discrepancy, printing the reproducer. *)

open Smt

let cases = ref 2000
let seed = ref 213

let () =
  (match Sys.argv with
  | [| _ |] -> ()
  | [| _; n |] -> cases := int_of_string n
  | [| _; n; s |] ->
      cases := int_of_string n;
      seed := int_of_string s
  | _ ->
      prerr_endline "usage: fuzz_solver [cases] [seed]";
      exit 2)

let rng = Random.State.make [| !seed |]
let range lo hi = lo + Random.State.int rng (hi - lo + 1)

let fail i what detail =
  Printf.eprintf "FAIL case %d (seed %d): %s\n%s\n" i !seed what detail;
  exit 1

(* ---- CNF leg ----------------------------------------------------- *)

let print_cnf clauses =
  String.concat "; "
    (List.map
       (fun c -> String.concat "," (List.map string_of_int c))
       clauses)

let gen_cnf () =
  let nvars = range 1 8 in
  let n_clauses = range 0 20 in
  let clause () =
    List.init (range 1 4) (fun _ ->
        let v = range 1 nvars in
        if Random.State.bool rng then v else -v)
  in
  (nvars, List.init n_clauses (fun _ -> clause ()))

let assignment_satisfies value clauses =
  List.for_all
    (List.exists (fun l -> if l > 0 then value l else not (value (-l))))
    clauses

let brute_sat nvars clauses =
  let n = 1 lsl nvars in
  let rec go i =
    i < n
    && (assignment_satisfies (fun v -> i land (1 lsl (v - 1)) <> 0) clauses
       || go (i + 1))
  in
  go 0

let cnf_case i =
  let nvars, clauses = gen_cnf () in
  let t = Sat.create ~nvars clauses in
  (match Sat.solve t with
  | Sat.Sat a ->
      if not (assignment_satisfies (fun v -> a.(v)) clauses) then
        fail i "CDCL model does not satisfy the CNF" (print_cnf clauses)
  | Sat.Unsat ->
      if brute_sat nvars clauses then
        fail i "CDCL answered Unsat on a satisfiable CNF" (print_cnf clauses));
  if not (Sat.validate t) then
    fail i "learned-clause chain replay failed" (print_cnf clauses)

(* ---- LIA leg ----------------------------------------------------- *)

let gen_lin () =
  Linear.add
    (Linear.add
       (Linear.var ~coeff:(range (-3) 3) "x")
       (Linear.var ~coeff:(range (-3) 3) "y"))
    (Linear.const (range (-6) 6))

let gen_atom () =
  let l = gen_lin () in
  match range 0 2 with
  | 0 -> Linear.Le_zero l
  | 1 -> Linear.Eq_zero l
  | _ -> Linear.Neq_zero l

let print_atoms atoms =
  String.concat "; "
    (List.map (fun a -> Format.asprintf "%a" Linear.pp_atom a) atoms)

let lia_brute_sat atoms =
  (* One-sided window search: a hit inside [-10,10]^2 refutes Unsat. *)
  let dom = List.init 21 (fun i -> i - 10) in
  List.exists
    (fun xv ->
      List.exists
        (fun yv ->
          let env = function "x" -> xv | "y" -> yv | _ -> 0 in
          List.for_all (Linear.eval_atom env) atoms)
        dom)
    dom

let lia_case i =
  let atoms = List.init (range 1 6) (fun _ -> gen_atom ()) in
  let env_of m k = Option.value ~default:0 (Lia.String_map.find_opt k m) in
  (match Lia.check atoms with
  | Lia.Sat m ->
      if not (List.for_all (Linear.eval_atom (env_of m)) atoms) then
        fail i "LIA model does not satisfy the conjunction" (print_atoms atoms)
  | Lia.Unsat ->
      if lia_brute_sat atoms then
        fail i "LIA answered Unsat on a satisfiable conjunction"
          (print_atoms atoms)
  | Lia.Unknown -> ());
  match Lia.presolve atoms with
  | Lia.Punsat _ ->
      if lia_brute_sat atoms then
        fail i "presolve pruned a satisfiable conjunction" (print_atoms atoms)
  | Lia.Pfeasible _ -> ()

(* ---- DPLL(T) leg ------------------------------------------------- *)

let x = Term.int_var "x"
let y = Term.int_var "y"
let z = Term.int_var "z"

let gen_term () =
  let leaf () =
    if Random.State.bool rng then Term.int (range (-4) 4)
    else List.nth [ x; y; z ] (range 0 2)
  in
  let cmp () =
    let a = leaf () and b = leaf () in
    match range 0 2 with
    | 0 -> Term.eq a b
    | 1 -> Term.le a b
    | _ -> Term.lt a b
  in
  let rec go depth =
    if depth = 0 then cmp ()
    else
      match range 0 4 with
      | 0 -> cmp ()
      | 1 -> Term.and_ [ go (depth - 1); go (depth - 1) ]
      | 2 -> Term.or_ [ go (depth - 1); go (depth - 1) ]
      | 3 -> Term.not_ (go (depth - 1))
      | _ -> Term.implies (go (depth - 1)) (go (depth - 1))
  in
  go (range 1 3)

let term_brute_sat t =
  let dom = [ -3; -2; -1; 0; 1; 2; 3 ] in
  List.exists
    (fun xv ->
      List.exists
        (fun yv ->
          List.exists
            (fun zv ->
              let env = function
                | "x" -> Some (Term.VInt xv)
                | "y" -> Some (Term.VInt yv)
                | "z" -> Some (Term.VInt zv)
                | _ -> None
              in
              Term.eval_bool env t)
            dom)
        dom)
    dom

let status = function
  | Solver.Sat _ -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

let dpllt_case i =
  let t = gen_term () in
  let cdcl = Solver.check_dpllt t in
  let old = Solver.check_dpllt_reference t in
  if not (String.equal (status cdcl) (status old)) then
    fail i
      (Printf.sprintf "CDCL verdict %s differs from legacy %s" (status cdcl)
         (status old))
      (Term.to_string t);
  match cdcl with
  | Solver.Sat m ->
      if not (Model.satisfies m t) then
        fail i "DPLL(T) model does not satisfy the term" (Term.to_string t)
  | Solver.Unsat ->
      if term_brute_sat t then
        fail i "DPLL(T) answered Unsat on a satisfiable term"
          (Term.to_string t)
  | Solver.Unknown -> ()

(* ------------------------------------------------------------------ *)

let () =
  for i = 1 to !cases do
    match i mod 3 with
    | 0 -> cnf_case i
    | 1 -> lia_case i
    | _ -> dpllt_case i
  done;
  Printf.printf
    "fuzz_solver: %d cases clean (seed %d): CNF vs reference, LIA + \
     presolve, DPLL(T) CDCL vs legacy\n"
    !cases !seed
