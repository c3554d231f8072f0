(* The solver facade: lazy DPLL(T) over the SAT core and the LIA theory.

   This plays the role Z3 plays in the paper (§5.2): every branch decision
   of the symbolic executor and every refinement obligation lands here.
   Two paths:

   - conjunctions of literals (the overwhelmingly common case — path
     conditions) go straight to the LIA procedure;
   - arbitrary boolean structure goes through Tseitin CNF + DPLL, with
     theory-refuted assignments blocked by clauses until convergence.

   Performance layers sit on top (all domain-local, so parallel
   pipeline workers never contend or race):

   - a result cache keyed on the canonical conjunction (for literal
     conjunctions, the sorted ids of its interned atoms), so the
     re-verification workload — re-running the checker after an engine
     iteration, or across near-identical engine versions — answers
     repeated obligations in O(key);
   - a memo of each asserted literal's analysis, and of the
     certificates the checker has accepted, so neither is redone;
   - an incremental assertion stack ([Incremental]) that mirrors the
     symbolic executor's path condition, so a branch decision extends the
     parent path's analyzed state by one literal instead of re-translating
     the full conjunction. *)

type result = Sat of Model.t | Unsat | Unknown

(* Statistics for the Figure-12 style reporting, stored in the metrics
   registry (lib/trace): each named counter owns a domain-local cell,
   so parallel workers never contend, and the domain pool merges worker
   deltas at the join barrier with [Trace.Metrics.absorb]. The [stats]
   record survives as a *view* — [stats ()] reads the registry and
   subtracts the current window mark — so callers keep the field-access
   idiom while the storage is shared with every other subsystem's
   metrics. [unknowns] counts every Unknown answer (including forced
   ones): any check that leaned on one must be downgraded to
   inconclusive by its caller. *)
type stats = {
  mutable checks : int;
  mutable fast_path : int;
  mutable dpllt_iterations : int;
  mutable unknowns : int;
  mutable cache_hits : int;     (* conjunctions answered from the memo *)
  mutable cache_misses : int;   (* conjunctions solved then memoized *)
  mutable incremental_checks : int; (* served via an assertion stack *)
  mutable scratch_checks : int; (* conjunction rebuilt from scratch *)
  mutable cert_checks : int; (* checker runs; see [validate] *)
  mutable cert_failures : int; (* certificates that failed validation *)
}

module M = Trace.Metrics

let c_checks = M.counter "solver.checks"
let c_fast_path = M.counter "solver.fast_path"
let c_dpllt_iterations = M.counter "solver.dpllt_iterations"
let c_unknowns = M.counter "solver.unknowns"
let c_cache_hits = M.counter "solver.cache_hits"
let c_cache_misses = M.counter "solver.cache_misses"
let c_incremental_checks = M.counter "solver.incremental_checks"
let c_scratch_checks = M.counter "solver.scratch_checks"
let c_cert_checks = M.counter "solver.cert_checks"
let c_cert_failures = M.counter "solver.cert_failures"

(* Latency histograms price two clock reads per observation, so they
   observe only while a trace is recording; the count-shaped pc-depth
   histogram is a plain bucket bump and stays on. *)
let h_check_seconds = M.histogram "solver.check_seconds"
let h_pc_depth = M.histogram "solver.pc_depth"
let h_cert_seconds = M.histogram "cert.validate_seconds"

let timed (h : M.histogram) (f : unit -> 'a) : 'a =
  if not (Trace.enabled ()) then f ()
  else begin
    let t0 = Trace.now_s () in
    let r = f () in
    M.observe h (Trace.now_s () -. t0);
    r
  end

let fresh_stats () =
  {
    checks = 0;
    fast_path = 0;
    dpllt_iterations = 0;
    unknowns = 0;
    cache_hits = 0;
    cache_misses = 0;
    incremental_checks = 0;
    scratch_checks = 0;
    cert_checks = 0;
    cert_failures = 0;
  }

(* The registry's per-domain cumulative values, as a record. *)
let raw () : stats =
  {
    checks = M.value c_checks;
    fast_path = M.value c_fast_path;
    dpllt_iterations = M.value c_dpllt_iterations;
    unknowns = M.value c_unknowns;
    cache_hits = M.value c_cache_hits;
    cache_misses = M.value c_cache_misses;
    incremental_checks = M.value c_incremental_checks;
    scratch_checks = M.value c_scratch_checks;
    cert_checks = M.value c_cert_checks;
    cert_failures = M.value c_cert_failures;
  }

let diff_stats (a : stats) (b : stats) : stats =
  {
    checks = a.checks - b.checks;
    fast_path = a.fast_path - b.fast_path;
    dpllt_iterations = a.dpllt_iterations - b.dpllt_iterations;
    unknowns = a.unknowns - b.unknowns;
    cache_hits = a.cache_hits - b.cache_hits;
    cache_misses = a.cache_misses - b.cache_misses;
    incremental_checks = a.incremental_checks - b.incremental_checks;
    scratch_checks = a.scratch_checks - b.scratch_checks;
    cert_checks = a.cert_checks - b.cert_checks;
    cert_failures = a.cert_failures - b.cert_failures;
  }

let copy_into (dst : stats) (src : stats) =
  dst.checks <- src.checks;
  dst.fast_path <- src.fast_path;
  dst.dpllt_iterations <- src.dpllt_iterations;
  dst.unknowns <- src.unknowns;
  dst.cache_hits <- src.cache_hits;
  dst.cache_misses <- src.cache_misses;
  dst.incremental_checks <- src.incremental_checks;
  dst.scratch_checks <- src.scratch_checks;
  dst.cert_checks <- src.cert_checks;
  dst.cert_failures <- src.cert_failures

(* The window mark, domain-local. [stats ()] is everything since the
   last [reset_stats] (called per verification attempt, to scope the
   per-attempt [unknowns] reads). Fresh domains start with zero
   registry cells and a zero mark. *)
let mark_key : stats Domain.DLS.key = Domain.DLS.new_key fresh_stats

let stats () : stats = diff_stats (raw ()) (Domain.DLS.get mark_key)
let reset_stats () = copy_into (Domain.DLS.get mark_key) (raw ())

(* The budget in scope for this solver, if any. Scoped rather than
   threaded per-call: every branch decision and refinement obligation
   lands here, and the entry points (Refine.Check, Refine.Layers,
   Symex.Exec.run) establish the scope once. Domain-local so each
   parallel worker carries its own budget. *)
let current_budget_key : Budget.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_budget () = Domain.DLS.get current_budget_key

let with_budget (b : Budget.t) (f : unit -> 'a) : 'a =
  let cell = current_budget () in
  let saved = !cell in
  cell := Some b;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)
(* ------------------------------------------------------------------ *)

(* Persistent-store hook (installed by Store.with_solver from lib/store,
   which sits above this library). Consulted ONLY on in-memory cache
   misses — hits never pay for it.
   [p_lookup] is handed the canonical term list of the query and is
   expected to return nothing it cannot justify (the store re-validates
   certificates on load and falls through to a fresh solve on any
   failure); whatever it serves still passes this solver's own
   [validate] gatekeeper before leaving. [p_save] receives only
   Sat-with-model and Unsat-with-certificate answers; Unknown is never
   persisted for the same reason it is never cached. *)
type persist = {
  p_lookup : Term.t list -> (result * Proof.t option) option;
  p_save : Term.t list -> result * Proof.t option -> unit;
}

let persist_hook : persist option Atomic.t = Atomic.make None
let set_persist p = Atomic.set persist_hook p
let persist_installed () = Atomic.get persist_hook

(* Linear keys are interned to ids, so a conjunction's memo key is a
   sorted int list: no structural sort, and a probe hashes ints rather
   than variable names. Ids come from one process-wide counter and are
   never reused, so a key evicted from [atom_ids] and interned again
   gets a fresh id: the stale one can only make a later lookup miss. *)
module Key_ids = Memo.Make (struct
  type t = Linear.key

  let equal ((tag, const, coeffs) : t) ((tag', const', coeffs') : t) =
    tag = tag' && const = const'
    && List.equal (fun (x, k) (y, j) -> k = j && String.equal x y) coeffs coeffs'

  let hash ((tag, const, coeffs) : t) =
    List.fold_left
      (fun h (x, k) -> Hashtbl.seeded_hash (Hashtbl.seeded_hash h x) k)
      (Hashtbl.seeded_hash (Hashtbl.seeded_hash 0 tag) const)
      coeffs
end)

let atom_ids : int Key_ids.t = Key_ids.create ~name:"solver.atom_ids" ~limit:(1 lsl 16)
let next_atom_id = Atomic.make 0

let atom_id (key : Linear.key) : int =
  match Key_ids.find_opt atom_ids key with
  | Some id -> id
  | None ->
      let id = Atomic.fetch_and_add next_atom_id 1 in
      Key_ids.add atom_ids key id;
      id

(* Both result tables hash the whole key. The polymorphic
   [Hashtbl.hash] stops after 10 meaningful words, the first atom or two
   of a sorted conjunction, and path conditions share those prefixes: it
   sends most keys of a run to a few buckets, and every lookup then
   walks a long chain of structural compares. *)
module Lia_memo = Memo.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash (ids : t) = List.fold_left Hashtbl.seeded_hash 0 ids
end)

module Full_memo = Memo.Make (struct
  type t = Term.t list

  let equal = List.equal Term.equal

  let hash (ts : t) =
    List.fold_left (fun h t -> Hashtbl.seeded_hash h (Term.hash t)) 0 ts
end)

(* One theory atom of an asserted literal: the atom, its source literal
   (the asserted term, negation folded in, that certificates cite), its
   canonical key and the key's id. *)
type atom_lit = { atom : Linear.atom; src : Term.t; key : Linear.key; id : int }

(* What the solver reads from one asserted term, computed once per term:
   its theory atoms and boolean literals, listed as
   [literals_of_conjunction_src] lists them, or [conj = false] when the
   term is not a conjunction of linear literals. [hash] is [Term.hash]
   of the term. *)
type analysis = {
  hash : int;
  atoms : atom_lit list;
  bools : (string * bool) list;
  conj : bool;
}

module Analyses = Memo.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

(* The result memo tables, keyed on canonical forms:

   - [lia]: the sorted, deduplicated atom ids of a literal conjunction —
     the fast path and the incremental stack;
   - [full]: sorted+deduped term lists for the general DPLL(T) path
     (terms are hash-consed, so polymorphic compare is cheap and, unlike
     [Linear.atom], they contain no balanced trees, so it is reliable).

   Unknown is never cached: it depends on the budget and fault plan in
   scope, not on the conjunction. A conjunction is solved in
   [Linear.key] order whatever its ids, so a cached model is a function
   of the atom set alone — sequential and parallel runs return
   byte-identical verdicts regardless of cache population order.

   Entries carry the certificate produced when they were solved. LIA
   proofs are index-based (positions in [Linear.key] order), and a LIA
   entry records where each of those positions sits in its id key, so a
   hit re-anchors the proof to the hitting call's own literal terms;
   full-path certificates are term-level already (the key is the term
   list). A hit's certificate passes [validate] before the cached
   answer is trusted. *)
type lia_entry = {
  result : Lia.result;
  proof : Lia.proof option;
  perm : int array; (* [Linear.key] position -> position in the id key *)
  mutable model : Model.t option; (* of a Sat [result], built once *)
  mutable anchored : (atom_lit array * Proof.tree option) option;
      (* the last anchoring of [proof], and the literals it cites *)
}

let lia_memo : lia_entry Lia_memo.t =
  Lia_memo.create ~name:"solver.lia" ~limit:(1 lsl 16)

let full_memo : (result * Proof.t option) Full_memo.t =
  Full_memo.create ~name:"solver.full" ~limit:(1 lsl 16)

let analyses : analysis Analyses.t =
  Analyses.create ~name:"solver.analyses" ~limit:(1 lsl 16)

(* The checker's memo: the (term list, result, certificate) triples a
   validator accepted, each with that validator. Only [Valid] is
   cached, and only under the validator installed now is it served, so
   installing another validator retires every entry. [v_hash] combines
   the terms' hashes (see [hash_terms]) with the result's kind. *)
type checked = {
  v_ts : Term.t list;
  v_hash : int;
  v_result : result;
  v_cert : Proof.t option;
}

module Checked_memo = Memo.Make (struct
  type t = checked

  let equal_result a b =
    match (a, b) with
    | Sat m, Sat m' -> Proof.equal_model m m'
    | Unsat, Unsat -> true
    | (Sat _ | Unsat | Unknown), _ -> false

  let equal a b =
    a.v_hash = b.v_hash
    && (a.v_ts == b.v_ts || List.equal Term.equal a.v_ts b.v_ts)
    && equal_result a.v_result b.v_result
    && Option.equal Proof.equal a.v_cert b.v_cert

  let hash k = k.v_hash
end)

let checked : Proof.validator Checked_memo.t =
  Checked_memo.create ~name:"solver.checked" ~limit:(1 lsl 16)

let clear_caches () =
  Lia_memo.clear lia_memo;
  Full_memo.clear full_memo;
  Key_ids.clear atom_ids;
  Analyses.clear analyses;
  Checked_memo.clear checked

exception Not_conjunctive

(* Try to read a term as a conjunction of literals: returns (theory
   atoms, boolean literal list). Each theory atom carries its *source
   literal* — the asserted term (negation folded in) that produced it —
   which is the provenance certificates are anchored to: the checker
   recognizes exactly the asserted input literals as Farkas facts. *)
let literals_of_conjunction_src (ts : Term.t list) =
  let atoms = ref [] and bools = ref [] in
  let rec literal positive (t : Term.t) =
    match t with
    | Term.True -> if not positive then raise Not_conjunctive
    | Term.False -> if positive then raise Not_conjunctive
    | Term.Not t -> literal (not positive) t
    | Term.Var { name; sort = Term.Bool } -> bools := (name, positive) :: !bools
    | Term.And ts when positive -> List.iter (literal true) ts
    | Term.Eq (a, _) when Term.is_bool a -> raise Not_conjunctive
    | Term.Eq _ | Term.Le _ | Term.Lt _ -> (
        match Linear.atom_of_term t with
        | Some atom ->
            let atom = if positive then atom else Linear.negate_atom atom in
            let src = if positive then t else Term.not_ t in
            atoms := (atom, src) :: !atoms
        | None -> raise Not_conjunctive)
    | _ -> raise Not_conjunctive
  in
  List.iter (literal true) ts;
  (!atoms, !bools)

let literals_of_conjunction (ts : Term.t list) =
  let atoms, bools = literals_of_conjunction_src ts in
  (List.map fst atoms, bools)

let analyze (t : Term.t) : analysis =
  match Analyses.find_opt analyses t with
  | Some a -> a
  | None ->
      let hash = Term.hash t in
      let a =
        match literals_of_conjunction_src [ t ] with
        | atoms, bools ->
            let atoms =
              List.map
                (fun (atom, src) ->
                  let key = Linear.key_of_atom atom in
                  { atom; src; key; id = atom_id key })
                atoms
            in
            { hash; atoms; bools; conj = true }
        | exception (Not_conjunctive | Linear.Nonlinear _) ->
            { hash; atoms = []; bools = []; conj = false }
      in
      Analyses.add analyses t a;
      a

(* The hash of a term list [t :: rest] extends the hash of [rest], so
   an assertion stack hashes each pushed literal once. *)
let hash_nil = 0
let hash_cons (a : analysis) h = Hashtbl.seeded_hash h a.hash
let hash_terms (ans : analysis list) = List.fold_right hash_cons ans hash_nil

(* The atoms and boolean literals of a term list, in the order
   [literals_of_conjunction_src] gives them for the whole list: the
   last term's first. *)
let atoms_of ans = List.fold_left (fun acc a -> a.atoms @ acc) [] ans
let bools_of ans = List.fold_left (fun acc a -> a.bools @ acc) [] ans

let model_of_lia_model (m : Lia.model) bools =
  let base =
    Lia.String_map.fold (fun name n acc -> Model.add_int name n acc) m
      Model.empty
  in
  List.fold_left
    (fun acc (name, positive) -> Model.add_bool name positive acc)
    base bools

(* Re-anchor an index-based LIA proof to term-level facts. [provs.(i)]
   is the asserted literal term behind canonical atom i; [atoms.(i)] the
   atom itself (needed to render disequality tightenings as terms).
   Branching bounds x ≤ k / x ≥ k become the terms  x ≤ k  and
   ¬(x ≤ k−1), matching the split atoms the checker tracks in its
   context. *)
let tree_of_lia_proof (atoms : Linear.atom array) (provs : Term.t array)
    (p : Lia.proof) : Proof.tree option =
  let exception Fail in
  let q_coeff (q : Q.t) = { Proof.pnum = Q.num q; pden = Q.den q } in
  let neq_terms i =
    match atoms.(i) with
    | Linear.Neq_zero lin ->
        ( Term.le (Linear.to_term lin) (Term.int (-1)),
          Term.le (Linear.to_term (Linear.neg lin)) (Term.int (-1)) )
    | _ -> raise Fail
  in
  let term_of_fact = function
    | Lia.F_atom i -> provs.(i)
    | Lia.F_le (x, k) -> Term.le (Term.int_var x) (Term.int k)
    | Lia.F_ge (x, k) -> Term.not_ (Term.le (Term.int_var x) (Term.int (k - 1)))
    | Lia.F_neq_le i -> fst (neq_terms i)
    | Lia.F_neq_ge i -> snd (neq_terms i)
  in
  let rec conv = function
    | Lia.P_farkas steps ->
        Proof.Farkas
          (List.map
             (fun (f, q) -> { Proof.fact = term_of_fact f; lam = q_coeff q })
             steps)
    | Lia.P_branch (x, k, l, r) ->
        Proof.Split
          {
            atom = Term.le (Term.int_var x) (Term.int k);
            if_true = conv l;
            if_false = conv r;
          }
    | Lia.P_split (i, l, r) ->
        let le1, ge1 = neq_terms i in
        Proof.Split_neq
          { neq = provs.(i); le1; ge1; left = conv l; right = conv r }
  in
  try Some (conv p) with Fail -> None

(* Decide a conjunction of theory atoms, consulting the memo table.
   The conjunction is always solved in canonical (sorted+deduped
   [Linear.key]) order, so the model returned for a given atom set is
   independent of assertion order and of which code path asked. The
   memo key is the sorted set of the atoms' ids. Returns the answer
   (a Sat model binds the integer variables only) plus, for Unsat, a
   certificate anchored at this call's own source literals. A hit that
   cites the same literals as the entry's last anchoring gets that same
   tree back, and a Sat hit its entry's model: equal certificates are
   then physically equal, which is what makes a [validate] hit cheap.
   A [Cache_corrupt] fault poisons the table entry itself on a hit: the
   corrupted answer keeps being replayed until certificate validation
   rejects it. *)
let lia_check_cached (atoms : atom_lit list) : result * Proof.tree option =
  let by_id = List.sort_uniq (fun a b -> Int.compare a.id b.id) atoms in
  let ids = List.map (fun a -> a.id) by_id in
  let answer e =
    match e.result with
    | Lia.Sat m ->
        let model =
          match e.model with
          | Some model -> model
          | None ->
              let model = model_of_lia_model m [] in
              e.model <- Some model;
              model
        in
        (Sat model, None)
    | Lia.Unknown -> (Unknown, None)
    | Lia.Unsat -> (
        match e.proof with
        | None -> (Unsat, None)
        | Some p ->
            let by_id = Array.of_list by_id in
            let lits = Array.map (fun j -> by_id.(j)) e.perm in
            let tree =
              match e.anchored with
              | Some (lits', tree) when Array.for_all2 ( == ) lits lits' -> tree
              | _ ->
                  let tree =
                    tree_of_lia_proof
                      (Array.map (fun a -> a.atom) lits)
                      (Array.map (fun a -> a.src) lits)
                      p
                  in
                  e.anchored <- Some (lits, tree);
                  tree
            in
            (Unsat, tree))
  in
  match Lia_memo.find_opt lia_memo ids with
  | Some e ->
      M.incr c_cache_hits;
      let e =
        if Faultinject.fire Faultinject.Cache_corrupt then begin
          let poisoned =
            match e.result with
            | Lia.Sat _ -> { e with result = Lia.Unsat }
            | Lia.Unsat | Lia.Unknown ->
                { e with result = Lia.Sat Lia.String_map.empty; proof = None }
          in
          Lia_memo.replace lia_memo ids poisoned;
          poisoned
        end
        else e
      in
      answer e
  | None -> (
      M.incr c_cache_misses;
      let lits =
        Array.of_list (List.sort_uniq (fun a b -> compare a.key b.key) atoms)
      in
      let canon_atoms = Array.map (fun a -> a.atom) lits in
      let provs = Array.map (fun a -> a.src) lits in
      (* In-memory miss: consult the persistent store, keyed by the
         canonical source-literal terms (the key IS the query, so a
         stored certificate is term-level and already anchored). The
         in-memory table holds index-based LIA proofs, so store hits
         are not inserted here; the store's own domain-local memo makes
         repeats cheap. *)
      let term_key = Array.to_list provs in
      let stored =
        match persist_installed () with
        | None -> None
        | Some ps -> (
            match ps.p_lookup term_key with
            | Some (Sat m, _) ->
                let lm =
                  List.fold_left
                    (fun acc (name, v) ->
                      match (v : Term.value) with
                      | Term.VInt n -> Lia.String_map.add name n acc
                      | Term.VBool _ -> acc)
                    Lia.String_map.empty (Model.bindings m)
                in
                Some (Sat (model_of_lia_model lm []), None)
            | Some (Unsat, Some (Proof.Unsat_witness tree)) ->
                Some (Unsat, Some tree)
            | Some _ | None -> None)
      in
      match stored with
      | Some rt -> rt
      | None ->
          let result, proof =
            match Lia.check_cert (Array.to_list canon_atoms) with
            | Lia.Csat m -> (Lia.Sat m, None)
            | Lia.Cunsat p -> (Lia.Unsat, p)
            | Lia.Cunknown -> (Lia.Unknown, None)
          in
          let position = List.mapi (fun j id -> (id, j)) ids in
          let tree = Option.bind proof (tree_of_lia_proof canon_atoms provs) in
          let e =
            {
              result;
              proof;
              perm = Array.map (fun a -> List.assoc a.id position) lits;
              model = None;
              anchored = Some (lits, tree);
            }
          in
          let r, tree =
            match result with Lia.Unsat -> (Unsat, tree) | _ -> answer e
          in
          (match result with
          | Lia.Unknown -> ()
          | _ -> Lia_memo.add lia_memo ids e);
          (match persist_installed () with
          | None -> ()
          | Some ps -> (
              match (r, tree) with
              | Sat model, _ ->
                  ps.p_save term_key (Sat model, Some (Proof.Model_witness model))
              | Unsat, Some t -> ps.p_save term_key (Unsat, Some (Proof.Unsat_witness t))
              | Unsat, None | Unknown, _ -> ()));
          (r, tree))

(* Contradictory boolean literals? *)
let contradictory_bools bools =
  List.exists
    (fun (name, pos) -> List.exists (fun (n, p) -> n = name && p <> pos) bools)
    bools

(* Certificate for a contradictory boolean literal pair: splitting on
   the variable closes both branches propositionally. *)
let bool_contradiction_cert bools =
  let name, _ =
    List.find
      (fun (name, pos) -> List.exists (fun (n, p) -> n = name && p <> pos) bools)
      bools
  in
  Proof.Unsat_witness
    (Proof.Split
       {
         atom = Term.bool_var name;
         if_true = Proof.Bool_leaf;
         if_false = Proof.Bool_leaf;
       })

(* Decide a conjunction of literals: the boolean ones, then the theory
   atoms. *)
let decide_literals (atoms : atom_lit list) bools : result * Proof.t option =
  if contradictory_bools bools then
    (Unsat, Some (bool_contradiction_cert bools))
  else
    match lia_check_cached atoms with
    | Sat m, _ ->
        let model =
          List.fold_left
            (fun acc (name, positive) -> Model.add_bool name positive acc)
            m bools
        in
        (Sat model, Some (Proof.Model_witness model))
    | Unsat, tree -> (Unsat, Option.map (fun t -> Proof.Unsat_witness t) tree)
    | Unknown, _ -> (Unknown, None)

let fast_cert (ans : analysis list) : (result * Proof.t option) option =
  if not (List.for_all (fun a -> a.conj) ans) then None
  else begin
    M.incr c_fast_path;
    Some (decide_literals (atoms_of ans) (bools_of ans))
  end

let c_presolve_pruned = M.counter "presolve.pruned"

(* Hard backstop for the refutation loop when no budget is in scope.
   With a budget, the solver-steps limit governs the loop instead:
   every re-iteration charges [Budget.tick_solver], so `--solver-steps`
   caps DPLL(T) refinement and a cap hit surfaces as the
   machine-readable [Budget.Solver_steps_exhausted] Inconclusive
   reason rather than a bare Unknown. *)
let max_dpllt_iterations = 100_000

(* The linear atoms among the top-level *unit* conjuncts of [t] — the
   part of a general-boolean query that holds unconditionally, which is
   what presolve may propagate from. *)
let unit_atoms_of (t : Term.t) : Linear.atom list =
  let conjs = match t with Term.And ts -> ts | t -> [ t ] in
  List.concat_map
    (fun c ->
      match literals_of_conjunction_src [ c ] with
      | atoms, _ -> List.map fst atoms
      | exception Not_conjunctive -> []
      | exception Linear.Nonlinear _ -> [])
    conjs

(* The DPLL(T) refutation loop. The default discipline runs presolve
   (interval bound propagation + gcd coefficient tightening over the
   query's unit literal conjuncts, [Lia.presolve]) before the SAT core
   is built — a refuted box answers Unsat with zero iterations, a
   feasible one seeds entailed theory atoms as unit clauses — and learns
   each theory conflict core in one persistent CDCL solver. [~legacy]
   is the reference discipline the tests and the solver fuzzer compare
   against: no presolve, and every theory refutation blocks the *full*
   assignment and restarts the SAT search from scratch. *)
let dpllt ~legacy (t : Term.t) : result =
  match Cnf.of_term t with
  | exception Linear.Nonlinear _ -> Unknown
  | cnf -> (
      let presolved =
        if legacy then None
        else
          match unit_atoms_of t with
          | [] -> None
          | units -> Some (Lia.presolve units)
      in
      match presolved with
      | Some (Lia.Punsat _) ->
          (* The unit conjuncts alone are contradictory — certified by
             [Lia.check_cert] on the support core inside presolve, and
             re-derived independently by [certify_unsat_general] before
             this answer is served. The SAT core is never built. *)
          M.incr c_presolve_pruned;
          Unsat
      | None | Some (Lia.Pfeasible _) ->
          let box =
            match presolved with Some (Lia.Pfeasible b) -> Some b | _ -> None
          in
          let learning = not legacy in
          (* Theory atoms entailed one way or the other by the unit
             conjuncts' bound box become unit clauses seeding the
             trail: sound because the unit conjuncts are part of the
             formula, and cheap because the box is already computed. *)
          let seed_units sat =
            match box with
            | None -> ()
            | Some box ->
                List.iter
                  (fun (v, kind) ->
                    match kind with
                    | Cnf.Bool_atom _ -> ()
                    | Cnf.Theory_atom term -> (
                        match Linear.atom_of_term term with
                        | Some atom -> (
                            match Lia.entailed box atom with
                            | Some true -> Sat.add_clause sat [ v ]
                            | Some false -> Sat.add_clause sat [ -v ]
                            | None -> ())
                        | None -> ()
                        | exception Linear.Nonlinear _ -> ()))
                  cnf.Cnf.atoms
          in
          let fresh_sat extra =
            let sat = Sat.create ~nvars:cnf.Cnf.nvars cnf.Cnf.clauses in
            seed_units sat;
            List.iter (Sat.add_clause sat) extra;
            sat
          in
          (* Blocking clauses accumulated for legacy scratch re-solves
             (learning off); unused when the persistent core learns. *)
          let blocked = ref [] in
          let rec loop n sat =
            if n > max_dpllt_iterations then Unknown
            else begin
              (* A divergent refutation loop must honor the budget:
                 each re-iteration is a solver step (and tick_solver
                 checks the deadline), so a runaway refinement is cut
                 off with a machine-readable reason. *)
              (match !(current_budget ()) with
              | Some b -> if n = 0 then Budget.check_deadline b else Budget.tick_solver b
              | None -> ());
              M.incr c_dpllt_iterations;
              match Sat.solve sat with
              | Sat.Unsat ->
                  (* Trust the SAT-level Unsat only once every learned
                     clause's resolution chain — and the empty clause's
                     final derivation — replays against the clause
                     store. A tampered clause (Conflict_corrupt) fails
                     here and the answer degrades, never flips. *)
                  if Sat.validate sat then Unsat
                  else begin
                    M.incr c_cert_failures;
                    Trace.event "cert.invalid"
                      ~attrs:
                        [ ("reason", "learned-clause chain replay failed") ];
                    Unknown
                  end
              | Sat.Sat assignment -> (
                  (* Gather theory literals implied by this assignment. *)
                  let theory_lits = ref [] and bools = ref [] in
                  List.iter
                    (fun (v, kind) ->
                      match kind with
                      | Cnf.Bool_atom name ->
                          if name <> "$true" then
                            bools := (name, assignment.(v)) :: !bools
                      | Cnf.Theory_atom term -> (
                          match Linear.atom_of_term term with
                          | Some atom ->
                              let atom =
                                if assignment.(v) then atom
                                else Linear.negate_atom atom
                              in
                              theory_lits := (v, assignment.(v), atom) :: !theory_lits
                          | None -> Term.sort_error "solver: non-linear theory atom"))
                    cnf.Cnf.atoms;
                  let atoms = List.map (fun (_, _, a) -> a) !theory_lits in
                  match Lia.check_cert atoms with
                  | Lia.Csat m -> Sat (model_of_lia_model m !bools)
                  | Lia.Cunknown -> Unknown
                  | Lia.Cunsat proof ->
                      (* Block the theory conflict *core* — the atoms
                         the refutation proof actually cites — so one
                         theory conflict prunes every assignment that
                         shares it, not just this one. Falls back to
                         the full assignment when no core is available
                         (or learning is off). *)
                      let full_blocking () =
                        List.map
                          (fun (v, value, _) -> if value then -v else v)
                          !theory_lits
                      in
                      let blocking =
                        match
                          if learning then Option.map Lia.proof_atoms proof
                          else None
                        with
                        | Some (_ :: _ as core) ->
                            let arr = Array.of_list !theory_lits in
                            List.map
                              (fun i ->
                                let v, value, _ = arr.(i) in
                                if value then -v else v)
                              core
                        | Some [] | None -> full_blocking ()
                      in
                      if blocking = [] then Unsat
                      else if learning then begin
                        (* Persistent core: the theory lemma is learned
                           in place, the search resumes with its trail
                           and learned clauses intact. *)
                        Sat.add_clause sat blocking;
                        loop (n + 1) sat
                      end
                      else begin
                        blocked := blocking :: !blocked;
                        loop (n + 1) (fresh_sat (List.rev !blocked))
                      end)
            end
          in
          loop 0 (fresh_sat []))

let check_dpllt t = dpllt ~legacy:false t
let check_dpllt_reference t = dpllt ~legacy:true t

(* Certifying re-derivation of a general-path Unsat answer as a split
   tree — the SAT-level "resolution skeleton". Rather than instrument
   the DPLL core with clause-resolution bookkeeping, the (rare)
   general-path Unsat is re-derived semantically: split on an atom
   occurring in the residual formula, partial-evaluate under the
   context, close branches propositionally ([Bool_leaf], the residual
   folded to False) or by the theory (a Farkas subtree from
   [Lia.check_cert] on the context's theory atoms). A decision tree of
   this shape is exactly a regular tree-resolution refutation, and the
   checker needs only term evaluation plus linear arithmetic to accept
   it. Returns None when the re-derivation exceeds its node budget,
   meets nonlinear structure, or — crucially — discovers the Unsat
   answer was wrong (the residual empties with satisfiable theory
   atoms); callers treat None as a failed certification, never as
   license to trust. *)
let max_cert_nodes = 20_000

let certify_unsat_general (ts : Term.t list) : Proof.tree option =
  let exception Give_up in
  let ctx : (Term.t, bool) Hashtbl.t = Hashtbl.create 64 in
  let lookup t = Hashtbl.find_opt ctx t in
  let of_bool b = if b then Term.True else Term.False in
  (* Partial evaluation under [ctx], reusing the smart constructors so
     the folds agree with what the independent checker can reproduce. *)
  let rec simp (t : Term.t) : Term.t =
    match lookup t with
    | Some b -> of_bool b
    | None -> (
        match t with
        | Term.True | Term.False | Term.Int_const _ | Term.Var _ -> t
        | Term.Not a -> Term.not_ (simp a)
        | Term.And l -> Term.and_ (List.map simp l)
        | Term.Or l -> Term.or_ (List.map simp l)
        | Term.Implies (a, b) -> Term.implies (simp a) (simp b)
        | Term.Iff (a, b) -> Term.iff (simp a) (simp b)
        | Term.Ite (c, a, b) -> Term.ite (simp c) (simp a) (simp b)
        | Term.Add l -> Term.add (List.map simp l)
        | Term.Sub (a, b) -> Term.sub (simp a) (simp b)
        | Term.Neg a -> Term.neg (simp a)
        | Term.Mul_const (k, a) -> Term.mul_const k (simp a)
        | Term.Eq (a, b) -> relook (Term.eq (simp a) (simp b))
        | Term.Le (a, b) -> relook (Term.le (simp a) (simp b))
        | Term.Lt (a, b) -> relook (Term.lt (simp a) (simp b)))
  and relook t = match lookup t with Some b -> of_bool b | None -> t in
  (* Pick a splittable atom from a (simplified) term: a boolean variable
     or a linear comparison. *)
  let rec pick (t : Term.t) : Term.t option =
    match t with
    | Term.True | Term.False | Term.Int_const _ -> None
    | Term.Var v -> if v.Term.sort = Term.Bool then Some t else None
    | Term.Not a | Term.Neg a | Term.Mul_const (_, a) -> pick a
    | Term.And l | Term.Or l | Term.Add l -> List.find_map pick l
    | Term.Implies (a, b) | Term.Sub (a, b) -> List.find_map pick [ a; b ]
    | Term.Iff (a, b) -> List.find_map pick [ a; b ]
    | Term.Ite (c, a, b) -> List.find_map pick [ c; a; b ]
    | (Term.Eq (a, b) | Term.Le (a, b) | Term.Lt (a, b)) as cmp -> (
        match Linear.atom_of_term cmp with
        | Some _ -> Some cmp
        | None -> List.find_map pick [ a; b ]
        | exception Linear.Nonlinear _ -> List.find_map pick [ a; b ])
  in
  (* Every input term folded to True under the context: the leaf is
     closed by the theory, or the original answer was wrong. *)
  let theory_leaf () : Proof.tree =
    let atoms =
      Hashtbl.fold
        (fun t b acc ->
          match t with
          | Term.Var { Term.sort = Term.Bool; _ } -> acc
          | _ -> (
              match Linear.atom_of_term t with
              | Some a ->
                  ( (if b then a else Linear.negate_atom a),
                    if b then t else Term.not_ t )
                  :: acc
              | None -> raise Give_up
              | exception Linear.Nonlinear _ -> raise Give_up))
        ctx []
    in
    let keyed =
      List.map (fun ((a, _) as p) -> (Linear.key_of_atom a, p)) atoms
    in
    let keyed = List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2) keyed in
    let canon_atoms = Array.of_list (List.map (fun (_, (a, _)) -> a) keyed) in
    let provs = Array.of_list (List.map (fun (_, (_, src)) -> src) keyed) in
    match Lia.check_cert (Array.to_list canon_atoms) with
    | Lia.Cunsat (Some p) -> (
        match tree_of_lia_proof canon_atoms provs p with
        | Some t -> t
        | None -> raise Give_up)
    | _ -> raise Give_up
  in
  let nodes = ref 0 in
  let rec solve (residual : Term.t list) : Proof.tree =
    incr nodes;
    if !nodes > max_cert_nodes then raise Give_up;
    let residual = List.map simp residual in
    if List.exists (function Term.False -> true | _ -> false) residual then
      Proof.Bool_leaf
    else
      let residual =
        List.filter (function Term.True -> false | _ -> true) residual
      in
      match residual with
      | [] -> theory_leaf ()
      | ts -> (
          match List.find_map pick ts with
          | None -> raise Give_up
          | Some atom ->
              Hashtbl.replace ctx atom true;
              let if_true = solve ts in
              Hashtbl.replace ctx atom false;
              let if_false = solve ts in
              Hashtbl.remove ctx atom;
              Proof.Split { atom; if_true; if_false })
  in
  try Some (solve ts) with Give_up -> None

(* Certificate production for the general path is worth its cost only
   when someone will check the result: gate it on an installed
   validator. *)
let want_cert () = Proof.validator () <> None

(* The general path, memoized on the sorted+deduped term list. Solving
   happens on the canonical order so a cached model is a pure function
   of the key. Certificates are cached alongside results; a
   [Cache_corrupt] fault poisons the stored entry on a hit (the
   corrupted pair keeps being replayed until validation rejects it). *)
let check_dpllt_cert (ts : Term.t list) : result * Proof.t option =
  let with_cert key r =
    match r with
    | Sat m -> (r, Some (Proof.Model_witness m))
    | Unsat when want_cert () ->
        ( r,
          Option.map
            (fun t -> Proof.Unsat_witness t)
            (certify_unsat_general key) )
    | Unsat | Unknown -> (r, None)
  in
  let key = List.sort_uniq compare ts in
  match Full_memo.find_opt full_memo key with
  | Some (r, p) ->
      M.incr c_cache_hits;
      if Faultinject.fire Faultinject.Cache_corrupt then begin
        let poisoned =
          match r with
          | Sat _ -> (Unsat, p)
          | Unsat | Unknown -> (Sat Model.empty, None)
        in
        Full_memo.replace full_memo key poisoned;
        poisoned
      end
      else (r, p)
  | None ->
      M.incr c_cache_misses;
      (* In-memory miss: consult the persistent store first. The key
         is the canonical term list, so stored certificates are
         term-level; a served answer is inserted into the in-memory
         table like a fresh one (and still passes [validate] on the
         way out). *)
      let served, rp =
        match persist_installed () with
        | None -> (false, None)
        | Some ps -> (
            match ps.p_lookup key with
            | Some rp -> (true, Some rp)
            | None -> (false, None))
      in
      let rp =
        match rp with
        | Some rp -> rp
        | None -> with_cert key (check_dpllt (Term.and_ key))
      in
      (match fst rp with
      | Unknown -> ()
      | _ ->
          Full_memo.add full_memo key rp;
          if not served then
            match persist_installed () with
            | None -> ()
            | Some ps -> ps.p_save key rp);
      rp

(* Shared per-query prologue: charge the budget in scope and give the
   fault plan its arrival. Returns [true] when an Unknown answer was
   injected. Both [check] and the incremental stack route through this,
   so a feasibility query costs exactly one budget tick and one fault
   arrival regardless of how it is answered. *)
let begin_check () : bool =
  M.incr c_checks;
  (match !(current_budget ()) with
  | Some b -> Budget.tick_solver b
  | None -> ());
  Faultinject.fire Faultinject.Solver_unknown

let record_result (r : result) : result =
  (match r with Unknown -> M.incr c_unknowns | _ -> ());
  r

(* Gatekeeper: a Sat/Unsat answer leaves the solver only after its
   certificate checks out against the installed validator. An answer
   that cannot be justified — missing certificate, wrong witness kind,
   or a validator rejection — degrades to Unknown and is counted, so a
   corrupted memo entry or a buggy proof emitter can lose a verdict but
   never flip one. With no validator installed this is the identity on
   the result.

   The checker is a pure function of (terms, result, certificate), so
   a triple the installed validator has accepted is not checked again
   ([checked]); [hash] is [hash_terms] of the analyses of [ts]. A
   poisoned memo entry carries another result or certificate, so it is
   checked afresh. *)
let gate ~hash (ts : Term.t list) ((r, cert) : result * Proof.t option) :
    result =
  match Proof.validator () with
  | None -> r
  | Some v -> (
      match r with
      | Unknown -> r
      | Sat _ | Unsat -> (
          let key =
            {
              v_ts = ts;
              v_hash = (hash * 3) + (match r with Sat _ -> 1 | _ -> 2);
              v_result = r;
              v_cert = cert;
            }
          in
          match Checked_memo.find_opt checked key with
          | Some v' when v' == v -> r
          | seen -> (
              M.incr c_cert_checks;
              let verdict =
                timed h_cert_seconds @@ fun () ->
                match (r, cert) with
                | Sat m, _ -> v.Proof.validate_sat ts m
                | Unsat, Some (Proof.Unsat_witness tree) ->
                    v.Proof.validate_unsat ts tree
                | Unsat, Some (Proof.Model_witness _) ->
                    Proof.Invalid "unsat answer carries a model certificate"
                | Unsat, None -> Proof.Invalid "missing certificate"
                | Unknown, _ -> assert false
              in
              match verdict with
              | Proof.Valid ->
                  (match seen with
                  | None -> Checked_memo.add checked key v
                  | Some _ -> Checked_memo.replace checked key v);
                  r
              | Proof.Invalid why ->
                  M.incr c_cert_failures;
                  Trace.event "cert.invalid" ~attrs:[ ("reason", why) ];
                  Unknown)))

let validate (ts : Term.t list) (rc : result * Proof.t option) : result =
  gate ~hash:(hash_terms (List.map analyze ts)) ts rc

(* What [Term.and_ ts] folds to, without building it. *)
let fold_conjunction (ts : Term.t list) : [ `True | `False | `Other ] =
  List.iter (Term.check_bool "and") ts;
  let n = ref 0 and all_true = ref true and some_false = ref false in
  let see (t : Term.t) =
    incr n;
    match t with
    | Term.True -> ()
    | Term.False -> some_false := true
    | _ -> all_true := false
  in
  List.iter
    (function Term.And xs -> List.iter see xs | Term.True -> () | t -> see t)
    ts;
  if !some_false then `False
  else if !n = 0 || (!n = 1 && !all_true) then `True
  else `Other

(* [ans] are the analyses of [ts]. *)
let core_cert (ts : Term.t list) (ans : analysis list) :
    result * Proof.t option =
  match fold_conjunction ts with
  | `True -> (Sat Model.empty, Some (Proof.Model_witness Model.empty))
  | `False -> (Unsat, Some (Proof.Unsat_witness Proof.Bool_leaf))
  | `Other -> (
      match fast_cert ans with
      | Some rc -> rc
      | None -> check_dpllt_cert ts)

let check_core_cert (ts : Term.t list) = core_cert ts (List.map analyze ts)

(* Decide satisfiability of the conjunction of [ts]. Charges the budget
   in scope and records Unknown answers — including injected ones — so
   callers can refuse to call an Unknown-dependent check a proof. *)
let check (ts : Term.t list) : result =
  let r =
    if begin_check () then Unknown
    else begin
      M.incr c_scratch_checks;
      timed h_check_seconds (fun () ->
          let ans = List.map analyze ts in
          gate ~hash:(hash_terms ans) ts (core_cert ts ans))
    end
  in
  record_result r

let is_sat ts = match check ts with Sat _ -> true | Unsat | Unknown -> false
let is_unsat ts = match check ts with Unsat -> true | Sat _ | Unknown -> false

type entailment = Valid | Counterexample of Model.t | Unknown_validity

(* hyps ⊢ goal  iff  hyps ∧ ¬goal is unsatisfiable. *)
let entails ~hyps goal =
  match check (Term.not_ goal :: hyps) with
  | Unsat -> Valid
  | Sat m -> Counterexample m
  | Unknown -> Unknown_validity

(* ------------------------------------------------------------------ *)
(* Incremental assertion stack                                        *)
(* ------------------------------------------------------------------ *)

module Incremental = struct
  (* A stack of frames mirroring a path condition, one frame per
     literal. Each frame holds the analysis of its literal (theory atoms
     with their ids, boolean literals), so extending the path by one
     branch decision analyzes at most one new literal, and the hash of
     the term list it heads. Frames also remember refuted prefixes:
     once a level is Unsat, every extension is answered Unsat without
     touching the theory solver.

     [node] is the path-condition cons cell this frame mirrors (see
     [check_pc]): [node = term :: next.node] for the frame below. *)
  type frame = {
    node : Term.t list;
    depth : int; (* [List.length node] *)
    an : analysis; (* of [List.hd node] *)
    hash : int; (* [hash_terms] of [node] *)
    nonconj : bool; (* some literal at or below is not a literal conjunction *)
    mutable unsat : bool; (* the stack up to this frame is refuted *)
    mutable unsat_cert : Proof.t option; (* certificate for the refutation *)
  }

  type t = { mutable frames : frame list (* newest first *) }

  let create () = { frames = [] }

  let push (s : t) (node : Term.t list) (term : Term.t) =
    let an = analyze term in
    let depth, hash, nonconj =
      match s.frames with
      | [] -> (1, hash_cons an hash_nil, not an.conj)
      | f :: _ -> (f.depth + 1, hash_cons an f.hash, f.nonconj || not an.conj)
    in
    s.frames <-
      { node; depth; an; hash; nonconj; unsat = false; unsat_cert = None }
      :: s.frames

  (* Answer Unsat for the whole stack, remembering the refutation on the
     newest frame only once its certificate has validated. A certificate
     the checker rejects degrades this answer to Unknown, and it must not
     also short-circuit every extension: a longer stack may hold a
     refutation that does check out, which a monolithic [check] of the
     same conjunction would find. *)
  let refute (s : t) validate cert : result =
    match validate (Unsat, cert) with
    | Unsat ->
        (match s.frames with
        | [] -> ()
        | f :: _ ->
            f.unsat <- true;
            f.unsat_cert <- cert);
        Unsat
    | r -> r

  let solve (s : t) : result =
    let r =
      if begin_check () then Unknown
      else
        timed h_check_seconds @@ fun () ->
        let ts, hash =
          match s.frames with [] -> ([], hash_nil) | f :: _ -> (f.node, f.hash)
        in
        let validate = gate ~hash ts in
        match List.find_opt (fun f -> f.unsat) s.frames with
        | Some f ->
            (* A refuted prefix stays refuted under any extension — but
               the stored certificate is re-validated against the full
               current stack, so a poisoned short-circuit cannot outlive
               one validation. *)
            M.incr c_incremental_checks;
            validate (Unsat, f.unsat_cert)
        | None -> (
            match s.frames with
            | f :: _ when f.nonconj ->
                (* General boolean structure somewhere on the stack: fall
                   back to the monolithic (but still memoized) pipeline. *)
                M.incr c_scratch_checks;
                validate (core_cert ts (List.map (fun f -> f.an) s.frames))
            | _ -> (
                M.incr c_incremental_checks;
                M.incr c_fast_path;
                (* Newest frame's literals first. The order decides
                   which of two literals with one atom a fresh
                   certificate cites, and so a stored answer's key. *)
                let atoms = List.concat_map (fun f -> f.an.atoms) s.frames in
                let bools = List.concat_map (fun f -> f.an.bools) s.frames in
                match decide_literals atoms bools with
                | Unsat, cert -> refute s validate cert
                | rc -> validate rc))
    in
    record_result r

  (* Decide the satisfiability of path condition [pc] (a cons list,
     newest literal first), syncing the stack to it first. Frames are
     keyed by the physical identity of the pc cons cells: the symbolic
     executor extends path conditions by consing, so sibling branches
     and parent paths share tails physically, and every shared literal's
     analysis is reused. One frame per literal, so backtracking to any
     shared prefix keeps the whole prefix warm. A literal that reaches
     the stack in a fresh cons cell (a copied prefix) is analyzed once
     all the same: [analyze] is memoized on the term. *)
  let check_pc (s : t) (pc : Term.t list) : result =
    let depth = List.length pc in
    M.observe h_pc_depth (float_of_int depth);
    (* Keep the newest frame that mirrors a tail of [pc], and every
       frame below it. [l] is the tail of [pc] of length [d]; frames
       are newest (deepest) first. *)
    let rec sync frames l d =
      match frames with
      | [] -> []
      | f :: rest ->
          if f.depth > d then sync rest l d
          else if f.depth < d then sync frames (List.tl l) (d - 1)
          else if f.node == l then frames
          else sync rest (List.tl l) (d - 1)
    in
    s.frames <- sync s.frames pc depth;
    let synced = match s.frames with [] -> [] | f :: _ -> f.node in
    let rec extend l =
      if l == synced then ()
      else
        match l with
        | [] -> ()
        | term :: tl ->
            extend tl;
            push s l term
    in
    extend pc;
    solve s

  let entails (s : t) ~hyps goal =
    match check_pc s (Term.not_ goal :: hyps) with
    | Unsat -> Valid
    | Sat m -> Counterexample m
    | Unknown -> Unknown_validity
end
