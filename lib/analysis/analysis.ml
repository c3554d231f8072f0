(* Forward abstract interpretation over Minir CFGs.

   A classic worklist fixpoint (join at block entry, widening after
   repeated updates) instantiated with a product domain:

   - intervals for I64 registers and stack slots,
   - nullness for pointers,
   - tribools for I1,
   - definite-initialization (must-store) for stack slots.

   The input is assumed well-formed ([Minir.Wellform.check]): every
   register has exactly one static assignment, which makes the def map
   a function and lets branch refinement walk a condition's defining
   expression (through [Not], [And_]/[Or_] and [Icmp]) to tighten the
   operands' abstract values on each outgoing edge.

   Stack slots (registers assigned by [Alloca]) are tracked only while
   they cannot alias: a slot whose register is used anywhere other than
   as the pointer operand of a [Load]/[Store] escapes and is dropped
   from the slot environment. Loads from tracked slots additionally
   record *provenance* (register r was loaded from slot s, still
   valid), so a branch refining r — `for cur != nil { cur.down }` —
   also refines what the slot must hold, which is what discharges the
   nil checks the frontend re-emits inside the loop body.

   Everything here is consumed three ways: [Lint] (below) reports
   findings per function; [branch_fact] hands the symbolic executor
   statically-dead edges so it can skip the solver; the soundness test
   replays concrete interpreter runs against [check_concrete]. *)

module Instr = Minir.Instr
module Ty = Minir.Ty
module Value = Minir.Value
module Callgraph = Minir.Callgraph

(* How the symbolic executor treats the analysis:
   [Off] — never consulted; [Trust] — statically-dead edges are pruned
   without calling the solver; [Distrust] — every solver call is still
   made and each static claim is cross-checked against the certified
   answer (the chaos/soak configuration: degrade, never flip). *)
type policy = Off | Trust | Distrust

let policy_to_string = function
  | Off -> "off"
  | Trust -> "trust"
  | Distrust -> "distrust"

let policy_of_string = function
  | "off" -> Some Off
  | "trust" -> Some Trust
  | "distrust" -> Some Distrust
  | _ -> None

let m_functions = Trace.Metrics.counter "analysis.functions"

(* ------------------------------------------------------------------ *)
(* Domains                                                            *)
(* ------------------------------------------------------------------ *)

module Interval = struct
  (* [I (lo, hi)]; [None] is the infinite bound on that side. *)
  type t = Bot | I of int option * int option

  let top = I (None, None)
  let of_int n = I (Some n, Some n)

  let norm lo hi =
    match (lo, hi) with Some l, Some h when l > h -> Bot | _ -> I (lo, hi)

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | I (l1, h1), I (l2, h2) ->
        I
          ( (match (l1, l2) with
            | Some a, Some b -> Some (min a b)
            | _ -> None),
            match (h1, h2) with Some a, Some b -> Some (max a b) | _ -> None )

  let meet a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | I (l1, h1), I (l2, h2) ->
        norm
          (match (l1, l2) with
          | Some a, Some b -> Some (max a b)
          | Some a, None | None, Some a -> Some a
          | None, None -> None)
          (match (h1, h2) with
          | Some a, Some b -> Some (min a b)
          | Some a, None | None, Some a -> Some a
          | None, None -> None)

  (* [widen old next] with [next ⊒ old]: any bound still moving goes to
     its infinity, so chains stabilize. *)
  let widen old next =
    match (old, next) with
    | Bot, x | x, Bot -> x
    | I (l1, h1), I (l2, h2) ->
        (* A bound still moving (including to infinity) goes to its
           infinity; only a bound that stayed put survives. *)
        I
          ( (match (l1, l2) with
            | Some a, Some b when b >= a -> Some a
            | _ -> None),
            match (h1, h2) with
            | Some a, Some b when b <= a -> Some a
            | _ -> None )

  let add a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | I (l1, h1), I (l2, h2) ->
        I
          ( (match (l1, l2) with Some x, Some y -> Some (x + y) | _ -> None),
            match (h1, h2) with Some x, Some y -> Some (x + y) | _ -> None )

  let neg = function
    | Bot -> Bot
    | I (l, h) -> I (Option.map (fun x -> -x) h, Option.map (fun x -> -x) l)

  let sub a b = add a (neg b)

  let mul_const k = function
    | Bot -> Bot
    | I (l, h) ->
        if k = 0 then of_int 0
        else if k > 0 then
          I (Option.map (fun x -> k * x) l, Option.map (fun x -> k * x) h)
        else I (Option.map (fun x -> k * x) h, Option.map (fun x -> k * x) l)

  let mul a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | I (Some k, Some k'), i when k = k' -> mul_const k i
    | i, I (Some k, Some k') when k = k' -> mul_const k i
    | _ -> top

  let mem n = function
    | Bot -> false
    | I (l, h) ->
        (match l with None -> true | Some x -> n >= x)
        && (match h with None -> true | Some x -> n <= x)

  let finite = function I (Some _, Some _) -> true | _ -> false
  let is_singleton = function I (Some a, Some b) -> a = b | _ -> false

  (* Refinements under an assumed strict/loose order between two
     intervals: [(a', b')] such that any (x ∈ a, y ∈ b) with x R y has
     x ∈ a' and y ∈ b'. *)
  let below ~strict = function
    | Bot -> Bot
    | I (_, None) -> top
    | I (_, Some h) -> I (None, Some (if strict then h - 1 else h))

  let above ~strict = function
    | Bot -> Bot
    | I (None, _) -> top
    | I (Some l, _) -> I (Some (if strict then l + 1 else l), None)

  (* Drop a known-excluded endpoint: a ≠ b with b the singleton {k}. *)
  let remove_point a b =
    match (a, b) with
    | I (Some l, h), I (Some k, Some k') when k = k' && l = k ->
        norm (Some (l + 1)) h
    | I (l, Some h), I (Some k, Some k') when k = k' && h = k ->
        norm l (Some (h - 1))
    | _ -> a

  let pp fmt = function
    | Bot -> Format.fprintf fmt "⊥"
    | I (l, h) ->
        Format.fprintf fmt "[%s,%s]"
          (match l with None -> "-inf" | Some x -> string_of_int x)
          (match h with None -> "+inf" | Some x -> string_of_int x)
end

module Tribool = struct
  type t = TBot | TT | TF | TTop

  let of_bool b = if b then TT else TF

  let join a b =
    match (a, b) with
    | TBot, x | x, TBot -> x
    | TT, TT -> TT
    | TF, TF -> TF
    | _ -> TTop

  let meet a b =
    match (a, b) with
    | TTop, x | x, TTop -> x
    | TT, TT -> TT
    | TF, TF -> TF
    | _ -> TBot

  let not_ = function TBot -> TBot | TT -> TF | TF -> TT | TTop -> TTop

  let and_ a b =
    match (a, b) with
    | TBot, _ | _, TBot -> TBot
    | TF, _ | _, TF -> TF
    | TT, TT -> TT
    | _ -> TTop

  let or_ a b = not_ (and_ (not_ a) (not_ b))

  let pp fmt t =
    Format.pp_print_string fmt
      (match t with TBot -> "⊥" | TT -> "true" | TF -> "false" | TTop -> "⊤")
end

module Nullness = struct
  type t = NBot | NNull | NNot | NTop

  let join a b =
    match (a, b) with
    | NBot, x | x, NBot -> x
    | NNull, NNull -> NNull
    | NNot, NNot -> NNot
    | _ -> NTop

  let meet a b =
    match (a, b) with
    | NTop, x | x, NTop -> x
    | NNull, NNull -> NNull
    | NNot, NNot -> NNot
    | _ -> NBot

  let pp fmt t =
    Format.pp_print_string fmt
      (match t with
      | NBot -> "⊥"
      | NNull -> "nil"
      | NNot -> "non-nil"
      | NTop -> "⊤")
end

(* The product value: one constructor per Minir register sort. [ATop]
   is the unknown-sort top (e.g. an unassigned register). *)
type aval =
  | AInt of Interval.t
  | ABool of Tribool.t
  | APtr of Nullness.t
  | ATop

let a_join a b =
  match (a, b) with
  | ATop, _ | _, ATop -> ATop
  | AInt x, AInt y -> AInt (Interval.join x y)
  | ABool x, ABool y -> ABool (Tribool.join x y)
  | APtr x, APtr y -> APtr (Nullness.join x y)
  | _ -> ATop

let a_widen old next =
  match (old, next) with
  | AInt x, AInt y -> AInt (Interval.widen x y)
  | _ -> a_join old next

let a_is_bot = function
  | AInt Interval.Bot | ABool Tribool.TBot | APtr Nullness.NBot -> true
  | _ -> false

(* Sound meet for values known to describe the same concrete outcome:
   an empty intersection can only mean the outcome is unreachable, so
   keeping either side stays a cover — we keep [a] rather than
   introduce ⊥ into states (instruction transfer must stay total). *)
let a_meet a b =
  match (a, b) with
  | ATop, v | v, ATop -> v
  | AInt x, AInt y -> (
      match Interval.meet x y with Interval.Bot -> AInt x | m -> AInt m)
  | ABool x, ABool y -> (
      match Tribool.meet x y with Tribool.TBot -> ABool x | m -> ABool m)
  | APtr x, APtr y -> (
      match Nullness.meet x y with Nullness.NBot -> APtr x | m -> APtr m)
  | a, _ -> a (* sort mismatch: ill-typed input, keep what we had *)

(* Meet that *can* report emptiness, for lint-side compatibility
   checks (a call argument vs. a callee precondition). *)
let a_compatible a b =
  match (a, b) with
  | ATop, _ | _, ATop -> true
  | AInt x, AInt y -> Interval.meet x y <> Interval.Bot
  | ABool x, ABool y -> Tribool.meet x y <> Tribool.TBot
  | APtr x, APtr y -> Nullness.meet x y <> Nullness.NBot
  | _ -> true

let top_of_ty : Ty.t -> aval = function
  | Ty.I64 -> AInt Interval.top
  | Ty.I1 -> ABool Tribool.TTop
  | Ty.Ptr _ | Ty.Opaque_ptr | Ty.Struct _ | Ty.Array _ -> APtr Nullness.NTop

(* Minir zero-initializes fresh slots (Go semantics). *)
let default_of_ty : Ty.t -> aval = function
  | Ty.I64 -> AInt (Interval.of_int 0)
  | Ty.I1 -> ABool Tribool.TF
  | Ty.Ptr _ | Ty.Opaque_ptr | Ty.Struct _ | Ty.Array _ -> APtr Nullness.NNull

let pp_aval fmt = function
  | AInt i -> Interval.pp fmt i
  | ABool t -> Tribool.pp fmt t
  | APtr n -> Nullness.pp fmt n
  | ATop -> Format.pp_print_string fmt "⊤"

(* ------------------------------------------------------------------ *)
(* Relational function summaries                                      *)
(* ------------------------------------------------------------------ *)

(* Per-function summary computed bottom-up over the call graph and
   applied at call sites in place of havoc. All components are
   universally sound for *any* call (parameters start at ⊤ when the
   summary is computed):

   - [rs_ret] covers every normally-returned value;
   - [rs_rel] is the zones fragment: [ret - arg_i ∈ itv] for each
     listed I64 parameter, valid at every normal return;
   - [rs_pre] is a *necessary* condition for normal return — on every
     concrete run that returns, parameter i's value at entry lies in
     the listed aval (used by the guaranteed-panic lint, never to
     refine caller state);
   - [rs_pure] — no store the caller could observe (no writes through
     non-local pointers, no opaque stores, transitively);
   - [rs_may_panic] / [rs_returns] — reachability of panic / return
     exits under the summary's own abstraction. *)
type rsummary = {
  rs_fn : string;
  rs_params : (string * Ty.t) list;
  rs_ret_ty : Ty.t option;
  rs_ret : aval;
  rs_rel : (int * Interval.t) list;
  rs_pre : (int * aval) list;
  rs_pure : bool;
  rs_may_panic : bool;
  rs_returns : bool;
}

(* The sound don't-know summary: what an SCC member starts from (the
   downward iteration only tightens it) and what callers of undefined
   functions fall back to. *)
let havoc_rsummary (f : Instr.func) : rsummary =
  {
    rs_fn = f.Instr.fn_name;
    rs_params = f.Instr.params;
    rs_ret_ty = f.Instr.ret_ty;
    rs_ret =
      (match f.Instr.ret_ty with Some ty -> top_of_ty ty | None -> ATop);
    rs_rel = [];
    rs_pre = [];
    rs_pure = false;
    rs_may_panic = true;
    rs_returns = true;
  }

(* Shape check for summaries loaded from a persistent store: the entry
   key (a cone fingerprint) already ties the bytes to this function's
   semantics, this guards against decoding skew — a summary whose
   signature disagrees with the live function is never trusted. *)
let rsummary_matches (f : Instr.func) (rs : rsummary) : bool =
  String.equal rs.rs_fn f.Instr.fn_name
  && rs.rs_ret_ty = f.Instr.ret_ty
  && List.length rs.rs_params = List.length f.Instr.params
  && List.for_all2 (fun (_, t) (_, t') -> t = t') rs.rs_params f.Instr.params
  && List.for_all
       (fun (i, _) -> i >= 0 && i < List.length f.Instr.params)
       rs.rs_rel
  && List.for_all
       (fun (i, _) -> i >= 0 && i < List.length f.Instr.params)
       rs.rs_pre

(* Persistence hooks, installed by the store layer (which owns the
   cone-fingerprint keying); [None] means recompute everything.
   [envfp] digests the *filtered* field invariants the summaries were
   computed under: a store added anywhere in the program can drop an
   invariant — and so change another function's summary — without
   touching that function's call cone, so the cone fingerprint alone
   must not key the entry. *)
type ip_persist = {
  ipp_load : envfp:string -> string -> rsummary option;
  ipp_save : envfp:string -> string -> rsummary -> unit;
}

let ip_persist_key : ip_persist option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_ip_persist p = Domain.DLS.get ip_persist_key := p
let ip_persist_installed () = !(Domain.DLS.get ip_persist_key)

(* ------------------------------------------------------------------ *)
(* Analysis environments (harness-supplied facts)                     *)
(* ------------------------------------------------------------------ *)

(* Facts the *caller of the analysis* is entitled to assume, all
   optional — [summarize] without an env is sound for any entry into
   any function. An env declares:

   - [env_roots]: functions the harness may enter directly with
     arbitrary (or [env_entry]-constrained) arguments. Every non-root
     is assumed reachable only through calls appearing in the program,
     which lets the analysis narrow its parameters to the join of all
     syntactic call-site arguments.
   - [env_entry]: per-root argument facts the harness enforces (e.g.
     the DNS driver only calls resolve with qlen ∈ [0, max_labels]).
   - [env_fields]: struct-field invariants of the harness-built heap
     ((struct name, field index, value) — e.g. every TreeNode's
     labelsLen ∈ [0, 6] in an encoded zone). These are re-verified
     against the program by [field_invariants_filter] before use:
     any program that could write such a field drops the invariant. *)
type env = {
  env_roots : string list;
  env_entry : (string * (int * aval) list) list;
  env_fields : (string * int * aval) list;
}

(* ------------------------------------------------------------------ *)
(* Abstract states                                                    *)
(* ------------------------------------------------------------------ *)

module Env = Map.Make (String)
module SSet = Set.Make (String)

type st = {
  regs : aval Env.t; (* absent = ⊤ *)
  slots : aval Env.t; (* tracked slot contents, keyed by the alloca reg *)
  inited : SSet.t; (* slots definitely explicitly stored (must) *)
  prov : Instr.reg Env.t; (* reg ↦ slot it was loaded from, still valid *)
}

type state = Bot | St of st

(* Keys present on one side only are kept: a register (or slot) is
   defined by exactly one static instruction, so on any concrete path
   where it was never (re)assigned its frame entry — if present at all —
   flowed through the defining edge and is covered by that side's
   value. Provenance is must-information and intersects instead. *)
let st_join a b =
  {
    regs = Env.union (fun _ x y -> Some (a_join x y)) a.regs b.regs;
    slots = Env.union (fun _ x y -> Some (a_join x y)) a.slots b.slots;
    inited = SSet.inter a.inited b.inited;
    prov =
      Env.merge
        (fun _ x y ->
          match (x, y) with
          | Some u, Some v when String.equal u v -> Some u
          | _ -> None)
        a.prov b.prov;
  }

let st_widen old next =
  {
    next with
    regs =
      Env.mapi
        (fun r v ->
          match Env.find_opt r old.regs with
          | Some o -> a_widen o v
          | None -> v)
        next.regs;
    slots =
      Env.mapi
        (fun s v ->
          match Env.find_opt s old.slots with
          | Some o -> a_widen o v
          | None -> v)
        next.slots;
  }

let st_equal a b =
  Env.equal ( = ) a.regs b.regs
  && Env.equal ( = ) a.slots b.slots
  && SSet.equal a.inited b.inited
  && Env.equal String.equal a.prov b.prov

let state_join a b =
  match (a, b) with Bot, x | x, Bot -> x | St a, St b -> St (st_join a b)

let state_widen old next =
  match (old, next) with
  | Bot, x | x, Bot -> x
  | St o, St n -> St (st_widen o n)

let state_equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | St a, St b -> st_equal a b
  | _ -> false

let state_is_bottom = function Bot -> true | St _ -> false

let pp_state fmt = function
  | Bot -> Format.pp_print_string fmt "⊥"
  | St s ->
      Format.fprintf fmt "@[<hv>{";
      Env.iter (fun r v -> Format.fprintf fmt " %%%s=%a" r pp_aval v) s.regs;
      Env.iter (fun r v -> Format.fprintf fmt " [%%%s]=%a" r pp_aval v) s.slots;
      Format.fprintf fmt " }@]"

(* ------------------------------------------------------------------ *)
(* The generic forward engine                                         *)
(* ------------------------------------------------------------------ *)

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t (* old → joined (⊒ old) → widened *)
end

module Fixpoint (D : DOMAIN) = struct
  let widen_threshold = 3

  (* Widening points: targets of DFS back edges, i.e. loop heads in the
     reducible CFGs the frontend emits. Widening only there keeps the
     branch refinements inside loop bodies (a body entered under
     [i <= n] keeps the finite bound) while every cycle still crosses a
     widening point, so the ascending chain terminates. *)
  let widen_points (blocks : (Instr.label * Instr.block) list)
      (entry : Instr.label) : (Instr.label, unit) Hashtbl.t =
    let succs l =
      match (List.assoc l blocks).Instr.term with
      | Instr.Br l' -> [ l' ]
      | Instr.Cond_br (_, l1, l2) -> [ l1; l2 ]
      | Instr.Ret _ | Instr.Panic _ | Instr.Unreachable -> []
    in
    let points = Hashtbl.create 8 in
    let gray = Hashtbl.create 16 in
    let done_ = Hashtbl.create 16 in
    (* Explicit stack: each frame is a block and its unexplored succs. *)
    let stack = ref [] in
    let enter l =
      Hashtbl.replace gray l ();
      stack := (l, ref (succs l)) :: !stack
    in
    enter entry;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (l, rest) :: tl -> (
          match !rest with
          | [] ->
              Hashtbl.remove gray l;
              Hashtbl.replace done_ l ();
              stack := tl
          | s :: rs ->
              rest := rs;
              if Hashtbl.mem gray s then Hashtbl.replace points s ()
              else if not (Hashtbl.mem done_ s) then enter s)
    done;
    points

  (* Worklist fixpoint: [transfer] maps a block's entry state to the
     states it propagates to each successor. Returns the per-block
     entry states; blocks never reached are absent. *)
  let solve ~(blocks : (Instr.label * Instr.block) list)
      ~(entry : Instr.label) ~(init : D.t)
      ~(transfer : Instr.label -> Instr.block -> D.t -> (Instr.label * D.t) list)
      : (Instr.label, D.t) Hashtbl.t =
    let wpoints = widen_points blocks entry in
    let in_states = Hashtbl.create 16 in
    let updates = Hashtbl.create 16 in
    let wl = Queue.create () in
    let queued = Hashtbl.create 16 in
    let push l =
      if not (Hashtbl.mem queued l) then begin
        Hashtbl.replace queued l ();
        Queue.push l wl
      end
    in
    Hashtbl.replace in_states entry init;
    push entry;
    while not (Queue.is_empty wl) do
      let l = Queue.pop wl in
      Hashtbl.remove queued l;
      match Hashtbl.find_opt in_states l with
      | None -> ()
      | Some s ->
          let b = List.assoc l blocks in
          List.iter
            (fun (l', s') ->
              let prev = Hashtbl.find_opt in_states l' in
              let joined =
                match prev with None -> s' | Some p -> D.join p s'
              in
              let n = Option.value (Hashtbl.find_opt updates l') ~default:0 in
              let next =
                match prev with
                | Some p when n >= widen_threshold && Hashtbl.mem wpoints l'
                  ->
                    D.widen p joined
                | _ -> joined
              in
              match prev with
              | Some p when D.equal p next -> ()
              | _ ->
                  Hashtbl.replace in_states l' next;
                  Hashtbl.replace updates l' (n + 1);
                  push l')
            (transfer l b s)
    done;
    in_states
end

module Solve = Fixpoint (struct
  type t = state

  let equal = state_equal
  let join = state_join
  let widen = state_widen
end)

(* ------------------------------------------------------------------ *)
(* Per-function semantics                                             *)
(* ------------------------------------------------------------------ *)

(* Scalar alloca registers used *only* as the pointer operand of loads
   and stores: those slots cannot alias and their contents are tracked
   exactly. Everything else (aggregates, address-taken slots) is left
   to the heap, i.e. ⊤.

   [pure] refines the one over-approximation calls used to force: an
   argument to [Call_void] of a callee proven write-free stays tracked
   — the callee can read the cell but never store through it, so the
   slot's contents survive the call. Value-returning calls still untrack
   their arguments: the callee may hand the pointer back and the caller
   could write through the alias later. *)
let tracked_slots ?(pure = fun _ -> false) (f : Instr.func) : SSet.t =
  let allocas = ref SSet.empty in
  List.iter
    (fun (_, b) ->
      List.iter
        (function
          | Instr.Assign (r, Instr.Alloca (Ty.I64 | Ty.I1 | Ty.Ptr _ | Ty.Opaque_ptr))
            -> allocas := SSet.add r !allocas
          | _ -> ())
        b.Instr.insns)
    f.Instr.blocks;
  let escape = function
    | Instr.Reg r -> allocas := SSet.remove r !allocas
    | _ -> ()
  in
  let escape_rv = function
    | Instr.Binop (_, a, b) | Instr.Byte_gep (a, b) ->
        escape a;
        escape b
    | Instr.Icmp (_, _, a, b) ->
        escape a;
        escape b
    | Instr.Not a | Instr.Bitcast a | Instr.Opaque_load (_, a) -> escape a
    | Instr.Load (_, _) -> () (* pointer position: allowed *)
    | Instr.Gep (_, base, idx) ->
        escape base;
        List.iter escape idx
    | Instr.Call (_, args) -> List.iter escape args
    | Instr.Alloca _ | Instr.Newobject _ -> ()
  in
  List.iter
    (fun (_, b) ->
      List.iter
        (function
          | Instr.Assign (_, rv) -> escape_rv rv
          | Instr.Store (_, v, _) | Instr.Opaque_store (_, v, _) ->
              escape v (* value position escapes; pointer position allowed *)
          | Instr.Call_void (name, args) ->
              if not (pure name) then List.iter escape args)
        b.Instr.insns;
      match b.Instr.term with
      | Instr.Cond_br (c, _, _) -> escape c
      | Instr.Ret (Some o) -> escape o
      | Instr.Br _ | Instr.Ret None | Instr.Panic _ | Instr.Unreachable -> ())
    f.Instr.blocks;
  (* Opaque stores write through pointers we cannot see; their pointer
     operand escapes too (only [Store]'s pointer position is exempt). *)
  List.iter
    (fun (_, b) ->
      List.iter
        (function
          | Instr.Opaque_store (_, _, p) -> escape p
          | _ -> ())
        b.Instr.insns)
    f.Instr.blocks;
  !allocas

(* One static assignment per register (well-formedness), so this is a
   function. *)
let def_map (f : Instr.func) : Instr.rvalue Env.t =
  List.fold_left
    (fun m (_, b) ->
      List.fold_left
        (fun m -> function
          | Instr.Assign (r, rv) -> Env.add r rv m
          | _ -> m)
        m b.Instr.insns)
    Env.empty f.Instr.blocks

(* ------------------------------------------------------------------ *)
(* Purity (write-freedom)                                             *)
(* ------------------------------------------------------------------ *)

(* Does [f] itself contain a store the caller could observe? Stores
   whose pointer is rooted (through Gep/Byte_gep/Bitcast) in the
   function's own [Alloca]/[Newobject] are invisible outside; anything
   else — parameter-, load- or call-derived pointers, and every opaque
   store — counts as a caller-visible write. *)
let writes_nonlocal (f : Instr.func) : bool =
  let defs = def_map f in
  let rec local_root depth (o : Instr.operand) =
    depth < 64
    &&
    match o with
    | Instr.Const_int _ | Instr.Const_bool _ | Instr.Null _ -> false
    | Instr.Reg r -> (
        match Env.find_opt r defs with
        | Some (Instr.Alloca _ | Instr.Newobject _) -> true
        | Some (Instr.Gep (_, base, _))
        | Some (Instr.Byte_gep (base, _))
        | Some (Instr.Bitcast base) ->
            local_root (depth + 1) base
        | _ -> false)
  in
  List.exists
    (fun (_, (b : Instr.block)) ->
      List.exists
        (function
          | Instr.Store (_, _, p) -> not (local_root 0 p)
          | Instr.Opaque_store _ -> true
          | Instr.Assign _ | Instr.Call_void _ -> false)
        b.Instr.insns)
    f.Instr.blocks

(* Transitively write-free functions: a syntactic least fixpoint over
   the call graph — impure if the body writes non-locally, calls an
   undefined function, or calls an impure one. Independent of the
   abstract interpretation, so the escape refinement in
   [tracked_slots] cannot feed back into itself. *)
let pure_set (prog : Instr.program) (cg : Callgraph.t) : SSet.t =
  let impure = Hashtbl.create 16 in
  List.iter
    (fun (f : Instr.func) ->
      if
        writes_nonlocal f
        || List.exists
             (fun c -> not (Callgraph.is_defined cg c))
             (Callgraph.callees cg f.Instr.fn_name)
      then Hashtbl.replace impure f.Instr.fn_name ())
    prog.Instr.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Instr.func) ->
        if
          (not (Hashtbl.mem impure f.Instr.fn_name))
          && List.exists (Hashtbl.mem impure)
               (Callgraph.callees cg f.Instr.fn_name)
        then begin
          Hashtbl.replace impure f.Instr.fn_name ();
          changed := true
        end)
      prog.Instr.funcs
  done;
  List.fold_left
    (fun acc (f : Instr.func) ->
      if Hashtbl.mem impure f.Instr.fn_name then acc
      else SSet.add f.Instr.fn_name acc)
    SSet.empty prog.Instr.funcs

type fn_ctx = {
  prog : Instr.program;
  tracked : SSet.t;
  defs : Instr.rvalue Env.t;
  lookup : string -> rsummary option; (* callee summaries, if computed *)
  fieldinv : string -> int -> aval option; (* verified field invariants *)
}

let eval_operand (s : st) : Instr.operand -> aval = function
  | Instr.Const_int n -> AInt (Interval.of_int n)
  | Instr.Const_bool b -> ABool (Tribool.of_bool b)
  | Instr.Null _ -> APtr Nullness.NNull
  | Instr.Reg r -> Option.value (Env.find_opt r s.regs) ~default:ATop

let interval_of (s : st) (o : Instr.operand) : Interval.t =
  match eval_operand s o with AInt i -> i | _ -> Interval.top

let nullness_of (s : st) (o : Instr.operand) : Nullness.t =
  match eval_operand s o with APtr n -> n | _ -> Nullness.NTop

let tribool_of (s : st) (o : Instr.operand) : Tribool.t =
  match eval_operand s o with ABool t -> t | _ -> Tribool.TTop

let icmp_interval (op : Instr.icmp) (a : Interval.t) (b : Interval.t) :
    Tribool.t =
  let open Interval in
  match (a, b) with
  | Bot, _ | _, Bot -> Tribool.TTop
  | I (l1, h1), I (l2, h2) -> (
      let lt_def =
        (* ∀x∈a ∀y∈b, x < y *)
        match (h1, l2) with Some h, Some l -> h < l | _ -> false
      and le_def =
        match (h1, l2) with Some h, Some l -> h <= l | _ -> false
      and gt_def =
        match (l1, h2) with Some l, Some h -> l > h | _ -> false
      and ge_def =
        match (l1, h2) with Some l, Some h -> l >= h | _ -> false
      in
      match op with
      | Instr.Slt ->
          if lt_def then Tribool.TT else if ge_def then Tribool.TF else Tribool.TTop
      | Instr.Sle ->
          if le_def then Tribool.TT else if gt_def then Tribool.TF else Tribool.TTop
      | Instr.Sgt ->
          if gt_def then Tribool.TT else if le_def then Tribool.TF else Tribool.TTop
      | Instr.Sge ->
          if ge_def then Tribool.TT else if lt_def then Tribool.TF else Tribool.TTop
      | Instr.Eq ->
          if is_singleton a && a = b then Tribool.TT
          else if meet a b = Bot then Tribool.TF
          else Tribool.TTop
      | Instr.Ne ->
          if is_singleton a && a = b then Tribool.TF
          else if meet a b = Bot then Tribool.TT
          else Tribool.TTop)

let icmp_nullness (op : Instr.icmp) (a : Nullness.t) (b : Nullness.t) :
    Tribool.t =
  let eq =
    match (a, b) with
    | Nullness.NNull, Nullness.NNull -> Tribool.TT
    | Nullness.NNull, Nullness.NNot | Nullness.NNot, Nullness.NNull ->
        Tribool.TF
    | _ -> Tribool.TTop
  in
  match op with
  | Instr.Eq -> eq
  | Instr.Ne -> Tribool.not_ eq
  | _ -> Tribool.TTop

let is_ptr_ty = function
  | Ty.Ptr _ | Ty.Opaque_ptr | Ty.Struct _ | Ty.Array _ -> true
  | Ty.I1 | Ty.I64 -> false

(* If register [r] is a Gep whose final navigation step selects a
   struct field, the (struct name, field index) identifying the cell it
   points at. A pointer cell is a scalar struct field exactly when the
   last step of its access path is a constant struct-field index — array
   interiors and whole-aggregate pointers return [None]. *)
let gep_field (tenv : Ty.tenv) (defs : Instr.rvalue Env.t) (r : Instr.reg) :
    (string * int) option =
  match Env.find_opt r defs with
  | Some (Instr.Gep (pointee, _base, idxs)) -> (
      let rec walk ty idxs =
        match (ty, idxs) with
        | Ty.Struct name, [ Instr.Const_int i ] ->
            (match Ty.field_at (Ty.find_struct tenv name) i with
            | _ -> Some (name, i)
            | exception Invalid_argument _ -> None)
        | Ty.Struct name, Instr.Const_int i :: rest -> (
            match Ty.field_at (Ty.find_struct tenv name) i with
            | f -> walk f.Ty.fty rest
            | exception Invalid_argument _ -> None)
        | Ty.Array (elt, _), _ :: rest -> walk elt rest
        | _, _ -> None
      in
      match walk pointee idxs with
      | some -> some
      | exception Invalid_argument _ -> None)
  | _ -> None

(* Re-verify harness-declared field invariants against the program:
   an invariant for (S, i) survives only when (a) it admits the
   zero value — every object the program itself creates ([Newobject],
   struct [Alloca]) starts zeroed, so fresh objects satisfy it — and
   (b) no store in any function can write that cell: every store's
   pointer must resolve to a scalar alloca or to a Gep whose cell is a
   *different* struct field or an array interior, and no opaque store
   exists anywhere. Any unresolvable store drops all invariants. *)
let field_invariants_filter (prog : Instr.program)
    (invs : (string * int * aval) list) : (string * int * aval) list =
  let invs =
    List.filter
      (fun (_, _, a) ->
        match a with
        | AInt iv -> Interval.mem 0 iv
        | ABool t -> Tribool.meet t Tribool.TF <> Tribool.TBot
        | APtr n -> Nullness.meet n Nullness.NNull <> Nullness.NBot
        | ATop -> true)
      invs
  in
  let written = Hashtbl.create 8 in
  let opaque_or_unresolved = ref false in
  List.iter
    (fun (f : Instr.func) ->
      let defs = def_map f in
      let resolved_safe (p : Instr.operand) =
        match p with
        | Instr.Null _ -> true (* traps, writes nothing *)
        | Instr.Const_int _ | Instr.Const_bool _ -> false
        | Instr.Reg r -> (
            match gep_field prog.Instr.tenv defs r with
            | Some (s, i) ->
                Hashtbl.replace written (s, i) ();
                true
            | None -> (
                match Env.find_opt r defs with
                | Some (Instr.Gep _) ->
                    (* resolved to an array interior or aggregate cell:
                       never a scalar struct field *)
                    true
                | Some (Instr.Alloca (Ty.I64 | Ty.I1 | Ty.Ptr _ | Ty.Opaque_ptr))
                  ->
                    true (* a scalar stack slot is no object's field *)
                | _ -> false))
      in
      List.iter
        (fun (_, (b : Instr.block)) ->
          List.iter
            (function
              | Instr.Store (_, _, p) ->
                  if not (resolved_safe p) then opaque_or_unresolved := true
              | Instr.Opaque_store _ -> opaque_or_unresolved := true
              | Instr.Assign _ | Instr.Call_void _ -> ())
            b.Instr.insns)
        f.Instr.blocks)
    prog.Instr.funcs;
  if !opaque_or_unresolved then []
  else
    List.filter (fun (s, i, _) -> not (Hashtbl.mem written (s, i))) invs

let eval_rvalue (ctx : fn_ctx) (s : st) (rv : Instr.rvalue) : aval =
  match rv with
  | Instr.Binop (op, a, b) -> (
      match op with
      | Instr.Add -> AInt (Interval.add (interval_of s a) (interval_of s b))
      | Instr.Sub -> AInt (Interval.sub (interval_of s a) (interval_of s b))
      | Instr.Mul -> AInt (Interval.mul (interval_of s a) (interval_of s b))
      | Instr.Sdiv | Instr.Srem -> AInt Interval.top
      | Instr.And_ -> ABool (Tribool.and_ (tribool_of s a) (tribool_of s b))
      | Instr.Or_ -> ABool (Tribool.or_ (tribool_of s a) (tribool_of s b))
      | Instr.Xor ->
          ABool
            (match (tribool_of s a, tribool_of s b) with
            | Tribool.TBot, _ | _, Tribool.TBot -> Tribool.TBot
            | Tribool.TT, x | x, Tribool.TT -> Tribool.not_ x
            | Tribool.TF, x | x, Tribool.TF -> x
            | Tribool.TTop, Tribool.TTop -> Tribool.TTop))
  | Instr.Icmp (op, ty, a, b) ->
      if is_ptr_ty ty then ABool (icmp_nullness op (nullness_of s a) (nullness_of s b))
      else if ty = Ty.I64 then
        ABool (icmp_interval op (interval_of s a) (interval_of s b))
      else ABool Tribool.TTop
  | Instr.Not a -> ABool (Tribool.not_ (tribool_of s a))
  | Instr.Alloca _ | Instr.Newobject _ | Instr.Gep _ | Instr.Byte_gep _ ->
      APtr Nullness.NNot
  | Instr.Bitcast o -> eval_operand s o
  | Instr.Load (ty, Instr.Reg p) when SSet.mem p ctx.tracked ->
      Option.value (Env.find_opt p s.slots) ~default:(top_of_ty ty)
  | Instr.Load (ty, o) ->
      (* A load through a pointer whose cell is a verified-invariant
         struct field is bounded by that invariant regardless of which
         object the pointer selects. *)
      let base = top_of_ty ty in
      (match o with
      | Instr.Reg r -> (
          match gep_field ctx.prog.Instr.tenv ctx.defs r with
          | Some (sname, idx) -> (
              match ctx.fieldinv sname idx with
              | Some inv -> a_meet base inv
              | None -> base)
          | None -> base)
      | _ -> base)
  | Instr.Opaque_load (ty, _) -> top_of_ty ty
  | Instr.Call (name, args) -> (
      (* Summary application replaces havoc: the return value is
         covered by the callee's [rs_ret], tightened by every
         difference bound [ret - arg_i ∈ d] instantiated with the
         argument's interval at this site. *)
      match ctx.lookup name with
      | Some rs ->
          List.fold_left
            (fun acc (i, d) ->
              match List.nth_opt args i with
              | Some a -> a_meet acc (AInt (Interval.add (interval_of s a) d))
              | None -> acc)
            rs.rs_ret rs.rs_rel
      | None -> (
          match
            List.find_opt
              (fun g -> g.Instr.fn_name = name)
              ctx.prog.Instr.funcs
          with
          | Some g -> (
              match g.Instr.ret_ty with Some ty -> top_of_ty ty | None -> ATop)
          | None -> ATop))

(* Transfer one instruction. Total: instruction effects never prove a
   state empty, only branch assumptions do. *)
let transfer_insn (ctx : fn_ctx) (s : st) (insn : Instr.instr) : st =
  match insn with
  | Instr.Assign (r, rv) ->
      let v = eval_rvalue ctx s rv in
      let s = { s with regs = Env.add r v s.regs } in
      let s =
        match rv with
        | Instr.Alloca ty when SSet.mem r ctx.tracked ->
            (* A re-executed alloca (declaration inside a loop) rebinds
               the register to a *fresh* zero slot: reset contents and
               must-init, and drop provenance into the old slot. *)
            {
              s with
              slots = Env.add r (default_of_ty ty) s.slots;
              inited = SSet.remove r s.inited;
              prov = Env.filter (fun _ s' -> not (String.equal s' r)) s.prov;
            }
        | Instr.Load (_, Instr.Reg p) when SSet.mem p ctx.tracked ->
            { s with prov = Env.add r p s.prov }
        | Instr.Bitcast (Instr.Reg q) -> (
            match Env.find_opt q s.prov with
            | Some p -> { s with prov = Env.add r p s.prov }
            | None -> s)
        | _ -> s
      in
      s
  | Instr.Store (_, v, Instr.Reg p) when SSet.mem p ctx.tracked ->
      {
        s with
        slots = Env.add p (eval_operand s v) s.slots;
        inited = SSet.add p s.inited;
        prov = Env.filter (fun _ s' -> not (String.equal s' p)) s.prov;
      }
  | Instr.Store _ | Instr.Opaque_store _ | Instr.Call_void _ ->
      (* Tracked slots cannot alias (their address never escapes), so
         stores through other pointers and calls cannot touch them. *)
      s

let transfer_insns ctx s insns = List.fold_left (transfer_insn ctx) s insns

(* ------------------------------------------------------------------ *)
(* Branch refinement                                                  *)
(* ------------------------------------------------------------------ *)

exception Bottom

(* Meet [o]'s abstract value with [v]; empty meets kill the edge.
   Register refinements propagate into the slot the register was
   loaded from when that provenance is still valid. *)
let rec refine_operand (s : st) (o : Instr.operand) (v : aval) : st =
  match o with
  | Instr.Const_int n ->
      (match v with
      | AInt i when not (Interval.mem n i) -> raise Bottom
      | _ -> ());
      s
  | Instr.Const_bool b ->
      (match v with
      | ABool t when Tribool.meet t (Tribool.of_bool b) = Tribool.TBot ->
          raise Bottom
      | _ -> ());
      s
  | Instr.Null _ ->
      (match v with
      | APtr n when Nullness.meet n Nullness.NNull = Nullness.NBot ->
          raise Bottom
      | _ -> ());
      s
  | Instr.Reg r -> (
      let cur = Option.value (Env.find_opt r s.regs) ~default:ATop in
      let met =
        match (cur, v) with
        | ATop, v -> v
        | v, ATop -> v
        | AInt a, AInt b -> AInt (Interval.meet a b)
        | ABool a, ABool b -> ABool (Tribool.meet a b)
        | APtr a, APtr b -> APtr (Nullness.meet a b)
        | a, _ -> a (* sort mismatch: keep what we had *)
      in
      if a_is_bot met then raise Bottom;
      let s = { s with regs = Env.add r met s.regs } in
      match Env.find_opt r s.prov with
      | Some slot ->
          let scur = Option.value (Env.find_opt slot s.slots) ~default:ATop in
          let smet =
            match (scur, met) with
            | ATop, v -> v
            | v, ATop -> v
            | AInt a, AInt b -> AInt (Interval.meet a b)
            | ABool a, ABool b -> ABool (Tribool.meet a b)
            | APtr a, APtr b -> APtr (Nullness.meet a b)
            | a, _ -> a
          in
          if a_is_bot smet then raise Bottom;
          { s with slots = Env.add slot smet s.slots }
      | None -> s)

and assume_icmp (ctx : fn_ctx) (s : st) (op : Instr.icmp) (ty : Ty.t)
    (a : Instr.operand) (b : Instr.operand) (truth : bool) : st =
  (* Normalize the relation assumed to hold between a and b. *)
  let rel =
    match (op, truth) with
    | Instr.Eq, true | Instr.Ne, false -> `Eq
    | Instr.Eq, false | Instr.Ne, true -> `Ne
    | Instr.Slt, true | Instr.Sge, false -> `Lt
    | Instr.Sle, true | Instr.Sgt, false -> `Le
    | Instr.Sgt, true | Instr.Sle, false -> `Gt
    | Instr.Sge, true | Instr.Slt, false -> `Ge
  in
  if ty = Ty.I64 then begin
    let ia = interval_of s a and ib = interval_of s b in
    let ia', ib' =
      match rel with
      | `Lt -> (Interval.meet ia (Interval.below ~strict:true ib),
                Interval.meet ib (Interval.above ~strict:true ia))
      | `Le -> (Interval.meet ia (Interval.below ~strict:false ib),
                Interval.meet ib (Interval.above ~strict:false ia))
      | `Gt -> (Interval.meet ia (Interval.above ~strict:true ib),
                Interval.meet ib (Interval.below ~strict:true ia))
      | `Ge -> (Interval.meet ia (Interval.above ~strict:false ib),
                Interval.meet ib (Interval.below ~strict:false ia))
      | `Eq ->
          let m = Interval.meet ia ib in
          (m, m)
      | `Ne -> (Interval.remove_point ia ib, Interval.remove_point ib ia)
    in
    if ia' = Interval.Bot || ib' = Interval.Bot then raise Bottom;
    let s = refine_operand s a (AInt ia') in
    refine_operand s b (AInt ib')
  end
  else if is_ptr_ty ty then begin
    match rel with
    | `Eq ->
        let s =
          match b with
          | Instr.Null _ -> refine_operand s a (APtr Nullness.NNull)
          | _ -> s
        in
        (match a with
        | Instr.Null _ -> refine_operand s b (APtr Nullness.NNull)
        | _ -> s)
    | `Ne ->
        let s =
          match b with
          | Instr.Null _ -> refine_operand s a (APtr Nullness.NNot)
          | _ -> s
        in
        (match a with
        | Instr.Null _ -> refine_operand s b (APtr Nullness.NNot)
        | _ -> s)
    | _ -> s
  end
  else begin
    ignore ctx;
    match rel with
    | `Eq -> (
        match (a, b) with
        | x, Instr.Const_bool k | Instr.Const_bool k, x ->
            refine_operand s x (ABool (Tribool.of_bool k))
        | _ -> s)
    | `Ne -> (
        match (a, b) with
        | x, Instr.Const_bool k | Instr.Const_bool k, x ->
            refine_operand s x (ABool (Tribool.of_bool (not k)))
        | _ -> s)
    | _ -> s
  end

(* Assume the boolean operand [o] evaluates to [truth], walking its
   defining expression to sharpen everything it derives from. *)
and assume_operand (ctx : fn_ctx) (s : st) (o : Instr.operand) (truth : bool) :
    st =
  match o with
  | Instr.Const_bool k -> if k = truth then s else raise Bottom
  | Instr.Const_int _ | Instr.Null _ -> s
  | Instr.Reg r -> (
      let s = refine_operand s o (ABool (Tribool.of_bool truth)) in
      match Env.find_opt r ctx.defs with
      | Some (Instr.Icmp (op, ty, a, b)) -> assume_icmp ctx s op ty a b truth
      | Some (Instr.Not a) -> assume_operand ctx s a (not truth)
      | Some (Instr.Binop (Instr.And_, a, b)) when truth ->
          assume_operand ctx (assume_operand ctx s a true) b true
      | Some (Instr.Binop (Instr.Or_, a, b)) when not truth ->
          (* `bad = (i < 0) | (i >= n)` assumed false refines both
             disjuncts — the shape of every frontend bounds check. *)
          assume_operand ctx (assume_operand ctx s a false) b false
      | _ -> s)

let assume (ctx : fn_ctx) (s : st) (o : Instr.operand) (truth : bool) : state =
  match assume_operand ctx s o truth with
  | s -> St s
  | exception Bottom -> Bot

(* ------------------------------------------------------------------ *)
(* Whole-function facts                                               *)
(* ------------------------------------------------------------------ *)

type edge_fact = { then_dead : bool; else_dead : bool }

(* Everything the symbolic executor wants at a [Cond_br], precomputed
   so the per-branch-execution lookup is a single hash-table probe:
   the edge fact plus whether either successor is a panic block (the
   executor's [panic_checks] accounting would otherwise re-scan the
   block list on every branch execution). [bi_interproc] marks facts
   the interprocedural layer added on top of what the PR 5
   intraprocedural pass (calls havocked, no environment) could already
   prove — the distrust cross-check and test_analysis count these. *)
type branch_info = {
  bi_fact : edge_fact;
  bi_guards_panic : bool;
  bi_interproc : bool;
}

(* Physical-identity block table: keys are blocks of the one memoized
   program value per version, so [( == )] is the right equality and
   the (bounded-depth) structural hash is merely a bucket spreader. *)
module Blocktbl = Hashtbl.Make (struct
  type t = Instr.block

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type func_facts = {
  ff_func : Instr.func;
  ff_ctx : fn_ctx;
  ff_in : (Instr.label, state) Hashtbl.t; (* absent = unreachable *)
  ff_branch : branch_info Blocktbl.t Lazy.t;
      (* physical-identity keyed; built on the first branch query, so
         facts only harvested for their call sites never pay for it *)
}

type summary = {
  sm_facts : (string, func_facts Lazy.t) Hashtbl.t;
      (* per-function final facts, forced on first query: a
         summarization-window env only ever executes its own small call
         cone, so analyzing the rest of the program eagerly for every
         distinct window would be pure waste *)
  sm_plain : (string, func_facts Lazy.t) Hashtbl.t;
      (* PR 5 abstraction: havoc at calls, no env — the attribution
         baseline for [bi_interproc] and heuristics calibrated to
         intraprocedural precision; forced with the first branch table
         that needs it *)
  sm_rsums : (string, rsummary) Hashtbl.t;
  sm_cg : Callgraph.t;
  sm_store_hits : int; (* rsummaries served by the persistence hook *)
  sm_store_misses : int; (* rsummaries recomputed (and saved) *)
}

let edge_states (ctx : fn_ctx) (s : st) (t : Instr.terminator) :
    (Instr.label * state) list =
  match t with
  | Instr.Br l -> [ (l, St s) ]
  | Instr.Cond_br (c, l1, l2) ->
      [ (l1, assume ctx s c true); (l2, assume ctx s c false) ]
  | Instr.Ret _ | Instr.Panic _ | Instr.Unreachable -> []

(* One intraprocedural fixpoint. [lookup]/[fieldinv] feed summaries
   and verified heap invariants into the transfer functions; [entry]
   meets per-parameter facts into the initial state (the caller — the
   context fixpoint or an env root's declared facts — is responsible
   for their soundness); [plain] is the same function's facts under
   the PR 5 abstraction (havoc at calls, no environment) and only
   drives the [bi_interproc] attribution bit, so it is forced only with
   the branch table. *)
let analyze_func ?(lookup = fun _ -> None) ?(fieldinv = fun _ _ -> None)
    ?(pure = fun _ -> false) ?(entry = []) ?plain (prog : Instr.program)
    (f : Instr.func) : func_facts =
  Trace.with_span ~det:false "analyze" ~attrs:[ ("fn", f.Instr.fn_name) ]
  @@ fun () ->
  Trace.Metrics.incr m_functions;
  let ctx =
    { prog; tracked = tracked_slots ~pure f; defs = def_map f; lookup; fieldinv }
  in
  let init =
    St
      {
        regs =
          List.fold_left
            (fun m (r, ty) ->
              let v =
                match List.assoc_opt r entry with
                | Some e -> a_meet (top_of_ty ty) e
                | None -> top_of_ty ty
              in
              Env.add r v m)
            Env.empty f.Instr.params;
        slots = Env.empty;
        inited = SSet.empty;
        prov = Env.empty;
      }
  in
  let transfer _l (b : Instr.block) (s : state) =
    match s with
    | Bot -> []
    | St s -> edge_states ctx (transfer_insns ctx s b.Instr.insns) b.Instr.term
  in
  let in_states =
    Solve.solve ~blocks:f.Instr.blocks ~entry:f.Instr.entry ~init ~transfer
  in
  (* Edge facts from the converged entry states: an edge is dead when
     its branch assumption empties the state (or the block was never
     reached at all). *)
  let is_panic l =
    match List.assoc_opt l f.Instr.blocks with
    | Some (tb : Instr.block) -> (
        match tb.Instr.term with Instr.Panic _ -> true | _ -> false)
    | None -> false
  in
  let branch =
    lazy
      (let tbl = Blocktbl.create 16 in
       List.iter
         (fun (l, (b : Instr.block)) ->
           match b.Instr.term with
           | Instr.Cond_br (c, l1, l2) ->
               let fact =
                 match Hashtbl.find_opt in_states l with
                 | None | Some Bot -> { then_dead = true; else_dead = true }
                 | Some (St s) ->
                     let s = transfer_insns ctx s b.Instr.insns in
                     {
                       then_dead = assume ctx s c true = Bot;
                       else_dead = assume ctx s c false = Bot;
                     }
               in
               (* No dead edge, nothing to attribute: plain is forced
                  only for functions that have one. *)
               let interproc =
                 match plain with
                 | _ when not (fact.then_dead || fact.else_dead) -> false
                 | None -> false
                 | Some (lazy (pf : func_facts)) -> (
                     match Blocktbl.find_opt (Lazy.force pf.ff_branch) b with
                     | Some pbi ->
                         (fact.then_dead && not pbi.bi_fact.then_dead)
                         || (fact.else_dead && not pbi.bi_fact.else_dead)
                     | None -> fact.then_dead || fact.else_dead)
               in
               Blocktbl.replace tbl b
                 {
                   bi_fact = fact;
                   bi_guards_panic = is_panic l1 || is_panic l2;
                   bi_interproc = interproc;
                 }
           | _ -> ())
         f.Instr.blocks;
       tbl)
  in
  { ff_func = f; ff_ctx = ctx; ff_in = in_states; ff_branch = branch }

(* ------------------------------------------------------------------ *)
(* Summary extraction                                                 *)
(* ------------------------------------------------------------------ *)

(* Parameters copied once into a non-aliasing slot in the (loop-free)
   entry block keep their entry value observable at every return: the
   branch refinements that accumulate on the slot are exactly the
   conditions the function imposed on the argument. Returns
   [slot register ↦ parameter index]. *)
let param_slot_map (ctx : fn_ctx) (f : Instr.func) : (Instr.reg * int) list =
  let entry_is_target =
    List.exists
      (fun (_, (b : Instr.block)) ->
        match b.Instr.term with
        | Instr.Br l -> String.equal l f.Instr.entry
        | Instr.Cond_br (_, l1, l2) ->
            String.equal l1 f.Instr.entry || String.equal l2 f.Instr.entry
        | _ -> false)
      f.Instr.blocks
  in
  if entry_is_target then []
  else
    let store_count slot =
      List.fold_left
        (fun n (_, (b : Instr.block)) ->
          List.fold_left
            (fun n -> function
              | Instr.Store (_, _, Instr.Reg p) when String.equal p slot ->
                  n + 1
              | _ -> n)
            n b.Instr.insns)
        0 f.Instr.blocks
    in
    let entry_insns = (Instr.find_block f f.Instr.entry).Instr.insns in
    let alloca_in_entry slot =
      List.exists
        (function
          | Instr.Assign (r, Instr.Alloca _) -> String.equal r slot
          | _ -> false)
        entry_insns
    in
    let pidx =
      List.mapi (fun i (r, _) -> (r, i)) f.Instr.params
    in
    List.filter_map
      (function
        | Instr.Store (_, Instr.Reg p, Instr.Reg slot)
          when SSet.mem slot ctx.tracked
               && List.mem_assoc p pidx
               && alloca_in_entry slot
               && store_count slot = 1 ->
            Some (slot, List.assoc p pidx)
        | _ -> None)
      entry_insns

(* Difference bounds [value(o) - param_i ∈ itv] read off the defining
   expressions, instantiated with the converged interval of the
   non-parameter side at the point [s] describes. Registers are SSA
   and single-store parameter slots replay the entry value, so every
   interval consulted covers the operand at any later program point on
   the same run. *)
let delta_of (ctx : fn_ctx) (pidx : (Instr.reg * int) list)
    (pslots : (Instr.reg * int) list) (s : st) (o : Instr.operand) :
    (int * Interval.t) list =
  let shift itv = List.map (fun (i, d) -> (i, Interval.add d itv)) in
  let merge a b =
    (* both sides are sound bounds for the same value: meet them *)
    List.fold_left
      (fun acc (i, d) ->
        match List.assoc_opt i acc with
        | None -> (i, d) :: acc
        | Some d' ->
            let m =
              match Interval.meet d d' with Interval.Bot -> d' | m -> m
            in
            (i, m) :: List.remove_assoc i acc)
      a b
  in
  let rec go depth (o : Instr.operand) =
    if depth > 12 then []
    else
      match o with
      | Instr.Reg r when List.mem_assoc r pidx ->
          [ (List.assoc r pidx, Interval.of_int 0) ]
      | Instr.Reg r -> (
          match Env.find_opt r ctx.defs with
          | Some (Instr.Load (_, Instr.Reg slot))
            when List.mem_assoc slot pslots ->
              [ (List.assoc slot pslots, Interval.of_int 0) ]
          | Some (Instr.Binop (Instr.Add, a, b)) ->
              merge
                (shift (interval_of s b) (go (depth + 1) a))
                (shift (interval_of s a) (go (depth + 1) b))
          | Some (Instr.Binop (Instr.Sub, a, b)) ->
              shift (Interval.neg (interval_of s b)) (go (depth + 1) a)
          | Some (Instr.Bitcast a) -> go (depth + 1) a
          | _ -> [])
      | Instr.Const_int _ | Instr.Const_bool _ | Instr.Null _ -> []
  in
  go 0 o

let extract_rsummary (ff : func_facts) ~(pure : bool) : rsummary =
  let f = ff.ff_func in
  let ctx = ff.ff_ctx in
  let in_state_of l =
    Option.value (Hashtbl.find_opt ff.ff_in l) ~default:Bot
  in
  let pslots = param_slot_map ctx f in
  let i64_pidx =
    List.mapi (fun i (r, ty) -> (r, ty, i)) f.Instr.params
    |> List.filter_map (fun (r, ty, i) ->
           if ty = Ty.I64 then Some (r, i) else None)
  in
  let i64_pslots =
    List.filter
      (fun (_, i) ->
        match List.nth_opt f.Instr.params i with
        | Some (_, Ty.I64) -> true
        | _ -> false)
      pslots
  in
  let nparams = List.length f.Instr.params in
  (* Fold over reachable returns. *)
  let rets = ref [] in
  List.iter
    (fun (l, (b : Instr.block)) ->
      match (b.Instr.term, in_state_of l) with
      | Instr.Ret o, St s ->
          rets := (o, transfer_insns ctx s b.Instr.insns) :: !rets
      | _ -> ())
    f.Instr.blocks;
  let rs_returns = !rets <> [] in
  let rs_ret =
    List.fold_left
      (fun acc (o, s) ->
        let v = match o with Some o -> eval_operand s o | None -> ATop in
        match acc with None -> Some v | Some a -> Some (a_join a v))
      None !rets
    |> Option.value
         ~default:
           (match f.Instr.ret_ty with
           | Some ty -> top_of_ty ty
           | None -> ATop)
  in
  let rs_rel =
    if f.Instr.ret_ty <> Some Ty.I64 then []
    else
      let per_ret =
        List.map
          (fun (o, s) ->
            match o with
            | Some o -> delta_of ctx i64_pidx i64_pslots s o
            | None -> [])
          !rets
      in
      match per_ret with
      | [] -> []
      | first :: rest ->
          (* a bound must hold at *every* return to be a postcondition *)
          List.fold_left
            (fun acc ds ->
              List.filter_map
                (fun (i, d) ->
                  match List.assoc_opt i ds with
                  | Some d' -> Some (i, Interval.join d d')
                  | None -> None)
                acc)
            first rest
          |> List.filter (fun (_, d) -> d <> Interval.top)
  in
  let rs_pre =
    (* Necessary condition for normal return: the parameter's entry
       value — read back from its single-store slot (refined by every
       guard crossed) or its SSA register — joined across returns. *)
    let slot_of i =
      List.find_opt (fun (_, j) -> j = i) pslots |> Option.map fst
    in
    List.init nparams (fun i ->
        let (pr, _) = List.nth f.Instr.params i in
        let v =
          List.fold_left
            (fun acc (_, s) ->
              let v =
                match slot_of i with
                | Some slot ->
                    Option.value (Env.find_opt slot s.slots) ~default:ATop
                | None -> Option.value (Env.find_opt pr s.regs) ~default:ATop
              in
              match acc with None -> Some v | Some a -> Some (a_join a v))
            None !rets
        in
        (i, v))
    |> List.filter_map (fun (i, v) ->
           match v with
           | Some (AInt iv) when iv <> Interval.top -> Some (i, AInt iv)
           | Some (ABool t) when t <> Tribool.TTop && t <> Tribool.TBot ->
               Some (i, ABool t)
           | Some (APtr n) when n <> Nullness.NTop && n <> Nullness.NBot ->
               Some (i, APtr n)
           | _ -> None)
  in
  let rs_may_panic =
    (* a reachable panic terminator, or a reachable call into a
       callee that may itself panic (unknown callees may) *)
    List.exists
      (fun (l, (b : Instr.block)) ->
        match in_state_of l with
        | Bot -> false
        | St _ -> (
            (match b.Instr.term with Instr.Panic _ -> true | _ -> false)
            || List.exists
                 (function
                   | Instr.Assign (_, Instr.Call (name, _))
                   | Instr.Call_void (name, _) -> (
                       match ctx.lookup name with
                       | Some rs -> rs.rs_may_panic
                       | None -> true)
                   | _ -> false)
                 b.Instr.insns))
      f.Instr.blocks
  in
  {
    rs_fn = f.Instr.fn_name;
    rs_params = f.Instr.params;
    rs_ret_ty = f.Instr.ret_ty;
    rs_ret;
    rs_rel;
    rs_pre;
    rs_pure = pure;
    rs_may_panic;
    rs_returns;
  }

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                             *)
(* ------------------------------------------------------------------ *)

(* How many downward refinement rounds an SCC gets: summaries start at
   the havoc top (sound for any fixpoint), and each recomputation with
   a sound table is itself sound, so truncation anywhere is safe —
   more rounds only tighten. *)
let scc_rounds = 3

(* Bound on the ascending context fixpoint before giving up (all
   non-roots revert soundly to ⊤-parameter contexts). *)
let context_rounds prog = (2 * List.length prog.Instr.funcs) + 4

(* Per-program (physical identity) memo for the env-independent parts
   of an analysis: callgraph, purity, and the plain PR 5 facts. Every
   env over the same program shares them. *)
type analyze_base = {
  ab_cg : Callgraph.t;
  ab_pure : SSet.t;
  ab_plain : (string, func_facts Lazy.t) Hashtbl.t;
}

(* Programs are immutable, so hashing one is safe; equality is
   identity. *)
module Base_memo = Memo.Make (struct
  type t = Instr.program

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let base_memo : analyze_base Base_memo.t =
  Base_memo.create ~name:"analysis.base" ~limit:8

let analyze_base (prog : Instr.program) : analyze_base =
  match Base_memo.find_opt base_memo prog with
  | Some b -> b
  | None ->
      let cg = Callgraph.build prog in
      let plain = Hashtbl.create 16 in
      List.iter
        (fun (f : Instr.func) ->
          Hashtbl.replace plain f.Instr.fn_name (lazy (analyze_func prog f)))
        prog.Instr.funcs;
      let b = { ab_cg = cg; ab_pure = pure_set prog cg; ab_plain = plain } in
      Base_memo.add base_memo prog b;
      b

(* Relational summaries per (program, filtered-field-invariant digest):
   every summarization-window env has no field invariants, so they all
   share one table per program. The persistence hook is part of the key
   (by identity, unhashed) so a freshly installed store still sees its
   loads and saves. A table is never written once memoized, and every
   analysis it serves reads that same table. *)
module Rsums_memo = Memo.Make (struct
  type t = Instr.program * string * ip_persist option

  let equal (p, fp, pr) (p', fp', pr') =
    p == p' && String.equal fp fp' && pr == pr'

  let hash (p, fp, _) = Hashtbl.hash (Hashtbl.hash p, fp)
end)

let rsums_memo : ((string, rsummary) Hashtbl.t * int * int) Rsums_memo.t =
  Rsums_memo.create ~name:"analysis.rsums" ~limit:16

(* Facts per (program, filtered field invariants, persistence hook,
   function, entry context): what an rsummary table is keyed by, with
   the field-invariant list itself rather than its digest, then the
   pair. The context fixpoint's rounds, the final facts and every env
   over the same program and field invariants share them, so each pair
   is analyzed once. An entry also records the rsummary table it was
   computed under and is served only under that table ([==]): a table
   recomputed after its memo entry was evicted is a new table. A context
   the fixpoint grew past keeps only its call sites ([Calls]): a later
   fixpoint over the same env harvests it again, but nothing reads its
   facts. *)
type pair_facts =
  | Facts of func_facts
  | Calls of (string * aval list) list (* callee, abstract arguments *)

module Facts_memo = Memo.Make (struct
  type t =
    Instr.program
    * (string * int * aval) list
    * ip_persist option
    * string
    * (string * aval) list

  let equal (p, fs, pr, fn, e) (p', fs', pr', fn', e') =
    p == p' && pr == pr' && String.equal fn fn' && fs = fs' && e = e'

  let hash (p, fs, _, fn, e) =
    Hashtbl.hash (Hashtbl.hash p, Hashtbl.hash fs, fn, Hashtbl.hash e)
end)

let facts_memo : ((string, rsummary) Hashtbl.t * pair_facts) Facts_memo.t =
  Facts_memo.create ~name:"analysis.facts" ~limit:256

let analyze ?env (prog : Instr.program) : summary =
  let { ab_cg = cg; ab_pure = pure; ab_plain = plain } = analyze_base prog in
  let is_pure fn = SSet.mem fn pure in
  let fields =
    match env with
    | None -> []
    | Some e -> field_invariants_filter prog e.env_fields
  in
  let fieldinv sname idx =
    List.find_map
      (fun (s, i, a) -> if s = sname && i = idx then Some a else None)
      fields
  in
  let find_fn fn = List.find (fun g -> g.Instr.fn_name = fn) prog.Instr.funcs in
  let persist = ip_persist_installed () in
  (* Everything the summaries depend on besides the function's own call
     cone: the surviving field invariants (already program-filtered). *)
  let envfp =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun (s, i, a) ->
                 Format.asprintf "%s.%d=%a" s i pp_aval a)
               fields)))
  in
  (* Bottom-up relational summaries over the SCC condensation, served
     from the persistence hook when installed. Cycles start at havoc
     and are refined a bounded number of rounds. *)
  let rsums, hits, misses =
    match Rsums_memo.find_opt rsums_memo (prog, envfp, persist) with
    | Some r -> r
    | None ->
        let rsums : (string, rsummary) Hashtbl.t = Hashtbl.create 16 in
        let lookup fn = Hashtbl.find_opt rsums fn in
        let hits = ref 0 and misses = ref 0 in
        let load_persisted fn =
          match persist with
          | None -> None
          | Some p -> (
              match p.ipp_load ~envfp fn with
              | Some rs when rsummary_matches (find_fn fn) rs -> Some rs
              | _ -> None)
        in
        let save_persisted fn rs =
          match persist with None -> () | Some p -> p.ipp_save ~envfp fn rs
        in
        let compute fn =
          let f = find_fn fn in
          let ff = analyze_func ~lookup ~fieldinv ~pure:is_pure prog f in
          extract_rsummary ff ~pure:(is_pure fn)
        in
        List.iter
          (fun scc ->
            let cyclic =
              match scc with [ one ] -> Callgraph.in_cycle cg one | _ -> true
            in
            let loaded = List.filter_map (fun fn ->
                Option.map (fun rs -> (fn, rs)) (load_persisted fn)) scc
            in
            if List.length loaded = List.length scc then begin
              hits := !hits + List.length scc;
              List.iter (fun (fn, rs) -> Hashtbl.replace rsums fn rs) loaded
            end
            else begin
              misses := !misses + List.length scc;
              if not cyclic then
                List.iter
                  (fun fn ->
                    let rs = compute fn in
                    Hashtbl.replace rsums fn rs;
                    save_persisted fn rs)
                  scc
              else begin
                List.iter
                  (fun fn ->
                    Hashtbl.replace rsums fn (havoc_rsummary (find_fn fn)))
                  scc;
                for _round = 1 to scc_rounds do
                  List.iter (fun fn -> Hashtbl.replace rsums fn (compute fn)) scc
                done;
                List.iter
                  (fun fn -> save_persisted fn (Hashtbl.find rsums fn))
                  scc
              end
            end)
          (Callgraph.sccs cg);
        let r = (rsums, !hits, !misses) in
        Rsums_memo.add rsums_memo (prog, envfp, persist) r;
        r
  in
  let lookup fn = Hashtbl.find_opt rsums fn in
  let key fn entry = (prog, fields, persist, fn, entry) in
  (* One function's facts under one entry context, attributed against
     plain: the harvests below and the final facts are the same call. *)
  let facts_at fn entry =
    match Facts_memo.find_opt facts_memo (key fn entry) with
    | Some (t, Facts ff) when t == rsums -> ff
    | _ ->
        let ff =
          analyze_func ~lookup ~fieldinv ~pure:is_pure ~entry
            ?plain:(Hashtbl.find_opt plain fn) prog (find_fn fn)
        in
        Facts_memo.replace facts_memo (key fn entry) (rsums, Facts ff);
        ff
  in
  (* Context fixpoint: with an env, every non-root function's
     parameters are narrowed to the join of all syntactic call-site
     arguments, iterated (ascending, widened) to a least fixpoint.
     Roots — and anything the roots cannot reach, which is never
     called and never harvested — keep ⊤ parameters (met with declared
     entry facts for roots). *)
  let contexts : (string, (string * aval) list) Hashtbl.t =
    Hashtbl.create 16
  in
  (match env with
  | None -> ()
  | Some e ->
      (* Only the declared roots: a function the roots cannot reach
         never runs under the env's contract, so its call sites must
         not join into anyone's context (it keeps ⊤ parameters itself
         simply by never receiving one). *)
      let roots = SSet.of_list e.env_roots in
      let reach = Callgraph.reachable_from cg (SSet.elements roots) in
      let entry_facts fn =
        match List.assoc_opt fn e.env_entry with
        | None -> []
        | Some l ->
            let f = find_fn fn in
            List.filter_map
              (fun (i, a) ->
                Option.map (fun (r, _) -> (r, a)) (List.nth_opt f.Instr.params i))
              l
      in
      let is_root fn = SSet.mem fn roots in
      (* per-function param context: None = not yet called (⊥),
         Some assoc = join so far (absent param = ⊥ too… params are
         always all present once called) *)
      let cur : (string, (string * aval) list) Hashtbl.t =
        Hashtbl.create 16
      in
      let a_eq (a : (string * aval) list) b =
        List.length a = List.length b
        && List.for_all2 (fun (r, v) (r', v') -> r = r' && v = v') a b
      in
      let rounds = context_rounds prog in
      (* (function, context) ↦ call sites, for every pair harvested *)
      let harvested = Hashtbl.create 16 in
      let converged = ref false in
      let round = ref 0 in
      while (not !converged) && !round < rounds do
        incr round;
        let next : (string, (string * aval) list) Hashtbl.t =
          Hashtbl.create 16
        in
        let add_call callee (args : aval list) =
          if
            Callgraph.is_defined cg callee
            && (not (is_root callee))
            && Callgraph.SSet.mem callee reach
          then
            let g = find_fn callee in
            if List.length g.Instr.params = List.length args then begin
              let fresh =
                List.map2 (fun (r, _) a -> (r, a)) g.Instr.params args
              in
              match Hashtbl.find_opt next callee with
              | None -> Hashtbl.replace next callee fresh
              | Some old ->
                  Hashtbl.replace next callee
                    (List.map2
                       (fun (r, v) (_, v') -> (r, a_join v v'))
                       old fresh)
            end
        in
        (* Every reachable call site of [fn] under [entry], in program
           order. *)
        let call_sites fn entry =
          match Facts_memo.find_opt facts_memo (key fn entry) with
          | Some (t, Calls cs) when t == rsums -> cs
          | _ ->
              let ff = facts_at fn entry in
              let cs = ref [] in
              List.iter
                (fun (l, (b : Instr.block)) ->
                  match Hashtbl.find_opt ff.ff_in l with
                  | None | Some Bot -> ()
                  | Some (St s0) ->
                      ignore
                        (List.fold_left
                           (fun s insn ->
                             (match insn with
                             | Instr.Assign (_, Instr.Call (callee, args))
                             | Instr.Call_void (callee, args) ->
                                 cs :=
                                   (callee, List.map (eval_operand s) args)
                                   :: !cs
                             | _ -> ());
                             transfer_insn ff.ff_ctx s insn)
                           s0 b.Instr.insns))
                ff.ff_func.Instr.blocks;
              List.rev !cs
        in
        let harvest fn (entry : (string * aval) list) =
          let cs =
            match Hashtbl.find_opt harvested (fn, entry) with
            | Some cs -> cs
            | None ->
                let cs = call_sites fn entry in
                Hashtbl.replace harvested (fn, entry) cs;
                cs
          in
          List.iter (fun (callee, args) -> add_call callee args) cs
        in
        (* roots always run; non-roots run once they have a context *)
        List.iter
          (fun (f : Instr.func) ->
            let fn = f.Instr.fn_name in
            if Callgraph.SSet.mem fn reach then
              if is_root fn then harvest fn (entry_facts fn)
              else
                match Hashtbl.find_opt cur fn with
                | Some c -> harvest fn c
                | None -> ())
          prog.Instr.funcs;
        (* join-with-previous plus widening keeps the chain ascending
           and finite *)
        let stable = ref true in
        Hashtbl.iter
          (fun fn fresh ->
            let nu =
              match Hashtbl.find_opt cur fn with
              | None -> fresh
              | Some old ->
                  List.map2
                    (fun (r, ov) (_, nv) ->
                      let j = a_join ov nv in
                      (r, if !round > 3 then a_widen ov j else j))
                    old fresh
            in
            (match Hashtbl.find_opt cur fn with
            | Some old when a_eq old nu -> ()
            | _ -> stable := false);
            Hashtbl.replace cur fn nu)
          next;
        (* a function called last round but not this one keeps its
           old context (monotone accumulation) *)
        converged := !stable
      done;
      if not !converged then Hashtbl.reset cur;
      List.iter
        (fun (f : Instr.func) ->
          let fn = f.Instr.fn_name in
          if is_root fn then Hashtbl.replace contexts fn (entry_facts fn)
          else
            match Hashtbl.find_opt cur fn with
            | Some c when !converged -> Hashtbl.replace contexts fn c
            | _ -> ())
        prog.Instr.funcs;
      (* Contexts the fixpoint grew past keep only their call sites. *)
      Hashtbl.iter
        (fun (fn, c) cs ->
          if Hashtbl.find_opt contexts fn <> Some c then
            Facts_memo.replace facts_memo (key fn c) (rsums, Calls cs))
        harvested);
  (* Final facts with converged contexts — forced lazily so an env that
     only ever executes a small call cone (a summarization window) never
     pays for the rest; a converged context was harvested with these
     very facts in the last round. *)
  let facts = Hashtbl.create 16 in
  List.iter
    (fun (f : Instr.func) ->
      let fn = f.Instr.fn_name in
      let entry =
        Option.value (Hashtbl.find_opt contexts fn) ~default:[]
      in
      Hashtbl.replace facts fn (lazy (facts_at fn entry)))
    prog.Instr.funcs;
  {
    sm_facts = facts;
    sm_plain = plain;
    sm_rsums = rsums;
    sm_cg = cg;
    sm_store_hits = hits;
    sm_store_misses = misses;
  }

(* Domain-local memo keyed on the program's physical identity plus the
   (structural) environment: the compile memo in Engine.Versions
   already guarantees one program value per version per domain, so
   re-verification never re-analyzes. *)
module Summary_memo = Memo.Make (struct
  type t = Instr.program * env option

  let equal (p, e) (p', e') = p == p' && e = e'
  let hash (p, e) = Hashtbl.hash (Hashtbl.hash p, Hashtbl.hash e)
end)

(* Each engine version accumulates one harness env plus a handful of
   summarization-window envs. *)
let summary_memo : summary Summary_memo.t =
  Summary_memo.create ~name:"analysis.summarize" ~limit:256

let summarize ?env (prog : Instr.program) : summary =
  match Summary_memo.find_opt summary_memo (prog, env) with
  | Some s -> s
  | None ->
      let s = analyze ?env prog in
      Summary_memo.add summary_memo (prog, env) s;
      s

let clear_memo () =
  Summary_memo.clear summary_memo;
  Base_memo.clear base_memo;
  Rsums_memo.clear rsums_memo;
  Facts_memo.clear facts_memo

(* ------------------------------------------------------------------ *)
(* Query API                                                          *)
(* ------------------------------------------------------------------ *)

let func_facts (s : summary) (fn : string) : func_facts option =
  Option.map Lazy.force (Hashtbl.find_opt s.sm_facts fn)

let rsummary_of (s : summary) (fn : string) : rsummary option =
  Hashtbl.find_opt s.sm_rsums fn

let callgraph (s : summary) : Callgraph.t = s.sm_cg
let store_traffic (s : summary) = (s.sm_store_hits, s.sm_store_misses)

(* Aggregate numbers for `dnsv lint --json` and the CI stats upload. *)
let interproc_stats (s : summary) : (string * int) list =
  let n pred = Hashtbl.fold (fun _ rs acc -> if pred rs then acc + 1 else acc) s.sm_rsums 0 in
  let nbranch pred =
    Hashtbl.fold
      (fun _ ff acc ->
        Blocktbl.fold (fun _ bi acc -> if pred bi then acc + 1 else acc) (Lazy.force (Lazy.force ff).ff_branch) acc)
      s.sm_facts 0
  in
  [
    ("functions", Hashtbl.length s.sm_rsums);
    ("pure", n (fun rs -> rs.rs_pure));
    ("may_panic", n (fun rs -> rs.rs_may_panic));
    ("with_ret_bounds", n (fun rs -> rs.rs_ret <> ATop
      && (match rs.rs_ret_ty with Some Ty.I64 -> rs.rs_ret <> AInt Interval.top | Some Ty.I1 -> rs.rs_ret <> ABool Tribool.TTop | Some _ -> rs.rs_ret <> APtr Nullness.NTop | None -> false)));
    ("with_rel_bounds", n (fun rs -> rs.rs_rel <> []));
    ("with_preconditions", n (fun rs -> rs.rs_pre <> []));
    ("store_hits", s.sm_store_hits);
    ("store_misses", s.sm_store_misses);
    ("branches", nbranch (fun _ -> true));
    ("interproc_branch_facts", nbranch (fun bi -> bi.bi_interproc));
  ]

(* The executor's lookup: facts for the conditional branch terminating
   [b]. The block is matched by physical identity — the executor and
   the analysis walk the same program value. *)
let branch_info (ff : func_facts) (b : Instr.block) : branch_info option =
  Blocktbl.find_opt (Lazy.force ff.ff_branch) b

let branch_fact (s : summary) (fn : string) (b : Instr.block) :
    edge_fact option =
  match Hashtbl.find_opt s.sm_facts fn with
  | None -> None
  | Some ff -> Option.map (fun bi -> bi.bi_fact) (branch_info (Lazy.force ff) b)

let in_state (s : summary) ~(fn : string) ~(label : Instr.label) :
    state option =
  match Hashtbl.find_opt s.sm_facts fn with
  | None -> None
  | Some ff ->
      let ff = Lazy.force ff in
      Some (Option.value (Hashtbl.find_opt ff.ff_in label) ~default:Bot)

let reachable (s : summary) ~(fn : string) ~(label : Instr.label) : bool =
  match in_state s ~fn ~label with
  | Some (St _) -> true
  | Some Bot | None -> false

(* ------------------------------------------------------------------ *)
(* Concretization check (the soundness test's γ relation)             *)
(* ------------------------------------------------------------------ *)

let value_in_aval (v : Value.t) (a : aval) : bool =
  match (a, v) with
  | ATop, _ -> true
  | AInt i, Value.VInt n -> Interval.mem n i
  | ABool t, Value.VBool b ->
      Tribool.meet t (Tribool.of_bool b) <> Tribool.TBot
  | APtr n, Value.VNull -> Nullness.meet n Nullness.NNull <> Nullness.NBot
  | APtr n, Value.VPtr _ -> Nullness.meet n Nullness.NNot <> Nullness.NBot
  | _, Value.VUnit -> true
  | _ -> false (* sort mismatch: the abstraction is wrong *)

(* Is the concrete frame/memory at some block entry inside [state]?
   [lookup] reads a register from the live frame (absent registers are
   vacuously fine); [load] reads a slot's cell through the pointer the
   slot register currently holds. *)
let check_concrete (state : state) ~(lookup : string -> Value.t option)
    ~(load : Value.ptr -> Value.t option) : (unit, string) result =
  match state with
  | Bot -> Error "concrete execution reached a block the analysis proved dead"
  | St s ->
      let err = ref None in
      let fail fmt = Format.kasprintf (fun m -> if !err = None then err := Some m) fmt in
      Env.iter
        (fun r a ->
          match lookup r with
          | None -> ()
          | Some v ->
              if not (value_in_aval v a) then
                fail "register %%%s = %a outside %a" r Value.pp v pp_aval a)
        s.regs;
      Env.iter
        (fun slot a ->
          match lookup slot with
          | Some (Value.VPtr p) -> (
              match load p with
              | Some v ->
                  if not (value_in_aval v a) then
                    fail "slot %%%s = %a outside %a" slot Value.pp v pp_aval a
              | None -> ())
          | _ -> ())
        s.slots;
      (match !err with Some m -> Error m | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Lint                                                               *)
(* ------------------------------------------------------------------ *)

module Lint = struct
  type severity = Error | Warning | Info

  let severity_to_string = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"

  type finding = {
    rule : string;
    severity : severity;
    fn : string;
    block : Instr.label;
    index : int; (* instruction index in the block; -1 = terminator *)
    message : string;
  }

  (* CFG reachability ignoring abstract states: blocks with no path
     from entry at all are frontend artifacts (e.g. the implicit
     "missing return" continuation) and are not worth reporting. A
     branch on a literal constant is treated as the unconditional jump
     it is — `for {}` compiles to `br true, body, exit`, and its exit
     block is an artifact too, not dead user code. *)
  let graph_reachable (f : Instr.func) : SSet.t =
    let seen = ref SSet.empty in
    let rec go l =
      if not (SSet.mem l !seen) then begin
        seen := SSet.add l !seen;
        match (Instr.find_block f l).Instr.term with
        | Instr.Br l' -> go l'
        | Instr.Cond_br (Instr.Const_bool true, l1, _) -> go l1
        | Instr.Cond_br (Instr.Const_bool false, _, l2) -> go l2
        | Instr.Cond_br (_, l1, l2) ->
            go l1;
            go l2
        | Instr.Ret _ | Instr.Panic _ | Instr.Unreachable -> ()
      end
    in
    go f.Instr.entry;
    !seen

  (* Backward may-liveness of tracked slots, for dead-store findings:
     a slot is live at a point if some path from there loads it before
     any store kills it (re-allocation kills it too). *)
  let slot_liveness (ff : func_facts) : (Instr.label, SSet.t) Hashtbl.t =
    let f = ff.ff_func in
    let tracked = ff.ff_ctx.tracked in
    let live_in = Hashtbl.create 16 in
    let live_out l =
      let succs =
        match (Instr.find_block f l).Instr.term with
        | Instr.Br l' -> [ l' ]
        | Instr.Cond_br (_, l1, l2) -> [ l1; l2 ]
        | _ -> []
      in
      List.fold_left
        (fun acc l' ->
          SSet.union acc
            (Option.value (Hashtbl.find_opt live_in l') ~default:SSet.empty))
        SSet.empty succs
    in
    let transfer_back (b : Instr.block) (live : SSet.t) : SSet.t =
      List.fold_left
        (fun live insn ->
          match insn with
          | Instr.Assign (_, Instr.Load (_, Instr.Reg p))
            when SSet.mem p tracked ->
              SSet.add p live
          | Instr.Assign (r, Instr.Alloca _) when SSet.mem r tracked ->
              SSet.remove r live
          | Instr.Store (_, _, Instr.Reg p) when SSet.mem p tracked ->
              SSet.remove p live
          | Instr.Call_void (_, args) ->
              (* a tracked slot can only appear here when the callee is
                 pure (anything else untracks it) — a read, not a kill *)
              List.fold_left
                (fun live -> function
                  | Instr.Reg q when SSet.mem q tracked -> SSet.add q live
                  | _ -> live)
                live args
          | _ -> live)
        live (List.rev b.Instr.insns)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (l, b) ->
          let nu = transfer_back b (live_out l) in
          let old =
            Option.value (Hashtbl.find_opt live_in l) ~default:SSet.empty
          in
          if not (SSet.equal nu old) then begin
            Hashtbl.replace live_in l nu;
            changed := true
          end)
        (List.rev f.Instr.blocks)
    done;
    live_in

  (* Syntactic leaves of a branch condition: the I64 comparisons it is
     built from (through Not/And/Or). Used by the off-by-one heuristic
     below. *)
  let rec icmp_leaves (defs : Instr.rvalue Env.t) (o : Instr.operand) :
      (Instr.icmp * Ty.t * Instr.operand * Instr.operand) list =
    match o with
    | Instr.Reg r -> (
        match Env.find_opt r defs with
        | Some (Instr.Icmp (op, ty, a, b)) -> [ (op, ty, a, b) ]
        | Some (Instr.Not a) -> icmp_leaves defs a
        | Some (Instr.Binop ((Instr.And_ | Instr.Or_), a, b)) ->
            icmp_leaves defs a @ icmp_leaves defs b
        | _ -> [])
    | _ -> []

  let lint_func ?plain (ff : func_facts) : finding list =
    let f = ff.ff_func in
    let ctx = ff.ff_ctx in
    let fn = f.Instr.fn_name in
    let findings = ref [] in
    let report rule severity block index fmt =
      Format.kasprintf
        (fun message ->
          findings := { rule; severity; fn; block; index; message } :: !findings)
        fmt
    in
    let reach = graph_reachable f in
    let liveness = slot_liveness ff in
    let in_state_of l =
      Option.value (Hashtbl.find_opt ff.ff_in l) ~default:Bot
    in
    let is_panic l =
      match (Instr.find_block f l).Instr.term with
      | Instr.Panic _ -> true
      | _ -> false
    in
    (* Dead blocks: CFG-reachable yet proved unreachable. Panic blocks
       are excluded — an unreachable panic is the *good* outcome and is
       counted as discharged, not reported. *)
    List.iter
      (fun (l, (b : Instr.block)) ->
        if
          SSet.mem l reach
          && in_state_of l = Bot
          && (match b.Instr.term with Instr.Panic _ -> false | _ -> true)
        then report "dead-block" Info l (-1) "block is statically unreachable")
      f.Instr.blocks;
    (* Per-block instruction walk with the running abstract state. *)
    List.iter
      (fun (l, (b : Instr.block)) ->
        match in_state_of l with
        | Bot -> ()
        | St s0 ->
            let live_after_store idx p =
              (* Live just after instruction [idx]: replay the backward
                 transfer over the remaining instructions of the block
                 against the block's live-out. *)
              let rest =
                List.filteri (fun i _ -> i > idx) b.Instr.insns
              in
              let out =
                match b.Instr.term with
                | Instr.Br l' ->
                    Option.value (Hashtbl.find_opt liveness l')
                      ~default:SSet.empty
                | Instr.Cond_br (_, l1, l2) ->
                    SSet.union
                      (Option.value (Hashtbl.find_opt liveness l1)
                         ~default:SSet.empty)
                      (Option.value (Hashtbl.find_opt liveness l2)
                         ~default:SSet.empty)
                | _ -> SSet.empty
              in
              let live =
                List.fold_left
                  (fun live insn ->
                    match insn with
                    | Instr.Assign (_, Instr.Load (_, Instr.Reg q))
                      when SSet.mem q ctx.tracked ->
                        SSet.add q live
                    | Instr.Assign (r, Instr.Alloca _)
                      when SSet.mem r ctx.tracked ->
                        SSet.remove r live
                    | Instr.Store (_, _, Instr.Reg q)
                      when SSet.mem q ctx.tracked ->
                        SSet.remove q live
                    | Instr.Call_void (_, args) ->
                        List.fold_left
                          (fun live -> function
                            | Instr.Reg q when SSet.mem q ctx.tracked ->
                                SSet.add q live
                            | _ -> live)
                          live args
                    | _ -> live)
                  out (List.rev rest)
              in
              SSet.mem p live
            in
            let alloca_index = Hashtbl.create 4 in
            List.iteri
              (fun i insn ->
                match insn with
                | Instr.Assign (r, Instr.Alloca _) ->
                    Hashtbl.replace alloca_index r i
                | _ -> ())
              b.Instr.insns;
            let check_call s i callee (args : Instr.operand list) =
              match ctx.lookup callee with
              | None -> ()
              | Some rs ->
                  let n = List.length rs.rs_params in
                  if List.length args <> n then
                    report "call-arity" Error l i
                      "call to %s passes %d argument(s), %s expects %d" callee
                      (List.length args) callee n
                  else begin
                    List.iteri
                      (fun j arg ->
                        let _, pty = List.nth rs.rs_params j in
                        let bad =
                          match (arg, pty) with
                          | Instr.Const_int _, Ty.I64 -> false
                          | Instr.Const_int _, _ -> true
                          | Instr.Const_bool _, Ty.I1 -> false
                          | Instr.Const_bool _, _ -> true
                          | Instr.Null _, t -> not (is_ptr_ty t)
                          | Instr.Reg _, _ -> false
                        in
                        if bad then
                          report "ill-typed-call" Error l i
                            "argument %d of call to %s does not fit \
                             parameter type %s"
                            j callee (Ty.to_string pty))
                      args;
                    (* Guaranteed panic: the callee provably never
                       returns normally (and can panic), or this site
                       passes an argument wholly outside a necessary
                       condition for normal return. *)
                    if rs.rs_may_panic then
                      if not rs.rs_returns then
                        report "guaranteed-panic" Error l i
                          "call to %s can never return normally" callee
                      else
                        List.iter
                          (fun (j, pre) ->
                            match List.nth_opt args j with
                            | Some a
                              when not (a_compatible (eval_operand s a) pre)
                              ->
                                report "guaranteed-panic" Error l i
                                  "argument %d of call to %s is %a, outside \
                                   the values (%a) %s ever returns normally \
                                   with"
                                  j callee pp_aval (eval_operand s a) pp_aval
                                  pre callee
                            | _ -> ())
                          rs.rs_pre
                  end
            in
            let _ =
              List.fold_left
                (fun (s, i) insn ->
                  (match insn with
                  | Instr.Assign (_, Instr.Call (callee, args))
                  | Instr.Call_void (callee, args) ->
                      check_call s i callee args
                  | _ -> ());
                  (match insn with
                  | Instr.Assign (_, Instr.Binop ((Instr.Sdiv | Instr.Srem), _, d))
                    -> (
                      match interval_of s d with
                      | Interval.I (Some 0, Some 0) ->
                          report "div-by-zero" Error l i
                            "division by a value that is always zero"
                      | iv when Interval.mem 0 iv && Interval.finite iv ->
                          report "div-by-maybe-zero" Warning l i
                            "divisor %a may be zero" Interval.pp iv
                      | _ -> ())
                  | Instr.Assign (_, Instr.Load (_, o))
                  | Instr.Store (_, _, o)
                  | Instr.Assign (_, Instr.Gep (_, o, _)) -> (
                      match nullness_of s o with
                      | Nullness.NNull ->
                          report "nil-deref" Error l i
                            "pointer is always nil here"
                      | _ -> ())
                  | _ -> ());
                  (match insn with
                  | Instr.Assign (_, Instr.Load (_, Instr.Reg p))
                    when SSet.mem p ctx.tracked
                         && (not (SSet.mem p s.inited))
                         && not (Hashtbl.mem alloca_index p) ->
                      (* Loaded before any store on some path. Minir
                         zero-initializes slots, so this is Go-legal —
                         but loads in the declaring block come straight
                         from `var x T; use x`, worth a note. *)
                      report "use-before-init" Info l i
                        "slot %%%s is read before any store on some path" p
                  | _ -> ());
                  (match insn with
                  | Instr.Store (_, _, Instr.Reg p)
                    when SSet.mem p ctx.tracked
                         && (not (live_after_store i p))
                         && not (Hashtbl.mem alloca_index p) ->
                      (* Initializer stores (same block as the alloca)
                         are the frontend's `var x = e` shape and are
                         exempt; anything else stored and never loaded
                         again is a dead store. *)
                      report "dead-store" Warning l i
                        "value stored to %%%s is never read" p
                  | _ -> ());
                  (transfer_insn ctx s insn, i + 1))
                (s0, 0) b.Instr.insns
            in
            let s = transfer_insns ctx s0 b.Instr.insns in
            (* Reachable panic guards: a conditional edge into a panic
               block that survives abstract interpretation. Reported
               only when the guard is decided by *constant* data (every
               integer comparison it is built from has finite bounds
               under the *plain* intraprocedural state — interprocedural
               summaries bound call results too, which would misread a
               symbolic-input-bounded check as constant data; those are
               the verifier's job, not the linter's). Guards that are
               definitely taken are errors outright. *)
            (match b.Instr.term with
            | Instr.Cond_br (c, l1, l2) ->
                let edges =
                  [ (true, l1); (false, l2) ]
                  |> List.filter (fun (_, t) -> is_panic t)
                in
                let plain_state =
                  match plain with
                  | None -> Some s
                  | Some (pf : func_facts) -> (
                      match Hashtbl.find_opt pf.ff_in l with
                      | Some (St ps) ->
                          Some (transfer_insns pf.ff_ctx ps b.Instr.insns)
                      | Some Bot | None -> None)
                in
                List.iter
                  (fun (truth, target) ->
                    if assume ctx s c truth <> Bot then begin
                      let tb = tribool_of s c in
                      let definite =
                        tb = Tribool.of_bool truth
                      in
                      let leaves = icmp_leaves ctx.defs c in
                      let finite_leaves =
                        match plain_state with
                        | None -> false
                        | Some ps ->
                            leaves <> []
                            && List.for_all
                                 (fun (_, ty, a, b) ->
                                   ty = Ty.I64
                                   && Interval.finite (interval_of ps a)
                                   && Interval.finite (interval_of ps b))
                                 leaves
                      in
                      if definite then
                        report "reachable-panic" Error l (-1)
                          "panic %S is always reached from this branch"
                          (match (Instr.find_block f target).Instr.term with
                          | Instr.Panic m -> m
                          | _ -> "?")
                      else if finite_leaves then
                        report "reachable-panic" Error l (-1)
                          "panic %S is reachable with constant bounds \
                           (likely off-by-one)"
                          (match (Instr.find_block f target).Instr.term with
                          | Instr.Panic m -> m
                          | _ -> "?")
                    end)
                  edges
            | _ -> ()))
      f.Instr.blocks;
    List.rev !findings

  (* [entries] — when given, functions unreachable through call edges
     from any entry are reported (the dead-callee class). Left off for
     library-style programs where every function is a potential entry. *)
  let run ?env ?entries (prog : Instr.program) : finding list =
    let summary = summarize ?env prog in
    let per_fn =
      List.concat_map
        (fun (f : Instr.func) ->
          match Hashtbl.find_opt summary.sm_facts f.Instr.fn_name with
          | Some ff ->
              lint_func
                ?plain:
                  (Option.map Lazy.force
                     (Hashtbl.find_opt summary.sm_plain f.Instr.fn_name))
                (Lazy.force ff)
          | None -> [])
        prog.Instr.funcs
    in
    let dead_callees =
      match entries with
      | None -> []
      | Some es ->
          let reach = Callgraph.reachable_from summary.sm_cg es in
          List.filter_map
            (fun (f : Instr.func) ->
              if Callgraph.SSet.mem f.Instr.fn_name reach then None
              else
                Some
                  {
                    rule = "dead-callee";
                    severity = Warning;
                    fn = f.Instr.fn_name;
                    block = f.Instr.entry;
                    index = -1;
                    message =
                      Printf.sprintf
                        "function %s is unreachable from every engine entry"
                        f.Instr.fn_name;
                  })
            prog.Instr.funcs
    in
    per_fn @ dead_callees

  (* ---------------------------------------------------------------- *)
  (* Rendering                                                        *)
  (* ---------------------------------------------------------------- *)

  let pp_finding fmt (x : finding) =
    Format.fprintf fmt "%s: %s/%s%s: [%s] %s"
      (severity_to_string x.severity)
      x.fn x.block
      (if x.index >= 0 then Printf.sprintf ":%d" x.index else "")
      x.rule x.message

  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let counts (fs : finding list) =
    let n sev = List.length (List.filter (fun f -> f.severity = sev) fs) in
    (n Error, n Warning, n Info)

  (* One JSON object per lint run; deterministic (program order). *)
  let to_json (fs : finding list) : string =
    let b = Buffer.create 1024 in
    let errors, warnings, infos = counts fs in
    Printf.bprintf b
      "{\"counts\": {\"error\": %d, \"warning\": %d, \"info\": %d}, \
       \"findings\": ["
      errors warnings infos;
    List.iteri
      (fun i (x : finding) ->
        Printf.bprintf b
          "%s\n  {\"rule\": \"%s\", \"severity\": \"%s\", \"fn\": \"%s\", \
           \"block\": \"%s\", \"index\": %d, \"message\": \"%s\"}"
          (if i = 0 then "" else ",")
          (json_escape x.rule)
          (severity_to_string x.severity)
          (json_escape x.fn) (json_escape x.block) x.index
          (json_escape x.message))
      fs;
    Buffer.add_string b "]}";
    Buffer.contents b
end
