(* Automated specification summarization (§4.2, §5.3, §6.4).

   A summary represents a module as the set of input-effect pairs
   collected by full-path symbolic execution: for the k-th path, its
   path condition θ_k and effects f_k (writes to memory, allocations,
   return value). Inputs are canonicalized — every symbolic scalar
   reachable from the arguments is renamed to a positional symbol
   ($a0, $c3, …) following a consistent naming convention — so one
   summary is reusable at every call site that presents the same
   *shape*: same pointer structure and same concrete values, with
   arbitrary symbolic terms in the symbolic slots.

   Two deliberate deviations from the paper, documented in DESIGN.md:
   summaries are specialized on the concrete parts of the calling
   context (the paper instead represents appends abstractly), and the
   read-only heap region (the concrete domain tree, §6.5) is identified
   by a [frozen_below] bound rather than by annotation. *)

module Term = Smt.Term
module Value = Minir.Value

type write = { w_block : int; w_path : int list; w_cell : Sval.scell }

type outcome_kind =
  | Ret of Sval.sval option
  | Panic of string

type case = {
  cond : Term.t list; (* over canonical symbols; initial pc was true *)
  writes : write list;
  allocs : (int * Sval.scell) list; (* summarization-time block id → contents *)
  outcome : outcome_kind;
}

type t = {
  fn : string;
  cases : case list;
  canon_next_block : int; (* allocation watermark at summarization time *)
  elapsed : float; (* seconds spent summarizing (Figure 12) *)
}

let case_count (s : t) = List.length s.cases

(* Raised when a summary cannot be built or fails validation; the
   refinement checker catches it and falls back to inlining the layer
   (graceful degradation instead of aborting the whole check). *)
exception Summary_failed of string

(* Structural validation applied before a summary enters the cache: a
   summary with no cases (the callee has at least one path), or with a
   case whose writes escape below the canonical allocation watermark
   into the frozen read-only heap, would replay nonsense silently. *)
let validate (s : t) : (unit, string) result =
  if Faultinject.fire Faultinject.Summary_invalid then
    Error (s.fn ^ ": injected validation failure")
  else if s.cases = [] then Error (s.fn ^ ": summary has no cases")
  else
    let bad_alloc =
      List.exists
        (fun c -> List.exists (fun (b, _) -> b < 0) c.allocs)
        s.cases
    in
    if bad_alloc then Error (s.fn ^ ": summary allocates a negative block id")
    else Ok ()

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                   *)
(* ------------------------------------------------------------------ *)

type canon_state = {
  mutable bindings : (string * Term.t) list; (* canonical name → actual term *)
  mutable counter : int;
  buf : Buffer.t; (* the cache key being built *)
}

let new_state () = { bindings = []; counter = 0; buf = Buffer.create 256 }

(* The key text. Summary keys are persisted in stores, so these bytes
   are a format: [key_*] (which only writes the key and the bindings)
   and [canon_*] (which also rebuilds the canonical value) must write
   the same bytes and bind the same names in the same order. *)

let add_int buf n = Buffer.add_string buf (string_of_int n)

let add_ptr buf (p : Value.ptr) =
  Buffer.add_char buf '&';
  add_int buf p.Value.block;
  Buffer.add_char buf '.';
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char buf '.';
      add_int buf k)
    p.Value.path

(* A concrete scalar is written into the key; a symbolic one becomes a
   slot "?" bound to the next canonical name, which is returned. *)
let key_term (st : canon_state) (t : Term.t) : string option =
  match t with
  | Term.Int_const n ->
      Buffer.add_char st.buf '#';
      add_int st.buf n;
      None
  | Term.True ->
      Buffer.add_string st.buf "#t";
      None
  | Term.False ->
      Buffer.add_string st.buf "#f";
      None
  | t ->
      let name = "$c" ^ string_of_int st.counter in
      st.counter <- st.counter + 1;
      st.bindings <- (name, t) :: st.bindings;
      Buffer.add_char st.buf '?';
      Some name

let canon_term (st : canon_state) (t : Term.t) (sort : Term.sort) : Term.t =
  match key_term st t with None -> t | Some name -> Term.var name sort

let rec key_cell (st : canon_state) (c : Sval.scell) : unit =
  match c with
  | Sval.CInt t | Sval.CBool t -> ignore (key_term st t)
  | Sval.CPtr p -> add_ptr st.buf p
  | Sval.CNull -> Buffer.add_char st.buf '0'
  | Sval.CStruct cells ->
      Buffer.add_char st.buf '{';
      Array.iter (key_cell st) cells;
      Buffer.add_char st.buf '}'
  | Sval.CArray cells ->
      Buffer.add_char st.buf '[';
      Array.iter (key_cell st) cells;
      Buffer.add_char st.buf ']'

let rec canon_cell (st : canon_state) (c : Sval.scell) : Sval.scell =
  match c with
  | Sval.CInt t -> Sval.CInt (canon_term st t Term.Int)
  | Sval.CBool t -> Sval.CBool (canon_term st t Term.Bool)
  | Sval.CPtr _ | Sval.CNull ->
      key_cell st c;
      c
  | Sval.CStruct cells ->
      Buffer.add_char st.buf '{';
      let out = Array.map (canon_cell st) cells in
      Buffer.add_char st.buf '}';
      Sval.CStruct out
  | Sval.CArray cells ->
      Buffer.add_char st.buf '[';
      let out = Array.map (canon_cell st) cells in
      Buffer.add_char st.buf ']';
      Sval.CArray out

let key_sval (st : canon_state) (v : Sval.sval) : unit =
  match v with
  | Sval.SInt t | Sval.SBool t -> ignore (key_term st t)
  | Sval.SPtr p -> add_ptr st.buf p
  | Sval.SNull -> Buffer.add_char st.buf '0'
  | Sval.SUnit -> ()

let canon_sval (st : canon_state) (v : Sval.sval) : Sval.sval =
  match v with
  | Sval.SInt t -> Sval.SInt (canon_term st t Term.Int)
  | Sval.SBool t -> Sval.SBool (canon_term st t Term.Bool)
  | Sval.SPtr _ | Sval.SNull | Sval.SUnit ->
      key_sval st v;
      v

(* Pointers reachable from the arguments, stopping at frozen (read-only
   heap) blocks — the concrete domain tree is closed under pointers. *)
let reachable_blocks ~(frozen_below : int) (mem : Sval.memory)
    (args : Sval.sval list) : int list =
  (* The seen-set is the answer itself: a handful of blocks, compared
     with [==], which is equality on ints. *)
  let rec visit seen b =
    if List.memq b seen then seen
    else
      let seen = b :: seen in
      if b >= frozen_below then pointees seen (Sval.block_value mem b)
      else seen
  and pointees seen = function
    | Sval.CPtr p -> visit seen p.Value.block
    | Sval.CStruct cells | Sval.CArray cells -> Array.fold_left pointees seen cells
    | Sval.CInt _ | Sval.CBool _ | Sval.CNull -> seen
  in
  List.fold_left
    (fun seen -> function Sval.SPtr p -> visit seen p.Value.block | _ -> seen)
    [] args
  |> List.sort Int.compare

(* The walk of a call shape that writes its key: [fn], the arguments
   ([arg] writes each and returns its canonical form), then every
   reachable block in ascending order — a frozen one by number alone, a
   live one with its contents, written by [block]. *)
let walk_call (st : canon_state) ~(frozen_below : int) ~(fn : string)
    ~(args : Sval.sval list) ~(reach : int list) ~(arg : Sval.sval -> 'a)
    ~(block : int -> unit) : 'a list =
  Buffer.add_string st.buf fn;
  let out =
    List.mapi
      (fun idx a ->
        Buffer.add_string st.buf "|a";
        add_int st.buf idx;
        Buffer.add_char st.buf '=';
        arg a)
      args
  in
  List.iter
    (fun b ->
      if b < frozen_below then begin
        Buffer.add_string st.buf "|h";
        add_int st.buf b
      end
      else begin
        Buffer.add_string st.buf "|b";
        add_int st.buf b;
        Buffer.add_char st.buf '=';
        block b
      end)
    reach;
  out

(* The summary-cache key of calling [fn] on [args] in [mem], with this
   call site's bindings and reachable blocks. Walks memory without
   rebuilding it: the intercept needs the canonical memory only on a
   miss ([summarize_at]). *)
let call_key ~(frozen_below : int) (mem : Sval.memory) ~(fn : string)
    ~(args : Sval.sval list) : string * (string * Term.t) list * int list =
  let st = new_state () in
  let reach = reachable_blocks ~frozen_below mem args in
  ignore
    (walk_call st ~frozen_below ~fn ~args ~reach ~arg:(key_sval st)
       ~block:(fun b -> key_cell st (Sval.block_value mem b)));
  (Buffer.contents st.buf, st.bindings, reach)

(* ------------------------------------------------------------------ *)
(* Effect extraction: diff final memory against the canonical initial
   memory (the §5.3 effect patterns: field updates, appends — stores at
   now-concrete indices — and newobject allocations).                 *)
(* ------------------------------------------------------------------ *)

let rec diff_cells (acc : (int list * Sval.scell) list) rev_prefix
    (old_c : Sval.scell) (new_c : Sval.scell) =
  match (old_c, new_c) with
  | Sval.CStruct a, Sval.CStruct b | Sval.CArray a, Sval.CArray b ->
      let acc = ref acc in
      Array.iteri
        (fun k old_sub -> acc := diff_cells !acc (k :: rev_prefix) old_sub b.(k))
        a;
      !acc
  | old_s, new_s ->
      if Sval.equal_scalar old_s new_s then acc
      else (List.rev rev_prefix, new_s) :: acc

let diff_memory (m0 : Sval.memory) (mf : Sval.memory) :
    write list * (int * Sval.scell) list =
  let writes = ref [] and allocs = ref [] in
  Sval.Int_map.iter
    (fun b new_cell ->
      if Sval.is_stack_block mf b then ()
      else
      match Sval.Int_map.find_opt b m0.Sval.blocks with
      | None -> allocs := (b, new_cell) :: !allocs
      | Some old_cell ->
          if old_cell != new_cell then
            List.iter
              (fun (p, cell) ->
                writes := { w_block = b; w_path = p; w_cell = cell } :: !writes)
              (diff_cells [] [] old_cell new_cell))
    mf.Sval.blocks;
  (List.rev !writes, List.rev !allocs)

(* ------------------------------------------------------------------ *)
(* Summarization                                                      *)
(* ------------------------------------------------------------------ *)

(* The env a summarization window vouches for: [fn] is its only entry,
   and canonicalization keeps pointer arguments concrete — each is a
   definite address or a definite null for the whole window — while
   scalars become fresh unconstrained symbols (no fact) and the
   scrubbed heap admits no field invariants. Interned per nullness
   pattern so repeated windows hand [Analysis.summarize]'s memo a
   physically stable key. *)
let window_env_memo : (string, Analysis.env) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

let window_env (fn : string) (canon_args : Sval.sval list) : Analysis.env =
  let pattern =
    String.concat ""
      (List.map
         (function
           | Sval.SPtr _ -> "p"
           | Sval.SNull -> "0"
           | _ -> "_")
         canon_args)
  in
  let memo = Domain.DLS.get window_env_memo in
  let k = fn ^ "|" ^ pattern in
  match Hashtbl.find_opt memo k with
  | Some e -> e
  | None ->
      let e =
        {
          Analysis.env_roots = [ fn ];
          env_entry =
            [
              ( fn,
                List.mapi (fun i a -> (i, a)) canon_args
                |> List.filter_map (fun (i, a) ->
                       match a with
                       | Sval.SPtr _ ->
                           Some (i, Analysis.APtr Analysis.Nullness.NNot)
                       | Sval.SNull ->
                           Some (i, Analysis.APtr Analysis.Nullness.NNull)
                       | _ -> None) );
            ];
          env_fields = [];
        }
      in
      Hashtbl.replace memo k e;
      e

(* Summarize [fn] as called with [args] in [mem]: canonicalize the
   symbolic inputs, run full-path symbolic execution from a true path
   condition, and collect one case per path. Returns the summary plus
   the canonical-to-actual bindings of this call site and the cache
   key. [reach], if given, is the call's reachable blocks as
   [call_key] computed them. *)
let summarize_at ?reach (ctx : Exec.ctx) ~(frozen_below : int)
    ~(mem : Sval.memory) ~(fn : string) ~(args : Sval.sval list) :
    t * (string * Term.t) list * string =
  if Faultinject.fire Faultinject.Summarize_raise then
    raise (Summary_failed (fn ^ ": injected raise mid-summary"));
  let st = new_state () in
  let reach =
    match reach with
    | Some r -> r
    | None -> reachable_blocks ~frozen_below mem args
  in
  let canon_mem = ref mem in
  let canon_args =
    walk_call st ~frozen_below ~fn ~args ~reach ~arg:(canon_sval st)
      ~block:(fun b ->
        let cell = canon_cell st (Sval.block_value mem b) in
        canon_mem :=
          {
            !canon_mem with
            Sval.blocks = Sval.Int_map.add b cell !canon_mem.Sval.blocks;
          })
  in
  let canon_mem = !canon_mem in
  let key = Buffer.contents st.buf in
  let window_env = window_env fn canon_args in
  (* The callee must execute its own body here, not its own summary. *)
  let saved = ctx.Exec.intercepts in
  ctx.Exec.intercepts <- List.remove_assoc fn saved;
  let t0 = Unix.gettimeofday () in
  let results =
    Fun.protect
      ~finally:(fun () -> ctx.Exec.intercepts <- saved)
      (fun () ->
        (* A summary that exhausts the budget mid-build is a *summary*
           failure, not a whole-check failure: the checker can still
           fall back to inlining this layer. *)
        try
          Exec.run ~env_override:window_env ctx ~memory:canon_mem ~pc:[] ~fn
            ~args:canon_args
        with Budget.Exhausted reason ->
          raise
            (Summary_failed
               (Printf.sprintf "%s: %s while summarizing" fn
                  (Budget.reason_to_string reason))))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let cases =
    List.map
      (fun ((path : Exec.path), outcome) ->
        let writes, allocs = diff_memory canon_mem path.Exec.mem in
        {
          cond = List.rev path.Exec.pc;
          writes;
          allocs;
          outcome =
            (match outcome with
            | Exec.Returned v -> Ret v
            | Exec.Panicked m -> Panic m);
        })
      results
  in
  ( { fn; cases; canon_next_block = canon_mem.Sval.next_block; elapsed },
    st.bindings,
    key )

(* ------------------------------------------------------------------ *)
(* Summary application                                                *)
(* ------------------------------------------------------------------ *)

let subst_cell (bindings : (string * Term.t) list) (c : Sval.scell) : Sval.scell
    =
  let rec go = function
    | Sval.CInt t -> Sval.CInt (Term.subst bindings t)
    | Sval.CBool t -> Sval.CBool (Term.subst bindings t)
    | (Sval.CPtr _ | Sval.CNull) as c -> c
    | Sval.CStruct cells -> Sval.CStruct (Array.map go cells)
    | Sval.CArray cells -> Sval.CArray (Array.map go cells)
  in
  go c

let remap_ptr (remap : (int * int) list) (p : Value.ptr) : Value.ptr =
  match List.assoc_opt p.Value.block remap with
  | Some b -> { p with Value.block = b }
  | None -> p

let rec remap_cell remap (c : Sval.scell) : Sval.scell =
  match c with
  | Sval.CPtr p -> Sval.CPtr (remap_ptr remap p)
  | Sval.CStruct cells -> Sval.CStruct (Array.map (remap_cell remap) cells)
  | Sval.CArray cells -> Sval.CArray (Array.map (remap_cell remap) cells)
  | Sval.CInt _ | Sval.CBool _ | Sval.CNull -> c

(* Apply [summary] at a call site: substitute the canonical symbols by
   the call site's terms, keep the feasible cases, replay each case's
   effects. *)
let apply (ctx : Exec.ctx) (summary : t) (bindings : (string * Term.t) list)
    (path : Exec.path) : Exec.result =
  List.concat_map
    (fun (case : case) ->
      let cond = List.map (Term.subst bindings) case.cond in
      let cond = List.filter (fun t -> t <> Term.True) cond in
      let pc' = List.rev_append cond path.Exec.pc in
      if cond <> [] && not (Exec.feasible ctx pc') then []
      else begin
        (* Fresh blocks for the case's allocations. *)
        let mem = ref path.Exec.mem in
        let remap =
          List.map
            (fun (old_b, _) ->
              let m, p = Sval.alloc !mem Sval.CNull in
              mem := m;
              (old_b, p.Value.block))
            case.allocs
        in
        List.iter
          (fun (old_b, cell) ->
            let cell = remap_cell remap (subst_cell bindings cell) in
            let b = List.assoc old_b remap in
            mem :=
              {
                !mem with
                Sval.blocks = Sval.Int_map.add b cell !mem.Sval.blocks;
              })
          case.allocs;
        List.iter
          (fun w ->
            let cell = remap_cell remap (subst_cell bindings w.w_cell) in
            let target =
              remap_ptr remap { Value.block = w.w_block; path = w.w_path }
            in
            mem := Sval.store !mem target cell)
          case.writes;
        let outcome =
          match case.outcome with
          | Panic m -> Exec.Panicked m
          | Ret None -> Exec.Returned None
          | Ret (Some v) ->
              let v =
                match v with
                | Sval.SInt t -> Sval.SInt (Term.subst bindings t)
                | Sval.SBool t -> Sval.SBool (Term.subst bindings t)
                | Sval.SPtr p -> Sval.SPtr (remap_ptr remap p)
                | (Sval.SNull | Sval.SUnit) as v -> v
              in
              Exec.Returned (Some v)
        in
        [ ({ Exec.pc = pc'; mem = !mem }, outcome) ]
      end)
    summary.cases

(* ------------------------------------------------------------------ *)
(* The summarizing intercept with its cache                           *)
(* ------------------------------------------------------------------ *)

(* Persistence hook (lib/store, which sits above this library): tried on
   in-memory misses before summarizing, written after a fresh summarize.
   The [key] is the canonical call-shape key built below — equal keys
   mean equal canonical shapes, so a loaded summary applies under the
   current call's own bindings. The hook validates what it serves (a
   summary that fails [validate] is a miss, not an error). *)
type persist = {
  sp_load : fn:string -> key:string -> t option;
  sp_save : fn:string -> key:string -> t -> unit;
}

type store = {
  cache : (string, t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable summarize_time : float;
  persist : persist option;
}

let create_store ?persist () =
  {
    cache = Hashtbl.create 32;
    hits = 0;
    misses = 0;
    summarize_time = 0.0;
    persist;
  }

let store_summaries (s : store) : t list =
  Hashtbl.fold (fun _ v acc -> v :: acc) s.cache []

(* Whether a call shape hits or misses the memo depends on what this
   domain summarized before — cache-population state, not workload — so
   the counters are registry totals but the per-occurrence event and
   the summarize span are det:false (excluded from tree fingerprints). *)
let c_hits = Trace.Metrics.counter "summary.hits"
let c_misses = Trace.Metrics.counter "summary.misses"

(* An [Exec.intercept] that summarizes [fn] on first use per calling
   shape and replays the cached summary afterwards. *)
let intercept_for ~(frozen_below : int) (store : store) (fn : string) :
    Exec.intercept =
 fun ctx path args ->
  let key, bindings, reach = call_key ~frozen_below path.Exec.mem ~fn ~args in
  let summary, bindings =
    match Hashtbl.find_opt store.cache key with
    | Some s ->
        store.hits <- store.hits + 1;
        Trace.Metrics.incr c_hits;
        Trace.event ~det:false "summary.hit" ~attrs:[ ("fn", fn) ];
        (s, bindings)
    | None -> (
        let persisted =
          match store.persist with
          | None -> None
          | Some p -> p.sp_load ~fn ~key
        in
        match persisted with
        | Some s ->
            (* A store-served summary counts as a hit: nothing was
               re-executed. Key equality means the canonical shape is
               this call's shape, so the current bindings apply. *)
            store.hits <- store.hits + 1;
            Trace.Metrics.incr c_hits;
            Trace.event ~det:false "summary.hit"
              ~attrs:[ ("fn", fn); ("src", "store") ];
            Hashtbl.replace store.cache key s;
            (s, bindings)
        | None ->
            store.misses <- store.misses + 1;
            Trace.Metrics.incr c_misses;
            let s, bindings', key' =
              Trace.with_span ~det:false "summarize" ~attrs:[ ("fn", fn) ]
                (fun () ->
                  summarize_at ~reach ctx ~frozen_below ~mem:path.Exec.mem ~fn
                    ~args)
            in
            assert (key' = key);
            (match validate s with
            | Ok () -> ()
            | Error m -> raise (Summary_failed m));
            store.summarize_time <- store.summarize_time +. s.elapsed;
            Hashtbl.replace store.cache key s;
            (match store.persist with
            | None -> ()
            | Some p -> p.sp_save ~fn ~key s);
            (s, bindings'))
  in
  apply ctx summary bindings path
