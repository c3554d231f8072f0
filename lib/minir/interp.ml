(* Concrete Minir interpreter.

   The reference executor: it replays counterexample queries produced by
   the refinement checker against the real engine code, it powers the
   differential tests (engine vs. top-level specification on random
   zones), and it answers every query `dnsv serve` receives. Opaque-pointer
   instructions must be resolved by [Opaque] first; the interpreter
   rejects them.

   A program is resolved once before it runs: function names become
   indices into a function array, block labels become indices into each
   function's block array, and registers become slots of a per-frame
   value array. Running resolved code looks up no name. Names that do
   not resolve (an unknown callee, a branch to a missing label) are
   kept as negative indices and raise when executed, exactly where a
   by-name lookup would have failed.

   A run keeps its memory in a flat heap (see "The run's heap" below):
   stores write in place into blocks the run owns, and the caller's
   [Value.memory] is never changed. *)

(* ------------------------------------------------------------------ *)
(* The run's heap                                                     *)
(* ------------------------------------------------------------------ *)

(* One run's memory. Blocks below [base] belong to the input memory and
   are read from it until the run first writes one; that write puts a
   deep copy into [copies], which holds the block from then on. Blocks
   from [base] on are the run's allocations: block [base + i] is
   [cells.(i)], a deep copy of its type's shared default. So every block
   a run writes is owned by the run's heap, because it was deep-copied
   either at alloc or at first write, and a store sets its leaf in
   place. Nothing the heap shares (the input's blocks, the resolved
   defaults) is ever mutated. *)
type heap = {
  input : Value.memory;
  base : int;
  mutable copies : Value.mval Value.Int_map.t;
  mutable cells : Value.mval array;
  mutable next : int;
}

(* Sized by what a run allocates, not by its input, and no larger than
   the minor heap takes (Max_young_wosize): a query's heap is
   short-lived and should die young. *)
let initial_cells = 256

let new_heap (input : Value.memory) =
  let base = input.Value.next_block in
  {
    input;
    base;
    copies = Value.Int_map.empty;
    cells = Array.make initial_cells Value.MUndef;
    next = base;
  }

let rec copy_mval = function
  | Value.MStruct fs -> Value.MStruct (Array.map copy_mval fs)
  | Value.MArray cs -> Value.MArray (Array.map copy_mval cs)
  | (Value.MInt _ | Value.MBool _ | Value.MPtr _ | Value.MNull | Value.MUndef)
    as m ->
      m

(* The current value of block [b]; the same panic as [Value.block_value]
   for a block that does not exist. *)
let block h b =
  if b >= h.base then
    if b < h.next then Array.unsafe_get h.cells (b - h.base)
    else Value.panic "dangling block %d" b
  else
    match Value.Int_map.find_opt b h.copies with
    | Some m -> m
    | None -> Value.block_value h.input b

(* Block [b], owned by the heap: an input block is copied first. *)
let owned_block h b =
  if b >= h.base then block h b
  else
    match Value.Int_map.find_opt b h.copies with
    | Some m -> m
    | None ->
        let m = copy_mval (Value.block_value h.input b) in
        h.copies <- Value.Int_map.add b m h.copies;
        m

let alloc h default =
  let i = h.next - h.base in
  if i = Array.length h.cells then begin
    let cells = Array.make (2 * i) Value.MUndef in
    Array.blit h.cells 0 cells 0 i;
    h.cells <- cells
  end;
  h.cells.(i) <- copy_mval default;
  h.next <- h.next + 1;
  { Value.block = h.base + i; path = [] }

let load_mval h (p : Value.ptr) =
  Value.mval_get (block h p.Value.block) p.Value.path

(* Set the cell at [i :: rest] under [m] in place. The checks, their
   order and their messages are those of [Value.mval_get]. *)
let rec set_path m i rest v =
  match m with
  | Value.MStruct fields ->
      if i < 0 || i >= Array.length fields then
        Value.panic "struct field index %d out of range" i
      else begin
        match rest with
        | [] -> fields.(i) <- v
        | j :: rest -> set_path fields.(i) j rest v
      end
  | Value.MArray cells ->
      if i < 0 || i >= Array.length cells then
        Value.panic "array index %d out of bounds (cap %d)" i
          (Array.length cells)
      else begin
        match rest with
        | [] -> cells.(i) <- v
        | j :: rest -> set_path cells.(i) j rest v
      end
  | Value.MInt _ | Value.MBool _ | Value.MPtr _ | Value.MNull | Value.MUndef ->
      Value.panic "indexing into a scalar"

let store h (p : Value.ptr) v =
  let b = p.Value.block in
  match p.Value.path with
  | [] ->
      ignore (block h b);
      if b >= h.base then h.cells.(b - h.base) <- v
      else h.copies <- Value.Int_map.add b v h.copies
  | i :: rest -> set_path (owned_block h b) i rest v

(* The heap as a persistent memory: the input with every block the run
   allocated or wrote. Those are copied, so the snapshot stays as it is
   while the run goes on storing in place. *)
let memory h =
  let add b m blocks = Value.Int_map.add b (copy_mval m) blocks in
  let blocks = ref (Value.Int_map.fold add h.copies h.input.Value.blocks) in
  for i = 0 to h.next - h.base - 1 do
    blocks := add (h.base + i) h.cells.(i) !blocks
  done;
  { Value.blocks = !blocks; next_block = h.next }

type outcome =
  | Returned of Value.t option * heap
  | Panicked of string

exception Out_of_fuel

let default_fuel = 2_000_000

(* ------------------------------------------------------------------ *)
(* Resolved code                                                      *)
(* ------------------------------------------------------------------ *)

type operand =
  | Const of Value.t
  | Slot of int * Instr.reg (* frame slot; the name is for the panic *)

type rvalue =
  | Binop of Instr.binop * operand * operand
  | Icmp of Instr.icmp * operand * operand
  | Not of operand
  | Alloc of Value.mval Lazy.t (* the allocated type's default value *)
  | Load of operand
  | Gep of operand * operand list
  | Call of int * string * operand array (* callee index (< 0: unknown) *)
  | Opaque_op

type instr =
  | Assign of int * rvalue
  | Store of operand * operand (* value, pointer *)
  | Opaque_store
  | Call_void of int * string * operand array

(* Block targets index [func.blocks]; a target [t < 0] names the missing
   label [func.missing.(-t - 1)]. *)
type terminator =
  | Br of int
  | Cond_br of operand * int * int
  | Ret of operand option
  | Panic of string
  | Unreachable

type block = { label : Instr.label; insns : instr array; term : terminator }

type func = {
  name : string;
  param_slots : int array;
  slot_names : Instr.reg array; (* one per frame slot *)
  entry : int;
  blocks : block array;
  missing : Instr.label array;
}

type code = { funcs : func array; by_name : (string, int) Hashtbl.t }

(* Default values are computed once per type and shared by every
   allocation of that type. Sharing is safe because a run never writes a
   block it does not own: the heap deep-copies a block at its first
   write, so a store into one allocation can never show through another
   or into the default. Forced lazily so a type error in an allocation
   surfaces when (and only if) it runs. *)
let resolve (p : Instr.program) : code =
  let by_name =
    Instr.index_first (List.map (fun f -> f.Instr.fn_name) p.Instr.funcs)
  in
  let defaults = Hashtbl.create 16 in
  let default ty =
    match Hashtbl.find_opt defaults ty with
    | Some d -> d
    | None ->
        let d = lazy (Value.mval_default p.Instr.tenv ty) in
        Hashtbl.add defaults ty d;
        d
  in
  let callee name = Option.value (Hashtbl.find_opt by_name name) ~default:(-1) in
  let resolve_func (f : Instr.func) : func =
    let target, missing = Instr.block_indexer f in
    let slots = Hashtbl.create 32 and names = ref [] in
    let slot r =
      match Hashtbl.find_opt slots r with
      | Some i -> i
      | None ->
          let i = Hashtbl.length slots in
          Hashtbl.add slots r i;
          names := r :: !names;
          i
    in
    let param_slots =
      Array.of_list (List.map (fun (r, _ty) -> slot r) f.Instr.params)
    in
    let operand = function
      | Instr.Const_int n -> Const (Value.VInt n)
      | Instr.Const_bool b -> Const (Value.VBool b)
      | Instr.Null _ -> Const Value.VNull
      | Instr.Reg r -> Slot (slot r, r)
    in
    let args os = Array.of_list (List.map operand os) in
    let rvalue = function
      | Instr.Binop (op, a, b) -> Binop (op, operand a, operand b)
      | Instr.Icmp (op, _ty, a, b) -> Icmp (op, operand a, operand b)
      | Instr.Not a -> Not (operand a)
      | Instr.Alloca ty | Instr.Newobject ty -> Alloc (default ty)
      | Instr.Load (_ty, ptr) -> Load (operand ptr)
      | Instr.Gep (_pointee, base, indices) ->
          Gep (operand base, List.map operand indices)
      | Instr.Call (name, os) -> Call (callee name, name, args os)
      | Instr.Bitcast _ | Instr.Byte_gep _ | Instr.Opaque_load _ -> Opaque_op
    in
    let instr = function
      | Instr.Assign (r, rv) -> Assign (slot r, rvalue rv)
      | Instr.Store (_ty, v, ptr) -> Store (operand v, operand ptr)
      | Instr.Opaque_store _ -> Opaque_store
      | Instr.Call_void (name, os) -> Call_void (callee name, name, args os)
    in
    let term = function
      | Instr.Br l -> Br (target l)
      | Instr.Cond_br (c, l1, l2) -> Cond_br (operand c, target l1, target l2)
      | Instr.Ret o -> Ret (Option.map operand o)
      | Instr.Panic reason -> Panic reason
      | Instr.Unreachable -> Unreachable
    in
    let blocks =
      Array.of_list
        (List.map
           (fun (label, (b : Instr.block)) ->
             let insns = Array.of_list (List.map instr b.Instr.insns) in
             { label; insns; term = term b.Instr.term })
           f.Instr.blocks)
    in
    let entry = target f.Instr.entry in
    {
      name = f.Instr.fn_name;
      param_slots;
      slot_names = Array.of_list (List.rev !names);
      entry;
      blocks;
      missing = missing ();
    }
  in
  { funcs = Array.of_list (List.map resolve_func p.Instr.funcs); by_name }

(* Resolved code, memoised per domain by the program's physical
   identity. *)
let resolved : Instr.program -> code = Instr.per_program resolve

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* The frame value of a slot nothing has written yet; compared by
   physical identity, never read as a value. *)
let unassigned = Value.VPtr { Value.block = min_int; path = [] }

let operand_value (fr : Value.t array) = function
  | Const v -> v
  | Slot (i, r) ->
      let v = Array.unsafe_get fr i in
      if v == unassigned then Value.panic "read of unassigned register %%%s" r
      else v

let as_int = function
  | Value.VInt n -> n
  | v -> Value.panic "expected integer, got %a" Value.pp v

let as_bool = function
  | Value.VBool b -> b
  | v -> Value.panic "expected boolean, got %a" Value.pp v

let as_ptr = function
  | Value.VPtr p -> p
  | Value.VNull -> Value.panic "nil pointer dereference"
  | v -> Value.panic "expected pointer, got %a" Value.pp v

let eval_binop op a b =
  match op with
  | Instr.Add -> Value.VInt (as_int a + as_int b)
  | Instr.Sub -> Value.VInt (as_int a - as_int b)
  | Instr.Mul -> Value.VInt (as_int a * as_int b)
  | Instr.Sdiv ->
      let d = as_int b in
      if d = 0 then Value.panic "integer divide by zero"
      else Value.VInt (as_int a / d)
  | Instr.Srem ->
      let d = as_int b in
      if d = 0 then Value.panic "integer divide by zero"
      else Value.VInt (as_int a mod d)
  | Instr.And_ -> Value.VBool (as_bool a && as_bool b)
  | Instr.Or_ -> Value.VBool (as_bool a || as_bool b)
  | Instr.Xor -> Value.VBool (as_bool a <> as_bool b)

let rec eval_icmp op a b =
  let open Value in
  match op with
  | Instr.Eq -> (
      match (a, b) with
      | VInt x, VInt y -> VBool (x = y)
      | VBool x, VBool y -> VBool (x = y)
      | VPtr x, VPtr y -> VBool (x = y)
      | VNull, VNull -> VBool true
      | (VPtr _, VNull | VNull, VPtr _) -> VBool false
      | _ -> Value.panic "icmp eq: incomparable values")
  | Instr.Ne -> (
      match eval_icmp Instr.Eq a b with
      | VBool r -> VBool (not r)
      | _ -> assert false)
  | Instr.Slt -> VBool (as_int a < as_int b)
  | Instr.Sle -> VBool (as_int a <= as_int b)
  | Instr.Sgt -> VBool (as_int a > as_int b)
  | Instr.Sge -> VBool (as_int a >= as_int b)

type observer =
  string -> Instr.label -> (Instr.reg, Value.t) Hashtbl.t -> Value.memory -> unit

type state = {
  code : code;
  heap : heap;
  mutable fuel : int;
  observer : observer option;
}

let tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

(* The observer's view of a frame: the assigned slots by register name,
   rebuilt at each block entry. *)
let registers (f : func) (fr : Value.t array) =
  let regs = Hashtbl.create 32 in
  Array.iteri
    (fun i v -> if v != unassigned then Hashtbl.replace regs f.slot_names.(i) v)
    fr;
  regs

(* Execute [fn] on [args] in [memory]. Fuel bounds the total instruction
   count — one tick per Assign, Store and Call_void, and one per block —
   turning accidental non-termination into an exception rather than a
   hang. [observer], if given, is called at every block entry (before
   its instructions) with the function name, block label, the frame's
   assigned registers, and a snapshot of current memory — the hook the
   static-analysis soundness tests use to compare concrete runs against
   abstract states. *)
let run ?(fuel = default_fuel) ?(observer : observer option)
    (p : Instr.program) ~memory:(input : Value.memory) ~(fn : string)
    ~(args : Value.t list) : outcome =
  let st = { code = resolved p; heap = new_heap input; fuel; observer } in
  let rec goto (f : func) (fr : Value.t array) t : Value.t option =
    if t < 0 then
      invalid_arg
        (Printf.sprintf "Minir: no block %s in function %s"
           f.missing.(-t - 1) f.name)
    else exec_block f fr (Array.unsafe_get f.blocks t)
  and exec_block f fr b =
    (match st.observer with
    | Some obs -> obs f.name b.label (registers f fr) (memory st.heap)
    | None -> ());
    let insns = b.insns in
    for i = 0 to Array.length insns - 1 do
      exec_instr fr (Array.unsafe_get insns i)
    done;
    tick st;
    match b.term with
    | Br t -> goto f fr t
    | Cond_br (c, t1, t2) ->
        goto f fr (if as_bool (operand_value fr c) then t1 else t2)
    | Ret None -> None
    | Ret (Some o) -> Some (operand_value fr o)
    | Panic reason -> Value.panic "%s" reason
    | Unreachable -> Value.panic "reached unreachable block"
  (* Arguments are evaluated left to right before the callee is looked
     up, straight into the callee's fresh frame. *)
  and invoke fr fi name (args : operand array) : Value.t option =
    let n = Array.length args in
    if fi < 0 || n <> Array.length st.code.funcs.(fi).param_slots then begin
      Array.iter (fun o -> ignore (operand_value fr o)) args;
      if fi < 0 then invalid_arg ("Minir: unknown function " ^ name)
      else Value.panic "arity mismatch calling %s" name
    end
    else begin
      let f = st.code.funcs.(fi) in
      let callee = Array.make (Array.length f.slot_names) unassigned in
      for i = 0 to n - 1 do
        callee.(f.param_slots.(i)) <- operand_value fr args.(i)
      done;
      goto f callee f.entry
    end
  and exec_instr fr = function
    | Assign (r, rv) ->
        tick st;
        let v = eval_rvalue fr rv in
        Array.unsafe_set fr r v
    | Store (v, ptr) ->
        tick st;
        let p = as_ptr (operand_value fr ptr) in
        store st.heap p (Value.mval_of_value (operand_value fr v))
    | Opaque_store ->
        Value.panic "opaque store not resolved (run the Opaque pass)"
    | Call_void (fi, name, args) ->
        tick st;
        ignore (invoke fr fi name args)
  and eval_rvalue fr = function
    | Binop (op, a, b) ->
        eval_binop op (operand_value fr a) (operand_value fr b)
    | Icmp (op, a, b) -> eval_icmp op (operand_value fr a) (operand_value fr b)
    | Not a -> Value.VBool (not (as_bool (operand_value fr a)))
    | Alloc default ->
        (* Go zero-initializes locals and `new` objects alike, so fresh
           blocks start at their type's default rather than undef. *)
        Value.VPtr (alloc st.heap (Lazy.force default))
    | Load ptr ->
        Value.value_of_mval (load_mval st.heap (as_ptr (operand_value fr ptr)))
    | Gep (base, indices) ->
        let bp = as_ptr (operand_value fr base) in
        let idx = List.map (fun o -> as_int (operand_value fr o)) indices in
        Value.VPtr { bp with Value.path = bp.Value.path @ idx }
    | Call (fi, name, args) -> (
        match invoke fr fi name args with Some v -> v | None -> Value.VUnit)
    | Opaque_op ->
        Value.panic "opaque pointer op not resolved (run the Opaque pass)"
  in
  let fi = Option.value (Hashtbl.find_opt st.code.by_name fn) ~default:(-1) in
  let args = Array.of_list (List.map (fun v -> Const v) args) in
  match invoke [||] fi fn args with
  | Some v -> Returned (Some v, st.heap)
  | None -> Returned (None, st.heap)
  | exception Value.Runtime_panic msg -> Panicked msg
