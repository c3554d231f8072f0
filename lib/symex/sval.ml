(* Symbolic values and the flexible memory model (paper §5.1, AbsLLVM).

   Memory is the same block/path shape as the concrete interpreter's,
   but scalar cells hold SMT *terms*, so any individual field of a
   struct can be abstract (a symbolic term) while its siblings stay
   concrete — the partial abstraction the paper needs for production
   data structures. Pointers are always concrete: the domain tree heap
   is concrete (§6.5) and allocation is deterministic per path. *)

module Term = Smt.Term
module Value = Minir.Value
module Ty = Minir.Ty

type sval =
  | SInt of Term.t
  | SBool of Term.t
  | SPtr of Value.ptr
  | SNull
  | SUnit

type scell =
  | CInt of Term.t
  | CBool of Term.t
  | CPtr of Value.ptr
  | CNull
  | CStruct of scell array
  | CArray of scell array

exception Symbolic_error of string

let error fmt = Format.kasprintf (fun s -> raise (Symbolic_error s)) fmt

let pp_sval fmt = function
  | SInt t -> Term.pp fmt t
  | SBool t -> Term.pp fmt t
  | SPtr p -> Value.pp_ptr fmt p
  | SNull -> Format.pp_print_string fmt "null"
  | SUnit -> Format.pp_print_string fmt "()"

let rec pp_scell fmt = function
  | CInt t | CBool t -> Term.pp fmt t
  | CPtr p -> Value.pp_ptr fmt p
  | CNull -> Format.pp_print_string fmt "null"
  | CStruct fs ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_seq
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_scell)
        (Array.to_seq fs)
  | CArray cs ->
      Format.fprintf fmt "[%a]"
        (Format.pp_print_seq
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_scell)
        (Array.to_seq cs)

(* ------------------------------------------------------------------ *)
(* Conversions                                                        *)
(* ------------------------------------------------------------------ *)

let scell_of_sval = function
  | SInt t -> CInt t
  | SBool t -> CBool t
  | SPtr p -> CPtr p
  | SNull -> CNull
  | SUnit -> error "cannot store unit"

let sval_of_scell = function
  | CInt t -> SInt t
  | CBool t -> SBool t
  | CPtr p -> SPtr p
  | CNull -> SNull
  | CStruct _ | CArray _ -> error "loading a whole aggregate"

(* Lift a concrete memory value (e.g. the encoded domain tree) into the
   symbolic domain: integers/booleans become constant terms. *)
let rec scell_of_mval = function
  | Value.MInt n -> CInt (Term.int n)
  | Value.MBool b -> CBool (Term.of_bool b)
  | Value.MPtr p -> CPtr p
  | Value.MNull -> CNull
  | Value.MUndef -> error "undefined cell in initial memory"
  | Value.MStruct fs -> CStruct (Array.map scell_of_mval fs)
  | Value.MArray cs -> CArray (Array.map scell_of_mval cs)

(* Zero-initialized cell tree for a type (Newobject / Alloca). *)
let rec scell_default (tenv : Ty.tenv) (ty : Ty.t) : scell =
  match ty with
  | Ty.I1 -> CBool Term.false_
  | Ty.I64 -> CInt (Term.int 0)
  | Ty.Ptr _ | Ty.Opaque_ptr -> CNull
  | Ty.Array (t, n) -> CArray (Array.init n (fun _ -> scell_default tenv t))
  | Ty.Struct name ->
      let def = Ty.find_struct tenv name in
      CStruct
        (Array.of_list
           (List.map (fun f -> scell_default tenv f.Ty.fty) def.Ty.fields))

(* ------------------------------------------------------------------ *)
(* Cell navigation                                                    *)
(* ------------------------------------------------------------------ *)

let rec cell_get (c : scell) (path : int list) : scell =
  match (c, path) with
  | c, [] -> c
  | CStruct fs, i :: rest ->
      if i < 0 || i >= Array.length fs then error "struct index %d" i
      else cell_get fs.(i) rest
  | CArray cs, i :: rest ->
      if i < 0 || i >= Array.length cs then
        error "array index %d out of symbolic bounds %d" i (Array.length cs)
      else cell_get cs.(i) rest
  | (CInt _ | CBool _ | CPtr _ | CNull), _ :: _ -> error "indexing a scalar"

let rec cell_set (c : scell) (path : int list) (v : scell) : scell =
  match (c, path) with
  | _, [] -> v
  | CStruct fs, i :: rest ->
      if i < 0 || i >= Array.length fs then error "struct index %d" i
      else begin
        let fs = Array.copy fs in
        fs.(i) <- cell_set fs.(i) rest v;
        CStruct fs
      end
  | CArray cs, i :: rest ->
      if i < 0 || i >= Array.length cs then error "array index %d" i
      else begin
        let cs = Array.copy cs in
        cs.(i) <- cell_set cs.(i) rest v;
        CArray cs
      end
  | (CInt _ | CBool _ | CPtr _ | CNull), _ :: _ -> error "indexing a scalar"

let equal_scalar (a : scell) (b : scell) =
  match (a, b) with
  | CInt x, CInt y | CBool x, CBool y -> x = y
  | CPtr p, CPtr q -> p = q
  | CNull, CNull -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Symbolic memory                                                    *)
(* ------------------------------------------------------------------ *)

module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

type memory = {
  blocks : scell Int_map.t;
  next_block : int;
  stack_blocks : Int_set.t;
      (* alloca'd frame slots: freed on function exit, so never part of a
         module's observable effects (§5.1) *)
}

let memory_of_concrete (m : Value.memory) : memory =
  {
    blocks = Int_map.map scell_of_mval m.Value.blocks;
    next_block = m.Value.next_block;
    stack_blocks = Int_set.empty;
  }

let block_value (m : memory) b =
  match Int_map.find_opt b m.blocks with
  | Some c -> c
  | None -> error "dangling block %d" b

let alloc ?(stack = false) (m : memory) (c : scell) : memory * Value.ptr =
  let b = m.next_block in
  ( {
      blocks = Int_map.add b c m.blocks;
      next_block = b + 1;
      stack_blocks =
        (if stack then Int_set.add b m.stack_blocks else m.stack_blocks);
    },
    { Value.block = b; path = [] } )

let is_stack_block (m : memory) b = Int_set.mem b m.stack_blocks

let load (m : memory) (p : Value.ptr) : sval =
  sval_of_scell (cell_get (block_value m p.Value.block) p.Value.path)

let load_cell (m : memory) (p : Value.ptr) : scell =
  cell_get (block_value m p.Value.block) p.Value.path

let store (m : memory) (p : Value.ptr) (v : scell) : memory =
  let root = block_value m p.Value.block in
  {
    m with
    blocks = Int_map.add p.Value.block (cell_set root p.Value.path v) m.blocks;
  }
