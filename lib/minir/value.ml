(* Concrete runtime values and memory for the Minir interpreter.

   Memory is a CompCert-style collection of non-overlapping blocks
   addressed by block ids; a pointer is a block id plus an index path
   into the block's aggregate value (§5.1). The same block/path shape is
   reused by the symbolic executor, whose cells hold terms instead of
   concrete scalars. *)

type ptr = { block : int; path : int list }

type t =
  | VInt of int
  | VBool of bool
  | VPtr of ptr
  | VNull
  | VUnit

(* Aggregate memory values. [MUndef] marks never-written cells; loading
   one is a (detected) runtime error, which the interpreter reports like
   a panic. *)
type mval =
  | MInt of int
  | MBool of bool
  | MPtr of ptr
  | MNull
  | MStruct of mval array
  | MArray of mval array
  | MUndef

let rec mval_default (tenv : Ty.tenv) (ty : Ty.t) : mval =
  match ty with
  | Ty.I1 -> MBool false
  | Ty.I64 -> MInt 0
  | Ty.Ptr _ | Ty.Opaque_ptr -> MNull
  | Ty.Array (t, n) -> MArray (Array.init n (fun _ -> mval_default tenv t))
  | Ty.Struct name ->
      let def = Ty.find_struct tenv name in
      MStruct
        (Array.of_list
           (List.map (fun f -> mval_default tenv f.Ty.fty) def.Ty.fields))

let rec mval_undef (tenv : Ty.tenv) (ty : Ty.t) : mval =
  match ty with
  | Ty.I1 | Ty.I64 | Ty.Ptr _ | Ty.Opaque_ptr -> MUndef
  | Ty.Array (t, n) -> MArray (Array.init n (fun _ -> mval_undef tenv t))
  | Ty.Struct name ->
      let def = Ty.find_struct tenv name in
      MStruct
        (Array.of_list
           (List.map (fun f -> mval_undef tenv f.Ty.fty) def.Ty.fields))

exception Runtime_panic of string

let panic fmt = Format.kasprintf (fun s -> raise (Runtime_panic s)) fmt

(* Navigate an aggregate by an index path. *)
let rec mval_get (m : mval) (path : int list) : mval =
  match (m, path) with
  | m, [] -> m
  | MStruct fields, i :: rest ->
      if i < 0 || i >= Array.length fields then
        panic "struct field index %d out of range" i
      else mval_get fields.(i) rest
  | MArray cells, i :: rest ->
      if i < 0 || i >= Array.length cells then
        panic "array index %d out of bounds (cap %d)" i (Array.length cells)
      else mval_get cells.(i) rest
  | (MInt _ | MBool _ | MPtr _ | MNull | MUndef), _ :: _ ->
      panic "indexing into a scalar"

let mval_of_value = function
  | VInt n -> MInt n
  | VBool b -> MBool b
  | VPtr p -> MPtr p
  | VNull -> MNull
  | VUnit -> invalid_arg "mval_of_value: unit"

let value_of_mval = function
  | MInt n -> VInt n
  | MBool b -> VBool b
  | MPtr p -> VPtr p
  | MNull -> VNull
  | MUndef -> panic "load of undefined value"
  | MStruct _ | MArray _ -> invalid_arg "value_of_mval: aggregate"

(* ------------------------------------------------------------------ *)
(* Memory                                                             *)
(* ------------------------------------------------------------------ *)

module Int_map = Map.Make (Int)

type memory = { blocks : mval Int_map.t; next_block : int }

let empty_memory = { blocks = Int_map.empty; next_block = 0 }

let alloc mem mv =
  let b = mem.next_block in
  ( { blocks = Int_map.add b mv mem.blocks; next_block = b + 1 },
    { block = b; path = [] } )

let block_value mem b =
  match Int_map.find_opt b mem.blocks with
  | Some mv -> mv
  | None -> panic "dangling block %d" b

let load mem (p : ptr) : t =
  value_of_mval (mval_get (block_value mem p.block) p.path)

let load_mval mem (p : ptr) : mval = mval_get (block_value mem p.block) p.path

let pp_ptr fmt p =
  Format.fprintf fmt "&%d%s" p.block
    (String.concat "" (List.map (Printf.sprintf ".%d") p.path))

let pp fmt = function
  | VInt n -> Format.fprintf fmt "%d" n
  | VBool b -> Format.fprintf fmt "%b" b
  | VPtr p -> pp_ptr fmt p
  | VNull -> Format.pp_print_string fmt "null"
  | VUnit -> Format.pp_print_string fmt "()"

let rec pp_mval fmt = function
  | MInt n -> Format.fprintf fmt "%d" n
  | MBool b -> Format.fprintf fmt "%b" b
  | MPtr p -> pp_ptr fmt p
  | MNull -> Format.pp_print_string fmt "null"
  | MUndef -> Format.pp_print_string fmt "undef"
  | MStruct fs ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_seq
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_mval)
        (Array.to_seq fs)
  | MArray cs ->
      Format.fprintf fmt "[%a]"
        (Format.pp_print_seq
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_mval)
        (Array.to_seq cs)
