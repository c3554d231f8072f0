(* The Minir instruction set: a register-based CFG IR in the style of
   clang -O0 LLVM output.

   No SSA/phi nodes: the Golite frontend allocates one stack slot per
   local variable and compiles reads/writes to load/store, which is the
   code shape GoLLVM emits at the optimization level the paper verifies.
   Safety checks appear as explicit [Panic] terminators on dedicated
   blocks, mirroring the GoLLVM panic blocks of §4.1: verifying safety is
   verifying those blocks unreachable. *)

type reg = string
type label = string

type operand =
  | Reg of reg
  | Const_int of int
  | Const_bool of bool
  | Null of Ty.t (* typed null pointer *)

type binop =
  | Add
  | Sub
  | Mul
  | Sdiv
  | Srem
  | And_ (* bitwise-on-i1, i.e. boolean and *)
  | Or_
  | Xor

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge

type rvalue =
  | Binop of binop * operand * operand
  | Icmp of icmp * Ty.t * operand * operand
      (* the type of the compared operands: I64, I1 or a pointer type *)
  | Not of operand
  | Alloca of Ty.t
  | Load of Ty.t * operand (* loaded type, pointer *)
  | Gep of Ty.t * operand * operand list
      (* pointee type of the base pointer; indices navigate into it *)
  | Call of string * operand list
  | Newobject of Ty.t (* heap allocation, zero-initialized (Go `new`) *)
  | Bitcast of operand (* typed pointer → opaque pointer *)
  | Byte_gep of operand * operand (* opaque pointer + byte offset *)
  | Opaque_load of Ty.t * operand (* load through an opaque pointer *)

type instr =
  | Assign of reg * rvalue
  | Store of Ty.t * operand * operand (* stored type, value, pointer *)
  | Opaque_store of Ty.t * operand * operand (* through an opaque pointer *)
  | Call_void of string * operand list (* call evaluated for effect *)

type terminator =
  | Br of label
  | Cond_br of operand * label * label
  | Ret of operand option
  | Panic of string (* safety-check failure: reason *)
  | Unreachable

type block = { insns : instr list; term : terminator }

type func = {
  fn_name : string;
  params : (reg * Ty.t) list;
  ret_ty : Ty.t option;
  entry : label;
  blocks : (label * block) list;
}

type program = { tenv : Ty.tenv; funcs : func list }

let find_func (p : program) name =
  match List.find_opt (fun f -> f.fn_name = name) p.funcs with
  | Some f -> f
  | None -> invalid_arg ("Minir: unknown function " ^ name)

let find_block (f : func) label =
  match List.assoc_opt label f.blocks with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Minir: no block %s in function %s" label f.fn_name)

(* ------------------------------------------------------------------ *)
(* Resolving a program once                                           *)
(* ------------------------------------------------------------------ *)

(* Names to indices, first occurrence winning as in [find_func] and
   [find_block]. *)
let index_first (names : string list) : (string, int) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i name -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name i)
    names;
  tbl

let block_indexer (f : func) : (label -> int) * (unit -> label array) =
  let labels = index_first (List.map fst f.blocks) in
  let missing = ref [] in
  let target l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None ->
        let rec find i = function
          | [] ->
              missing := !missing @ [ l ];
              -List.length !missing
          | m :: rest -> if m = l then -(i + 1) else find (i + 1) rest
        in
        find 0 !missing
  in
  (target, fun () -> Array.of_list !missing)

(* The table is weak in the program: resolved code lives exactly as
   long as its program, so a program dropped by its owner (a cleared
   compile memo, a test's throwaway program) takes its resolved code
   with it. *)
let per_program (type a) (resolve : program -> a) : program -> a =
  let module Memo = Ephemeron.K1.Make (struct
    type t = program

    let equal = ( == )
    let hash = Hashtbl.hash
  end) in
  let key : a Memo.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Memo.create 8)
  in
  fun p ->
    let memo = Domain.DLS.get key in
    match Memo.find_opt memo p with
    | Some c -> c
    | None ->
        let c = resolve p in
        Memo.replace memo p c;
        c

(* ------------------------------------------------------------------ *)
(* Static measures used by the evaluation reporting (Table 3).        *)
(* ------------------------------------------------------------------ *)

let func_instruction_count (f : func) =
  List.fold_left (fun acc (_, b) -> acc + List.length b.insns + 1) 0 f.blocks

let program_instruction_count (p : program) =
  List.fold_left (fun acc f -> acc + func_instruction_count f) 0 p.funcs

let panic_count (f : func) =
  List.length
    (List.filter (fun (_, b) -> match b.term with Panic _ -> true | _ -> false)
       f.blocks)
