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
    Reg of reg
  | Const_int of int
  | Const_bool of bool
  | Null of Ty.t
type binop = Add | Sub | Mul | Sdiv | Srem | And_ | Or_ | Xor
type icmp = Eq | Ne | Slt | Sle | Sgt | Sge
type rvalue =
    Binop of binop * operand * operand
  | Icmp of icmp * Ty.t * operand * operand
  | Not of operand
  | Alloca of Ty.t
  | Load of Ty.t * operand
  | Gep of Ty.t * operand * operand list
  | Call of string * operand list
  | Newobject of Ty.t
  | Bitcast of operand
  | Byte_gep of operand * operand
  | Opaque_load of Ty.t * operand
type instr =
    Assign of reg * rvalue
  | Store of Ty.t * operand * operand
  | Opaque_store of Ty.t * operand * operand
  | Call_void of string * operand list
type terminator =
    Br of label
  | Cond_br of operand * label * label
  | Ret of operand option
  | Panic of string
  | Unreachable
type block = { insns : instr list; term : terminator; }
type func = {
  fn_name : string;
  params : (reg * Ty.t) list;
  ret_ty : Ty.t option;
  entry : label;
  blocks : (label * block) list;
}
type program = { tenv : Ty.tenv; funcs : func list; }
val find_func : program -> string -> func
val find_block : func -> label -> block

(* Resolving a program once, for the executors that run index-addressed
   code (the concrete interpreter, the symbolic executor). *)

(* Names to their indices in the list; the first occurrence wins, as in
   [find_func] and [find_block]. *)
val index_first : string list -> (string, int) Hashtbl.t

(* [block_indexer f] resolves labels of [f] to indices into [f.blocks].
   A label with no block resolves to a negative index [-(i + 1)], naming
   entry [i] of the array the second function returns once every label
   is resolved: the executor raises "no block" when it branches there,
   where a by-name lookup would have failed. *)
val block_indexer : func -> (label -> int) * (unit -> label array)

(* [per_program resolve] is [resolve] memoised per domain by the
   program's physical identity (programs are immutable values), weakly:
   the resolved value lives as long as its program. *)
val per_program : (program -> 'a) -> program -> 'a
val func_instruction_count : func -> int
val program_instruction_count : program -> int
val panic_count : func -> int
