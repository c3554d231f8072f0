(* Concrete Minir interpreter.

   The reference executor: it replays counterexample queries produced by
   the refinement checker against the real engine code, it powers the
   differential tests (engine vs. top-level specification on random
   zones), and it answers every query `dnsv serve` receives. Opaque-pointer
   instructions must be resolved by [Opaque] first; the interpreter
   rejects them. Each program is resolved to index-addressed code once
   per domain (memoised by physical identity), so repeated runs of one
   program look up no names.

   A run keeps its memory in a flat heap of its own: the blocks it
   allocates, and a deep copy of each input block it writes; stores
   write in place. Input blocks it only reads are read from the input
   memory, which is never changed, so a second run from it starts from
   the same state. *)

(* The memory a run ended with, read-only. Reading it copies nothing. *)
type heap

val load_mval : heap -> Value.ptr -> Value.mval

(* The whole memory as a persistent [Value.memory] (written blocks are
   copied). *)
val memory : heap -> Value.memory

type outcome =
    Returned of Value.t option * heap
  | Panicked of string

(* Raised when a run exhausts its fuel: one tick per Assign, Store and
   Call_void, and one per block executed. *)
exception Out_of_fuel

val default_fuel : int

(* [observer] fires at every block entry (before its instructions) with
   the function name, block label, the frame's assigned registers (a
   fresh table, built only when an observer is given), and a snapshot
   of current memory; used by the static-analysis soundness tests. *)
val run :
  ?fuel:int ->
  ?observer:
    (string ->
    Instr.label ->
    (Instr.reg, Value.t) Hashtbl.t ->
    Value.memory ->
    unit) ->
  Instr.program ->
  memory:Value.memory ->
  fn:string -> args:Value.t list -> outcome
