(* Heap encoding: lay a domain tree out as concrete Minir memory blocks —
   the "concrete in-heap domain tree" the control plane supplies as the
   engine's runtime environment (§6.5). *)

module Value = Minir.Value
module Name = Dns.Name
module Rr = Dns.Rr
type t = {
  memory : Value.memory;
  root : Value.ptr;
  interner : Layout.interner;
  node_blocks : (Name.t * int) list;
  tree : Tree.t;
}
val mnull : Value.mval
val mint : int -> Value.mval
val mbool : bool -> Value.mval
val encode_name_mval :
  Layout.interner -> Dns.Name.t -> Value.mval * Value.mval
val zero_rdata : unit -> Value.mval
val encode_rdata : Layout.interner -> Rr.rdata -> Value.mval
val zero_rrset : unit -> Value.mval
val encode_rrset :
  Layout.interner -> Tree.rrset -> Value.mval
val encode : Tree.t -> t
val alloc_qname :
  t -> Value.memory -> Name.t -> Value.memory * Value.ptr * int
val alloc_response : Value.memory -> Value.memory * Value.ptr
exception Decode_error of string
val decode_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
val as_int : Value.mval -> int
val as_bool : Value.mval -> bool
val decode_rr : t -> Value.mval -> Rr.t
val decode_section : t -> Value.mval -> Value.mval -> Rr.t list
val decode_response : t -> Value.mval -> Dns.Message.response
