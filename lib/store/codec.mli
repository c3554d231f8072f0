(* Wire codecs for persisted verification artifacts.

   Prefix encoding: ints are decimal + ';', strings length ':' bytes,
   constructors one-byte tags. Decoders never trust their input: every
   malformed byte raises [Bad], which consumers treat like a failed
   certificate (evict, count, fresh solve). Decoded terms are rebuilt
   from the raw constructors and hash-consed — never routed through the
   normalizing smart constructors, because a stored certificate must
   mention the exact terms it was built over. *)

exception Bad of string

(* Writer/reader combinators, exposed so the pipeline- and layer-level
   report codecs (which live above this library) frame their payloads
   the same way. *)
val wint : Buffer.t -> int -> unit
val wstr : Buffer.t -> string -> unit
val wbool : Buffer.t -> bool -> unit

type reader

(* [pos] (default 0) is where reading starts in the string. *)
val reader : ?pos:int -> string -> reader
val at_end : reader -> bool
val rbyte : reader -> char
val rint : reader -> int
val rstr : reader -> string
val rbool : reader -> bool

(* [whole f payload] decodes all of [payload] with [f]; bytes left over
   raise [Bad]. *)
val whole : (reader -> 'a) -> string -> 'a

(* Term rendering memoizes per domain (terms are hash-consed; store
   keys re-render the same obligations thousands of times per run). *)
val term_to_string : Smt.Term.t -> string
val term_of_string : string -> Smt.Term.t
val wterm : Buffer.t -> Smt.Term.t -> unit
val rterm : reader -> Smt.Term.t

val proof_to_string : Smt.Proof.t -> string
val proof_of_string : string -> Smt.Proof.t

val summary_to_string : Symex.Summary.t -> string
val summary_of_string : string -> Symex.Summary.t

(* Relational function summaries (the "A|" analysis entries). *)
val rsummary_to_string : Analysis.rsummary -> string
val rsummary_of_string : string -> Analysis.rsummary
