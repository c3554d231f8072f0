(* Bounded, domain-local memo tables with one eviction policy: two
   generations.

   New entries go into the young table. When the young table holds
   [limit / 2] entries, the old table is dropped (its entries count as
   evictions) and the young table becomes the old one. A lookup tries
   the young table, then the old one only if it is non-empty, and moves
   an old hit into the young table. So no instance holds more than
   [limit] entries, and an entry touched at least once per generation
   is never lost, however many other keys are inserted: there is no
   cliff where a full table forgets everything at once.

   Each instance is domain-local: every domain sees its own tables, so
   no lock is needed, and worker domains start empty. *)

(* One instance as seen from the calling domain. [buckets] merges the
   statistics of both generations. *)
type stat = {
  name : string;
  entries : int;
  evictions : int;
  buckets : Hashtbl.statistics;
}

(* Every instance created so far, in creation order, read in the
   calling domain. *)
val stats : unit -> stat list

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  (* [limit] >= 2 bounds the entry count of each domain's tables. *)
  val create : name:string -> limit:int -> 'v t
  val find_opt : 'v t -> K.t -> 'v option

  (* For a key that is not bound (a [find_opt] just missed). *)
  val add : 'v t -> K.t -> 'v -> unit
  val replace : 'v t -> K.t -> 'v -> unit

  (* Empty this domain's tables. Not an eviction. *)
  val clear : 'v t -> unit
end
