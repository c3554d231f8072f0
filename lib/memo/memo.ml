(* A young hit costs one [Domain.DLS.get] and one probe, and bumps no
   counter. *)

type stat = {
  name : string;
  entries : int;
  evictions : int;
  buckets : Hashtbl.statistics;
}

let registry : (unit -> stat) list Atomic.t = Atomic.make []

let rec register f =
  let l = Atomic.get registry in
  if not (Atomic.compare_and_set registry l (f :: l)) then register f

let stats () = List.rev_map (fun f -> f ()) (Atomic.get registry)

let merge (a : Hashtbl.statistics) (b : Hashtbl.statistics) =
  let ha = a.bucket_histogram and hb = b.bucket_histogram in
  let at h i = if i < Array.length h then h.(i) else 0 in
  {
    Hashtbl.num_bindings = a.num_bindings + b.num_bindings;
    num_buckets = a.num_buckets + b.num_buckets;
    max_bucket_length = max a.max_bucket_length b.max_bucket_length;
    bucket_histogram =
      Array.init
        (max (Array.length ha) (Array.length hb))
        (fun i -> at ha i + at hb i);
  }

module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v gens = {
    mutable young : 'v H.t;
    mutable old : 'v H.t;
    mutable evicted : int;
  }

  type 'v t = { gens : 'v gens Domain.DLS.key; half : int }

  let create ~name ~limit =
    if limit < 2 then invalid_arg "Memo.create: limit < 2";
    let half = limit / 2 in
    (* A hit walks its bucket with [K.equal], which is structural for
       keys that are not physically equal: start as wide as the widest
       table this replaced (Term's 4,096-bucket interning table). *)
    let size = min half 4096 in
    let gens =
      Domain.DLS.new_key (fun () ->
          { young = H.create size; old = H.create size; evicted = 0 })
    in
    register (fun () ->
        let g = Domain.DLS.get gens in
        {
          name;
          entries = H.length g.young + H.length g.old;
          evictions = g.evicted;
          buckets = merge (H.stats g.young) (H.stats g.old);
        });
    { gens; half }

  (* The emptied old table is reused as the next young one, so a
     steady state allocates no bucket arrays. *)
  let insert m g k v =
    if H.length g.young >= m.half then begin
      g.evicted <- g.evicted + H.length g.old;
      let dropped = g.old in
      H.clear dropped;
      g.old <- g.young;
      g.young <- dropped
    end;
    H.add g.young k v

  let find_opt m k =
    let g = Domain.DLS.get m.gens in
    match H.find_opt g.young k with
    | Some _ as hit -> hit
    | None when H.length g.old = 0 -> None
    | None -> (
        match H.find_opt g.old k with
        | None -> None
        | Some v as hit ->
            H.remove g.old k;
            insert m g k v;
            hit)

  let add m k v = insert m (Domain.DLS.get m.gens) k v

  let replace m k v =
    let g = Domain.DLS.get m.gens in
    if H.mem g.young k then H.replace g.young k v
    else begin
      H.remove g.old k;
      insert m g k v
    end

  let clear m =
    let g = Domain.DLS.get m.gens in
    H.reset g.young;
    H.reset g.old
end
