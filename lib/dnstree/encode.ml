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
  node_blocks : (Name.t * int) list; (* node name → block id *)
  tree : Tree.t;
}

let mnull = Value.MNull
let mint n = Value.MInt n
let mbool b = Value.MBool b

let encode_name_mval (it : Layout.interner) name : Value.mval * Value.mval =
  let codes, len = Layout.encode_name it name in
  (Value.MArray (Array.map mint codes), mint len)

let zero_rdata () =
  Value.MStruct
    [| Value.MArray (Array.make Layout.max_labels (mint 0)); mint 0; mbool false; mint 0 |]

let encode_rdata (it : Layout.interner) (rd : Rr.rdata) : Value.mval =
  let id = Layout.intern_rdata it rd in
  match Rr.rdata_target rd with
  | Some target ->
      let codes, len = encode_name_mval it target in
      Value.MStruct [| codes; len; mbool true; mint id |]
  | None ->
      let empty = Value.MArray (Array.make Layout.max_labels (mint 0)) in
      Value.MStruct [| empty; mint 0; mbool false; mint id |]

let zero_rrset () =
  Value.MStruct
    [|
      mint 0; mint 0;
      Value.MArray (Array.init Layout.max_rdatas (fun _ -> zero_rdata ()));
    |]

let encode_rrset (it : Layout.interner) (s : Tree.rrset) : Value.mval =
  let rdatas = Array.init Layout.max_rdatas (fun _ -> zero_rdata ()) in
  let count = List.length s.Tree.rdatas in
  if count > Layout.max_rdatas then
    invalid_arg
      (Printf.sprintf "rrset of %s exceeds %d rdatas"
         (Rr.rtype_to_string s.Tree.set_rtype)
         Layout.max_rdatas);
  List.iteri (fun i rd -> rdatas.(i) <- encode_rdata it rd) s.Tree.rdatas;
  Value.MStruct
    [| mint (Rr.rtype_code s.Tree.set_rtype); mint count; Value.MArray rdatas |]

let encode (tree : Tree.t) : t =
  let it = Layout.create_interner () in
  (* Pre-intern every label occurring in node names in canonical order,
     so that integer code order agrees with the sibling BST order the
     tree builder used (the engine navigates left/right by comparing
     codes). The wildcard label already holds the smallest code. *)
  let all_labels =
    Tree.fold
      (fun acc node ->
        List.fold_left
          (fun acc l ->
            if Dns.Label.is_wildcard l || List.exists (Dns.Label.equal l) acc
            then acc
            else l :: acc)
          acc
          (Name.labels node.Tree.name))
      [] tree
  in
  List.iter
    (fun l -> ignore (Dns.Label.Coder.code it.Layout.coder l))
    (List.sort Dns.Label.compare all_labels);
  (* Assign block ids first so sibling/child pointers can be emitted in
     one pass. *)
  let nodes = List.rev (Tree.fold (fun acc n -> n :: acc) [] tree) in
  let ids = List.mapi (fun i n -> (n, i)) nodes in
  let id_of (n : Tree.node) =
    match List.find_opt (fun (n', _) -> n' == n) ids with
    | Some (_, i) -> i
    | None -> assert false
  in
  let ptr_of = function
    | None -> mnull
    | Some n -> Value.MPtr { Value.block = id_of n; path = [] }
  in
  let encode_node (n : Tree.node) : Value.mval =
    let labels, len = encode_name_mval it n.Tree.name in
    let rrsets = Array.init Layout.max_rrsets (fun _ -> zero_rrset ()) in
    let nsets = List.length n.Tree.rrsets in
    if nsets > Layout.max_rrsets then
      invalid_arg
        (Printf.sprintf "node %s exceeds %d rrsets"
           (Name.to_string n.Tree.name) Layout.max_rrsets);
    List.iteri (fun i s -> rrsets.(i) <- encode_rrset it s) n.Tree.rrsets;
    Value.MStruct
      [|
        labels;
        len;
        ptr_of n.Tree.left;
        ptr_of n.Tree.right;
        ptr_of n.Tree.down;
        mint nsets;
        Value.MArray rrsets;
        mbool n.Tree.is_wildcard;
        mbool n.Tree.has_data;
      |]
  in
  (* Allocate in id order so block ids match. *)
  let memory =
    List.fold_left
      (fun mem n ->
        let mem, ptr = Value.alloc mem (encode_node n) in
        assert (ptr.Value.block = id_of n);
        mem)
      Value.empty_memory nodes
  in
  {
    memory;
    root = { Value.block = id_of (Tree.root tree); path = [] };
    interner = it;
    node_blocks = List.map (fun (n, i) -> (n.Tree.name, i)) ids;
    tree;
  }

(* ------------------------------------------------------------------ *)
(* Runtime objects for one query                                      *)
(* ------------------------------------------------------------------ *)

(* Allocate the query name array and return (memory, ptr, len). *)
let alloc_qname (t : t) mem (qname : Name.t) : Value.memory * Value.ptr * int =
  let codes, len = Layout.encode_name t.interner qname in
  let mem, ptr = Value.alloc mem (Value.MArray (Array.map mint codes)) in
  (mem, ptr, len)

(* Built once and shared by every query's Response block: the
   interpreter copies a block before its first write, so no run changes
   it. Built when the module loads rather than lazily, because a lazy
   value that two domains force at once raises. *)
let response_default = Value.mval_default Layout.tenv (Minir.Ty.Struct "Response")

let alloc_response mem = Value.alloc mem response_default

(* ------------------------------------------------------------------ *)
(* Decoding a Response block back into the message model              *)
(* ------------------------------------------------------------------ *)

exception Decode_error of string

let decode_error fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

let as_int = function
  | Value.MInt n -> n
  | mv -> decode_error "expected int cell, got %a" Value.pp_mval mv

let as_bool = function
  | Value.MBool b -> b
  | mv -> decode_error "expected bool cell, got %a" Value.pp_mval mv

let decode_rr (t : t) (rr_mval : Value.mval) : Rr.t =
  match rr_mval with
  | Value.MStruct
      [| Value.MArray rname; rname_len; rtype; _target; _tlen; _has; data_id |]
    ->
      let rname =
        Layout.decode_name t.interner (Array.map as_int rname) (as_int rname_len)
      in
      let rtype =
        match Rr.rtype_of_code (as_int rtype) with
        | Some ty -> ty
        | None -> decode_error "unknown rtype code %d" (as_int rtype)
      in
      let rdata =
        match Layout.rdata_of_id t.interner (as_int data_id) with
        | Some rd -> rd
        | None -> decode_error "unknown rdata id %d" (as_int data_id)
      in
      Rr.make rname rtype rdata
  | mv -> decode_error "malformed RR %a" Value.pp_mval mv

let decode_section (t : t) (count : Value.mval) (cells : Value.mval) :
    Rr.t list =
  match cells with
  | Value.MArray arr ->
      List.init (as_int count) (fun i -> decode_rr t arr.(i))
  | mv -> decode_error "malformed section %a" Value.pp_mval mv

let decode_response (t : t) (resp : Value.mval) : Dns.Message.response =
  match resp with
  | Value.MStruct
      [| rcode; aa; nans; answer; nauth; authority; nadd; additional |] ->
      let rcode =
        match Dns.Message.rcode_of_code (as_int rcode) with
        | Some rc -> rc
        | None -> decode_error "unknown rcode %d" (as_int rcode)
      in
      {
        Dns.Message.rcode;
        aa = as_bool aa;
        answer = decode_section t nans answer;
        authority = decode_section t nauth authority;
        additional = decode_section t nadd additional;
      }
  | mv -> decode_error "malformed Response %a" Value.pp_mval mv
