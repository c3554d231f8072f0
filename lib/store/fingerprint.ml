(* Content-hash fingerprints over the hash-consed MinIR (ISSUE 6, after
   Janus-style incremental verification): a function's fingerprint is an
   MD5 of its *canonical* text — blocks in DFS order from the entry and
   renamed B0, B1, …; registers renumbered by first occurrence; labels
   and register names never appear — so alpha-equivalent functions
   (renamed registers/labels, reordered block lists) collide and any
   one-instruction edit separates. [cone] folds in the fingerprints of
   everything a function can call, so it identifies the whole region of
   the program that could influence the function's verification verdict:
   an edit invalidates exactly the persistent-store entries whose cone
   contains it. *)

module Instr = Minir.Instr
module Ty = Minir.Ty

(* ------------------------------------------------------------------ *)
(* Canonical function text                                            *)
(* ------------------------------------------------------------------ *)

(* Canonical names are assigned by first occurrence during the DFS
   render, so they are independent of the source names. Parameters are
   visited first (in declaration order — parameter order is meaningful,
   it is the call ABI). *)
type renamer = {
  regs : (string, string) Hashtbl.t;
  labels : (string, string) Hashtbl.t;
  mutable next_reg : int;
  mutable next_label : int;
}

let fresh_renamer () =
  {
    regs = Hashtbl.create 32;
    labels = Hashtbl.create 16;
    next_reg = 0;
    next_label = 0;
  }

let reg rn r =
  match Hashtbl.find_opt rn.regs r with
  | Some c -> c
  | None ->
      let c = "r" ^ string_of_int rn.next_reg in
      rn.next_reg <- rn.next_reg + 1;
      Hashtbl.add rn.regs r c;
      c

let label rn l =
  match Hashtbl.find_opt rn.labels l with
  | Some c -> c
  | None ->
      let c = "B" ^ string_of_int rn.next_label in
      rn.next_label <- rn.next_label + 1;
      Hashtbl.add rn.labels l c;
      c

let operand rn buf (o : Instr.operand) =
  match o with
  | Instr.Reg r -> Buffer.add_string buf (reg rn r)
  | Instr.Const_int n ->
      Buffer.add_char buf '#';
      Buffer.add_string buf (string_of_int n)
  | Instr.Const_bool b -> Buffer.add_string buf (if b then "#t" else "#f")
  | Instr.Null ty ->
      Buffer.add_string buf "null:";
      Buffer.add_string buf (Ty.to_string ty)

let operands rn buf os =
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char buf ',';
      operand rn buf o)
    os

let binop_name : Instr.binop -> string = function
  | Instr.Add -> "add"
  | Instr.Sub -> "sub"
  | Instr.Mul -> "mul"
  | Instr.Sdiv -> "sdiv"
  | Instr.Srem -> "srem"
  | Instr.And_ -> "and"
  | Instr.Or_ -> "or"
  | Instr.Xor -> "xor"

let icmp_name : Instr.icmp -> string = function
  | Instr.Eq -> "eq"
  | Instr.Ne -> "ne"
  | Instr.Slt -> "slt"
  | Instr.Sle -> "sle"
  | Instr.Sgt -> "sgt"
  | Instr.Sge -> "sge"

let rvalue rn buf (rv : Instr.rvalue) =
  let str = Buffer.add_string buf in
  match rv with
  | Instr.Binop (op, a, b) ->
      str (binop_name op);
      str " ";
      operands rn buf [ a; b ]
  | Instr.Icmp (c, ty, a, b) ->
      str "icmp ";
      str (icmp_name c);
      str " ";
      str (Ty.to_string ty);
      str " ";
      operands rn buf [ a; b ]
  | Instr.Not o ->
      str "not ";
      operand rn buf o
  | Instr.Alloca ty ->
      str "alloca ";
      str (Ty.to_string ty)
  | Instr.Load (ty, o) ->
      str "load ";
      str (Ty.to_string ty);
      str " ";
      operand rn buf o
  | Instr.Gep (ty, base, idx) ->
      str "gep ";
      str (Ty.to_string ty);
      str " ";
      operands rn buf (base :: idx)
  | Instr.Call (fn, args) ->
      str "call ";
      str fn;
      str "(";
      operands rn buf args;
      str ")"
  | Instr.Newobject ty ->
      str "new ";
      str (Ty.to_string ty)
  | Instr.Bitcast o ->
      str "bitcast ";
      operand rn buf o
  | Instr.Byte_gep (base, off) ->
      str "bgep ";
      operands rn buf [ base; off ]
  | Instr.Opaque_load (ty, o) ->
      str "oload ";
      str (Ty.to_string ty);
      str " ";
      operand rn buf o

let instr rn buf (i : Instr.instr) =
  let str = Buffer.add_string buf in
  (match i with
  | Instr.Assign (r, rv) ->
      str (reg rn r);
      str " = ";
      rvalue rn buf rv
  | Instr.Store (ty, v, p) ->
      str "store ";
      str (Ty.to_string ty);
      str " ";
      operands rn buf [ v; p ]
  | Instr.Opaque_store (ty, v, p) ->
      str "ostore ";
      str (Ty.to_string ty);
      str " ";
      operands rn buf [ v; p ]
  | Instr.Call_void (fn, args) ->
      str "call ";
      str fn;
      str "(";
      operands rn buf args;
      str ")");
  Buffer.add_char buf '\n'

(* Successors in terminator order: the DFS visit order (and hence every
   canonical label) is a function of the CFG alone. *)
let successors (t : Instr.terminator) =
  match t with
  | Instr.Br l -> [ l ]
  | Instr.Cond_br (_, l1, l2) -> [ l1; l2 ]
  | Instr.Ret _ | Instr.Panic _ | Instr.Unreachable -> []

let terminator rn buf (t : Instr.terminator) =
  let str = Buffer.add_string buf in
  (match t with
  | Instr.Br l ->
      str "br ";
      str (label rn l)
  | Instr.Cond_br (c, l1, l2) ->
      str "cbr ";
      operand rn buf c;
      str " ";
      str (label rn l1);
      str " ";
      str (label rn l2)
  | Instr.Ret None -> str "ret"
  | Instr.Ret (Some o) ->
      str "ret ";
      operand rn buf o
  | Instr.Panic msg ->
      str "panic ";
      str msg
  | Instr.Unreachable -> str "unreachable");
  Buffer.add_char buf '\n'

(* Canonical text of one function. Unreachable blocks are excluded: they
   cannot influence any verdict, so an edit confined to dead code does
   not invalidate anything. *)
let canonical_text (f : Instr.func) : string =
  let rn = fresh_renamer () in
  List.iter (fun (p, _) -> ignore (reg rn p)) f.Instr.params;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "params";
  List.iter
    (fun (p, ty) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (reg rn p);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Ty.to_string ty))
    f.Instr.params;
  (match f.Instr.ret_ty with
  | None -> Buffer.add_string buf " -> void\n"
  | Some ty ->
      Buffer.add_string buf " -> ";
      Buffer.add_string buf (Ty.to_string ty);
      Buffer.add_char buf '\n');
  let visited = Hashtbl.create 16 in
  let rec visit l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      let b = Instr.find_block f l in
      Buffer.add_string buf (label rn l);
      Buffer.add_string buf ":\n";
      List.iter (instr rn buf) b.Instr.insns;
      terminator rn buf b.Instr.term;
      List.iter visit (successors b.Instr.term)
    end
  in
  visit f.Instr.entry;
  Buffer.contents buf

(* Callees reachable from [f]'s entry, deduplicated, sorted. *)
let callees (f : Instr.func) : string list =
  let visited = Hashtbl.create 16 in
  let out = Hashtbl.create 8 in
  let of_rvalue = function Instr.Call (fn, _) -> Some fn | _ -> None in
  let of_instr = function
    | Instr.Assign (_, rv) -> of_rvalue rv
    | Instr.Call_void (fn, _) -> Some fn
    | Instr.Store _ | Instr.Opaque_store _ -> None
  in
  let rec visit l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      let b = Instr.find_block f l in
      List.iter
        (fun i ->
          match of_instr i with
          | Some fn -> Hashtbl.replace out fn ()
          | None -> ())
        b.Instr.insns;
      List.iter visit (successors b.Instr.term)
    end
  in
  visit f.Instr.entry;
  Hashtbl.fold (fun fn () acc -> fn :: acc) out [] |> List.sort compare

let md5 s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Per-program memo                                                   *)
(* ------------------------------------------------------------------ *)

(* Fingerprints are queried once per store key, which can be thousands
   of times per run over the same compiled program; memoize per program
   by physical identity ([tables_for] below). *)
type tables = {
  local : (string, string) Hashtbl.t; (* fn -> per-function fp *)
  cone : (string, string) Hashtbl.t; (* fn -> cone fp *)
}

let compute_tables (prog : Instr.program) : tables =
  let local = Hashtbl.create 64 in
  let calls = Hashtbl.create 64 in
  List.iter
    (fun (f : Instr.func) ->
      Hashtbl.replace local f.Instr.fn_name (md5 (canonical_text f));
      Hashtbl.replace calls f.Instr.fn_name (callees f))
    prog.Instr.funcs;
  (* Cone fingerprints by fixpoint: fold each function's local hash with
     its callees' cone hashes (sorted), iterated #funcs+1 times so the
     value is deterministic even on call cycles. Unknown callees
     (externals) contribute their name. *)
  let n = List.length prog.Instr.funcs + 1 in
  let cur = ref (Hashtbl.copy local) in
  (try
     for _ = 1 to n do
       let next = Hashtbl.create 64 in
       let changed = ref false in
       Hashtbl.iter
         (fun fn local_fp ->
           let cs = try Hashtbl.find calls fn with Not_found -> [] in
           let parts =
             List.map
               (fun c ->
                 match Hashtbl.find_opt !cur c with
                 | Some h -> h
                 | None -> "extern:" ^ c)
               cs
           in
           let h = md5 (String.concat "|" (local_fp :: parts)) in
           if Hashtbl.find_opt !cur fn <> Some h then changed := true;
           Hashtbl.replace next fn h)
         local;
       cur := next;
       (* Acyclic call graphs converge in depth steps to a Merkle hash
          independent of [n]; the cap only matters on call cycles. *)
       if not !changed then raise Exit
     done
   with Exit -> ());
  { local; cone = !cur }

let tables_for : Instr.program -> tables = Instr.per_program compute_tables

let func_fp prog fn =
  match Hashtbl.find_opt (tables_for prog).local fn with
  | Some h -> h
  | None -> md5 ("missing:" ^ fn)

let cone_fp prog fn =
  match Hashtbl.find_opt (tables_for prog).cone fn with
  | Some h -> h
  | None -> md5 ("missing:" ^ fn)

let program_fp prog =
  let t = tables_for prog in
  let all =
    Hashtbl.fold (fun fn h acc -> (fn ^ "=" ^ h) :: acc) t.local []
    |> List.sort compare
  in
  md5 (String.concat "\n" all)
