(* Manual specifications for the stable dependency layers (the yellow
   boxes of Figure 5) and the refinement check that each layer's code
   is equivalent to its specification (§5.2, §6.3).

   Specifications are written in the executable AbsLLVM style (§6.1):
   OCaml functions over symbolic values that fork on abstract,
   word-level conditions — e.g. compareAbs (Figure 10) compares whole
   labels as integers where compareRaw grinds through bytes. They serve
   two purposes:

   - each is *verified* against the corresponding Golite code by
     full-path product checking (code paths × spec paths, SMT-discharged
     equivalence of return values and memory effects);
   - they can then be installed as intercepts during whole-engine
     verification, which is the layered-verification configuration.

   These layers are stable across engine versions (Table 3): the same
   specifications verify against every version's code. *)

module Term = Smt.Term
module Solver = Smt.Solver
module Value = Minir.Value
module Ty = Minir.Ty
module Layout = Dnstree.Layout
module Sval = Symex.Sval
module Exec = Symex.Exec
module Summary = Symex.Summary

let maxl = Layout.max_labels

(* ------------------------------------------------------------------ *)
(* Spec-writing helpers (the built-in predicates of §6.1)             *)
(* ------------------------------------------------------------------ *)

let ret path v : Exec.result = [ (path, Exec.Returned (Some v)) ]
let ret_int path n = ret path (Sval.SInt (Term.int n))
let ret_void path : Exec.result = [ (path, Exec.Returned None) ]

let read_name_cells (mem : Sval.memory) (p : Value.ptr) : Term.t array =
  match Sval.load_cell mem p with
  | Sval.CArray cells ->
      Array.map
        (function
          | Sval.CInt t -> t
          | c -> Sval.error "name cell is not an integer: %a" Sval.pp_scell c)
        cells
  | c -> Sval.error "expected a name array, got %a" Sval.pp_scell c

(* listEq over the §5.4 encoding: both lists bounded by [maxl], lengths
   as terms; equality = disjunction over the concrete common length. *)
let fork_length ctx path (len : Term.t) (k : Exec.path -> int -> Exec.result) :
    Exec.result =
  Exec.fork_index ctx path len ~cap:(maxl + 1) ~k
    ~out_of_range:(fun _ -> Sval.error "length out of the encoding bound")

let prefix_eq (a : Term.t array) (b : Term.t array) (n : int) : Term.t =
  Term.and_ (List.init n (fun j -> Term.eq a.(j) b.(j)))

(* ------------------------------------------------------------------ *)
(* The manual specifications                                          *)
(* ------------------------------------------------------------------ *)

(* compareAbs (Figure 10): names as integer lists, compared label-wise.
   PARTIAL iff b is a proper ancestor of a. *)
let compare_names_spec : Exec.intercept =
 fun ctx path args ->
  match args with
  | [ Sval.SPtr a_ptr; Sval.SInt alen; Sval.SPtr b_ptr; Sval.SInt blen ] ->
      let a = read_name_cells path.Exec.mem a_ptr in
      let b = read_name_cells path.Exec.mem b_ptr in
      Exec.fork_bool ctx path (Term.lt alen blen)
        ~then_:(fun path -> ret_int path Layout.nomatch)
        ~else_:(fun path ->
          fork_length ctx path blen (fun path bl ->
              Exec.fork_bool ctx path (prefix_eq a b bl)
                ~then_:(fun path ->
                  Exec.fork_bool ctx path (Term.eq alen blen)
                    ~then_:(fun path -> ret_int path Layout.exactmatch)
                    ~else_:(fun path -> ret_int path Layout.partialmatch))
                ~else_:(fun path -> ret_int path Layout.nomatch)))
  | _ -> Sval.error "compareNames spec: bad arguments"

(* nameOrder: lexicographic order on the reversed label lists. *)
let name_order_spec : Exec.intercept =
 fun ctx path args ->
  match args with
  | [ Sval.SPtr a_ptr; Sval.SInt alen; Sval.SPtr b_ptr; Sval.SInt blen ] ->
      let a = read_name_cells path.Exec.mem a_ptr in
      let b = read_name_cells path.Exec.mem b_ptr in
      let rec at path j =
        (* Invariant: the first j labels are pairwise equal and both
           lengths exceed... are at least j. *)
        let both_longer =
          Term.and_ [ Term.gt alen (Term.int j); Term.gt blen (Term.int j) ]
        in
        Exec.fork_bool ctx path both_longer
          ~then_:(fun path ->
            Exec.fork_bool ctx path (Term.lt a.(j) b.(j))
              ~then_:(fun path -> ret_int path (-1))
              ~else_:(fun path ->
                Exec.fork_bool ctx path (Term.gt a.(j) b.(j))
                  ~then_:(fun path -> ret_int path 1)
                  ~else_:(fun path ->
                    if j + 1 >= maxl then ends path else at path (j + 1))))
          ~else_:(fun path -> ends path)
      and ends path =
        Exec.fork_bool ctx path (Term.lt alen blen)
          ~then_:(fun path -> ret_int path (-1))
          ~else_:(fun path ->
            Exec.fork_bool ctx path (Term.gt alen blen)
              ~then_:(fun path -> ret_int path 1)
              ~else_:(fun path -> ret_int path 0))
      in
      at path 0
  | _ -> Sval.error "nameOrder spec: bad arguments"

(* copyNameInto: dst[0..n-1] := src[0..n-1]. *)
let copy_name_spec : Exec.intercept =
 fun ctx path args ->
  match args with
  | [ Sval.SPtr dst; Sval.SPtr src; Sval.SInt n ] ->
      let src_cells = read_name_cells path.Exec.mem src in
      fork_length ctx path n (fun path len ->
          let mem = ref path.Exec.mem in
          for j = 0 to len - 1 do
            mem :=
              Sval.store !mem
                { dst with Value.path = dst.Value.path @ [ j ] }
                (Sval.CInt src_cells.(j))
          done;
          ret_void { path with Exec.mem = !mem })
  | _ -> Sval.error "copyNameInto spec: bad arguments"

(* stackPush (Figure 2/3): abstractly, store the node at the current
   level. The level is read by the caller directly — the poor
   encapsulation the flexible memory model accommodates (§5.1). An
   out-of-range level is a panic, exactly like the code's bounds
   check. *)
let stack_push_spec : Exec.intercept =
 fun ctx path args ->
  match args with
  | [ Sval.SPtr s_ptr; node ] ->
      let level_ptr =
        { s_ptr with Value.path = s_ptr.Value.path @ [ 1 ] }
      in
      let level =
        match Sval.load path.Exec.mem level_ptr with
        | Sval.SInt t -> t
        | _ -> Sval.error "stack level is not an integer"
      in
      Exec.fork_index ctx path level ~cap:Layout.max_stack
        ~k:(fun path l ->
          let slot =
            { s_ptr with Value.path = s_ptr.Value.path @ [ 0; l ] }
          in
          let mem = Sval.store path.Exec.mem slot (Sval.scell_of_sval node) in
          ret_void { path with Exec.mem = mem })
        ~out_of_range:(fun path ->
          [ (path, Exec.Panicked "index out of range") ])
  | _ -> Sval.error "stackPush spec: bad arguments"

(* findRRSet: the index of the rrset with the requested type, else -1.
   The node is concrete (it comes from the domain tree), so the spec is
   a chain of comparisons against its concrete type codes. *)
let find_rrset_spec : Exec.intercept =
 fun ctx path args ->
  match args with
  | [ Sval.SPtr node_ptr; Sval.SInt rtype ] ->
      let nsets =
        match
          Sval.load path.Exec.mem
            { node_ptr with Value.path = node_ptr.Value.path @ [ 5 ] }
        with
        | Sval.SInt (Term.Int_const n) -> n
        | _ -> Sval.error "findRRSet spec: symbolic rrset count"
      in
      let set_rtype k =
        match
          Sval.load path.Exec.mem
            { node_ptr with Value.path = node_ptr.Value.path @ [ 6; k; 0 ] }
        with
        | Sval.SInt t -> t
        | _ -> Sval.error "findRRSet spec: bad rtype cell"
      in
      let rec scan path k =
        if k >= nsets then ret_int path (-1)
        else
          Exec.fork_bool ctx path (Term.eq (set_rtype k) rtype)
            ~then_:(fun path -> ret_int path k)
            ~else_:(fun path -> scan path (k + 1))
      in
      scan path 0
  | _ -> Sval.error "findRRSet spec: bad arguments"

(* Section appends: copy the record fields into the next slot and bump
   the count; drop silently at capacity. One spec serves all three
   sections, parameterized by field indices. *)
let append_spec ~(count_field : int) ~(section_field : int) ~(cap : int) :
    Exec.intercept =
 fun ctx path args ->
  match args with
  | [ Sval.SPtr resp; Sval.SPtr rname; Sval.SInt rname_len; rtype; Sval.SPtr rd ]
    ->
      let count_ptr =
        { resp with Value.path = resp.Value.path @ [ count_field ] }
      in
      let count =
        match Sval.load path.Exec.mem count_ptr with
        | Sval.SInt t -> t
        | _ -> Sval.error "append spec: bad count"
      in
      let rd_cell field =
        Sval.load_cell path.Exec.mem
          { rd with Value.path = rd.Value.path @ [ field ] }
      in
      let rname_cells = read_name_cells path.Exec.mem rname in
      Exec.fork_index ctx path count ~cap:(cap + 1)
        ~k:(fun path idx ->
          if idx >= cap then ret_void path
          else begin
            let slot base =
              {
                resp with
                Value.path = resp.Value.path @ [ section_field; idx; base ];
              }
            in
            (* Copy rname up to rname_len (bounded fork), then scalars. *)
            fork_length ctx path rname_len (fun path len ->
                let mem = ref path.Exec.mem in
                let store p c = mem := Sval.store !mem p c in
                for j = 0 to len - 1 do
                  store
                    {
                      resp with
                      Value.path =
                        resp.Value.path @ [ section_field; idx; 0; j ];
                    }
                    (Sval.CInt rname_cells.(j))
                done;
                store (slot 1) (Sval.CInt (Term.int len));
                store (slot 2) (Sval.scell_of_sval rtype);
                (* target copy: bounded by the rdata's target length. *)
                let tlen =
                  match rd_cell 1 with
                  | Sval.CInt t -> t
                  | _ -> Sval.error "append spec: bad targetLen"
                in
                let target_cells =
                  match rd_cell 0 with
                  | Sval.CArray cells ->
                      Array.map
                        (function
                          | Sval.CInt t -> t
                          | _ -> Sval.error "append spec: bad target cell")
                        cells
                  | _ -> Sval.error "append spec: bad target"
                in
                fork_length ctx { path with Exec.mem = !mem } tlen
                  (fun path tl ->
                    let mem = ref path.Exec.mem in
                    let store p c = mem := Sval.store !mem p c in
                    for j = 0 to tl - 1 do
                      store
                        {
                          resp with
                          Value.path =
                            resp.Value.path @ [ section_field; idx; 3; j ];
                        }
                        (Sval.CInt target_cells.(j))
                    done;
                    store (slot 4) (Sval.CInt (Term.int tl));
                    store (slot 5) (rd_cell 2);
                    store (slot 6) (rd_cell 3);
                    store count_ptr (Sval.CInt (Term.int (idx + 1)));
                    ret_void { path with Exec.mem = !mem }))
          end)
        ~out_of_range:(fun path ->
          (* counts are engine-maintained and never negative or past the
             capacity guard; treat anything else as a spec violation *)
          [ (path, Exec.Panicked "append spec: count out of range") ])
  | _ -> Sval.error "append spec: bad arguments"

(* The registry: layer name → (spec, self-reported spec size in lines,
   used by the Table-3 accounting). *)
let specs : (string * (Exec.intercept * int)) list =
  [
    ("compareNames", (compare_names_spec, 18));
    ("nameOrder", (name_order_spec, 24));
    ("copyNameInto", (copy_name_spec, 12));
    ("stackPush", (stack_push_spec, 14));
    ("findRRSet", (find_rrset_spec, 16));
    ("appendAnswer", (append_spec ~count_field:2 ~section_field:3 ~cap:Layout.max_rrs, 30));
    ("appendAuthority", (append_spec ~count_field:4 ~section_field:5 ~cap:Layout.max_rrs, 30));
    ("appendAdditional", (append_spec ~count_field:6 ~section_field:7 ~cap:Layout.max_additional, 30));
  ]

let spec_for fn = Option.map fst (List.assoc_opt fn specs)
let spec_loc fn = Option.map snd (List.assoc_opt fn specs)

(* ------------------------------------------------------------------ *)
(* Layer equivalence checking                                         *)
(* ------------------------------------------------------------------ *)

type layer_report = {
  layer : string;
  code_paths : int;
  spec_paths : int;
  pairs : int;
  mismatches : string list;
  unknowns : int; (* solver Unknowns this layer check leaned on *)
  cert_failures : int; (* certificates rejected during this layer *)
  inconclusive : Budget.reason option; (* the check stopped short *)
  elapsed : float;
}

let layer_ok r = r.mismatches = [] && r.inconclusive = None

(* Compare two execution results (code vs. spec) from identical initial
   states: for every overlapping pair of paths, the outcomes and the
   memory effects must agree. *)
let compare_results (init_mem : Sval.memory) (code : Exec.result)
    (spec : Exec.result) : int * string list =
  let mismatches = ref [] in
  let pairs = ref 0 in
  (* One assertion stack for the whole product: the hypotheses of every
     entailment below extend [combined], whose tail (the code path
     condition) is shared physically across the inner loop. *)
  let istack = Solver.Incremental.create () in
  let add fmt = Format.kasprintf (fun s -> mismatches := s :: !mismatches) fmt in
  let term_of_sval = function
    | Sval.SInt t | Sval.SBool t -> Some t
    | Sval.SPtr _ | Sval.SNull | Sval.SUnit -> None
  in
  List.iter
    (fun ((cp : Exec.path), c_out) ->
      List.iter
        (fun ((sp : Exec.path), s_out) ->
          let combined = sp.Exec.pc @ cp.Exec.pc in
          match Solver.Incremental.check_pc istack combined with
          | Solver.Unsat -> ()
          | Solver.Sat _ | Solver.Unknown -> (
              incr pairs;
              match (c_out, s_out) with
              | Exec.Panicked _, Exec.Panicked _ -> ()
              | Exec.Panicked m, Exec.Returned _ ->
                  add "code panics (%s) where spec returns" m
              | Exec.Returned _, Exec.Panicked m ->
                  add "spec panics (%s) where code returns" m
              | Exec.Returned c_v, Exec.Returned s_v -> (
                  (match (c_v, s_v) with
                  | Some cv, Some sv -> (
                      match (term_of_sval cv, term_of_sval sv) with
                      | Some ct, Some st -> (
                          match Solver.Incremental.entails istack ~hyps:combined (Term.eq ct st) with
                          | Solver.Valid -> ()
                          | _ ->
                              add "return values differ: %a vs %a" Term.pp ct
                                Term.pp st)
                      | _ -> if cv <> sv then add "pointer returns differ")
                  | None, None -> ()
                  | _ -> add "return arity differs");
                  (* Memory effects must coincide. *)
                  let cw, ca = Summary.diff_memory init_mem cp.Exec.mem in
                  let sw, sa = Summary.diff_memory init_mem sp.Exec.mem in
                  if List.length ca <> List.length sa then
                    add "allocation counts differ";
                  let find_write ws (w : Summary.write) =
                    List.find_opt
                      (fun (w' : Summary.write) ->
                        w'.Summary.w_block = w.Summary.w_block
                        && w'.Summary.w_path = w.Summary.w_path)
                      ws
                  in
                  let check_side label ws ws' =
                    List.iter
                      (fun (w : Summary.write) ->
                        match find_write ws' w with
                        | None -> (
                            (* A write is missing on the other side: it
                               is only equivalent if it wrote back the
                               initial value. *)
                            let orig =
                              Sval.cell_get
                                (Sval.block_value init_mem w.Summary.w_block)
                                w.Summary.w_path
                            in
                            match (orig, w.Summary.w_cell) with
                            | Sval.CInt a, Sval.CInt b
                            | (Sval.CBool a, Sval.CBool b : Sval.scell * Sval.scell) -> (
                                match
                                  Solver.Incremental.entails istack ~hyps:combined (Term.eq a b)
                                with
                                | Solver.Valid -> ()
                                | _ ->
                                    add "%s writes %d.%s with no counterpart"
                                      label w.Summary.w_block
                                      (String.concat "."
                                         (List.map string_of_int w.Summary.w_path)))
                            | _ ->
                                add "%s writes %d.%s with no counterpart" label
                                  w.Summary.w_block
                                  (String.concat "."
                                     (List.map string_of_int w.Summary.w_path)))
                        | Some w' -> (
                            match (w.Summary.w_cell, w'.Summary.w_cell) with
                            | Sval.CInt a, Sval.CInt b | Sval.CBool a, Sval.CBool b
                              -> (
                                match
                                  Solver.Incremental.entails istack ~hyps:combined (Term.eq a b)
                                with
                                | Solver.Valid -> ()
                                | _ ->
                                    add "write to %d.%s differs"
                                      w.Summary.w_block
                                      (String.concat "."
                                         (List.map string_of_int w.Summary.w_path)))
                            | a, b ->
                                if not (Sval.equal_scalar a b) then
                                  add "write to %d.%s differs structurally"
                                    w.Summary.w_block
                                    (String.concat "."
                                       (List.map string_of_int w.Summary.w_path))))
                      ws
                  in
                  check_side "code" cw sw;
                  check_side "spec" sw cw)))
        spec)
    code;
  (!pairs, List.rev !mismatches)

(* Build the symbolic initial state for a layer check. *)
let sym_name_block mem prefix =
  Sval.alloc mem
    (Sval.CArray
       (Array.init maxl (fun j ->
            Sval.CInt (Term.int_var (Printf.sprintf "%s%d" prefix j)))))

let len_var name = Term.int_var name

let len_bounds v =
  [ Term.ge v (Term.int 0); Term.le v (Term.int maxl) ]

(* The initial state builders per layer. Returns (mem, args, pc). *)
let layer_setup (prog : Minir.Instr.program) (enc : Dnstree.Encode.t option)
    (layer : string) : Sval.memory * Sval.sval list * Term.t list =
  let tenv = prog.Minir.Instr.tenv in
  let base =
    match enc with
    | Some e -> Sval.memory_of_concrete e.Dnstree.Encode.memory
    | None -> Sval.memory_of_concrete Value.empty_memory
  in
  match layer with
  | "compareNames" | "nameOrder" ->
      let mem, a = sym_name_block base "la" in
      let mem, b = sym_name_block mem "lb" in
      let alen = len_var "lalen" and blen = len_var "lblen" in
      ( mem,
        [ Sval.SPtr a; Sval.SInt alen; Sval.SPtr b; Sval.SInt blen ],
        len_bounds alen @ len_bounds blen )
  | "copyNameInto" ->
      let mem, dst = sym_name_block base "ld" in
      let mem, src = sym_name_block mem "ls" in
      let n = len_var "lcn" in
      (mem, [ Sval.SPtr dst; Sval.SPtr src; Sval.SInt n ], len_bounds n)
  | "stackPush" ->
      let mem, stack =
        Sval.alloc base (Sval.scell_default tenv (Ty.Struct "NodeStack"))
      in
      (* Symbolic level exercises both the in-range and the panic
         behavior. *)
      let lvl = len_var "llvl" in
      let mem = Sval.store mem
          { stack with Value.path = [ 1 ] }
          (Sval.CInt lvl)
      in
      let node =
        match enc with
        | Some e -> Sval.SPtr e.Dnstree.Encode.root
        | None -> Sval.SNull
      in
      ( mem,
        [ Sval.SPtr stack; node ],
        [ Term.ge lvl (Term.int 0); Term.le lvl (Term.int Layout.max_stack) ] )
  | "findRRSet" ->
      let root =
        match enc with
        | Some e -> e.Dnstree.Encode.root
        | None -> invalid_arg "findRRSet setup needs a zone"
      in
      let rt = len_var "lrt" in
      (base, [ Sval.SPtr root; Sval.SInt rt ], [])
  | "appendAnswer" | "appendAuthority" | "appendAdditional" ->
      let mem, resp =
        Sval.alloc base (Sval.scell_default tenv (Ty.Struct "Response"))
      in
      let mem, rname = sym_name_block mem "lr" in
      let rlen = len_var "lrlen" in
      let mem, rd =
        Sval.alloc mem (Sval.scell_default tenv (Ty.Struct "Rdata"))
      in
      (* Symbolic rdata fields. *)
      let mem = Sval.store mem { rd with Value.path = [ 1 ] }
          (Sval.CInt (len_var "lrdlen"))
      in
      let mem = Sval.store mem { rd with Value.path = [ 3 ] }
          (Sval.CInt (len_var "lrdid"))
      in
      let rt = len_var "lart" in
      ( mem,
        [ Sval.SPtr resp; Sval.SPtr rname; Sval.SInt rlen; Sval.SInt rt;
          Sval.SPtr rd ],
        len_bounds rlen @ len_bounds (len_var "lrdlen") )
  | other -> invalid_arg ("no layer setup for " ^ other)

(* ---------------- Persistent layer verdicts ----------------------- *)

(* The tags shared by every persistent-store key over a zone and a
   budget: the zone is keyed by its rendered text, the budget by its
   semantic limits only (the wall-clock deadline is an operational
   concern, not part of what was proved). *)
let zone_fp (zone : Dns.Zone.t) =
  Digest.to_hex (Digest.string (Dns.Zonefile.render zone))

let limits_tag (b : Budget.t) =
  let num = function None -> "-" | Some n -> string_of_int n in
  Printf.sprintf "s%s,p%s,f%s"
    (num b.Budget.max_solver_steps)
    (num b.Budget.max_paths) (num b.Budget.max_fuel)

(* Layer-verdict entries ("L|"). A *clean* layer verdict (no
   mismatches, no Unknowns, no rejected certificates, ran to
   completion) is a pure function of the layer's cone of influence in
   the program, the zone and the budget limits — so it can be persisted
   and served across runs and across engine versions that leave the
   cone untouched. Anything non-clean is never stored: a mismatch must
   be re-derived (its evidence is not persisted) and a degraded verdict
   must not outlive its cause. The payload is the clean verdict's
   (code paths, spec paths, pairs). *)
let layer_entries =
  let module C = Store.Codec in
  Store.kind ~prefix:'L' ~name:"layer"
    ~key:(fun (prog, zone, budget, layer) ->
      Digest.to_hex
        (Digest.string
           (String.concat "\x00"
              [
                "layer-v1";
                layer;
                Store.Fingerprint.cone_fp prog layer;
                zone_fp zone;
                limits_tag budget;
              ])))
    ~encode:(fun (code_paths, spec_paths, pairs) ->
      let b = Buffer.create 32 in
      C.wint b code_paths;
      C.wint b spec_paths;
      C.wint b pairs;
      Buffer.contents b)
    ~decode:
      (C.whole (fun rd ->
           let code_paths = C.rint rd in
           let spec_paths = C.rint rd in
           let pairs = C.rint rd in
           (code_paths, spec_paths, pairs)))
    ~check:(fun _ -> Ok ())

(* Verify one manual layer of [prog] against its specification. Budget
   exhaustion or an escaped exception downgrades the layer to
   inconclusive instead of aborting the caller; leaning on a solver
   Unknown is recorded so the verdict cannot silently claim a proof.
   With [store], a clean verdict for this (cone, zone, limits) key is
   served from the persistent store instead of being re-derived, and a
   fresh clean verdict is recorded for the next run. *)
let h_layer_paths = Trace.Metrics.histogram "layer.paths"

let check_layer ?(zone = Spec.Fixtures.figure11_zone) ?budget ?store
    ?(analysis = Analysis.Off) (prog : Minir.Instr.program) (layer : string) :
    layer_report =
  Trace.with_span "layer" ~attrs:[ ("layer", layer) ] @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let skey =
    Option.map
      (fun _ -> Store.key layer_entries (prog, zone, budget, layer))
      store
  in
  let served =
    match (store, skey) with
    | Some st, Some key ->
        Store.load st layer_entries key ~check:(fun _ -> Ok ())
        |> Option.map (fun (code_paths, spec_paths, pairs) ->
               {
                 layer;
                 code_paths;
                 spec_paths;
                 pairs;
                 mismatches = [];
                 unknowns = 0;
                 cert_failures = 0;
                 inconclusive = None;
                 elapsed = Unix.gettimeofday () -. t0;
               })
    | _ -> None
  in
  match served with
  | Some r ->
      Trace.Metrics.observe h_layer_paths (float_of_int r.code_paths);
      Trace.add_attr "paths" (string_of_int r.code_paths);
      Trace.add_attr ~det:false "store" "hit";
      r
  | None ->
  let unknowns0 = (Solver.stats ()).Solver.unknowns in
  let certf0 = (Solver.stats ()).Solver.cert_failures in
  let certf () = (Solver.stats ()).Solver.cert_failures - certf0 in
  (* A rejected certificate downgrades the layer: the degraded answers
     already read as Unknowns, but the sharper cause should be named. *)
  let cert_reason inconclusive =
    match inconclusive with
    | Some _ -> inconclusive
    | None ->
        if certf () > 0 then
          Some
            (Budget.Cert_invalid
               (Printf.sprintf "%d certificate(s) failed re-validation"
                  (certf ())))
        else None
  in
  let attempt () =
    Solver.with_budget budget @@ fun () ->
    let spec =
      match spec_for layer with
      | Some s -> s
      | None -> invalid_arg ("no manual specification for layer " ^ layer)
    in
    let enc = Dnstree.Encode.encode (Dnstree.Tree.build zone) in
    let mem, args, pc = layer_setup prog (Some enc) layer in
    (* The analysis oracle applies to the engine-code side only; the
       spec side is the trusted reference and keeps its solver-only
       path, so a static-analysis bug cannot cancel out across the
       comparison. No env: this harness enters [layer] directly with
       fresh symbolic cells (unconstrained lengths, raw name bytes), so
       neither the engine entry facts nor the encoded-tree field
       invariants hold — only the env-free analysis is sound here. *)
    let code_ctx = Exec.create ~budget ~analysis prog in
    let code_paths = Exec.run code_ctx ~memory:mem ~pc ~fn:layer ~args in
    let spec_ctx = Exec.create ~budget prog in
    let spec_paths = spec spec_ctx { Exec.pc; mem } args in
    let pairs, mismatches = compare_results mem code_paths spec_paths in
    (List.length code_paths, List.length spec_paths, pairs, mismatches)
  in
  match attempt () with
  | code_paths, spec_paths, pairs, mismatches ->
      Trace.Metrics.observe h_layer_paths (float_of_int code_paths);
      Trace.add_attr "paths" (string_of_int code_paths);
      let r =
        {
          layer;
          code_paths;
          spec_paths;
          pairs;
          mismatches;
          unknowns = (Solver.stats ()).Solver.unknowns - unknowns0;
          cert_failures = certf ();
          inconclusive = cert_reason None;
          elapsed = Unix.gettimeofday () -. t0;
        }
      in
      (* Persist clean verdicts only (see [layer_entries]). *)
      (match (store, skey) with
      | Some st, Some key
        when r.mismatches = [] && r.unknowns = 0 && r.cert_failures = 0
             && r.inconclusive = None ->
          Store.save st layer_entries key (code_paths, spec_paths, pairs)
      | _ -> ());
      r
  | exception e ->
      {
        layer;
        code_paths = 0;
        spec_paths = 0;
        pairs = 0;
        mismatches = [];
        unknowns = (Solver.stats ()).Solver.unknowns - unknowns0;
        cert_failures = certf ();
        inconclusive = Some (Budget.reason_of_exn e);
        elapsed = Unix.gettimeofday () -. t0;
      }

(* Verify every manual layer of an engine version. Layer faults are
   isolated per layer by [check_layer]. *)
let check_all ?zone ?budget ?store ?analysis (prog : Minir.Instr.program) :
    layer_report list =
  List.map
    (fun (fn, _) -> check_layer ?zone ?budget ?store ?analysis prog fn)
    specs
