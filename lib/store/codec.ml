(* Wire codecs for persisted verification artifacts: SMT terms, models,
   proof trees (PR 3 certificates) and module summaries.

   Hand-rolled prefix encoding (the repo deliberately has no serde
   dependency): integers are decimal + ';', strings are length ':'
   bytes, constructors are one-byte tags. Robustness discipline: the
   reader never trusts its input — any malformed byte raises [Bad],
   which store consumers treat exactly like a certificate-validation
   failure (evict, count, fall through to a fresh solve). Terms are
   rebuilt with the raw data constructors and hash-consed at the root,
   NOT through the smart constructors: smart constructors normalize, and
   a decoded certificate must mention the exact terms it was built
   over. *)

module Term = Smt.Term
module Model = Smt.Model
module Proof = Smt.Proof
module Sval = Symex.Sval
module Summary = Symex.Summary
module Value = Minir.Value
module Ty = Minir.Ty

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* ------------------------------------------------------------------ *)
(* Primitives                                                         *)
(* ------------------------------------------------------------------ *)

let wint b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let wstr b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }
let at_end r = r.pos >= String.length r.src

let rbyte r =
  if at_end r then bad "unexpected end of payload";
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let rint_until r stop =
  let start = r.pos in
  let len = String.length r.src in
  let i = ref r.pos in
  while !i < len && r.src.[!i] <> stop do
    incr i
  done;
  if !i >= len then bad "unterminated integer";
  let digits = String.sub r.src start (!i - start) in
  r.pos <- !i + 1;
  match int_of_string_opt digits with
  | Some n -> n
  | None -> bad "bad integer %S" digits

let rint r = rint_until r ';'

let wbool b v = Buffer.add_char b (if v then '1' else '0')

let rbool r =
  match rbyte r with
  | '1' -> true
  | '0' -> false
  | c -> bad "bad bool tag %C" c

let rstr r =
  let n = rint_until r ':' in
  if n < 0 || r.pos + n > String.length r.src then bad "bad string length %d" n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* Decode a whole payload: bytes left over after [f] are an error. *)
let whole f s =
  let r = reader s in
  let v = f r in
  if not (at_end r) then bad "trailing bytes";
  v

(* ------------------------------------------------------------------ *)
(* Terms                                                              *)
(* ------------------------------------------------------------------ *)

let rec wterm b (t : Term.t) =
  let tag c = Buffer.add_char b c in
  match t with
  | Term.True -> tag 'T'
  | Term.False -> tag 'F'
  | Term.Int_const n ->
      tag 'i';
      wint b n
  | Term.Var { name; sort } ->
      tag 'v';
      Buffer.add_char b (match sort with Term.Bool -> 'b' | Term.Int -> 'i');
      wstr b name
  | Term.Not t ->
      tag 'n';
      wterm b t
  | Term.And ts ->
      tag 'A';
      wint b (List.length ts);
      List.iter (wterm b) ts
  | Term.Or ts ->
      tag 'O';
      wint b (List.length ts);
      List.iter (wterm b) ts
  | Term.Implies (a, c) ->
      tag '>';
      wterm b a;
      wterm b c
  | Term.Iff (a, c) ->
      tag '?';
      wterm b a;
      wterm b c
  | Term.Ite (c, x, y) ->
      tag 'I';
      wterm b c;
      wterm b x;
      wterm b y
  | Term.Add ts ->
      tag 'P';
      wint b (List.length ts);
      List.iter (wterm b) ts
  | Term.Sub (a, c) ->
      tag 'S';
      wterm b a;
      wterm b c
  | Term.Neg t ->
      tag 'N';
      wterm b t
  | Term.Mul_const (k, t) ->
      tag 'M';
      wint b k;
      wterm b t
  | Term.Eq (a, c) ->
      tag 'e';
      wterm b a;
      wterm b c
  | Term.Le (a, c) ->
      tag 'l';
      wterm b a;
      wterm b c
  | Term.Lt (a, c) ->
      tag 'L';
      wterm b a;
      wterm b c

let rec rterm_raw r : Term.t =
  let rlist () =
    let n = rint r in
    if n < 0 || n > 1_000_000 then bad "bad list length %d" n;
    List.init n (fun _ -> rterm_raw r)
  in
  match rbyte r with
  | 'T' -> Term.True
  | 'F' -> Term.False
  | 'i' -> Term.Int_const (rint r)
  | 'v' ->
      let sort =
        match rbyte r with
        | 'b' -> Term.Bool
        | 'i' -> Term.Int
        | c -> bad "bad sort tag %C" c
      in
      Term.Var { name = rstr r; sort }
  | 'n' -> Term.Not (rterm_raw r)
  | 'A' -> Term.And (rlist ())
  | 'O' -> Term.Or (rlist ())
  | '>' ->
      let a = rterm_raw r in
      Term.Implies (a, rterm_raw r)
  | '?' ->
      let a = rterm_raw r in
      Term.Iff (a, rterm_raw r)
  | 'I' ->
      let c = rterm_raw r in
      let x = rterm_raw r in
      Term.Ite (c, x, rterm_raw r)
  | 'P' -> Term.Add (rlist ())
  | 'S' ->
      let a = rterm_raw r in
      Term.Sub (a, rterm_raw r)
  | 'N' -> Term.Neg (rterm_raw r)
  | 'M' ->
      let k = rint r in
      Term.Mul_const (k, rterm_raw r)
  | 'e' ->
      let a = rterm_raw r in
      Term.Eq (a, rterm_raw r)
  | 'l' ->
      let a = rterm_raw r in
      Term.Le (a, rterm_raw r)
  | 'L' ->
      let a = rterm_raw r in
      Term.Lt (a, rterm_raw r)
  | c -> bad "bad term tag %C" c

let rterm r = Term.hashcons (rterm_raw r)

(* Per-domain render memo: terms are hash-consed, so physical identity
   makes [Term.hash]/[Term.equal] O(1) keys, and store keys re-render
   the same obligation terms thousands of times per run. *)
module Term_memo = Memo.Make (Term)

let term_memo : string Term_memo.t = Term_memo.create ~name:"codec.term" ~limit:65_536

let term_to_string (t : Term.t) : string =
  match Term_memo.find_opt term_memo t with
  | Some s -> s
  | None ->
      let b = Buffer.create 64 in
      wterm b t;
      let s = Buffer.contents b in
      Term_memo.add term_memo t s;
      s

let term_of_string = whole rterm

(* ------------------------------------------------------------------ *)
(* Models and proofs                                                  *)
(* ------------------------------------------------------------------ *)

let wmodel b (m : Model.t) =
  let bs = Model.bindings m in
  wint b (List.length bs);
  List.iter
    (fun (name, v) ->
      wstr b name;
      match (v : Term.value) with
      | Term.VBool bv -> Buffer.add_string b (if bv then "b1" else "b0")
      | Term.VInt n ->
          Buffer.add_char b 'i';
          wint b n)
    bs

let rmodel r : Model.t =
  let n = rint r in
  if n < 0 || n > 1_000_000 then bad "bad model size %d" n;
  let m = ref Model.empty in
  for _ = 1 to n do
    let name = rstr r in
    (match rbyte r with
    | 'b' -> (
        match rbyte r with
        | '1' -> m := Model.add_bool name true !m
        | '0' -> m := Model.add_bool name false !m
        | c -> bad "bad bool value %C" c)
    | 'i' -> m := Model.add_int name (rint r) !m
    | c -> bad "bad value tag %C" c)
  done;
  !m

let rec wtree b (t : Proof.tree) =
  match t with
  | Proof.Split { atom; if_true; if_false } ->
      Buffer.add_char b 'S';
      wterm b atom;
      wtree b if_true;
      wtree b if_false
  | Proof.Split_neq { neq; le1; ge1; left; right } ->
      Buffer.add_char b 'Q';
      wterm b neq;
      wterm b le1;
      wterm b ge1;
      wtree b left;
      wtree b right
  | Proof.Bool_leaf -> Buffer.add_char b 'B'
  | Proof.Farkas steps ->
      Buffer.add_char b 'F';
      wint b (List.length steps);
      List.iter
        (fun (s : Proof.step) ->
          wterm b s.Proof.fact;
          wint b s.Proof.lam.Proof.pnum;
          wint b s.Proof.lam.Proof.pden)
        steps

let rec rtree r : Proof.tree =
  match rbyte r with
  | 'S' ->
      let atom = rterm_raw r in
      let if_true = rtree r in
      let if_false = rtree r in
      Proof.Split { atom; if_true; if_false }
  | 'Q' ->
      let neq = rterm_raw r in
      let le1 = rterm_raw r in
      let ge1 = rterm_raw r in
      let left = rtree r in
      let right = rtree r in
      Proof.Split_neq { neq; le1; ge1; left; right }
  | 'B' -> Proof.Bool_leaf
  | 'F' ->
      let n = rint r in
      if n < 0 || n > 1_000_000 then bad "bad step count %d" n;
      Proof.Farkas
        (List.init n (fun _ ->
             let fact = Term.hashcons (rterm_raw r) in
             let pnum = rint r in
             let pden = rint r in
             { Proof.fact; lam = Proof.coeff_of_ints pnum pden }))
  | c -> bad "bad tree tag %C" c

(* Hash-cons every term inside a decoded tree: certificate validation
   compares facts against the asserted terms. *)
let rec hashcons_tree (t : Proof.tree) : Proof.tree =
  match t with
  | Proof.Split { atom; if_true; if_false } ->
      Proof.Split
        {
          atom = Term.hashcons atom;
          if_true = hashcons_tree if_true;
          if_false = hashcons_tree if_false;
        }
  | Proof.Split_neq { neq; le1; ge1; left; right } ->
      Proof.Split_neq
        {
          neq = Term.hashcons neq;
          le1 = Term.hashcons le1;
          ge1 = Term.hashcons ge1;
          left = hashcons_tree left;
          right = hashcons_tree right;
        }
  | Proof.Bool_leaf -> Proof.Bool_leaf
  | Proof.Farkas steps -> Proof.Farkas steps

let proof_to_string (p : Proof.t) : string =
  let b = Buffer.create 256 in
  (match p with
  | Proof.Model_witness m ->
      Buffer.add_char b 'M';
      wmodel b m
  | Proof.Unsat_witness t ->
      Buffer.add_char b 'U';
      wtree b t);
  Buffer.contents b

let proof_of_string : string -> Proof.t =
  whole (fun r ->
      match rbyte r with
      | 'M' -> Proof.Model_witness (rmodel r)
      | 'U' -> Proof.Unsat_witness (hashcons_tree (rtree r))
      | c -> bad "bad proof tag %C" c)

(* ------------------------------------------------------------------ *)
(* Summaries                                                          *)
(* ------------------------------------------------------------------ *)

let wptr b (p : Value.ptr) =
  wint b p.Value.block;
  wint b (List.length p.Value.path);
  List.iter (wint b) p.Value.path

let rptr r : Value.ptr =
  let block = rint r in
  let n = rint r in
  if n < 0 || n > 100_000 then bad "bad path length %d" n;
  { Value.block; path = List.init n (fun _ -> rint r) }

let wsval b (v : Sval.sval) =
  match v with
  | Sval.SInt t ->
      Buffer.add_char b 'i';
      wterm b t
  | Sval.SBool t ->
      Buffer.add_char b 'b';
      wterm b t
  | Sval.SPtr p ->
      Buffer.add_char b 'p';
      wptr b p
  | Sval.SNull -> Buffer.add_char b '0'
  | Sval.SUnit -> Buffer.add_char b 'u'

let rsval r : Sval.sval =
  match rbyte r with
  | 'i' -> Sval.SInt (rterm r)
  | 'b' -> Sval.SBool (rterm r)
  | 'p' -> Sval.SPtr (rptr r)
  | '0' -> Sval.SNull
  | 'u' -> Sval.SUnit
  | c -> bad "bad sval tag %C" c

let rec wscell b (c : Sval.scell) =
  match c with
  | Sval.CInt t ->
      Buffer.add_char b 'I';
      wterm b t
  | Sval.CBool t ->
      Buffer.add_char b 'B';
      wterm b t
  | Sval.CPtr p ->
      Buffer.add_char b 'P';
      wptr b p
  | Sval.CNull -> Buffer.add_char b 'N'
  | Sval.CStruct cs ->
      Buffer.add_char b 'S';
      wint b (Array.length cs);
      Array.iter (wscell b) cs
  | Sval.CArray cs ->
      Buffer.add_char b 'A';
      wint b (Array.length cs);
      Array.iter (wscell b) cs

let rec rscell r : Sval.scell =
  match rbyte r with
  | 'I' -> Sval.CInt (rterm r)
  | 'B' -> Sval.CBool (rterm r)
  | 'P' -> Sval.CPtr (rptr r)
  | 'N' -> Sval.CNull
  | 'S' ->
      let n = rint r in
      if n < 0 || n > 100_000 then bad "bad struct arity %d" n;
      Sval.CStruct (Array.init n (fun _ -> rscell r))
  | 'A' ->
      let n = rint r in
      if n < 0 || n > 100_000 then bad "bad array arity %d" n;
      Sval.CArray (Array.init n (fun _ -> rscell r))
  | c -> bad "bad scell tag %C" c

let summary_to_string (s : Summary.t) : string =
  let b = Buffer.create 1024 in
  wstr b s.Summary.fn;
  wint b s.Summary.canon_next_block;
  wint b (List.length s.Summary.cases);
  List.iter
    (fun (c : Summary.case) ->
      wint b (List.length c.Summary.cond);
      List.iter (wterm b) c.Summary.cond;
      wint b (List.length c.Summary.writes);
      List.iter
        (fun (w : Summary.write) ->
          wint b w.Summary.w_block;
          wint b (List.length w.Summary.w_path);
          List.iter (wint b) w.Summary.w_path;
          wscell b w.Summary.w_cell)
        c.Summary.writes;
      wint b (List.length c.Summary.allocs);
      List.iter
        (fun (blk, cell) ->
          wint b blk;
          wscell b cell)
        c.Summary.allocs;
      match c.Summary.outcome with
      | Summary.Ret None -> Buffer.add_string b "rn"
      | Summary.Ret (Some v) ->
          Buffer.add_string b "rs";
          wsval b v
      | Summary.Panic msg ->
          Buffer.add_char b 'p';
          wstr b msg)
    s.Summary.cases;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Relational function summaries (the analysis layer's "A|" entries)  *)
(* ------------------------------------------------------------------ *)

let rec wty b (t : Ty.t) =
  match t with
  | Ty.I1 -> Buffer.add_char b '1'
  | Ty.I64 -> Buffer.add_char b '8'
  | Ty.Opaque_ptr -> Buffer.add_char b 'O'
  | Ty.Ptr t ->
      Buffer.add_char b 'P';
      wty b t
  | Ty.Struct name ->
      Buffer.add_char b 'S';
      wstr b name
  | Ty.Array (t, n) ->
      Buffer.add_char b 'A';
      wint b n;
      wty b t

let rec rty r : Ty.t =
  match rbyte r with
  | '1' -> Ty.I1
  | '8' -> Ty.I64
  | 'O' -> Ty.Opaque_ptr
  | 'P' -> Ty.Ptr (rty r)
  | 'S' -> Ty.Struct (rstr r)
  | 'A' ->
      let n = rint r in
      if n < 0 || n > 1_000_000 then bad "bad array size %d" n;
      Ty.Array (rty r, n)
  | c -> bad "bad type tag %C" c

let wbound b = function
  | None -> Buffer.add_char b 'n'
  | Some v ->
      Buffer.add_char b 's';
      wint b v

let rbound r =
  match rbyte r with
  | 'n' -> None
  | 's' -> Some (rint r)
  | c -> bad "bad bound tag %C" c

let winterval b (itv : Analysis.Interval.t) =
  match itv with
  | Analysis.Interval.Bot -> Buffer.add_char b 'B'
  | Analysis.Interval.I (lo, hi) ->
      Buffer.add_char b 'I';
      wbound b lo;
      wbound b hi

let rinterval r : Analysis.Interval.t =
  match rbyte r with
  | 'B' -> Analysis.Interval.Bot
  | 'I' ->
      let lo = rbound r in
      Analysis.Interval.I (lo, rbound r)
  | c -> bad "bad interval tag %C" c

let waval b (a : Analysis.aval) =
  match a with
  | Analysis.ATop -> Buffer.add_char b 'T'
  | Analysis.AInt itv ->
      Buffer.add_char b 'i';
      winterval b itv
  | Analysis.ABool t ->
      Buffer.add_char b 'b';
      Buffer.add_char b
        (match t with
        | Analysis.Tribool.TBot -> '0'
        | Analysis.Tribool.TT -> 't'
        | Analysis.Tribool.TF -> 'f'
        | Analysis.Tribool.TTop -> '*')
  | Analysis.APtr n ->
      Buffer.add_char b 'p';
      Buffer.add_char b
        (match n with
        | Analysis.Nullness.NBot -> '0'
        | Analysis.Nullness.NNull -> 'n'
        | Analysis.Nullness.NNot -> '!'
        | Analysis.Nullness.NTop -> '*')

let raval r : Analysis.aval =
  match rbyte r with
  | 'T' -> Analysis.ATop
  | 'i' -> Analysis.AInt (rinterval r)
  | 'b' ->
      Analysis.ABool
        (match rbyte r with
        | '0' -> Analysis.Tribool.TBot
        | 't' -> Analysis.Tribool.TT
        | 'f' -> Analysis.Tribool.TF
        | '*' -> Analysis.Tribool.TTop
        | c -> bad "bad tribool tag %C" c)
  | 'p' ->
      Analysis.APtr
        (match rbyte r with
        | '0' -> Analysis.Nullness.NBot
        | 'n' -> Analysis.Nullness.NNull
        | '!' -> Analysis.Nullness.NNot
        | '*' -> Analysis.Nullness.NTop
        | c -> bad "bad nullness tag %C" c)
  | c -> bad "bad aval tag %C" c

let rsummary_to_string (rs : Analysis.rsummary) : string =
  let b = Buffer.create 256 in
  wstr b rs.Analysis.rs_fn;
  wint b (List.length rs.Analysis.rs_params);
  List.iter
    (fun (name, ty) ->
      wstr b name;
      wty b ty)
    rs.Analysis.rs_params;
  (match rs.Analysis.rs_ret_ty with
  | None -> Buffer.add_char b 'n'
  | Some t ->
      Buffer.add_char b 's';
      wty b t);
  waval b rs.Analysis.rs_ret;
  wint b (List.length rs.Analysis.rs_rel);
  List.iter
    (fun (i, itv) ->
      wint b i;
      winterval b itv)
    rs.Analysis.rs_rel;
  wint b (List.length rs.Analysis.rs_pre);
  List.iter
    (fun (i, a) ->
      wint b i;
      waval b a)
    rs.Analysis.rs_pre;
  wbool b rs.Analysis.rs_pure;
  wbool b rs.Analysis.rs_may_panic;
  wbool b rs.Analysis.rs_returns;
  Buffer.contents b

let rrel_summary r : Analysis.rsummary =
  let rs_fn = rstr r in
  let nparams = rint r in
  if nparams < 0 || nparams > 10_000 then bad "bad param count %d" nparams;
  let rs_params =
    List.init nparams (fun _ ->
        let name = rstr r in
        (name, rty r))
  in
  let rs_ret_ty =
    match rbyte r with
    | 'n' -> None
    | 's' -> Some (rty r)
    | c -> bad "bad ret-ty tag %C" c
  in
  let rs_ret = raval r in
  let nrel = rint r in
  if nrel < 0 || nrel > 10_000 then bad "bad rel count %d" nrel;
  let rs_rel =
    List.init nrel (fun _ ->
        let i = rint r in
        (i, rinterval r))
  in
  let npre = rint r in
  if npre < 0 || npre > 10_000 then bad "bad pre count %d" npre;
  let rs_pre =
    List.init npre (fun _ ->
        let i = rint r in
        (i, raval r))
  in
  let rs_pure = rbool r in
  let rs_may_panic = rbool r in
  let rs_returns = rbool r in
  {
    Analysis.rs_fn;
    rs_params;
    rs_ret_ty;
    rs_ret;
    rs_rel;
    rs_pre;
    rs_pure;
    rs_may_panic;
    rs_returns;
  }

let rsummary_of_string = whole rrel_summary

let rmodule_summary r : Summary.t =
  let fn = rstr r in
  let canon_next_block = rint r in
  let ncases = rint r in
  if ncases < 0 || ncases > 1_000_000 then bad "bad case count %d" ncases;
  let cases =
    List.init ncases (fun _ ->
        let ncond = rint r in
        if ncond < 0 || ncond > 1_000_000 then bad "bad cond count %d" ncond;
        let cond = List.init ncond (fun _ -> rterm r) in
        let nwrites = rint r in
        if nwrites < 0 || nwrites > 1_000_000 then
          bad "bad write count %d" nwrites;
        let writes =
          List.init nwrites (fun _ ->
              let w_block = rint r in
              let np = rint r in
              if np < 0 || np > 100_000 then bad "bad write path %d" np;
              let w_path = List.init np (fun _ -> rint r) in
              { Summary.w_block; w_path; w_cell = rscell r })
        in
        let nallocs = rint r in
        if nallocs < 0 || nallocs > 1_000_000 then
          bad "bad alloc count %d" nallocs;
        let allocs =
          List.init nallocs (fun _ ->
              let blk = rint r in
              (blk, rscell r))
        in
        let outcome =
          match rbyte r with
          | 'r' -> (
              match rbyte r with
              | 'n' -> Summary.Ret None
              | 's' -> Summary.Ret (Some (rsval r))
              | c -> bad "bad ret tag %C" c)
          | 'p' -> Summary.Panic (rstr r)
          | c -> bad "bad outcome tag %C" c
        in
        { Summary.cond; writes; allocs; outcome })
  in
  (* [elapsed] is wall time, not semantics: a replayed summary cost
     nothing to build. *)
  { Summary.fn; cases; canon_next_block; elapsed = 0.0 }

let summary_of_string = whole rmodule_summary
