module Layout = Dnstree.Layout

(* The four engine versions of the evaluation (§7, Tables 2 & 3), plus
   their corrected counterparts, and a concrete run harness.

   v1.0 is the base version; v2.0 rewrites the glue/additional handling;
   v3.0 adds SRV support; dev is the immediate iteration after v3.0 that
   fixes the wildcard-judgment bug — incompletely. *)

let v1_0 : Builder.config =
  {
    Builder.version = "1.0";
    has_srv = false;
    bugs =
      {
        Bugs.none with
        Bugs.bug1_missing_aa_on_nodata = true;
        bug2_extraneous_authority = true;
        bug3_mx_type_confusion = true;
      };
  }

let v2_0 : Builder.config =
  {
    Builder.version = "2.0";
    has_srv = false;
    bugs =
      {
        Bugs.none with
        Bugs.bug4_glue_first_only = true;
        bug5_wildcard_no_additional = true;
        bug6_wildcard_scan_shallow = true;
        bug7_glue_ignores_cuts = true;
      };
  }

let v3_0 : Builder.config =
  {
    Builder.version = "3.0";
    has_srv = true;
    bugs = { Bugs.none with Bugs.bug8_ent_wildcard_judgment = true };
  }

let dev : Builder.config =
  {
    Builder.version = "dev";
    has_srv = true;
    bugs = { Bugs.none with Bugs.bug9_stack_peek_nil = true };
  }

let all = [ v1_0; v2_0; v3_0; dev ]

(* The corrected variant: same features, no seeded bugs. *)
let fixed (cfg : Builder.config) : Builder.config =
  { cfg with Builder.version = cfg.Builder.version ^ "-fixed"; bugs = Bugs.none }

let find version =
  match List.find_opt (fun c -> c.Builder.version = version) all with
  | Some c -> Some c
  | None -> (
      match String.index_opt version '-' with
      | Some _ -> (
          let base = List.nth_opt (String.split_on_char '-' version) 0 in
          match base with
          | Some b ->
              Option.map fixed
                (List.find_opt (fun c -> c.Builder.version = b) all)
          | None -> None)
      | None -> None)

(* ------------------------------------------------------------------ *)
(* Concrete execution: run a compiled engine on a real query against a
   real zone. Used by the differential tests and by counterexample
   replay.                                                            *)
(* ------------------------------------------------------------------ *)

module Value = Minir.Value
module Message = Dns.Message
module Rr = Dns.Rr

type run_outcome =
  | Response of Message.response
  | Engine_panic of string

let run_compiled ?observer (prog : Minir.Instr.program)
    (enc : Dnstree.Encode.t) (q : Message.query) : run_outcome =
  let mem = enc.Dnstree.Encode.memory in
  let mem, resp_ptr = Dnstree.Encode.alloc_response mem in
  match Layout.encode_name enc.Dnstree.Encode.interner q.Message.qname with
  | exception Invalid_argument m -> Engine_panic ("encode: " ^ m)
  | _ -> (
      let mem, qname_ptr, qlen =
        Dnstree.Encode.alloc_qname enc mem q.Message.qname
      in
      let args =
        [
          Value.VPtr enc.Dnstree.Encode.root;
          Value.VPtr resp_ptr;
          Value.VPtr qname_ptr;
          Value.VInt qlen;
          Value.VInt (Rr.rtype_code q.Message.qtype);
        ]
      in
      match Minir.Interp.run ?observer prog ~memory:mem ~fn:"resolve" ~args with
      | Minir.Interp.Returned (_, heap) ->
          Response
            (Dnstree.Encode.decode_response enc
               (Minir.Interp.load_mval heap resp_ptr))
      | Minir.Interp.Panicked msg -> Engine_panic msg)

(* Convenience: compile (memoized per config), encode, run. The memo is
   domain-local so parallel pipeline workers never race on the table;
   each worker compiles a version at most once. *)
let compiled_cache_key : (string, Minir.Instr.program) Hashtbl.t Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let compiled (cfg : Builder.config) : Minir.Instr.program =
  let compiled_cache = Domain.DLS.get compiled_cache_key in
  match Hashtbl.find_opt compiled_cache cfg.Builder.version with
  | Some p -> p
  | None ->
      let p = Builder.compile cfg in
      Hashtbl.replace compiled_cache cfg.Builder.version p;
      p

let run ?observer (cfg : Builder.config) (zone : Dns.Zone.t)
    (q : Message.query) : run_outcome =
  let tree = Dnstree.Tree.build zone in
  let enc = Dnstree.Encode.encode tree in
  run_compiled ?observer (compiled cfg) enc q
