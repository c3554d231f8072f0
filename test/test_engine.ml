(* Engine tests: compilation of all versions, domain-tree invariants,
   differential testing of the corrected engines against the top-level
   specification, and concrete evidence for each seeded Table-2 bug. *)

module Name = Dns.Name
module Rr = Dns.Rr
module Zone = Dns.Zone
module Message = Dns.Message
module Rrlookup = Spec.Rrlookup
module Fixtures = Spec.Fixtures
module Versions = Engine.Versions
module Builder = Engine.Builder
module Bugs = Engine.Bugs
module Tree = Dnstree.Tree
module Layout = Dnstree.Layout

let n = Name.of_string_exn
let check_bool = Alcotest.(check bool)

let response_testable =
  Alcotest.testable
    (fun fmt r -> Message.pp_response fmt r)
    Message.equal_response

let run_engine cfg zone q = Versions.run cfg zone q

let expect_response cfg zone q =
  match run_engine cfg zone q with
  | Versions.Response r -> r
  | Versions.Engine_panic m -> Alcotest.failf "engine panicked: %s" m

(* ------------------------------------------------------------------ *)
(* Compilation & tree invariants                                      *)
(* ------------------------------------------------------------------ *)

let test_all_versions_compile () =
  List.iter
    (fun cfg ->
      let p = Versions.compiled cfg in
      check_bool
        (cfg.Builder.version ^ " has instructions")
        true
        (Minir.Instr.program_instruction_count p > 100);
      (* The engine carries panic blocks (safety checks). *)
      let resolve = Minir.Instr.find_func p "resolve" in
      check_bool "resolve exists" true (resolve.Minir.Instr.fn_name = "resolve"))
    (Versions.all @ List.map Versions.fixed Versions.all)

let test_version_lookup () =
  (match Versions.find "2.0" with
  | Some cfg -> check_bool "v2 bugs" true cfg.Builder.bugs.Bugs.bug4_glue_first_only
  | None -> Alcotest.fail "2.0 must resolve");
  match Versions.find "2.0-fixed" with
  | Some cfg -> check_bool "fixed has no bugs" true (Bugs.active cfg.Builder.bugs = [])
  | None -> Alcotest.fail "2.0-fixed must resolve"

let test_tree_invariants () =
  List.iter
    (fun zone ->
      let tree = Tree.build zone in
      match Tree.check_invariants tree with
      | [] -> ()
      | errs -> Alcotest.failf "tree invariants: %s" (String.concat "; " errs))
    [ Fixtures.reference_zone; Fixtures.figure11_zone ]

let test_tree_nodes () =
  let tree = Tree.build Fixtures.reference_zone in
  (* Empty non-terminals materialize as nodes. *)
  (match Tree.find_node tree (n "a.example.com") with
  | Some node ->
      check_bool "ENT has no data" false node.Tree.has_data
  | None -> Alcotest.fail "ENT node missing");
  (match Tree.find_node tree (n "*.wild.example.com") with
  | Some node -> check_bool "wildcard flag" true node.Tree.is_wildcard
  | None -> Alcotest.fail "wildcard node missing");
  check_bool "several nodes" true (Tree.node_count tree > 10)

let prop_tree_invariants_generated =
  QCheck.Test.make ~name:"tree invariants on generated zones" ~count:40
    QCheck.(int_range 0 5_000)
    (fun seed ->
      let z = Dns.Zonegen.generate ~seed (n "gen.example") in
      Tree.check_invariants (Tree.build z) = [])

(* ------------------------------------------------------------------ *)
(* Differential testing: corrected engines ≡ specification            *)
(* ------------------------------------------------------------------ *)

let diff_one cfg zone q =
  (* Skip queries that exceed the engine's name capacity. *)
  if Name.label_count q.Message.qname > Layout.max_labels then true
  else
    let spec_resp = Rrlookup.resolve zone q in
    match run_engine cfg zone q with
    | Versions.Response r -> Message.equal_response r spec_resp
    | Versions.Engine_panic _ -> false

let reference_queries =
  [
    ("www.example.com", Rr.A);
    ("www.example.com", Rr.AAAA);
    ("www.example.com", Rr.MX);
    ("www.example.com", Rr.TXT);
    ("example.com", Rr.SOA);
    ("example.com", Rr.NS);
    ("example.com", Rr.MX);
    ("example.com", Rr.A);
    ("a.example.com", Rr.A);
    ("deep.a.example.com", Rr.A);
    ("nosuch.example.com", Rr.A);
    ("x.wild.example.com", Rr.A);
    ("x.wild.example.com", Rr.MX);
    ("x.wild.example.com", Rr.TXT);
    ("a.b.wild.example.com", Rr.A);
    ("wild.example.com", Rr.A);
    ("x.alias.example.com", Rr.A);
    ("c1.example.com", Rr.A);
    ("c1.example.com", Rr.CNAME);
    ("c2.example.com", Rr.A);
    ("l1.example.com", Rr.A);
    ("ext.example.com", Rr.A);
    ("sub.example.com", Rr.A);
    ("sub.example.com", Rr.NS);
    ("host.sub.example.com", Rr.A);
    ("x.y.sub.example.com", Rr.A);
    ("ns.sub.example.com", Rr.A);
    ("intocut.example.com", Rr.A);
    ("www.other.net", Rr.A);
    ("mail.example.com", Rr.A);
  ]

let test_fixed_engines_match_spec_reference () =
  List.iter
    (fun cfg ->
      let cfg = Versions.fixed cfg in
      List.iter
        (fun (qname, qtype) ->
          let q = Message.query (n qname) qtype in
          let spec_resp = Rrlookup.resolve Fixtures.reference_zone q in
          let engine_resp = expect_response cfg Fixtures.reference_zone q in
          Alcotest.check response_testable
            (Printf.sprintf "%s: %s %s" cfg.Builder.version qname
               (Rr.rtype_to_string qtype))
            spec_resp engine_resp)
        reference_queries)
    Versions.all

let prop_fixed_engine_matches_spec_generated =
  QCheck.Test.make
    ~name:"fixed engines ≡ spec on generated zones (differential)" ~count:120
    QCheck.(pair (int_range 0 3_000) (int_range 0 10_000))
    (fun (seed, qseed) ->
      let zone = Dns.Zonegen.generate ~seed (n "gen.example") in
      let rng = Random.State.make [| qseed |] in
      let q = Dns.Zonegen.random_query ~rng zone in
      List.for_all
        (fun cfg -> diff_one (Versions.fixed cfg) zone q)
        [ Versions.v3_0; Versions.dev ])

let prop_fixed_v1_v2_match_spec_generated =
  QCheck.Test.make ~name:"fixed v1.0/v2.0 ≡ spec on generated zones"
    ~count:80
    QCheck.(pair (int_range 3_000 6_000) (int_range 0 10_000))
    (fun (seed, qseed) ->
      let zone = Dns.Zonegen.generate ~seed (n "gen.example") in
      let rng = Random.State.make [| qseed |] in
      let q = Dns.Zonegen.random_query ~rng zone in
      List.for_all
        (fun cfg -> diff_one (Versions.fixed cfg) zone q)
        [ Versions.v1_0; Versions.v2_0 ])

(* The serve path's query mix (owner, child and out-of-zone names, every
   rtype) through [run_compiled] on one encoded zone, as [dnsv serve]
   runs it, against the specification. Names deeper than the engine
   layout holds fail to encode (serve answers those SERVFAIL). *)
let test_loadgen_mix_differential () =
  let mix = { Dnsv.Loadgen.default_mix with Dnsv.Loadgen.malformed_pct = 0 } in
  let zones =
    [ Fixtures.reference_zone; Dns.Zonegen.generate ~seed:1 (n "gen.example") ]
  in
  let compared = ref 0 in
  List.iter
    (fun zone ->
      let enc = Dnstree.Encode.encode (Tree.build zone) in
      List.iter
        (fun cfg ->
          let cfg = Versions.fixed cfg in
          let prog = Versions.compiled cfg in
          for i = 0 to 149 do
            match Dnsv.Loadgen.datagram ~zone mix i with
            | `Malformed, _ -> ()
            | `Valid, d -> (
                match Wire.decode d with
                | Ok { Wire.question = [ q ]; _ } -> (
                    match Versions.run_compiled prog enc q with
                    | Versions.Response r ->
                        incr compared;
                        Alcotest.check response_testable
                          (Printf.sprintf "%s: mix query %d" cfg.Builder.version i)
                          (Rrlookup.resolve zone q) r
                    | Versions.Engine_panic m ->
                        if not (String.starts_with ~prefix:"encode:" m) then
                          Alcotest.failf "%s: mix query %d panicked: %s"
                            cfg.Builder.version i m)
                | _ -> Alcotest.failf "mix datagram %d did not decode" i)
          done)
        Versions.all)
    zones;
  check_bool "most of the mix reaches the engine" true (!compared > 1000)

(* The load generator's bytes, pinned: the first 2,000 datagrams of the
   default mix over the reference zone (each as its kind, length and
   bytes). [Zone.owner_names] must keep first-occurrence order, or the
   seeded owner picks (and every serve_udp workload) would shift. *)
let test_loadgen_bytes_pinned () =
  let b = Buffer.create 65536 in
  for i = 0 to 1999 do
    let kind, d =
      Dnsv.Loadgen.datagram ~zone:Fixtures.reference_zone
        Dnsv.Loadgen.default_mix i
    in
    Buffer.add_char b (match kind with `Valid -> 'v' | `Malformed -> 'm');
    Printf.bprintf b "%d:%s" (String.length d) d
  done;
  Alcotest.(check string)
    "datagram digest" "0431f7f908f47395898d7c1166366b8d"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Every build's concrete outcomes, pinned: all 8 builds (4 versions,
   buggy and fixed) answer 30 random queries on each of 16 seeded
   generated zones, and each Table-2 witness query on its zone. The MD5
   of the printed outcomes (the response, or the panic message) was
   recorded with the persistent-memory interpreter, so any change to
   how the interpreter keeps memory must leave every reply, and every
   buggy build's wrong reply, byte-identical. *)
let golden_replies_md5 = "0dfd4490b2cd699c517077f576d2e197"

let test_golden_replies () =
  let buf = Buffer.create (1 lsl 20) in
  let builds = List.concat_map (fun c -> [ c; Versions.fixed c ]) Versions.all in
  let outcomes tag zone queries =
    let enc = Dnstree.Encode.encode (Tree.build zone) in
    List.iter
      (fun cfg ->
        let prog = Versions.compiled cfg in
        List.iteri
          (fun i q ->
            Printf.bprintf buf "%s %s query %d: %s\n" cfg.Builder.version tag i
              (match Versions.run_compiled prog enc q with
              | Versions.Response r -> Message.response_to_string r
              | Versions.Engine_panic m -> "panic: " ^ m))
          queries)
      builds
  in
  for seed = 0 to 15 do
    let zone = Dns.Zonegen.generate ~seed (n "gen.example") in
    let rng = Random.State.make [| seed |] in
    outcomes (Printf.sprintf "zone %d" seed) zone
      (List.init 30 (fun _ -> Dns.Zonegen.random_query ~rng zone))
  done;
  List.iter
    (fun (w : Fixtures.witness) ->
      outcomes
        (Printf.sprintf "witness %d" w.Fixtures.bug_index)
        w.Fixtures.zone [ w.Fixtures.query ])
    Fixtures.witnesses;
  Alcotest.(check string)
    "MD5 of every build's outcomes" golden_replies_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* ------------------------------------------------------------------ *)
(* Each Table-2 bug shows up concretely on its witness                *)
(* ------------------------------------------------------------------ *)

let buggy_config_for = function
  | 1 | 2 | 3 -> Versions.v1_0
  | 4 | 5 | 6 | 7 -> Versions.v2_0
  | 8 -> Versions.v3_0
  | 9 -> Versions.dev
  | _ -> invalid_arg "bug index"

let test_bug_witnesses () =
  List.iter
    (fun (w : Fixtures.witness) ->
      let cfg = buggy_config_for w.Fixtures.bug_index in
      let spec_resp = Rrlookup.resolve w.Fixtures.zone w.Fixtures.query in
      (match run_engine cfg w.Fixtures.zone w.Fixtures.query with
      | Versions.Response r ->
          check_bool
            (Printf.sprintf "bug %d (%s) diverges on %s" w.Fixtures.bug_index
               cfg.Builder.version w.Fixtures.note)
            false
            (Message.equal_response r spec_resp)
      | Versions.Engine_panic _ ->
          check_bool "only bug 9 panics" true (w.Fixtures.bug_index = 9));
      (* The corrected engine agrees with the spec on the same witness. *)
      let fixed_resp =
        expect_response (Versions.fixed cfg) w.Fixtures.zone w.Fixtures.query
      in
      Alcotest.check response_testable
        (Printf.sprintf "bug %d fixed" w.Fixtures.bug_index)
        spec_resp fixed_resp)
    Fixtures.witnesses

let test_bug9_is_a_panic () =
  let w = Fixtures.witness 9 in
  match run_engine Versions.dev w.Fixtures.zone w.Fixtures.query with
  | Versions.Engine_panic msg ->
      check_bool "nil deref" true (Astring.String.is_infix ~affix:"nil" msg)
  | Versions.Response _ -> Alcotest.fail "bug 9 must be a runtime error"

(* Buggy engines still match the spec away from their trigger. *)
let test_bugs_are_latent () =
  let zone = Fixtures.reference_zone in
  let benign = [ ("www.example.com", Rr.A); ("nosuch.example.com", Rr.A) ] in
  List.iter
    (fun cfg ->
      List.iter
        (fun (qname, qtype) ->
          let q = Message.query (n qname) qtype in
          let spec_resp = Rrlookup.resolve zone q in
          match run_engine cfg zone q with
          | Versions.Response r ->
              (* bug 2 makes even plain answers diverge; skip v1.0 for
                 the positive query. *)
              if cfg.Builder.version = "1.0" && qtype = Rr.A then ()
              else
                Alcotest.check response_testable
                  (Printf.sprintf "%s latent on %s" cfg.Builder.version qname)
                  spec_resp r
          | Versions.Engine_panic m ->
              Alcotest.failf "%s panicked on benign %s: %s" cfg.Builder.version
                qname m)
        benign)
    [ Versions.v2_0; Versions.v3_0 ]

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "engine"
    [
      ( "compile",
        [
          Alcotest.test_case "all versions compile" `Quick
            test_all_versions_compile;
          Alcotest.test_case "version lookup" `Quick test_version_lookup;
        ] );
      ( "tree",
        [
          Alcotest.test_case "invariants (fixtures)" `Quick test_tree_invariants;
          Alcotest.test_case "nodes" `Quick test_tree_nodes;
        ]
        @ qcheck [ prop_tree_invariants_generated ] );
      ( "differential",
        [
          Alcotest.test_case "fixed engines = spec on reference zone" `Quick
            test_fixed_engines_match_spec_reference;
          Alcotest.test_case "fixed engines = spec on the loadgen mix" `Quick
            test_loadgen_mix_differential;
          Alcotest.test_case "loadgen datagrams = recorded digest" `Quick
            test_loadgen_bytes_pinned;
          Alcotest.test_case "every build's replies = recorded digest" `Quick
            test_golden_replies;
        ]
        @ qcheck
            [
              prop_fixed_engine_matches_spec_generated;
              prop_fixed_v1_v2_match_spec_generated;
            ] );
      ( "bugs",
        [
          Alcotest.test_case "every Table-2 bug has a witness" `Quick
            test_bug_witnesses;
          Alcotest.test_case "bug 9 is a runtime error" `Quick
            test_bug9_is_a_panic;
          Alcotest.test_case "bugs are latent off-trigger" `Quick
            test_bugs_are_latent;
        ] );
    ]
