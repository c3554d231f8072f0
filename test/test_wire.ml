(* The RFC 1035 wire path: decoder totality on arbitrary bytes (QCheck
   never-raises + the seeded Selfcheck battery), encode/decode
   round-trips, the typed guard classes on crafted malformed inputs,
   TC truncation, and the serve loop's degradation contract — garbage
   gets FORMERR, unsupported opcodes NOTIMP, injected overload gets
   SERVFAIL with a machine-readable reason in the trace, responses are
   dropped, and a SIGKILLed server restarted on the same socket loses
   no settled queries. *)

module Message = Dns.Message
module Name = Dns.Name
module Rr = Dns.Rr
module Zone = Dns.Zone
module Serve = Dnsv.Serve
module Loadgen = Dnsv.Loadgen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qcheck = List.map QCheck_alcotest.to_alcotest

let fi f =
  Faultinject.reset ();
  Fun.protect ~finally:Faultinject.reset f

(* ------------------------------------------------------------------ *)
(* Codec: round-trips and totality                                    *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"decode (encode m) = m, both compressions"
    QCheck.(pair small_nat small_nat)
    (fun (seed, i) ->
      let m = Wire.Selfcheck.message ~seed i in
      let rt compress =
        match Wire.decode (Wire.encode ~compress m) with
        | Ok m' -> Wire.equal m m'
        | Error _ -> false
      in
      rt true && rt false)

let prop_decode_total_random =
  QCheck.Test.make ~count:500 ~name:"decode never raises on arbitrary bytes"
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      match Wire.decode s with Ok _ | Error _ -> true)

let prop_decode_total_mutated =
  QCheck.Test.make ~count:300
    ~name:"decode never raises or hits the barrier on mutated encodings"
    QCheck.(triple small_nat small_nat (list small_nat))
    (fun (seed, i, flips) ->
      let b = Bytes.of_string (Wire.encode (Wire.Selfcheck.message ~seed i)) in
      List.iter
        (fun f ->
          let at = f mod Bytes.length b in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (f mod 8)))))
        flips;
      match Wire.decode (Bytes.to_string b) with
      | Ok _ | Error (Wire.Internal _) -> true (* Internal checked below *)
      | Error _ -> true)

let test_barrier_never_hit () =
  (* After everything this file (and the properties above) decoded,
     the catch-all barrier must not have fired once: totality comes
     from the typed guards. *)
  check_int "wire.barrier hits" 0 (Wire.barrier_hits ())

let test_selfcheck_battery () =
  let r = Wire.Selfcheck.run ~seed:42 ~cases:1500 () in
  check_bool "selfcheck ok" true (Wire.Selfcheck.ok r);
  check_int "no raises" 0 r.Wire.Selfcheck.sc_raised;
  check_int "no barrier hits" 0 r.Wire.Selfcheck.sc_barrier;
  check_int "no round-trip failures" 0 r.Wire.Selfcheck.sc_roundtrip_failures;
  check_bool "every guard class exercised" true
    (r.Wire.Selfcheck.sc_missing_guards = []);
  check_bool "some inputs decoded" true (r.Wire.Selfcheck.sc_decoded > 0)

(* ------------------------------------------------------------------ *)
(* Codec: crafted guard cases                                         *)
(* ------------------------------------------------------------------ *)

let be16 v = String.init 2 (fun j -> Char.chr ((v lsr (8 * (1 - j))) land 0xFF))

let header ?(flags = 0) ?(an = 0) ~qd () =
  be16 0x1234 ^ be16 flags ^ be16 qd ^ be16 an ^ be16 0 ^ be16 0

let tag e = Wire.error_tag e

let expect_tag name want bytes =
  match Wire.decode bytes with
  | Ok _ -> Alcotest.failf "%s: decoded instead of %s" name want
  | Error e -> check_string name want (tag e)

let test_guards () =
  expect_tag "self pointer" "pointer" (header ~qd:1 () ^ "\xC0\x0C");
  expect_tag "forward pointer" "pointer" (header ~qd:1 () ^ "\xC0\xF0");
  expect_tag "reserved label tag" "bad-label" (header ~qd:1 () ^ "\x41a");
  expect_tag "truncated header" "truncated" "\x00\x01\x02";
  expect_tag "truncated label" "truncated" (header ~qd:1 () ^ "\x3Fab");
  expect_tag "count cap" "count-cap" (header ~qd:0xFFFF ());
  expect_tag "unknown rtype" "unsupported"
    (header ~qd:1 () ^ "\x01a\x00" ^ be16 250 ^ be16 1);
  expect_tag "unknown class" "unsupported"
    (header ~qd:1 () ^ "\x01a\x00" ^ be16 1 ^ be16 2);
  expect_tag "reserved rcode" "unsupported" (header ~flags:6 ~qd:0 ());
  expect_tag "trailing bytes" "trailing" (header ~qd:0 () ^ "xx");
  let long_label = String.make 1 (Char.chr 63) ^ String.make 63 'a' in
  expect_tag "name over 255 octets" "name-too-long"
    (header ~qd:1 ()
    ^ String.concat "" (List.init 5 (fun _ -> long_label))
    ^ "\x00" ^ be16 1 ^ be16 1);
  expect_tag "A rdata of 5 bytes" "bad-rdata"
    (header ~an:1 ~qd:0 () ^ "\x01a\x00" ^ be16 1 ^ be16 1 ^ be16 0 ^ be16 0
   ^ be16 5 ^ "abcde");
  expect_tag "AAAA with mixed sign prefix" "bad-rdata"
    (header ~an:1 ~qd:0 () ^ "\x01a\x00" ^ be16 28 ^ be16 1 ^ be16 0 ^ be16 0
   ^ be16 16 ^ "\x00\xFF" ^ String.make 14 '\x00')

let test_compression_shares_suffixes () =
  (* Three records under the same parent: the compressed form must be
     smaller and still round-trip. *)
  let n s = Name.of_string_exn s in
  let rrs =
    [ Rr.a (n "a.deep.example.com") 1; Rr.a (n "b.deep.example.com") 2;
      Rr.a (n "c.deep.example.com") 3 ]
  in
  let m =
    {
      (Wire.query (Message.query (n "deep.example.com") Rr.A)) with
      Wire.qr = true;
      answer = rrs;
    }
  in
  let compressed = Wire.encode m and plain = Wire.encode ~compress:false m in
  check_bool "compression saves bytes" true
    (String.length compressed < String.length plain);
  (match Wire.decode compressed with
  | Ok m' -> check_bool "compressed round-trip" true (Wire.equal m m')
  | Error e -> Alcotest.failf "compressed decode failed: %s" (Wire.error_to_string e))

let test_aaaa_negative_roundtrip () =
  let n = Name.of_string_exn "v6.example.com" in
  let m =
    { (Wire.query (Message.query n Rr.AAAA)) with
      Wire.qr = true; answer = [ Rr.aaaa n (-42) ] }
  in
  match Wire.decode (Wire.encode m) with
  | Ok m' -> check_bool "negative AAAA address survives" true (Wire.equal m m')
  | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e)

let test_txt_chunking_roundtrip () =
  let n = Name.of_string_exn "txt.example.com" in
  List.iter
    (fun len ->
      let text = String.init len (fun i -> Char.chr (i land 0xFF)) in
      let m =
        { (Wire.query (Message.query n Rr.TXT)) with
          Wire.qr = true; answer = [ Rr.txt n text ] }
      in
      match Wire.decode (Wire.encode m) with
      | Ok m' ->
          check_bool (Printf.sprintf "TXT of %d bytes round-trips" len) true
            (Wire.equal m m')
      | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e))
    [ 0; 1; 255; 256; 700 ]

let test_encode_truncated () =
  let n = Name.of_string_exn "big.example.com" in
  let m =
    {
      (Wire.query (Message.query n Rr.TXT)) with
      Wire.qr = true;
      answer = List.init 20 (fun i -> Rr.txt n (String.make 60 (Char.chr (65 + i))));
    }
  in
  let full = Wire.encode m in
  check_bool "test premise: full encoding exceeds 512" true
    (String.length full > Wire.max_udp_payload);
  let bytes, truncated = Wire.encode_truncated ~max_size:Wire.max_udp_payload m in
  check_bool "truncation reported" true truncated;
  check_bool "fits the UDP bound" true (String.length bytes <= Wire.max_udp_payload);
  match Wire.decode bytes with
  | Ok m' ->
      check_bool "TC set" true m'.Wire.tc;
      check_int "question survives" 1 (List.length m'.Wire.question);
      check_int "answers dropped" 0 (List.length m'.Wire.answer)
  | Error e -> Alcotest.failf "truncated reply undecodable: %s" (Wire.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Serve loop degradations                                            *)
(* ------------------------------------------------------------------ *)

let server =
  lazy
    (Serve.create
       ~config:(Engine.Versions.fixed Engine.Versions.v3_0)
       Spec.Fixtures.reference_zone)

let valid_query ?(id = 0x7777) name rtype =
  Wire.encode (Wire.query ~id (Message.query (Name.of_string_exn name) rtype))

let decode_exn bytes =
  match Wire.decode bytes with
  | Ok m -> m
  | Error e -> Alcotest.failf "reply undecodable: %s" (Wire.error_to_string e)

let test_serve_answers_match_spec () =
  fi @@ fun () ->
  let s = Lazy.force server in
  let zone = Serve.zone s in
  List.iter
    (fun (name, rtype) ->
      let q = Message.query (Name.of_string_exn name) rtype in
      let o = Serve.handle s (Wire.encode (Wire.query ~id:9 q)) in
      match o.Serve.reply with
      | None -> Alcotest.failf "no reply for %s" name
      | Some bytes ->
          let m = decode_exn bytes in
          check_int "id echoed" 9 m.Wire.id;
          check_bool "qr set" true m.Wire.qr;
          check_bool
            (Printf.sprintf "%s %s matches the spec" name
               (Rr.rtype_to_string rtype))
            true
            (Message.equal_response
               (Spec.Rrlookup.resolve zone q)
               (Wire.to_response m)))
    [
      ("www.example.com", Rr.A); ("example.com", Rr.MX);
      ("missing.example.com", Rr.A); ("example.com", Rr.TXT);
      ("other.org", Rr.A);
    ]

let test_serve_garbage_formerr () =
  fi @@ fun () ->
  let s = Lazy.force server in
  (* A full header (id 0xBEEF, QR clear) followed by garbage. *)
  let datagram = "\xBE\xEF\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00" ^ "\xFF\x07!!" in
  let o = Serve.handle s datagram in
  (match o.Serve.disposition with
  | Serve.Formerr _ -> ()
  | d -> Alcotest.failf "expected formerr, got %s" (Serve.disposition_to_string d));
  let m = decode_exn (Option.get o.Serve.reply) in
  check_int "id echoed from the garbled query" 0xBEEF m.Wire.id;
  check_string "rcode" "FORMERR" (Message.rcode_to_string m.Wire.rcode)

let test_serve_drops_unanswerable () =
  fi @@ fun () ->
  let s = Lazy.force server in
  (* Too short to echo an id. *)
  let o = Serve.handle s "ab" in
  check_bool "short fragment dropped" true (o.Serve.reply = None);
  (* A response: replying would start a loop. *)
  let reply = Bytes.of_string (valid_query "www.example.com" Rr.A) in
  Bytes.set reply 2 (Char.chr (Char.code (Bytes.get reply 2) lor 0x80));
  let o = Serve.handle s (Bytes.to_string reply) in
  check_bool "qr-set datagram dropped" true (o.Serve.reply = None)

let test_serve_notimp () =
  fi @@ fun () ->
  let s = Lazy.force server in
  let q = Wire.query ~id:5 (Message.query (Name.of_string_exn "www.example.com") Rr.A) in
  let o = Serve.handle s (Wire.encode { q with Wire.opcode = 4 }) in
  (match o.Serve.disposition with
  | Serve.Notimp 4 -> ()
  | d -> Alcotest.failf "expected notimp, got %s" (Serve.disposition_to_string d));
  let m = decode_exn (Option.get o.Serve.reply) in
  check_string "rcode" "NOTIMP" (Message.rcode_to_string m.Wire.rcode);
  check_int "opcode echoed" 4 m.Wire.opcode

let test_serve_fault_servfail () =
  fi @@ fun () ->
  let s = Lazy.force server in
  Faultinject.arm ~after:1 Faultinject.Serve_overload;
  let (o, forest) =
    Trace.recording (fun () -> Serve.handle s (valid_query "www.example.com" Rr.A))
  in
  (match o.Serve.disposition with
  | Serve.Servfail reason ->
      check_string "machine-readable reason" "injected-fault" reason
  | d -> Alcotest.failf "expected servfail, got %s" (Serve.disposition_to_string d));
  let m = decode_exn (Option.get o.Serve.reply) in
  check_string "rcode" "SERVFAIL" (Message.rcode_to_string m.Wire.rcode);
  check_int "id echoed" 0x7777 m.Wire.id;
  (* The degradation leaves its root cause in the trace. *)
  let json = Trace.chrome_json forest in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check_bool "servfail event recorded" true (contains json "serve.servfail");
  check_bool "reason attribute recorded" true (contains json "injected-fault")

let test_serve_engine_panic_servfail () =
  fi @@ fun () ->
  let s = Lazy.force server in
  (* Seven labels exceed the engine layout's qname capacity: the
     verified core panics, the wire path degrades to SERVFAIL. *)
  let o = Serve.handle s (valid_query "a.b.c.d.e.f.example.com" Rr.A) in
  match o.Serve.disposition with
  | Serve.Servfail reason ->
      check_bool "reason names the panic" true
        (String.length reason >= 12 && String.sub reason 0 12 = "engine-panic")
  | d -> Alcotest.failf "expected servfail, got %s" (Serve.disposition_to_string d)

let test_serve_garble_fault_degrades () =
  fi @@ fun () ->
  let s = Lazy.force server in
  Faultinject.arm ~after:1 Faultinject.Wire_garble;
  let o = Serve.handle s (valid_query "www.example.com" Rr.A) in
  (* The mangled datagram may still decode (then it is answered) or
     fail a guard (then FORMERR) — but never anything else. *)
  match o.Serve.disposition with
  | Serve.Answered | Serve.Formerr _ | Serve.Dropped _ -> ()
  | d -> Alcotest.failf "unexpected disposition %s" (Serve.disposition_to_string d)

(* ------------------------------------------------------------------ *)
(* Loadgen                                                            *)
(* ------------------------------------------------------------------ *)

let test_loadgen_inproc_all_answered () =
  fi @@ fun () ->
  let s = Lazy.force server in
  let mix = { Loadgen.queries = 120; malformed_pct = 15; seed = 77 } in
  let r = Loadgen.run ~zone:(Serve.zone s) (Loadgen.inproc s) mix in
  check_bool "all answered" true (Loadgen.all_answered r);
  check_int "sent" 120 r.Loadgen.lg_sent;
  check_bool "the mix contained garbage" true (r.Loadgen.lg_malformed > 0);
  check_bool "garbage got FORMERR replies" true
    (List.mem_assoc "FORMERR" r.Loadgen.lg_rcodes);
  check_bool "positive qps" true (r.Loadgen.lg_qps > 0.0);
  check_bool "percentiles ordered" true
    (r.Loadgen.lg_p50_ms <= r.Loadgen.lg_p90_ms
    && r.Loadgen.lg_p90_ms <= r.Loadgen.lg_p99_ms);
  (* The wire probe: 400 queries per leg (seed 0xD15), an all-valid leg
     that must be answered in full and a 40%-malformed leg, with no
     exception escaping the serve loop, no decoder barrier firing, and
     no malformed-leg timeout. *)
  let escaped = ref 0 in
  let transport d =
    try Loadgen.inproc s d
    with _ ->
      incr escaped;
      None
  in
  let leg malformed_pct =
    Loadgen.run ~zone:(Serve.zone s) transport
      { Loadgen.queries = 400; malformed_pct; seed = 0xD15 }
  in
  let barrier0 = Wire.barrier_hits () in
  let valid = leg 0 in
  let malformed = leg 40 in
  check_bool "probe: valid leg fully answered" true
    (Loadgen.all_answered valid);
  check_int "probe: escaped exceptions" 0 !escaped;
  check_int "probe: barrier hits" 0 (Wire.barrier_hits () - barrier0);
  check_int "probe: malformed-leg timeouts" 0 malformed.Loadgen.lg_timeouts

let test_loadgen_deterministic_mix () =
  let zone = Spec.Fixtures.reference_zone in
  let mix = { Loadgen.queries = 50; malformed_pct = 20; seed = 3 } in
  for i = 0 to 49 do
    let k1, b1 = Loadgen.datagram ~zone mix i in
    let k2, b2 = Loadgen.datagram ~zone mix i in
    check_bool "same kind" true (k1 = k2);
    check_string "same bytes" b1 b2
  done

(* ------------------------------------------------------------------ *)
(* Kill and restart                                                   *)
(* ------------------------------------------------------------------ *)

let test_kill_and_restart_under_load () =
  fi @@ fun () ->
  let s = Lazy.force server in
  let zone = Serve.zone s in
  let fd = Unix.socket PF_INET SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname fd with
        | ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      (* The server is a child process serving the inherited socket, so
         SIGKILL is a real mid-load crash: no atexit, no flush. *)
      let spawn () =
        match Unix.fork () with
        | 0 ->
            (try Serve.serve_fd s fd with _ -> ());
            Unix._exit 0
        | pid -> pid
      in
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      let batch seed =
        Loadgen.with_udp ~timeout_s:5.0 addr (fun t ->
            Loadgen.run ~zone t
              { Loadgen.queries = 40; malformed_pct = 10; seed })
      in
      let pid1 = spawn () in
      let r1 = batch 11 in
      Unix.kill pid1 Sys.sigkill;
      ignore (Unix.waitpid [] pid1);
      let pid2 = spawn () in
      let r2 = batch 12 in
      Unix.kill pid2 Sys.sigkill;
      ignore (Unix.waitpid [] pid2);
      (* Every settled query was answered; the kill between batches had
         no in-flight query to lose. *)
      check_bool "first incarnation answered everything" true
        (Loadgen.all_answered r1);
      check_bool "restarted incarnation answered everything" true
        (Loadgen.all_answered r2))

(* ------------------------------------------------------------------ *)
(* hist_quantile                                                      *)
(* ------------------------------------------------------------------ *)

let test_hist_quantile () =
  let h = Trace.Metrics.histogram "test.wire.quantile" in
  let before = Trace.Metrics.snapshot () in
  List.iter (Trace.Metrics.observe h) [ 1.0; 1.5; 3.0; 6.0; 100.0 ];
  let after = Trace.Metrics.snapshot () in
  match Trace.Metrics.get_hist (Trace.Metrics.diff after before) "test.wire.quantile" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some hist ->
      let q50 = Trace.Metrics.hist_quantile hist 0.5 in
      let q100 = Trace.Metrics.hist_quantile hist 1.0 in
      check_bool "median covers the median sample" true (q50 >= 1.5);
      check_bool "q1.0 covers the max" true (q100 >= 100.0);
      check_bool "quantiles are monotone" true (q50 <= q100);
      check_bool "empty histogram quantile is 0" true
        (Trace.Metrics.hist_quantile
           { Trace.Metrics.h_count = 0; h_sum = 0.0; h_buckets = [||] }
           0.9
        = 0.0)

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        qcheck [ prop_roundtrip; prop_decode_total_random; prop_decode_total_mutated ]
        @ [
            Alcotest.test_case "selfcheck battery" `Quick test_selfcheck_battery;
            Alcotest.test_case "crafted guard cases" `Quick test_guards;
            Alcotest.test_case "compression shares suffixes" `Quick
              test_compression_shares_suffixes;
            Alcotest.test_case "negative AAAA round-trip" `Quick
              test_aaaa_negative_roundtrip;
            Alcotest.test_case "TXT chunking round-trip" `Quick
              test_txt_chunking_roundtrip;
            Alcotest.test_case "TC truncation" `Quick test_encode_truncated;
            Alcotest.test_case "barrier never hit" `Quick test_barrier_never_hit;
          ] );
      ( "serve",
        [
          Alcotest.test_case "answers match the spec" `Quick
            test_serve_answers_match_spec;
          Alcotest.test_case "garbage gets FORMERR" `Quick
            test_serve_garbage_formerr;
          Alcotest.test_case "unanswerable datagrams dropped" `Quick
            test_serve_drops_unanswerable;
          Alcotest.test_case "unsupported opcode gets NOTIMP" `Quick
            test_serve_notimp;
          Alcotest.test_case "injected overload gets SERVFAIL" `Quick
            test_serve_fault_servfail;
          Alcotest.test_case "engine panic gets SERVFAIL" `Quick
            test_serve_engine_panic_servfail;
          Alcotest.test_case "garbled datagram degrades" `Quick
            test_serve_garble_fault_degrades;
          Alcotest.test_case "kill and restart under load" `Quick
            test_kill_and_restart_under_load;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "in-process mix all answered" `Quick
            test_loadgen_inproc_all_answered;
          Alcotest.test_case "mix is deterministic" `Quick
            test_loadgen_deterministic_mix;
          Alcotest.test_case "hist_quantile" `Quick test_hist_quantile;
        ] );
    ]
