(* Operations observability: the sampled query log's pure sampling
   discipline and byte-exact codec, the window ring's telescoping
   algebra, order-insensitive merges (what makes --jobs views
   deterministic), the exposition formats, the live endpoint, and the
   invariant the serving plane stakes its contract on — a failing
   sink can never change an answer. *)

module Serve = Dnsv.Serve
module Loadgen = Dnsv.Loadgen
module Metrics = Trace.Metrics

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let qcheck = List.map QCheck_alcotest.to_alcotest

let fi f =
  Faultinject.reset ();
  Fun.protect ~finally:Faultinject.reset f

let tmpfile () = Filename.temp_file "dnsv-test-obsv" ".qlog"
let rm p = try Sys.remove p with Sys_error _ -> ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let v3_cfg () = Engine.Versions.fixed Engine.Versions.v3_0

let mk_record i =
  {
    Obsv.Qlog.q_index = i;
    q_id = i land 0xFFFF;
    q_qname = "www.example.com";
    q_qtype = "A";
    q_disposition = "answered";
    q_rcode = "NOERROR";
    q_reason = "";
    q_latency_ms = 0.25;
    q_deadline_ms = 250.0;
  }

(* Answer [queries] datagrams of a mix (20% malformed by default)
   in-process and return the concatenated reply bytes (None replies
   become \000), so two legs can be compared byte-for-byte. [before s i]
   runs ahead of the [i]th query. *)
let serve_leg ?sink ?(malformed_pct = 20) ?(before = fun _ _ -> ()) queries
    seed =
  let s = Serve.create ~config:(v3_cfg ()) Spec.Fixtures.reference_zone in
  (match sink with Some k -> Serve.attach_obsv s k | None -> ());
  let replies = Buffer.create 4096 in
  for i = 0 to queries - 1 do
    before s i;
    let _, d =
      Loadgen.datagram ~zone:Spec.Fixtures.reference_zone
        { Loadgen.queries; malformed_pct; seed }
        i
    in
    match (Serve.handle s d).Serve.reply with
    | Some r -> Buffer.add_string replies r
    | None -> Buffer.add_char replies '\000'
  done;
  Buffer.contents replies

(* One scrape round trip through the endpoint's UDP socket: send
   [request], serve it, return the reply. *)
let scrape ep s request =
  let c = Unix.socket PF_INET SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close c with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect c
        (ADDR_INET (Unix.inet_addr_loopback, Obsv.Endpoint.port ep));
      ignore (Unix.send_substring c request 0 (String.length request) []);
      check_bool "request served" true
        (Obsv.Endpoint.serve_request ep ~respond:(Serve.exposition s));
      match Unix.select [ c ] [] [] 2.0 with
      | [], _, _ -> Alcotest.fail "no reply from the endpoint"
      | _ ->
          let b = Bytes.create 65536 in
          let n = Unix.recv c b 0 (Bytes.length b) [] in
          Bytes.sub_string b 0 n)

(* ------------------------------------------------------------------ *)
(* Qlog: sampling, codec, journal round-trip                          *)
(* ------------------------------------------------------------------ *)

let test_sampling_pure () =
  for i = 0 to 200 do
    check_bool "same (seed, index) same answer"
      (Obsv.Qlog.sampled ~seed:7 ~rate_pct:37 i)
      (Obsv.Qlog.sampled ~seed:7 ~rate_pct:37 i)
  done;
  let count seed rate =
    List.length
      (List.filter (Obsv.Qlog.sampled ~seed ~rate_pct:rate) (List.init 1000 Fun.id))
  in
  check_int "rate 0 samples nothing" 0 (count 3 0);
  check_int "rate 100 samples everything" 1000 (count 3 100);
  let c = count 5 30 in
  check_bool "rate 30 lands near 30% over 1000 indices" true
    (c > 150 && c < 450);
  let set seed =
    List.filter (Obsv.Qlog.sampled ~seed ~rate_pct:30) (List.init 1000 Fun.id)
  in
  check_bool "different seeds sample different index sets" true
    (set 1 <> set 2)

let prop_record_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"qlog record codec round-trips byte-exactly (any bytes in fields)"
    QCheck.(pair small_nat small_nat)
    (fun (seed, i) ->
      let r = Random.State.make [| 0x0B5; seed; i |] in
      let str n =
        String.init (Random.State.int r n) (fun _ ->
            Char.chr (Random.State.int r 256))
      in
      let rc =
        {
          Obsv.Qlog.q_index = Random.State.int r 1_000_000;
          q_id = Random.State.int r 65536;
          q_qname = str 40;
          q_qtype = str 10;
          q_disposition = str 12;
          q_rcode = str 10;
          q_reason = str 24;
          q_latency_ms = Random.State.float r 1e4;
          q_deadline_ms = Random.State.float r 1e4;
        }
      in
      Obsv.Qlog.decode_record (Obsv.Qlog.encode_record rc) = Some rc)

let test_qlog_roundtrip () =
  let path = tmpfile () in
  let q = Obsv.Qlog.create ~path ~seed:9 ~rate_pct:100 () in
  for i = 0 to 49 do
    Obsv.Qlog.log q (mk_record i)
  done;
  check_int "all 50 logged at rate 100" 50 (Obsv.Qlog.logged q);
  Obsv.Qlog.close q;
  let back = Obsv.Qlog.read ~path in
  check_int "all 50 read back" 50 (List.length back);
  check_bool "records byte-exact in append order" true
    (List.mapi (fun i _ -> mk_record i) back = back);
  rm path;
  let path0 = tmpfile () in
  let q0 = Obsv.Qlog.create ~path:path0 ~seed:9 ~rate_pct:0 () in
  for i = 0 to 49 do
    Obsv.Qlog.log q0 (mk_record i)
  done;
  check_int "rate 0 logs nothing" 0 (Obsv.Qlog.logged q0);
  Obsv.Qlog.close q0;
  rm path0

let test_qlog_seed_replay () =
  let leg path =
    let s = Serve.create ~config:(v3_cfg ()) Spec.Fixtures.reference_zone in
    let q = Obsv.Qlog.create ~path ~seed:5 ~rate_pct:40 () in
    Serve.attach_obsv s (Obsv.sink ~qlog:q ());
    for i = 0 to 119 do
      ignore
        (Serve.handle s
           (snd
              (Loadgen.datagram ~zone:Spec.Fixtures.reference_zone
                 { Loadgen.queries = 120; malformed_pct = 20; seed = 0xAB }
                 i)))
    done;
    Obsv.Qlog.close q;
    Obsv.Qlog.read ~path
  in
  let p1 = tmpfile () and p2 = tmpfile () in
  let a = leg p1 and b = leg p2 in
  rm p1;
  rm p2;
  check_bool "a 40% rate samples some but not all of 120" true
    (List.length a > 0 && List.length a < 120);
  check_int "both runs sample the same count" (List.length a) (List.length b);
  let det (r : Obsv.Qlog.record) =
    ( r.Obsv.Qlog.q_index,
      r.Obsv.Qlog.q_id,
      r.Obsv.Qlog.q_qname,
      r.Obsv.Qlog.q_qtype,
      r.Obsv.Qlog.q_disposition,
      r.Obsv.Qlog.q_rcode,
      r.Obsv.Qlog.q_reason )
  in
  List.iter2
    (fun x y ->
      check_bool "deterministic fields replay identically" true
        (det x = det y))
    a b;
  List.iter
    (fun (r : Obsv.Qlog.record) ->
      check_bool "every logged index satisfies the pure sampler" true
        (Obsv.Qlog.sampled ~seed:5 ~rate_pct:40 r.Obsv.Qlog.q_index))
    a

let test_sink_fail_never_affects_answers () =
  fi (fun () ->
      let baseline = serve_leg 150 0xFA11 in
      let path = tmpfile () in
      let qlog = Obsv.Qlog.create ~path ~seed:1 ~rate_pct:100 () in
      let before = Metrics.snapshot () in
      Faultinject.arm ~persistent:true ~after:1 Faultinject.Obsv_sink_fail;
      let faulted =
        serve_leg
          ~sink:(Obsv.sink ~qlog ~windows:(Obsv.Windows.create ()) ())
          150 0xFA11
      in
      Faultinject.reset ();
      let d = Metrics.diff (Metrics.snapshot ()) before in
      check_string "byte-identical replies under a failing sink"
        (Digest.to_hex (Digest.string baseline))
        (Digest.to_hex (Digest.string faulted));
      check_bool "suppressions counted" true
        (Metrics.get d "obsv.sink_failures" > 0);
      check_int "nothing reached the journal" 0 (Obsv.Qlog.logged qlog);
      Obsv.Qlog.close qlog;
      rm path;
      (* The serving probe: 1,200 queries (seed 0x0B51, 10% malformed)
         answered with observability OFF, ON (a 10%-sampled query log,
         50 ms SLO windows, and a stats endpoint scraped every 400
         queries), and with a 100%-sampled sink failing every append.
         All three reply streams must be byte-identical. *)
      let probe ~rate_pct =
        let path = tmpfile () in
        let qlog = Obsv.Qlog.create ~path ~seed:0x0B51 ~rate_pct () in
        let ep = Obsv.Endpoint.create () in
        let windows = Obsv.Windows.create ~window_s:0.05 ~windows:60 () in
        let before s i =
          if i > 0 && i mod 400 = 0 then ignore (scrape ep s "stats")
        in
        Fun.protect
          ~finally:(fun () ->
            Obsv.Qlog.close qlog;
            Obsv.Endpoint.close ep;
            rm path)
          (fun () ->
            serve_leg ~sink:(Obsv.sink ~qlog ~windows ()) ~malformed_pct:10
              ~before 1200 0x0B51)
      in
      let digest leg = Digest.to_hex (Digest.string leg) in
      let off = digest (serve_leg ~malformed_pct:10 1200 0x0B51) in
      let m0 = Metrics.snapshot () in
      check_string "probe: observability ON replies = OFF" off
        (digest (probe ~rate_pct:10));
      let m1 = Metrics.snapshot () in
      Faultinject.arm ~persistent:true ~after:1 Faultinject.Obsv_sink_fail;
      check_string "probe: failing-sink replies = OFF" off
        (digest (probe ~rate_pct:100));
      Faultinject.reset ();
      check_bool "probe: the ON arm sampled queries" true
        (Metrics.get (Metrics.diff m1 m0) "obsv.sampled" > 0);
      check_bool "probe: the failing sink suppressed appends" true
        (Metrics.get (Metrics.diff (Metrics.snapshot ()) m1)
           "obsv.sink_failures"
        > 0))

let test_sink_fail_partial () =
  fi (fun () ->
      let path = tmpfile () in
      let q = Obsv.Qlog.create ~path ~seed:1 ~rate_pct:100 () in
      (* One-shot on the 3rd append: that record vanishes before any
         byte lands, the journal stays intact, later records land. *)
      Faultinject.arm ~after:3 Faultinject.Obsv_sink_fail;
      for i = 0 to 9 do
        Obsv.Qlog.log q (mk_record i)
      done;
      check_int "one record suppressed" 9 (Obsv.Qlog.logged q);
      Obsv.Qlog.close q;
      let back = Obsv.Qlog.read ~path in
      check_int "later records landed after the fault" 9 (List.length back);
      check_bool "the suppressed index is the hole" true
        (not (List.exists (fun r -> r.Obsv.Qlog.q_index = 2) back));
      rm path)

(* ------------------------------------------------------------------ *)
(* Windows: ring algebra, derivation, alerts, merge determinism       *)
(* ------------------------------------------------------------------ *)

let prop_ring_telescopes =
  QCheck.Test.make ~count:30
    ~name:"sum(closed deltas) + current partial = since_create"
    QCheck.(list_of_size Gen.(1 -- 8) (list_of_size Gen.(0 -- 5) small_nat))
    (fun rounds ->
      let w = Obsv.Windows.create ~window_s:3600.0 ~windows:100 () in
      let c = Metrics.counter "test.obsv.ring" in
      let h = Metrics.histogram "test.obsv.ring_ms" in
      List.iter
        (fun bumps ->
          List.iter
            (fun n ->
              Metrics.add c n;
              Metrics.observe h (float_of_int (n + 1)))
            bumps;
          Obsv.Windows.roll w)
        rounds;
      Metrics.incr c;
      (* leave a partial open window *)
      let total =
        List.fold_left
          (fun acc (cl : Obsv.Windows.closed) ->
            Metrics.sum acc cl.Obsv.Windows.w_delta)
          Metrics.empty (Obsv.Windows.closed w)
      in
      let total = Metrics.sum total (Obsv.Windows.current_delta w) in
      let expect = Obsv.Windows.since_create w in
      Metrics.get total "test.obsv.ring" = Metrics.get expect "test.obsv.ring"
      && Metrics.get_hist total "test.obsv.ring_ms"
         = Metrics.get_hist expect "test.obsv.ring_ms")

let test_ring_eviction () =
  let w = Obsv.Windows.create ~window_s:3600.0 ~windows:3 () in
  for _ = 1 to 7 do
    Obsv.Windows.roll w
  done;
  let closed = Obsv.Windows.closed w in
  check_int "ring keeps at most its capacity" 3 (List.length closed);
  check_bool "newest first, monotone indices" true
    (List.map (fun c -> c.Obsv.Windows.w_index) closed = [ 6; 5; 4 ])

let test_derive_and_alerts () =
  let sf = Metrics.counter "serve.servfail" in
  let ans = Metrics.counter "serve.answered" in
  let h = Metrics.histogram "serve.latency_ms" in
  let w =
    Obsv.Windows.create ~window_s:3600.0 ~p99_limit_ms:0.5 ~servfail_limit:0.1
      ()
  in
  Metrics.add ans 8;
  Metrics.add sf 2;
  List.iter (Metrics.observe h)
    [ 0.2; 0.2; 0.2; 0.2; 0.2; 0.2; 0.2; 0.2; 4.0; 4.0 ];
  Obsv.Windows.roll w;
  match Obsv.Windows.closed w with
  | [ c ] ->
      let d = c.Obsv.Windows.w_derived in
      check_int "served counts every disposition" 10 d.Obsv.Windows.d_served;
      check_int "servfail delta" 2 d.Obsv.Windows.d_servfail;
      check_bool "servfail rate is servfail/served" true
        (abs_float (d.Obsv.Windows.d_servfail_rate -. 0.2) < 1e-9);
      check_bool "p99 upper bound covers the max sample" true
        (d.Obsv.Windows.d_p99_ms >= 4.0);
      check_int "both SLO thresholds fired" 2
        (List.length c.Obsv.Windows.w_alerts);
      check_int "alerts_total remembers them" 2 (Obsv.Windows.alerts_total w);
      (* derivation is pure: same delta + elapsed, same answer *)
      check_bool "derive is pure" true
        (Obsv.Windows.derive ~elapsed_s:c.Obsv.Windows.w_elapsed_s
           c.Obsv.Windows.w_delta
        = d)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 closed window, got %d"
                          (List.length l))

let mk_delta bumps =
  let before = Metrics.snapshot () in
  List.iter
    (fun (i, v) ->
      Metrics.add (Metrics.counter ("test.obsv.m" ^ string_of_int (i mod 4))) v)
    bumps;
  Metrics.diff (Metrics.snapshot ()) before

let prop_merge_order_insensitive =
  QCheck.Test.make ~count:100
    ~name:"window merges are order-insensitive (sum commutes/associates)"
    QCheck.(
      triple
        (small_list (pair small_nat small_nat))
        (small_list (pair small_nat small_nat))
        (small_list (pair small_nat small_nat)))
    (fun (xs, ys, zs) ->
      let a = mk_delta xs and b = mk_delta ys and c = mk_delta zs in
      Metrics.sum a b = Metrics.sum b a
      && Metrics.sum (Metrics.sum a b) c = Metrics.sum a (Metrics.sum b c))

let test_absorb_multidomain () =
  let before = Metrics.snapshot () in
  let worker =
    Domain.spawn (fun () ->
        let b = Metrics.snapshot () in
        Metrics.add (Metrics.counter "test.obsv.dom") 7;
        Metrics.observe (Metrics.histogram "test.obsv.dom_ms") 3.0;
        Metrics.diff (Metrics.snapshot ()) b)
  in
  let delta = Domain.join worker in
  check_int "the worker's cells are its own" 7
    (Metrics.get delta "test.obsv.dom");
  Metrics.absorb delta;
  let now = Metrics.diff (Metrics.snapshot ()) before in
  check_int "absorbed counter lands in this domain" 7
    (Metrics.get now "test.obsv.dom");
  match Metrics.get_hist now "test.obsv.dom_ms" with
  | Some h -> check_int "absorbed histogram lands too" 1 h.Metrics.h_count
  | None -> Alcotest.fail "absorbed histogram missing"

(* ------------------------------------------------------------------ *)
(* Exposition + endpoint + report                                     *)
(* ------------------------------------------------------------------ *)

let test_identity () =
  {
    Obsv.Expo.id_version = "test 1";
    id_engine = "3.0-fixed";
    id_zone = "example.com";
  }

let test_expo () =
  let w = Obsv.Windows.create ~window_s:3600.0 () in
  Metrics.incr (Metrics.counter "serve.answered");
  Metrics.observe (Metrics.histogram "serve.latency_ms") 0.7;
  Obsv.Windows.roll w;
  let snap = Metrics.snapshot () in
  let text = Obsv.Expo.prometheus ~identity:(test_identity ()) ~windows:w snap in
  List.iter
    (fun needle ->
      check_bool ("prometheus exposition has " ^ needle) true
        (contains text needle))
    [
      "dnsv_build_info{";
      "engine=\"3.0-fixed\"";
      "dnsv_serve_answered_total";
      "dnsv_serve_latency_ms_bucket{le=\"";
      "dnsv_serve_latency_ms_count";
      "dnsv_window_qps";
      "dnsv_windows_closed_total";
    ];
  List.iter
    (fun line ->
      if String.length line > 0 then
        check_bool ("well-formed exposition line: " ^ line) true
          (line.[0] = '#'
          || String.length line > 5 && String.sub line 0 5 = "dnsv_"))
    (String.split_on_char '\n' text);
  let body = Obsv.Expo.json ~identity:(test_identity ()) ~windows:w snap in
  match Trace.Json.parse body with
  | Error e -> Alcotest.fail ("exposition JSON does not parse: " ^ e)
  | Ok j -> (
      (match Trace.Json.member "identity" j with
      | Some idj -> (
          match Trace.Json.member "engine" idj with
          | Some (Trace.Json.Str s) -> check_string "identity engine" "3.0-fixed" s
          | _ -> Alcotest.fail "identity.engine missing")
      | None -> Alcotest.fail "identity missing");
      match Trace.Json.member "windows" j with
      | Some (Trace.Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "windows array missing or empty")

let test_endpoint_roundtrip () =
  let ep = Obsv.Endpoint.create () in
  let s = Serve.create ~config:(v3_cfg ()) Spec.Fixtures.reference_zone in
  Fun.protect
    ~finally:(fun () -> Obsv.Endpoint.close ep)
    (fun () ->
      match Trace.Json.parse (scrape ep s "json") with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("endpoint JSON does not parse: " ^ e))

(* Full serving-plane round trip in a forked child: serve_udp with a
   multiplexed stats endpoint, a real query, a mid-load scrape, then
   SIGTERM -> the loop stops cooperatively and the child exits 0. *)
let test_graceful_shutdown () =
  let r, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let s = Serve.create ~config:(v3_cfg ()) Spec.Fixtures.reference_zone in
      Serve.attach_obsv s (Obsv.sink ~windows:(Obsv.Windows.create ()) ());
      let ep = Obsv.Endpoint.create () in
      Serve.clear_stop ();
      Serve.install_stop_signals ();
      let ready port =
        let msg = Printf.sprintf "%d %d\n" port (Obsv.Endpoint.port ep) in
        ignore (Unix.write_substring wr msg 0 (String.length msg));
        Unix.close wr
      in
      (try Serve.serve_udp ~ready ~stats:ep ~port:0 s
       with _ -> Unix._exit 3);
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let buf = Bytes.create 64 in
      let n = Unix.read r buf 0 64 in
      Unix.close r;
      let qport, sport =
        Scanf.sscanf (Bytes.sub_string buf 0 n) "%d %d" (fun a b -> (a, b))
      in
      let answered =
        Loadgen.with_udp ~timeout_s:2.0
          (ADDR_INET (Unix.inet_addr_loopback, qport))
          (fun t ->
            let _, d =
              Loadgen.datagram ~zone:Spec.Fixtures.reference_zone
                { Loadgen.queries = 1; malformed_pct = 0; seed = 1 }
                0
            in
            t d <> None)
      in
      check_bool "child answered a live query" true answered;
      (match
         Obsv.Endpoint.scrape ~timeout_s:2.0 ~host:"127.0.0.1" ~port:sport
           `Text
       with
      | Ok body ->
          check_bool "scrape under load is Prometheus text" true
            (contains body "dnsv_build_info{")
      | Error e -> Alcotest.fail ("scrape: " ^ e));
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c ->
          Alcotest.fail (Printf.sprintf "child exited %d, wanted 0" c)
      | _ -> Alcotest.fail "child did not exit normally")

let test_report_to_json () =
  let h = Metrics.histogram "test.obsv.report_ms" in
  List.iter (Metrics.observe h) [ 0.3; 0.9; 2.5 ];
  let (), forest =
    Trace.recording (fun () -> Trace.with_span "t.report" (fun () -> ()))
  in
  let chrome = Trace.chrome_json ~metrics:(Metrics.snapshot ()) forest in
  match Trace.Report.of_string chrome with
  | Error e -> Alcotest.fail ("report load: " ^ e)
  | Ok rep -> (
      let body = Trace.Report.to_json rep in
      match Trace.Json.parse body with
      | Error e -> Alcotest.fail ("report --json does not parse: " ^ e)
      | Ok j ->
          List.iter
            (fun k ->
              check_bool ("report json has " ^ k) true
                (Trace.Json.member k j <> None))
            [ "phases"; "counters"; "histograms" ])

let test_quantile_bounds () =
  let h = Metrics.histogram "test.obsv.qb_ms" in
  let before = Metrics.snapshot () in
  List.iter (Metrics.observe h) [ 0.3; 0.6; 1.2; 2.5; 70.0 ];
  let d = Metrics.diff (Metrics.snapshot ()) before in
  (match Metrics.get_hist d "test.obsv.qb_ms" with
  | None -> Alcotest.fail "histogram missing"
  | Some hist ->
      List.iter
        (fun q ->
          let lo, hi = Metrics.hist_quantile_bounds hist q in
          check_bool "hi is exactly hist_quantile's report" true
            (hi = Metrics.hist_quantile hist q);
          check_bool "the bracket is at most a factor of two" true
            (lo = 0.0 || hi /. lo <= 2.0 +. 1e-9);
          check_bool "lo < hi" true (lo < hi))
        [ 0.5; 0.9; 0.99; 1.0 ]);
  let lo, hi =
    Metrics.hist_quantile_bounds
      { Metrics.h_count = 0; h_sum = 0.0; h_buckets = [||] }
      0.9
  in
  check_bool "empty histogram brackets to (0, 0)" true (lo = 0.0 && hi = 0.0);
  (* the loadgen surfaces the same bounds *)
  let s = Serve.create ~config:(v3_cfg ()) Spec.Fixtures.reference_zone in
  let r =
    Loadgen.run ~zone:Spec.Fixtures.reference_zone (Loadgen.inproc s)
      { Loadgen.queries = 40; malformed_pct = 0; seed = 0x0B }
  in
  check_bool "loadgen p99 bracket is ordered" true
    (r.Loadgen.lg_p99_lo_ms < r.Loadgen.lg_p99_ms);
  check_bool "loadgen p50 bracket is ordered" true
    (r.Loadgen.lg_p50_lo_ms < r.Loadgen.lg_p50_ms)

let () =
  Alcotest.run "obsv"
    [
      (* First: Unix.fork is illegal once any domain has been spawned
         (the absorb test spawns one), so the forked end-to-end test
         must run before everything else. *)
      ( "serve",
        [
          Alcotest.test_case "graceful shutdown end-to-end" `Quick
            test_graceful_shutdown;
        ] );
      ( "qlog",
        qcheck [ prop_record_roundtrip ]
        @ [
            Alcotest.test_case "sampling is pure and rate-bounded" `Quick
              test_sampling_pure;
            Alcotest.test_case "journal round-trip" `Quick test_qlog_roundtrip;
            Alcotest.test_case "seed-pure replay" `Quick test_qlog_seed_replay;
            Alcotest.test_case "failing sink never affects answers" `Quick
              test_sink_fail_never_affects_answers;
            Alcotest.test_case "suppression leaves the journal intact" `Quick
              test_sink_fail_partial;
          ] );
      ( "windows",
        qcheck [ prop_ring_telescopes; prop_merge_order_insensitive ]
        @ [
            Alcotest.test_case "ring eviction keeps newest" `Quick
              test_ring_eviction;
            Alcotest.test_case "derive + SLO alerts" `Quick
              test_derive_and_alerts;
            Alcotest.test_case "absorb merges a worker domain" `Quick
              test_absorb_multidomain;
          ] );
      ( "expo",
        [
          Alcotest.test_case "prometheus + JSON exposition" `Quick test_expo;
          Alcotest.test_case "endpoint request/reply" `Quick
            test_endpoint_roundtrip;
          Alcotest.test_case "report --json shape" `Quick test_report_to_json;
          Alcotest.test_case "quantile error bounds" `Quick
            test_quantile_bounds;
        ] );
    ]
