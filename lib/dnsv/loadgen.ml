(* Seeded query-load generator over a wire transport. *)

module Message = Dns.Message
module Name = Dns.Name
module Rr = Dns.Rr
module Zone = Dns.Zone

type mix = { queries : int; malformed_pct : int; seed : int }

let default_mix = { queries = 500; malformed_pct = 10; seed = 0x10AD }

type transport = string -> string option

let inproc server datagram = (Serve.handle server datagram).Serve.reply

let with_udp ?(timeout_s = 0.5) addr f =
  let fd = Unix.socket PF_INET SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      let buf = Bytes.create 4096 in
      let transport datagram =
        try
          ignore (Unix.send fd (Bytes.of_string datagram) 0 (String.length datagram) []);
          match Unix.select [ fd ] [] [] timeout_s with
          | [], _, _ -> None
          | _ ->
              let len = Unix.recv fd buf 0 (Bytes.length buf) [] in
              Some (Bytes.sub_string buf 0 len)
        with Unix.Unix_error _ -> None
      in
      f transport)

let rtypes = Array.of_list Rr.all_rtypes

(* The valid half of the mix: a seeded walk over the zone's owner
   names plus never-existing children and out-of-zone names, across
   all rtypes — the same name population the differential tests use,
   so the engine sees exact hits, NODATA, NXDOMAIN, referrals and
   REFUSED under load, not just one happy path. *)
let datagram ~zone (m : mix) i =
  let r = Random.State.make [| 0x10AD; m.seed; i |] in
  let pct = max 0 (min 100 m.malformed_pct) in
  if Random.State.int r 100 < pct then
    (`Malformed, Wire.Selfcheck.malformed_query ~seed:m.seed i)
  else begin
    let owners = Array.of_list (Zone.owner_names zone) in
    let base =
      if Array.length owners = 0 then Zone.origin zone
      else owners.(Random.State.int r (Array.length owners))
    in
    let qname =
      match Random.State.int r 4 with
      | 0 | 1 -> base
      | 2 -> "nxchild" :: base (* almost surely NXDOMAIN or a referral *)
      | _ -> [ "out"; "of"; "zone" ] (* REFUSED *)
    in
    let qtype = rtypes.(Random.State.int r (Array.length rtypes)) in
    let q = { Message.qname; qtype } in
    (`Valid, Wire.encode (Wire.query ~id:(i land 0xFFFF) ~rd:true q))
  end

type result = {
  lg_sent : int;
  lg_malformed : int;
  lg_answered : int;
  lg_rcodes : (string * int) list;
  lg_undecodable : int;
  lg_timeouts : int;
  lg_elapsed_s : float;
  lg_qps : float;
  lg_p50_ms : float;
  lg_p90_ms : float;
  lg_p99_ms : float;
  lg_p50_lo_ms : float;
  lg_p90_lo_ms : float;
  lg_p99_lo_ms : float;
  lg_max_ms : float;
}

let latency_h = Trace.Metrics.histogram "loadgen.latency_ms"

let run ?(zone = Spec.Fixtures.reference_zone) (transport : transport) (m : mix)
    =
  let before = Trace.Metrics.snapshot () in
  let tally = Hashtbl.create 8 in
  let malformed = ref 0
  and answered = ref 0
  and undecodable = ref 0
  and timeouts = ref 0
  and max_ms = ref 0.0 in
  let t0 = Trace.now_s () in
  for i = 0 to m.queries - 1 do
    let kind, bytes = datagram ~zone m i in
    (match kind with `Malformed -> incr malformed | `Valid -> ());
    let q0 = Trace.now_s () in
    (match transport bytes with
    | None -> incr timeouts
    | Some reply -> (
        let ms = (Trace.now_s () -. q0) *. 1000.0 in
        Trace.Metrics.observe latency_h ms;
        if ms > !max_ms then max_ms := ms;
        incr answered;
        match Wire.decode reply with
        | Ok msg ->
            let k = Message.rcode_to_string msg.Wire.rcode in
            Hashtbl.replace tally k
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
        | Error _ -> incr undecodable))
  done;
  let elapsed = Trace.now_s () -. t0 in
  let after = Trace.Metrics.snapshot () in
  (* The reported percentile is [hist_quantile]'s bucket upper edge;
     the paired lower edge makes the power-of-two bucketing's error
     bound explicit — the true quantile lies in (lo, hi]. *)
  let quantile q =
    match
      Trace.Metrics.get_hist (Trace.Metrics.diff after before) "loadgen.latency_ms"
    with
    | Some h -> Trace.Metrics.hist_quantile_bounds h q
    | None -> (0.0, 0.0)
  in
  let p50_lo, p50 = quantile 0.5 in
  let p90_lo, p90 = quantile 0.9 in
  let p99_lo, p99 = quantile 0.99 in
  {
    lg_sent = m.queries;
    lg_malformed = !malformed;
    lg_answered = !answered;
    lg_rcodes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [] |> List.sort compare;
    lg_undecodable = !undecodable;
    lg_timeouts = !timeouts;
    lg_elapsed_s = elapsed;
    lg_qps = (if elapsed > 0.0 then float_of_int m.queries /. elapsed else 0.0);
    lg_p50_ms = p50;
    lg_p90_ms = p90;
    lg_p99_ms = p99;
    lg_p50_lo_ms = p50_lo;
    lg_p90_lo_ms = p90_lo;
    lg_p99_lo_ms = p99_lo;
    lg_max_ms = !max_ms;
  }

let all_answered r =
  r.lg_answered = r.lg_sent && r.lg_undecodable = 0 && r.lg_timeouts = 0

let pp ppf r =
  Fmt.pf ppf
    "@[<v>loadgen: %d sent (%d malformed), %d answered, %d undecodable, %d \
     timeouts@,%.0f qps over %.2fs; latency p50=%.3gms p90=%.3gms p99=%.3gms \
     max=%.3gms@,quantile bounds (pow2 buckets): p50 in (%.3g,%.3g] p90 in \
     (%.3g,%.3g] p99 in (%.3g,%.3g] ms@,rcodes: %a@]"
    r.lg_sent r.lg_malformed r.lg_answered r.lg_undecodable r.lg_timeouts
    r.lg_qps r.lg_elapsed_s r.lg_p50_ms r.lg_p90_ms r.lg_p99_ms r.lg_max_ms
    r.lg_p50_lo_ms r.lg_p50_ms r.lg_p90_lo_ms r.lg_p90_ms r.lg_p99_lo_ms
    r.lg_p99_ms
    (Fmt.list ~sep:Fmt.sp (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v))
    r.lg_rcodes
