(* Seeded query-load generator: the proof-under-fire half of the wire
   path. Generates a deterministic mix of valid queries (owner names,
   children of owner names, out-of-zone names, all rtypes) and
   malformed datagrams (Wire.Selfcheck.malformed_query — at least a
   header, QR clear, garbage body), fires them through a transport,
   and reports answer rates, an rcode tally, QPS and latency
   percentiles. Latencies go through the Trace.Metrics histogram
   [loadgen.latency_ms], so percentiles come from the same
   power-of-two buckets the trace artifact exports, and a `dnsv
   loadgen --trace-out` run leaves the whole distribution on disk. *)

type mix = {
  queries : int;
  malformed_pct : int; (* 0..100: percentage of datagrams that are garbage *)
  seed : int;
}

val default_mix : mix

(* datagram -> reply, if one arrived in time. Must not raise. *)
type transport = string -> string option

(* In-process transport over [Serve.handle] — no sockets, used by the
   wire probe and the fault-seed tests. *)
val inproc : Serve.server -> transport

(* UDP transport to [addr] with a per-query receive timeout; the
   socket lives for the duration of [f]. *)
val with_udp :
  ?timeout_s:float -> Unix.sockaddr -> (transport -> 'a) -> 'a

(* The [i]-th datagram of a mix (pure; the CI smoke job and tests rely
   on the same mix being replayable from its seed). *)
val datagram : zone:Dns.Zone.t -> mix -> int -> [ `Valid | `Malformed ] * string

type result = {
  lg_sent : int;
  lg_malformed : int; (* how many sent datagrams were garbage *)
  lg_answered : int; (* replies that arrived *)
  lg_rcodes : (string * int) list; (* decoded-reply rcode tally, sorted *)
  lg_undecodable : int; (* replies Wire.decode rejected — must be 0 *)
  lg_timeouts : int; (* queries with no reply *)
  lg_elapsed_s : float;
  lg_qps : float;
  lg_p50_ms : float;
  lg_p90_ms : float;
  lg_p99_ms : float;
  (* Power-of-two-bucket quantile error bounds: each percentile above
     is its bucket's upper edge, and the true quantile lies in
     (lo, hi] — at most a factor of two wide. Reported so bucket-edge
     percentiles never read as exact. *)
  lg_p50_lo_ms : float;
  lg_p90_lo_ms : float;
  lg_p99_lo_ms : float;
  lg_max_ms : float;
}

val run : ?zone:Dns.Zone.t -> transport -> mix -> result

(* answered = sent (every datagram of the mix got a reply) and every
   reply decoded. The malformed fraction makes this a liveness check:
   garbage must come back FORMERR, not dropped or crashed into. *)
val all_answered : result -> bool

val pp : Format.formatter -> result -> unit
