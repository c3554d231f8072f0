(* A fault-tolerant UDP answer loop over a verified engine version.

   The degradation contract, enforced by test_wire and the serve-smoke
   CI job: a datagram NEVER crashes the loop. Garbage that still looks
   like a query gets FORMERR; an unsupported opcode gets NOTIMP; an
   engine panic or an exhausted per-query budget gets SERVFAIL with a
   machine-readable reason (logged as a trace event, so an operator can
   tell injected overload from a real engine defect); an oversized
   answer is truncated to 512 bytes with TC set; and only datagrams
   that cannot be answered at all — responses (QR set, to avoid reply
   loops) and fragments too short to carry a header id — are dropped.

   Faultinject sites consulted per query: [Wire_garble] and
   [Wire_truncate] mangle the incoming datagram before the decoder
   sees it (the chaos soak uses these to prove the loop degrades
   instead of flipping answers), and [Serve_overload] exhausts the
   query's budget inside the engine call. *)

type server

(* Build a server for [zone] answered by engine [config]: the zone is
   encoded and the engine compiled once, up front. [deadline_s]
   (default 0.25) is the per-query wall-clock budget. [identity] is
   what the stats endpoint reports as build/engine/zone identity
   (defaults name the zone origin). *)
val create :
  ?deadline_s:float ->
  ?identity:Obsv.Expo.identity ->
  config:Engine.Builder.config ->
  Dns.Zone.t ->
  server

val config : server -> Engine.Builder.config
val zone : server -> Dns.Zone.t
val identity : server -> Obsv.Expo.identity

(* Attach an observability sink (sampled query log and/or rolling SLO
   windows). Strictly off the answer path: [handle] feeds it after
   each outcome is decided, and a sink failure can never change an
   answer (the Obsv_sink_fail contract). *)
val attach_obsv : server -> Obsv.sink -> unit
val obsv : server -> Obsv.sink option

(* How a datagram was disposed of; [reason] strings are stable
   machine-readable tags (Budget.reason_tag / "engine-panic"). *)
type disposition =
  | Answered (* an engine answer (any rcode the engine produced) *)
  | Formerr of Wire.error (* undecodable or question-less query *)
  | Notimp of int (* a query with this unsupported opcode *)
  | Servfail of string (* engine panic or budget exhaustion *)
  | Dropped of string (* no reply owed: QR set, or no echoable id *)

val disposition_to_string : disposition -> string

type outcome = {
  reply : string option; (* bytes to send back, if a reply is owed *)
  disposition : disposition;
  truncated : bool; (* reply was cut to [Wire.max_udp_payload] with TC *)
}

(* Answer one datagram. Total: never raises, whatever the bytes. *)
val handle : server -> string -> outcome

(* The full-registry exposition for this server (identity + counters +
   histograms + the attached window ring): what the stats endpoint
   answers a scrape with, and what `dnsv serve` flushes on shutdown. *)
val exposition : server -> [ `Text | `Json ] -> string

(* Cooperative graceful stop: the serve loop polls [stop_requested]
   between datagrams (its select wakes at least every 50ms), so a
   [request_stop] — or a SIGTERM/SIGINT once [install_stop_signals]
   has routed them here — lets the loop return normally instead of
   dying mid-query. [clear_stop] rearms (tests, restarts). *)
val request_stop : unit -> unit
val stop_requested : unit -> bool
val clear_stop : unit -> unit
val install_stop_signals : unit -> unit

(* Receive/answer datagrams on an already-bound UDP socket until
   [max_queries] have been *received* (forever if omitted) or a stop
   is requested. Transient socket errors (EINTR, ECONNREFUSED from
   ICMP) are swallowed; [on_query] (if given) observes each outcome.
   [stats] multiplexes an Obsv control socket into the same loop, so
   the endpoint is scrapeable while the server is under load. *)
val serve_fd :
  ?max_queries:int ->
  ?on_query:(outcome -> unit) ->
  ?stats:Obsv.Endpoint.t ->
  server ->
  Unix.file_descr ->
  unit

(* Bind 127.0.0.1:[port] (0 picks a free port) and serve on it.
   [ready] receives the actually-bound port before the loop starts. *)
val serve_udp :
  ?max_queries:int ->
  ?ready:(int -> unit) ->
  ?stats:Obsv.Endpoint.t ->
  port:int ->
  server ->
  unit
