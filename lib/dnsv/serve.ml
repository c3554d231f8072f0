(* Fault-tolerant UDP answer loop over a verified engine version. *)

module Message = Dns.Message
module Zone = Dns.Zone

type server = {
  sv_config : Engine.Builder.config;
  sv_zone : Zone.t;
  sv_prog : Minir.Instr.program;
  sv_enc : Dnstree.Encode.t;
  sv_deadline_s : float;
  sv_identity : Obsv.Expo.identity;
  mutable sv_obsv : Obsv.sink option;
  mutable sv_queries : int; (* arrival index, feeds the qlog sampler *)
}

let create ?(deadline_s = 0.25) ?identity ~config zone =
  let tree = Dnstree.Tree.build zone in
  let identity =
    match identity with
    | Some i -> i
    | None ->
        {
          Obsv.Expo.id_version = "dnsv";
          id_engine = "unnamed";
          id_zone = Dns.Name.to_string (Zone.origin zone);
        }
  in
  {
    sv_config = config;
    sv_zone = zone;
    sv_prog = Engine.Versions.compiled config;
    sv_enc = Dnstree.Encode.encode tree;
    sv_deadline_s = deadline_s;
    sv_identity = identity;
    sv_obsv = None;
    sv_queries = 0;
  }

let config s = s.sv_config
let zone s = s.sv_zone
let identity s = s.sv_identity
let attach_obsv s sink = s.sv_obsv <- Some sink
let obsv s = s.sv_obsv

type disposition =
  | Answered
  | Formerr of Wire.error
  | Notimp of int
  | Servfail of string
  | Dropped of string

let disposition_to_string = function
  | Answered -> "answered"
  | Formerr e -> "formerr: " ^ Wire.error_tag e
  | Notimp op -> Printf.sprintf "notimp: opcode %d" op
  | Servfail reason -> "servfail: " ^ reason
  | Dropped why -> "dropped: " ^ why

type outcome = { reply : string option; disposition : disposition; truncated : bool }

(* Counters live in the registry so `dnsv serve`'s trace export, the
   stats endpoint and the benchmark see them. *)
let answered_c = Trace.Metrics.counter "serve.answered"
let formerr_c = Trace.Metrics.counter "serve.formerr"
let notimp_c = Trace.Metrics.counter "serve.notimp"
let servfail_c = Trace.Metrics.counter "serve.servfail"
let dropped_c = Trace.Metrics.counter "serve.dropped"
let truncated_c = Trace.Metrics.counter "serve.truncated"

(* Per-query wall latency: the histogram rolling SLO windows and the
   loadgen percentiles read. Always on — one bucket bump per query. *)
let latency_h = Trace.Metrics.histogram "serve.latency_ms"

(* Per-rcode reply counters (serve.rcode.NOERROR, ...), pre-registered
   so the per-query path never takes the registration lock. *)
let rcode_c =
  List.map
    (fun rc ->
      (rc, Trace.Metrics.counter ("serve.rcode." ^ Message.rcode_to_string rc)))
    Message.all_rcodes

(* Degradation reasons (serve.reason.<tag>) are registered on first
   use: degradations are rare, and the set of tags is open (budget
   reasons, wire guards, drop causes). The tag is the stable prefix of
   the reason string, spaces dashed, so "engine-panic: foo" and
   "qr set" count as serve.reason.engine-panic / serve.reason.qr-set. *)
let reason_tag s =
  let s =
    match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s
  in
  String.map (fun c -> if c = ' ' then '-' else c) s

let note_reason tag =
  if tag <> "" then
    Trace.Metrics.incr (Trace.Metrics.counter ("serve.reason." ^ reason_tag tag))

let note (d : disposition) =
  (match d with
  | Answered -> Trace.Metrics.incr answered_c
  | Formerr e ->
      Trace.Metrics.incr formerr_c;
      Trace.event "serve.formerr" ~attrs:[ ("guard", Wire.error_tag e) ]
  | Notimp op ->
      Trace.Metrics.incr notimp_c;
      Trace.event "serve.notimp" ~attrs:[ ("opcode", string_of_int op) ]
  | Servfail reason ->
      Trace.Metrics.incr servfail_c;
      Trace.event "serve.servfail" ~attrs:[ ("reason", reason) ]
  | Dropped why ->
      Trace.Metrics.incr dropped_c;
      Trace.event "serve.dropped" ~attrs:[ ("why", why) ]);
  d

(* The chaos soak's wire-mangling sites: applied before the decoder so
   the whole decode-or-degrade path is what gets exercised. Both are
   deterministic given the datagram (the *schedule* comes from the
   armed plan's seed). *)
let mangle datagram =
  let d =
    if Faultinject.fire Faultinject.Wire_garble && String.length datagram > 0
    then begin
      let b = Bytes.of_string datagram in
      let n = Bytes.length b in
      let flip at mask =
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask))
      in
      flip (n / 3) 0xFF;
      flip (2 * n / 3) 0x55;
      Bytes.to_string b
    end
    else datagram
  in
  if Faultinject.fire Faultinject.Wire_truncate && String.length d > 1 then
    String.sub d 0 (String.length d / 2)
  else d

(* A minimal reply when the query didn't decode: echo what the header
   offered (id, opcode, rd) and carry [rcode] with empty sections. *)
let header_only ~id ~opcode ~rd rcode =
  Wire.encode
    {
      Wire.id;
      qr = true;
      opcode;
      aa = false;
      tc = false;
      rd;
      ra = false;
      rcode;
      question = [];
      answer = [];
      additional = [];
      authority = [];
    }

(* Salvage the id/flags of an undecodable datagram, if it has them. *)
let salvage_header raw =
  if String.length raw < 4 then None
  else
    let id = (Char.code raw.[0] lsl 8) lor Char.code raw.[1] in
    let b2 = Char.code raw.[2] in
    Some (id, (b2 lsr 3) land 0xF, b2 land 0x80 <> 0, b2 land 0x01 <> 0)

let run_engine s (q : Message.query) : (Message.response, string) result =
  let b = Budget.create ~deadline_s:s.sv_deadline_s () in
  match
    Budget.protect b (fun () ->
        if Faultinject.fire Faultinject.Serve_overload then
          Faultinject.injected Faultinject.Serve_overload
            "query budget exhausted";
        Budget.check_deadline b;
        Engine.Versions.run_compiled s.sv_prog s.sv_enc q)
  with
  | Ok (Engine.Versions.Response r) -> Ok r
  | Ok (Engine.Versions.Engine_panic msg) ->
      Error ("engine-panic: " ^ msg)
  | Error reason -> Error (Budget.reason_tag reason)

(* What a disposition answers with (for the rcode counters and the
   query log); [eng] is the engine's own rcode for Answered. *)
let reply_rcode eng = function
  | Answered -> eng
  | Formerr _ -> Some Message.FormErr
  | Notimp _ -> Some Message.NotImp
  | Servfail _ -> Some Message.ServFail
  | Dropped _ -> None

(* The degradation reason carried into the query log and the
   serve.reason.* counters; "" for a clean answer. *)
let degradation_reason = function
  | Answered -> ""
  | Formerr e -> Wire.error_tag e
  | Notimp _ -> "notimp"
  | Servfail reason -> reason
  | Dropped why -> why

let handle s datagram =
  let t0 = Trace.now_s () in
  let index = s.sv_queries in
  s.sv_queries <- s.sv_queries + 1;
  (* Query identity for the sampled log, captured where it becomes
     known; blank when the datagram never yielded it. *)
  let q_id = ref 0 and q_name = ref "" and q_type = ref "" in
  let eng_rcode = ref None in
  (* The span keeps this query's degradation events (note above) in the
     trace artifact — without an open span Trace.event drops them. *)
  let o =
    Trace.with_span "serve.query" @@ fun () ->
    let raw = mangle datagram in
    let fail_reply e (id, opcode, qr, rd) =
      q_id := id;
      if qr then
        { reply = None; disposition = note (Dropped "qr set on malformed datagram"); truncated = false }
      else
        {
          reply = Some (header_only ~id ~opcode ~rd Message.FormErr);
          disposition = note (Formerr e);
          truncated = false;
        }
    in
    match Wire.decode raw with
    | Error e -> (
        match salvage_header raw with
        | None ->
            { reply = None; disposition = note (Dropped "no echoable header"); truncated = false }
        | Some hdr -> fail_reply e hdr)
    | Ok m ->
        q_id := m.Wire.id;
        if m.Wire.qr then
          { reply = None; disposition = note (Dropped "qr set"); truncated = false }
        else if m.Wire.opcode <> 0 then
          {
            reply =
              Some (header_only ~id:m.Wire.id ~opcode:m.Wire.opcode ~rd:m.Wire.rd Message.NotImp);
            disposition = note (Notimp m.Wire.opcode);
            truncated = false;
          }
        else begin
          match m.Wire.question with
          | [ q ] -> (
              q_name := Dns.Name.to_string q.Message.qname;
              q_type := Dns.Rr.rtype_to_string q.Message.qtype;
              match run_engine s q with
              | Ok r ->
                  eng_rcode := Some r.Message.rcode;
                  let reply =
                    Wire.response ~id:m.Wire.id ~rd:m.Wire.rd
                      ~question:m.Wire.question r
                  in
                  let bytes, truncated =
                    Wire.encode_truncated ~max_size:Wire.max_udp_payload reply
                  in
                  if truncated then Trace.Metrics.incr truncated_c;
                  { reply = Some bytes; disposition = note Answered; truncated }
              | Error reason ->
                  let servfail =
                    Wire.response ~id:m.Wire.id ~rd:m.Wire.rd
                      ~question:m.Wire.question
                      {
                        Message.rcode = Message.ServFail;
                        aa = false;
                        answer = [];
                        authority = [];
                        additional = [];
                      }
                  in
                  {
                    reply = Some (Wire.encode servfail);
                    disposition = note (Servfail reason);
                    truncated = false;
                  })
          | qs ->
              (* zero or several questions: refuse to guess which one *)
              {
                reply =
                  Some (header_only ~id:m.Wire.id ~opcode:0 ~rd:m.Wire.rd Message.FormErr);
                disposition =
                  note
                    (Formerr
                       (Wire.Count_cap
                          { section = "question"; count = List.length qs }));
                truncated = false;
              }
        end
  in
  (* Observability tail — strictly after the outcome is decided, so
     nothing here can change an answer. [Qlog.log] never raises (the
     Obsv_sink_fail contract), [maybe_roll] is one compare while the
     window is open. *)
  let now = Trace.now_s () in
  let ms = (now -. t0) *. 1000.0 in
  Trace.Metrics.observe latency_h ms;
  (match reply_rcode !eng_rcode o.disposition with
  | Some rc -> Trace.Metrics.incr (List.assoc rc rcode_c)
  | None -> ());
  note_reason (degradation_reason o.disposition);
  (match s.sv_obsv with
  | None -> ()
  | Some sink ->
      (match sink.Obsv.sk_windows with
      | Some w -> Obsv.Windows.maybe_roll ~now w
      | None -> ());
      (match sink.Obsv.sk_qlog with
      | Some q ->
          Obsv.Qlog.log q
            {
              Obsv.Qlog.q_index = index;
              q_id = !q_id;
              q_qname = !q_name;
              q_qtype = !q_type;
              q_disposition =
                (match o.disposition with
                | Answered -> "answered"
                | Formerr _ -> "formerr"
                | Notimp _ -> "notimp"
                | Servfail _ -> "servfail"
                | Dropped _ -> "dropped");
              q_rcode =
                (match reply_rcode !eng_rcode o.disposition with
                | Some rc -> Message.rcode_to_string rc
                | None -> "");
              q_reason = degradation_reason o.disposition;
              q_latency_ms = ms;
              q_deadline_ms = s.sv_deadline_s *. 1000.0;
            }
      | None -> ()));
  o

(* The full-registry exposition for this server: what the stats
   endpoint answers and what `dnsv serve` flushes on shutdown. *)
let exposition s kind =
  let snap = Trace.Metrics.snapshot () in
  let windows =
    match s.sv_obsv with
    | Some { Obsv.sk_windows = Some w; _ } -> Some w
    | _ -> None
  in
  match kind with
  | `Text -> Obsv.Expo.prometheus ~identity:s.sv_identity ?windows snap
  | `Json -> Obsv.Expo.json ~identity:s.sv_identity ?windows snap

(* ------------------------------------------------------------------ *)
(* Graceful stop                                                      *)
(* ------------------------------------------------------------------ *)

(* A cooperative stop flag the serve loop polls between datagrams (its
   select times out every 50ms, so a request is honored promptly even
   on an idle socket). [install_stop_signals] routes SIGTERM/SIGINT
   here so `dnsv serve` can flush its final snapshot and query-log
   tail and exit 0 instead of dying mid-frame. *)
let stop_flag = Atomic.make false
let request_stop () = Atomic.set stop_flag true
let stop_requested () = Atomic.get stop_flag
let clear_stop () = Atomic.set stop_flag false

let install_stop_signals () =
  let h = Sys.Signal_handle (fun _ -> request_stop ()) in
  (try Sys.set_signal Sys.sigterm h with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigint h with Invalid_argument _ | Sys_error _ -> ()

let serve_fd ?max_queries ?on_query ?stats s fd =
  let buf = Bytes.create 4096 in
  let continue received =
    match max_queries with None -> true | Some n -> received < n
  in
  let received = ref 0 in
  let extra_fds = match stats with Some ep -> [ Obsv.Endpoint.fd ep ] | None -> [] in
  while continue !received && not (stop_requested ()) do
    (* Window upkeep runs even when the socket is idle, so an idle
       server still closes (empty) windows on schedule. *)
    (match s.sv_obsv with
    | Some { Obsv.sk_windows = Some w; _ } -> Obsv.Windows.maybe_roll w
    | _ -> ());
    match Unix.select (fd :: extra_fds) [] [] 0.05 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun rfd ->
            if rfd = fd then begin
              match Unix.recvfrom fd buf 0 (Bytes.length buf) [] with
              | exception
                  Unix.Unix_error ((EINTR | EAGAIN | ECONNREFUSED), _, _) ->
                  ()
              | len, peer ->
                  incr received;
                  let o = handle s (Bytes.sub_string buf 0 len) in
                  (match on_query with Some f -> f o | None -> ());
                  (match o.reply with
                  | Some bytes -> (
                      try
                        ignore
                          (Unix.sendto fd (Bytes.of_string bytes) 0
                             (String.length bytes) [] peer)
                      with Unix.Unix_error _ -> ())
                  | None -> ())
            end
            else
              match stats with
              | Some ep ->
                  ignore
                    (Obsv.Endpoint.serve_request ep ~respond:(exposition s)
                      : bool)
              | None -> ())
          readable
  done

let serve_udp ?max_queries ?ready ?stats ~port s =
  let fd = Unix.socket PF_INET SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt fd SO_REUSEADDR true;
      Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let bound =
        match Unix.getsockname fd with
        | ADDR_INET (_, p) -> p
        | _ -> port
      in
      (match ready with Some f -> f bound | None -> ());
      serve_fd ?max_queries ?stats s fd)
