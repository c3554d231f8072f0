(* Crash-safe write-ahead journal for batch verification runs.

   Frame layout (all integers big-endian):

     +--------+--------+--------+-----------------+
     | "DJ01" | length | crc32  | payload (length)|
     | 4 B    | 4 B    | 4 B    |                 |
     +--------+--------+--------+-----------------+

   The payload's first byte tags the record kind: 'H' header, 'R'
   regular item record, 'F' finalization. A record is *intact* iff its
   magic matches, its declared length fits in the file, and the CRC of
   the payload matches; recovery stops at the first violation and
   reports everything before it. Because appends flush before
   returning, the only damage a kill can cause is one torn frame at the
   tail — exactly what recovery truncates. *)

type t = { path : string; oc : out_channel }

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320)               *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_int (s : string) : int =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let crc32 (s : string) : int32 = Int32.of_int (crc32_int s)

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

(* The frame codec shared with the verification store, which uses its
   own magic. *)
let frame ~magic (payload : string) : string =
  let n = String.length payload in
  let b = Bytes.create (12 + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int n);
  Bytes.set_int32_be b 8 (Int32.of_int (crc32_int payload));
  Bytes.blit_string payload 0 b 12 n;
  Bytes.unsafe_to_string b

let scan_frames ~magic (data : string) ~init f =
  let size = String.length data in
  let u32 off = Int32.to_int (String.get_int32_be data off) land 0xFFFFFFFF in
  let rec magic_at p i =
    i = 4 || (data.[p + i] = magic.[i] && magic_at p (i + 1))
  in
  let rec go acc pos =
    if pos + 12 > size || not (magic_at pos 0) then (acc, pos)
    else
      let len = u32 (pos + 4) in
      if pos + 12 + len > size then (acc, pos)
      else
        let payload = String.sub data (pos + 12) len in
        if crc32_int payload <> u32 (pos + 8) then (acc, pos)
        else
          match f acc payload with
          | None -> (acc, pos)
          | Some acc -> go acc (pos + 12 + len)
  in
  go init 0

let magic = "DJ01"

let write_record (j : t) (payload : string) : unit =
  let f = frame ~magic payload in
  (* The torn-write fault: half the frame reaches the disk, then the
     process "dies" (the injected exception plays the kill; the CI
     harness uses a real SIGKILL). Flush first so the torn bytes are
     actually visible to the recovering reader. *)
  if Faultinject.fire Faultinject.Journal_torn then begin
    let half = max 1 (String.length f / 2) in
    output_string j.oc (String.sub f 0 half);
    flush j.oc;
    Faultinject.injected Faultinject.Journal_torn
      "journal append torn after %d of %d bytes" half (String.length f)
  end;
  output_string j.oc f;
  flush j.oc

(* ------------------------------------------------------------------ *)
(* API                                                                *)
(* ------------------------------------------------------------------ *)

let create ~path ~header : t =
  let oc = open_out_bin path in
  let j = { path; oc } in
  write_record j ("H" ^ header);
  j

let c_appends = Trace.Metrics.counter "journal.appends"

let append (j : t) (record : string) : unit =
  Trace.Metrics.incr c_appends;
  Trace.event "journal.append"
    ~attrs:[ ("bytes", string_of_int (String.length record)) ];
  write_record j ("R" ^ record)

let finalize (j : t) (record : string) : unit = write_record j ("F" ^ record)
let close (j : t) : unit = close_out j.oc

type recovery = {
  header : string option;
  records : string list;
  final : string option;
  dropped_bytes : int;
}

let empty_recovery =
  { header = None; records = []; final = None; dropped_bytes = 0 }

(* Scan the raw bytes: returns the recovery and the byte offset just
   past the last intact frame. The payload's first byte tags the record;
   an empty payload ends the scan, an unknown tag is skipped. *)
let scan (data : string) : recovery * int =
  let (header, records, final), pos =
    scan_frames ~magic data ~init:(None, [], None)
      (fun ((header, records, final) as acc) payload ->
        let plen = String.length payload in
        if plen < 1 then None
        else
          let body = String.sub payload 1 (plen - 1) in
          Some
            (match payload.[0] with
            | 'H' when header = None -> (Some body, records, final)
            | 'R' -> (header, body :: records, final)
            | 'F' -> (header, records, Some body)
            | _ -> acc))
  in
  ( {
      header;
      records = List.rev records;
      final;
      dropped_bytes = String.length data - pos;
    },
    pos )

let read_file (path : string) : string option =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (really_input_string ic (in_channel_length ic)))

let recover ~path : recovery =
  match read_file path with
  | None -> empty_recovery
  | Some data -> fst (scan data)

let open_resume ~path ~header : (t * recovery, string) result =
  match read_file path with
  | None -> Ok (create ~path ~header, empty_recovery)
  | Some data -> (
      let rec_, good = scan data in
      match rec_.header with
      | None -> Error "journal has no intact header record"
      | Some h when h <> header ->
          Error
            (Printf.sprintf
               "journal header mismatch: journal is for %S, this run is %S" h
               header)
      | Some _ ->
          (* Truncate the torn tail, then reopen positioned at the end
             of the intact prefix. *)
          if rec_.dropped_bytes > 0 then Unix.truncate path good;
          Trace.event "journal.resume"
            ~attrs:
              [
                ("records", string_of_int (List.length rec_.records));
                ("dropped_bytes", string_of_int rec_.dropped_bytes);
              ];
          let oc =
            open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path
          in
          Ok ({ path; oc }, rec_))

(* [path] is carried for diagnostics and potential re-open; keep the
   field alive even though nothing reads it yet. *)
let _ = fun (j : t) -> j.path
