(* Zone configurations: an origin plus its resource records, with the
   structural validation the control plane performs before handing a
   zone to the engine (§6.5). *)

type t = { origin : Name.t; records : Rr.t list }

let make origin records = { origin; records }
let origin z = z.origin
let records z = z.records
let record_count z = List.length z.records

(* All records owned by [name]. *)
let records_at z name =
  List.filter (fun (r : Rr.t) -> Name.equal r.Rr.rname name) z.records

let records_at_typed z name rtype =
  List.filter
    (fun (r : Rr.t) ->
      Name.equal r.Rr.rname name && Rr.equal_rtype r.Rr.rtype rtype)
    z.records

(* Every distinct owner name in the zone, in order of first occurrence.
   The seen-set keeps this linear; [Name.equal] is structural equality,
   which is what [Hashtbl] compares with. *)
let owner_names z =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (r : Rr.t) ->
      if Hashtbl.mem seen r.Rr.rname then None
      else begin
        Hashtbl.add seen r.Rr.rname ();
        Some r.Rr.rname
      end)
    z.records

let soa_record z =
  List.find_opt
    (fun (r : Rr.t) ->
      Rr.equal_rtype r.Rr.rtype Rr.SOA && Name.equal r.Rr.rname z.origin)
    z.records

(* A name is a delegation point if it owns NS records and is not the
   apex. *)
let is_delegation z name =
  (not (Name.equal name z.origin)) && records_at_typed z name Rr.NS <> []

(* The closest delegation point strictly above-or-at [name] (excluding
   the apex), i.e. the zone cut that puts [name] out of authority. *)
let covering_delegation z name =
  let rec climb n =
    if Name.equal n z.origin then None
    else if is_delegation z n then Some n
    else match Name.parent n with None -> None | Some p -> climb p
  in
  if Name.is_under ~ancestor:z.origin name then climb name else None

(* Does the zone contain the exact node [name] (some record owned by it),
   or is [name] an empty non-terminal (a record exists strictly below)? *)
let node_exists z name =
  List.exists
    (fun (r : Rr.t) -> Name.is_under ~ancestor:name r.Rr.rname)
    z.records

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

type error =
  | No_soa
  | Out_of_zone of Rr.t
  | Rdata_shape of Rr.t
  | Cname_conflict of Name.t (* CNAME plus other data at the same name *)
  | Wildcard_position of Rr.t (* '*' not leftmost *)

let pp_error fmt = function
  | No_soa -> Format.pp_print_string fmt "zone has no SOA at the apex"
  | Out_of_zone r -> Format.fprintf fmt "record out of zone: %a" Rr.pp r
  | Rdata_shape r -> Format.fprintf fmt "rdata/type mismatch: %a" Rr.pp r
  | Cname_conflict n ->
      Format.fprintf fmt "CNAME and other data at %a" Name.pp n
  | Wildcard_position r ->
      Format.fprintf fmt "wildcard label not leftmost: %a" Rr.pp r

let validate (z : t) : error list =
  let errs = ref [] in
  let add e = errs := e :: !errs in
  if soa_record z = None then add No_soa;
  List.iter
    (fun (r : Rr.t) ->
      if not (Name.is_under ~ancestor:z.origin r.Rr.rname) then
        add (Out_of_zone r);
      if not (Rr.rdata_matches_rtype r.Rr.rtype r.Rr.rdata) then
        add (Rdata_shape r);
      let wildcard_inside = function
        | [] | [ _ ] -> false
        | _ :: rest -> List.exists Label.is_wildcard rest
      in
      (* '*' may appear only as the leftmost label of an owner name. *)
      if wildcard_inside (Name.labels r.Rr.rname) then
        add (Wildcard_position r))
    z.records;
  (* CNAME exclusivity: a CNAME owner may hold nothing else. *)
  List.iter
    (fun name ->
      let rs = records_at z name in
      let has_cname =
        List.exists (fun (r : Rr.t) -> Rr.equal_rtype r.Rr.rtype Rr.CNAME) rs
      in
      if has_cname && List.length rs > 1 then add (Cname_conflict name))
    (owner_names z);
  List.rev !errs

let is_valid z = validate z = []

let pp fmt z =
  Format.fprintf fmt "; zone %a (%d records)@." Name.pp z.origin
    (record_count z);
  List.iter (fun r -> Format.fprintf fmt "%a@." Rr.pp r) z.records
