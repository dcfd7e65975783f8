type entry =
  | App of { origin : int; uid : int; payload : Simnet.Payload.t }
  | Join_member of int
  | Leave_member of int

type member_state = { member : int; have_upto : int }

(* Flat batch framing. A batch covers the contiguous seqno range
   [base .. base + count - 1]. Per entry the header array holds three
   ints — tag, member-or-origin, uid — and the payload array one slot
   (App payloads; membership entries leave the empty filler). The
   int-encoded header keeps the frame a pair of flat arrays instead of
   [count] boxed entry records, and lets the sequencer build it from a
   reused scratch vector with two [Array.sub]s. *)
let no_payload = Simnet.Payload.Opaque ""

type batch = {
  base : int;
  count : int;
  hdr : int array; (* 3 ints per entry: tag, member/origin, uid *)
  payloads : Simnet.Payload.t array;
}

let tag_app = 0
let tag_join = 1
let tag_leave = 2

let encode_batch ~base ~count entries =
  if count <= 0 || count > Array.length entries then
    invalid_arg "Wire.encode_batch: bad count";
  let hdr = Array.make (3 * count) 0 in
  let payloads = Array.make count no_payload in
  for i = 0 to count - 1 do
    let k = 3 * i in
    match entries.(i) with
    | App { origin; uid; payload } ->
        hdr.(k) <- tag_app;
        hdr.(k + 1) <- origin;
        hdr.(k + 2) <- uid;
        payloads.(i) <- payload
    | Join_member m ->
        hdr.(k) <- tag_join;
        hdr.(k + 1) <- m
    | Leave_member m ->
        hdr.(k) <- tag_leave;
        hdr.(k + 1) <- m
  done;
  { base; count; hdr; payloads }

let decode_entry b i =
  if i < 0 || i >= b.count then invalid_arg "Wire.decode_entry: bad index";
  let k = 3 * i in
  let tag = b.hdr.(k) in
  if tag = tag_app then
    App { origin = b.hdr.(k + 1); uid = b.hdr.(k + 2); payload = b.payloads.(i) }
  else if tag = tag_join then Join_member b.hdr.(k + 1)
  else if tag = tag_leave then Leave_member b.hdr.(k + 1)
  else invalid_arg "Wire.decode_entry: bad tag"

let batch_entries b = List.init b.count (decode_entry b)

type Simnet.Payload.t +=
  | Bcast_req of {
      gname : string;
      epoch : Types.epoch;
      origin : int;
      uid : int;
      payload : Simnet.Payload.t;
    }
  | Bb_body of {
      gname : string;
      epoch : Types.epoch;
      origin : int;
      uid : int;
      payload : Simnet.Payload.t;
    }
  | Data_batch of { gname : string; epoch : Types.epoch; batch : batch }
  | Bb_accept_batch of {
      gname : string;
      epoch : Types.epoch;
      base : int;
      pairs : int array; (* 2 ints per accept: origin, uid *)
    }
  | Ack of { gname : string; epoch : Types.epoch; member : int; have_upto : int }
  | Done of { gname : string; epoch : Types.epoch; uid : int }
  | Retrans of {
      gname : string;
      epoch : Types.epoch;
      member : int;
      from : int;
    }
  | Heartbeat of { gname : string; epoch : Types.epoch; highest : int }
  | Hb_ack of { gname : string; epoch : Types.epoch; member : int; have_upto : int }
  | Fail of { gname : string; epoch : Types.epoch; reason : string }
  | Join_req of { gname : string; joiner : int; uid : int }
  | Join_grant of {
      gname : string;
      epoch : Types.epoch;
      uid : int;
      members : int list;
      sequencer : int;
      base : int;
    }
  | Leave_req of { gname : string; epoch : Types.epoch; member : int }
  | Reset_invite of { gname : string; instance : int; view : int; coord : int }
  | Reset_state of {
      gname : string;
      instance : int;
      view : int;
      member : int;
      have_upto : int;
    }
  | Reset_fetch of { gname : string; instance : int; from : int; upto : int }
  | Reset_entries of { gname : string; instance : int; entries : (int * entry) list }
  | Reset_commit of {
      gname : string;
      epoch : Types.epoch;
      members : int list;
      sequencer : int;
      base : int;
      patch : (int * entry) list;
    }

let proto gname = "grp:" ^ gname

let () =
  Simnet.Payload.register_printer ~name:"group" (function
    | Bcast_req { origin; uid; _ } ->
        Some (Printf.sprintf "grp.req %d.%d" origin uid)
    | Data_batch { batch; _ } ->
        Some
          (Printf.sprintf "grp.data #%d..%d" batch.base
             (batch.base + batch.count - 1))
    | Bb_accept_batch { base; pairs; _ } ->
        Some
          (Printf.sprintf "grp.bb-accept #%d..%d" base
             (base + (Array.length pairs / 2) - 1))
    | Bb_body { origin; uid; _ } -> Some (Printf.sprintf "grp.bb-body %d.%d" origin uid)
    | Ack { member; have_upto; _ } ->
        Some (Printf.sprintf "grp.ack %d<=%d" member have_upto)
    | Done { uid; _ } -> Some (Printf.sprintf "grp.done %d" uid)
    | Retrans { member; from; _ } ->
        Some (Printf.sprintf "grp.retrans %d from %d" member from)
    | Heartbeat { highest; _ } -> Some (Printf.sprintf "grp.hb %d" highest)
    | Hb_ack { member; _ } -> Some (Printf.sprintf "grp.hback %d" member)
    | Fail { reason; _ } -> Some (Printf.sprintf "grp.fail %s" reason)
    | Join_req { joiner; _ } -> Some (Printf.sprintf "grp.join %d" joiner)
    | Join_grant { members; _ } ->
        Some
          (Printf.sprintf "grp.grant [%s]"
             (String.concat "," (List.map string_of_int members)))
    | Leave_req { member; _ } -> Some (Printf.sprintf "grp.leave %d" member)
    | Reset_invite { view; coord; _ } ->
        Some (Printf.sprintf "grp.reset-invite v%d by %d" view coord)
    | Reset_state { member; have_upto; _ } ->
        Some (Printf.sprintf "grp.reset-state %d<=%d" member have_upto)
    | Reset_fetch { from; upto; _ } ->
        Some (Printf.sprintf "grp.reset-fetch %d..%d" from upto)
    | Reset_entries { entries; _ } ->
        Some (Printf.sprintf "grp.reset-entries n=%d" (List.length entries))
    | Reset_commit { members; base; _ } ->
        Some
          (Printf.sprintf "grp.reset-commit [%s] base=%d"
             (String.concat "," (List.map string_of_int members))
             base)
    | _ -> None)
