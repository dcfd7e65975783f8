type entry =
  | App of { origin : int; uid : int; payload : Simnet.Payload.t }
  | Join_member of int
  | Leave_member of int

type batch = { base : int; entries : entry array }

let encode_batch ~base ~count entries =
  if count <= 0 || count > Array.length entries then
    invalid_arg "Wire.encode_batch: bad count";
  { base; entries = Array.sub entries 0 count }

type Simnet.Payload.t +=
  | Bcast_req of { epoch : Types.epoch; uid : int; payload : Simnet.Payload.t }
  | Bb_body of { epoch : Types.epoch; uid : int; payload : Simnet.Payload.t }
  | Data_batch of { epoch : Types.epoch; batch : batch }
  | Bb_accept_batch of { epoch : Types.epoch; base : int; uids : int array }
  | Ack of { epoch : Types.epoch; have_upto : int }
  | Done of { epoch : Types.epoch; uid : int }
  | Retrans of { epoch : Types.epoch; from : int }
  | Heartbeat of { epoch : Types.epoch; highest : int }
  | Hb_ack of { epoch : Types.epoch; have_upto : int }
  | Fail of { epoch : Types.epoch; reason : string }
  | Join_req of { uid : int }
  | Join_grant of { epoch : Types.epoch; uid : int; members : int list; base : int }
  | Leave_req of { epoch : Types.epoch }
  | Reset_invite of { instance : int; view : int }
  | Reset_state of { instance : int; view : int; have_upto : int }
  | Reset_fetch of { instance : int; from : int; upto : int }
  | Reset_entries of { instance : int; entries : (int * entry) list }
  | Reset_commit of {
      epoch : Types.epoch;
      members : int list;
      sequencer : int;
      base : int;
      patch : (int * entry) list;
    }

let proto gname = "grp:" ^ gname

let () =
  Simnet.Payload.register_printer ~name:"group" (function
    | Bcast_req { uid; _ } -> Some (Printf.sprintf "grp.req %d" uid)
    | Data_batch { batch; _ } ->
        Some
          (Printf.sprintf "grp.data #%d..%d" batch.base
             (batch.base + Array.length batch.entries - 1))
    | Bb_accept_batch { base; uids; _ } ->
        Some
          (Printf.sprintf "grp.bb-accept #%d..%d" base (base + Array.length uids - 1))
    | Bb_body { uid; _ } -> Some (Printf.sprintf "grp.bb-body %d" uid)
    | Ack { have_upto; _ } -> Some (Printf.sprintf "grp.ack <=%d" have_upto)
    | Done { uid; _ } -> Some (Printf.sprintf "grp.done %d" uid)
    | Retrans { from; _ } -> Some (Printf.sprintf "grp.retrans from %d" from)
    | Heartbeat { highest; _ } -> Some (Printf.sprintf "grp.hb %d" highest)
    | Hb_ack _ -> Some "grp.hback"
    | Fail { reason; _ } -> Some (Printf.sprintf "grp.fail %s" reason)
    | Join_req _ -> Some "grp.join"
    | Join_grant { members; _ } ->
        Some
          (Printf.sprintf "grp.grant [%s]"
             (String.concat "," (List.map string_of_int members)))
    | Leave_req _ -> Some "grp.leave"
    | Reset_invite { view; _ } -> Some (Printf.sprintf "grp.reset-invite v%d" view)
    | Reset_state { have_upto; _ } ->
        Some (Printf.sprintf "grp.reset-state <=%d" have_upto)
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
