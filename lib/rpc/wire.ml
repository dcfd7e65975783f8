type Simnet.Payload.t +=
  | Locate of { port : string; xid : int }
  | Here_is of { port : string; xid : int }
  | Request of { port : string; xid : int; body : Simnet.Payload.t }
  | Reply of { xid : int; body : Simnet.Payload.t }
  | Not_here of { port : string; xid : int }
  | Ack of { xid : int }
  | Enquiry of { xid : int }
  | Alive of { xid : int }

let proto = "rpc"

let () =
  Simnet.Payload.register_printer ~name:"rpc" (function
    | Locate { port; xid } -> Some (Printf.sprintf "rpc.locate %s #%d" port xid)
    | Here_is { port; _ } -> Some (Printf.sprintf "rpc.hereis %s" port)
    | Request { port; xid; _ } -> Some (Printf.sprintf "rpc.req %s #%d" port xid)
    | Reply { xid; _ } -> Some (Printf.sprintf "rpc.rep #%d" xid)
    | Not_here { port; _ } -> Some (Printf.sprintf "rpc.nothere %s" port)
    | Ack { xid } -> Some (Printf.sprintf "rpc.ack #%d" xid)
    | Enquiry { xid } -> Some (Printf.sprintf "rpc.enquiry #%d" xid)
    | Alive { xid } -> Some (Printf.sprintf "rpc.alive #%d" xid)
    | _ -> None)
