type Simnet.Payload.t +=
  | Locate of { port : string; xid : int; client : int }
  | Here_is of { port : string; xid : int; server : int }
  | Request of {
      port : string;
      xid : int;
      client : int;
      body : Simnet.Payload.t;
    }
  | Reply of { xid : int; server : int; body : Simnet.Payload.t }
  | Not_here of { port : string; xid : int; server : int }
  | Ack of { xid : int; client : int }
  | Enquiry of { xid : int; client : int }
  | Alive of { xid : int; server : int }

let proto = "rpc"

let () =
  Simnet.Payload.register_printer ~name:"rpc" (function
    | Locate { port; xid; _ } -> Some (Printf.sprintf "rpc.locate %s #%d" port xid)
    | Here_is { port; server; _ } ->
        Some (Printf.sprintf "rpc.hereis %s @%d" port server)
    | Request { port; xid; _ } -> Some (Printf.sprintf "rpc.req %s #%d" port xid)
    | Reply { xid; _ } -> Some (Printf.sprintf "rpc.rep #%d" xid)
    | Not_here { port; server; _ } ->
        Some (Printf.sprintf "rpc.nothere %s @%d" port server)
    | Ack { xid; _ } -> Some (Printf.sprintf "rpc.ack #%d" xid)
    | Enquiry { xid; _ } -> Some (Printf.sprintf "rpc.enquiry #%d" xid)
    | Alive { xid; server } -> Some (Printf.sprintf "rpc.alive #%d @%d" xid server)
    | _ -> None)
