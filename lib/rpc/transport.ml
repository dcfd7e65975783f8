exception Rpc_failure of string

(* Locate timing: how long (ms) a broadcast collects HEREIS answers,
   how many broadcasts before giving up, and the pause (ms) between
   them. *)
let locate_window = 2.0

let locate_rounds = 4

let locate_backoff = 5.0

(* While a reply is outstanding the client asks the server every
   [enquiry_period] ms whether it still holds the request; two
   consecutive unanswered enquiries end the attempt as [Dead]. A dead
   server is therefore abandoned within [3 * enquiry_period] of its
   crash, and one lost [Alive] never abandons a live one. *)
let enquiry_period = 200.0

(* How an attempt ends other than by its reply: raised at the caller's
   wait. Constant, so ending an attempt allocates nothing. *)
exception Bounced

exception Dead

(* One outstanding attempt: the caller parked on it and the liveness
   enquiry that watches it. The reply wakes the caller with its body;
   a bounce or a dead verdict wakes it by raising. *)
type call = {
  xid : int;
  server : int;
  sent : float; (* when the request went out *)
  caller : Simnet.Payload.t Sim.Proc.Waker.t Queue.t; (* at most one *)
  mutable unanswered : int; (* enquiries sent since the last Alive *)
  probe : Sim.Timer.t; (* the periodic enquiry *)
}

type service = {
  mutable active : bool;
  queue : (int * int * Simnet.Payload.t) Sim.Mailbox.t; (* xid, client, body *)
}

type t = {
  max_attempts : int;
  net : Simnet.Network.t;
  nic : Simnet.Network.nic;
  node_id : int;
  mutable next_xid : int;
  services : (string, service) Hashtbl.t;
  pending : (int, call) Hashtbl.t; (* by xid *)
  held : (int, unit) Hashtbl.t; (* xids accepted and not yet replied to *)
  locates : (int, int list ref) Hashtbl.t; (* xid -> responders, newest first *)
  port_cache : (string, int list ref) Hashtbl.t;
}

let node_id t = t.node_id

let node t = Simnet.Network.nic_node t.nic

let nic t = t.nic

let fresh_xid t =
  t.next_xid <- t.next_xid + 1;
  (* Make xids globally unique across nodes so crossed wires are inert. *)
  (t.node_id * 1_000_000) + t.next_xid

let send t ~dst payload = Simnet.Network.send t.net t.nic ~dst ~proto:Wire.proto payload

let engine t = Simnet.Network.engine t.net

(* End an attempt; its enquiry stops with it, also when the enquiry's
   own tick ends it. The caller is always parked by now: a call is
   entered in [pending] just before its caller waits, with no event in
   between. A caller whose node crashed is not resumed ([wake] refuses
   its stale waker). *)
let finish t call =
  Hashtbl.remove t.pending call.xid;
  Sim.Timer.cancel call.probe

let complete t call reply =
  finish t call;
  ignore (Sim.Proc.Waker.wake (Queue.pop call.caller) reply)

let abandon t call outcome =
  finish t call;
  ignore (Sim.Proc.Waker.wake_exn (Queue.pop call.caller) outcome)

(* The peer a packet names is its source: the client of a Locate,
   Request or Enquiry, the server of a Reply or a HEREIS. *)
let handle_packet t (packet : Simnet.Packet.t) =
  let peer = packet.src in
  match packet.payload with
  | Wire.Locate { port; xid } -> (
      match Hashtbl.find t.services port with
      | service when service.active && Sim.Mailbox.has_waiter service.queue
        ->
          send t ~dst:peer (Wire.Here_is { port; xid })
      | _ | exception Not_found -> ())
  | Wire.Request { port; xid; body } -> (
      match Hashtbl.find t.services port with
      | service when service.active && Sim.Mailbox.has_waiter service.queue
        ->
          Hashtbl.replace t.held xid ();
          Sim.Mailbox.send service.queue (xid, peer, body)
      | _ | exception Not_found -> send t ~dst:peer (Wire.Not_here { port; xid }))
  | Wire.Reply { xid; body } -> (
      match Hashtbl.find t.pending xid with
      | call ->
          (* The kernel acknowledges the reply: third packet of the
             3-message Amoeba RPC. *)
          send t ~dst:peer (Wire.Ack { xid });
          complete t call body
      | exception Not_found -> ())
  | Wire.Not_here { xid; _ } -> (
      match Hashtbl.find t.pending xid with
      | call -> abandon t call Bounced
      | exception Not_found -> ())
  | Wire.Enquiry { xid } ->
      (* Answered by the kernel, not by a worker: a server that is
         busy with the request says so at no cost. A fresh incarnation
         holds no xid and stays silent. *)
      if Hashtbl.mem t.held xid then send t ~dst:peer (Wire.Alive { xid })
  | Wire.Alive { xid } -> (
      match Hashtbl.find t.pending xid with
      | call -> call.unanswered <- 0
      | exception Not_found -> ())
  | Wire.Here_is { xid; _ } -> (
      match Hashtbl.find t.locates xid with
      | responders -> responders := peer :: !responders
      | exception Not_found -> ())
  | Wire.Ack _ -> ()
  | _ -> ()

let create ?(max_attempts = 6) net nic =
  let t =
    {
      max_attempts;
      net;
      nic;
      node_id = Sim.Node.id (Simnet.Network.nic_node nic);
      next_xid = 0;
      services = Hashtbl.create 4;
      pending = Hashtbl.create 16;
      held = Hashtbl.create 16;
      locates = Hashtbl.create 4;
      port_cache = Hashtbl.create 4;
    }
  in
  (* The only RPC multicast is Locate, and a transport that has never
     served anything answers every Locate with silence — so until the
     first [serve], the NIC filters RPC multicasts out (unicast replies
     still arrive). For a pure client this removes one delivery event
     per broadcast in the whole run; under a locate storm that is most
     of the event heap. *)
  Simnet.Network.listen nic ~proto:Wire.proto (handle_packet t);
  Simnet.Network.set_multicast_interest nic ~proto:Wire.proto false;
  t

let serve t ~port ?(threads = 2) handler =
  (* First service: start listening to Locate broadcasts. *)
  Simnet.Network.set_multicast_interest t.nic ~proto:Wire.proto true;
  let service =
    match Hashtbl.find t.services port with
    | service ->
        service.active <- true;
        service
    | exception Not_found ->
        let service = { active = true; queue = Sim.Mailbox.create () } in
        Hashtbl.add t.services port service;
        service
  in
  let worker () =
    while service.active do
      let xid, client, body = Sim.Mailbox.recv service.queue in
      let reply = handler ~client body in
      Hashtbl.remove t.held xid;
      send t ~dst:client (Wire.Reply { xid; body = reply })
    done
  in
  let node = Simnet.Network.nic_node t.nic in
  for i = 1 to threads do
    Sim.Proc.boot (Simnet.Network.engine t.net) node
      ~name:(Printf.sprintf "rpc.%s.worker%d" port i)
      worker
  done

let stop_serving t ~port =
  match Hashtbl.find t.services port with
  | service -> service.active <- false
  | exception Not_found -> ()

let cached_servers t ~port =
  match Hashtbl.find t.port_cache port with
  | l -> !l
  | exception Not_found -> []

let invalidate_cache t ~port = Hashtbl.remove t.port_cache port

let drop_cached t ~port server =
  match Hashtbl.find t.port_cache port with
  | l -> l := List.filter (fun s -> s <> server) !l
  | exception Not_found -> ()

let emit t ~name attrs =
  Sim.Engine.emit (Simnet.Network.engine t.net) ~subsystem:"rpc"
    ~node:t.node_id ~name attrs

(* Guard for the per-request emits: the attrs thunk is a closure
   allocated at the call site even when tracing is off. *)
let tracing t = Sim.Engine.tracing (engine t)

(* Broadcast a locate and collect HEREIS answers for [locate_window] ms.
   The cache keeps responders in arrival order; the client always tries
   the first one — the paper's "first server that replied" heuristic. *)
let locate t ~port =
  let xid = fresh_xid t in
  let responders = ref [] in
  Hashtbl.replace t.locates xid responders;
  if tracing t then
    emit t ~name:"locate" (fun () ->
        [ ("port", Sim.Trace.Str port); ("xid", Sim.Trace.Int xid) ]);
  Simnet.Network.multicast t.net t.nic ~proto:Wire.proto
    (Wire.Locate { port; xid });
  Sim.Proc.sleep locate_window;
  Hashtbl.remove t.locates xid;
  let in_arrival_order = List.rev !responders in
  Hashtbl.replace t.port_cache port (ref in_arrival_order);
  if tracing t then
    emit t ~name:"locate.done" (fun () ->
        [
          ("port", Sim.Trace.Str port);
          ("xid", Sim.Trace.Int xid);
          ( "servers",
            Sim.Trace.Str
              (String.concat "," (List.map string_of_int in_arrival_order)) );
        ]);
  in_arrival_order

(* The server to try first: the head of the cached list, located first
   if the cache is empty. *)
let ensure_located t ~port =
  match cached_servers t ~port with
  | server :: _ -> server
  | [] ->
      let rec try_rounds round =
        if round > locate_rounds then
          raise (Rpc_failure (Printf.sprintf "service %s: not located" port));
        match locate t ~port with
        | server :: _ -> server
        | [] ->
            Sim.Proc.sleep locate_backoff;
            try_rounds (round + 1)
      in
      try_rounds 1

(* One tick of pending call [xid]'s enquiry, which runs every
   [enquiry_period]: ask the server whether it still holds the
   request; two unanswered enquiries in a row end the attempt. *)
let enquire t xid =
  match Hashtbl.find t.pending xid with
  | call when call.unanswered >= 2 -> abandon t call Dead
  | call ->
      call.unanswered <- call.unanswered + 1;
      send t ~dst:call.server (Wire.Enquiry { xid })
  | exception Not_found -> ()

(* Attempt [n] of a transaction that began at [started]: send the
   request to the first cached server and park on the call until its
   reply, a bounce or a dead verdict ends it. *)
let rec attempt t ~port body ~started n =
  if n > t.max_attempts then
    raise (Rpc_failure (Printf.sprintf "service %s: no reply" port));
  let server = ensure_located t ~port in
  let xid = fresh_xid t in
  if tracing t then
    emit t ~name:"trans" (fun () ->
        [
          ("port", Sim.Trace.Str port);
          ("xid", Sim.Trace.Int xid);
          ("server", Sim.Trace.Int server);
          ("attempt", Sim.Trace.Int n);
        ]);
  send t ~dst:server (Wire.Request { port; xid; body });
  let call =
    {
      xid;
      server;
      sent = Sim.Engine.now (engine t);
      caller = Queue.create ();
      unanswered = 0;
      probe =
        Sim.Timer.every (engine t) ~period:enquiry_period (fun () ->
            Sim.Engine.attribute (engine t) Tick "rpc.enquiry";
            enquire t xid);
    }
  in
  Hashtbl.replace t.pending xid call;
  match Sim.Proc.wait call.caller with
  | reply ->
      if tracing t then
        emit t ~name:"trans.done" (fun () ->
            [
              ("port", Sim.Trace.Str port);
              ("xid", Sim.Trace.Int xid);
              ("server", Sim.Trace.Int server);
              ("attempts", Sim.Trace.Int n);
              ( "latency_ms",
                Sim.Trace.Float (Sim.Engine.now (engine t) -. started) );
            ]);
      reply
  | exception Bounced ->
      (* NOTHERE: the server was busy; try the next cached one. *)
      emit t ~name:"trans.bounce" (fun () ->
          [
            ("port", Sim.Trace.Str port);
            ("xid", Sim.Trace.Int xid);
            ("server", Sim.Trace.Int server);
          ]);
      drop_cached t ~port server;
      attempt t ~port body ~started (n + 1)
  | exception Dead ->
      (* Two enquiries went unanswered: the server crashed, rebooted
         or is cut off, and it may have executed the request. *)
      emit t ~name:"trans.dead" (fun () ->
          [
            ("port", Sim.Trace.Str port);
            ("xid", Sim.Trace.Int xid);
            ("server", Sim.Trace.Int server);
            ( "waited_ms",
              Sim.Trace.Float (Sim.Engine.now (engine t) -. call.sent) );
          ]);
      drop_cached t ~port server;
      attempt t ~port body ~started (n + 1)

let trans t ~port body =
  attempt t ~port body ~started:(Sim.Engine.now (engine t)) 1
