type fault_action = Deliver | Drop | Delay of float

type latency = { base : float; jitter : float; local : float }

let default_latency = { base = 0.7; jitter = 0.2; local = 0.05 }

type nic = {
  node : Sim.Node.t;
  incarnation : int;
  (* proto -> handler, called inside the delivery event *)
  handlers : (string, Packet.t -> unit) Hashtbl.t;
  (* Protos whose multicasts this NIC filters out, like a real NIC
     without the group's MAC address programmed. Opted-out receivers
     still participate in the per-receiver loss/jitter draws (the RNG
     stream is part of the same-seed contract); only the delivery event
     is elided, because the host would discard the packet anyway. *)
  mcast_opt_out : (string, unit) Hashtbl.t;
}

type rail = {
  mutable cells : int list list option; (* None = fully connected *)
  mutable up : bool;
}

(* A delivery in flight. A slot owns its one engine event, whose
   closure reads the slot, so scheduling a delivery fills a free slot
   and pushes that event again: a receiver costs no closure and no
   event of its own. The slot is cleared before its handler runs and
   goes back on the free stack, so it holds no packet while idle. *)
type slot = {
  mutable packet : Packet.t; (* [no_packet] while idle *)
  mutable dst : int;
  mutable event : Sim.Engine.event; (* set once, at creation *)
}

let no_packet =
  { Packet.src = -1; dst = Multicast; proto = ""; payload = Payload.Opaque "" }

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  (* Pre-resolved packet counters in the engine's registry, so no key
     ["net.pkt." ^ proto] is built or hashed per packet: protos are few,
     so each is interned once and found again by a small-string table
     probe with no allocation. *)
  pkt : Sim.Metrics.handle;
  mcast_pkt : Sim.Metrics.handle;
  by_proto : (string, Sim.Metrics.handle) Hashtbl.t;
  latency : latency;
  nics : (int, nic) Hashtbl.t; (* node id -> live NIC *)
  (* Receivers in ascending node-id order — the multicast fan-out order,
     which fixes the per-receiver RNG draws for a given seed. Rebuilt
     lazily after attach/crash ([None] = stale); multicast is the
     protocol hot path and must not sort the NIC table per send. *)
  mutable receivers : (int * nic) array option;
  rail_states : rail array;
  mutable loss : float;
  mutable fault_filter : (Packet.t -> fault_action) option;
  (* Idle delivery slots: a stack in [free.(0 .. n_free - 1)]. Slots are
     interchangeable; which one carries a delivery changes nothing. *)
  mutable free : slot array;
  mutable n_free : int;
}

let create engine ?(latency = default_latency) ?(rails = 1) ?seed () =
  if rails < 1 then invalid_arg "Network.create: at least one rail";
  let metrics = Sim.Engine.metrics engine in
  {
    engine;
    rng =
      (match seed with
      | None -> Sim.Rng.split (Sim.Engine.rng engine)
      | Some s -> Sim.Rng.create s);
    pkt = Sim.Metrics.counter metrics "net.pkt";
    mcast_pkt = Sim.Metrics.counter metrics "net.mcast";
    by_proto = Hashtbl.create 8;
    latency;
    nics = Hashtbl.create 16;
    receivers = None;
    rail_states = Array.init rails (fun _ -> { cells = None; up = true });
    loss = 0.0;
    fault_filter = None;
    free = [||];
    n_free = 0;
  }

let engine t = t.engine

let attach t node =
  let nic =
    {
      node;
      incarnation = Sim.Node.incarnation node;
      handlers = Hashtbl.create 8;
      mcast_opt_out = Hashtbl.create 4;
    }
  in
  Hashtbl.replace t.nics (Sim.Node.id node) nic;
  t.receivers <- None;
  Sim.Node.on_crash node (fun () ->
      match Hashtbl.find_opt t.nics (Sim.Node.id node) with
      | Some current when current == nic ->
          Hashtbl.remove t.nics (Sim.Node.id node);
          t.receivers <- None
      | Some _ | None -> ());
  nic

let nic_node nic = nic.node

let listen nic ~proto handler = Hashtbl.replace nic.handlers proto handler

let socket nic ~proto =
  let mbox = Sim.Mailbox.create () in
  listen nic ~proto (Sim.Mailbox.send mbox);
  mbox

let set_multicast_interest nic ~proto interested =
  if interested then Hashtbl.remove nic.mcast_opt_out proto
  else Hashtbl.replace nic.mcast_opt_out proto ()

let multicast_interested nic ~proto = not (Hashtbl.mem nic.mcast_opt_out proto)

let set_partitions t cells =
  Array.iter (fun rail -> rail.cells <- Some cells) t.rail_states

let set_rail_partitions t ~rail cells =
  t.rail_states.(rail).cells <- Some cells

let fail_rail t ~rail = t.rail_states.(rail).up <- false

let restore_rail t ~rail = t.rail_states.(rail).up <- true

let heal t =
  Array.iter
    (fun rail ->
      rail.cells <- None;
      rail.up <- true)
    t.rail_states

let rail_reachable rail a b =
  rail.up
  &&
  match rail.cells with
  | None -> true
  | Some cells ->
      let cell_of node = List.find_opt (fun cell -> List.mem node cell) cells in
      (match (cell_of a, cell_of b) with
      | Some ca, Some cb -> ca == cb
      | _ -> false)

(* One healthy rail between two hosts is enough: FLIP routes around the
   damage without the layers above noticing. A plain recursion over the
   rails: every delivery asks, so it allocates no closure. *)
let rec any_rail_reachable rails i a b =
  i < Array.length rails
  && (rail_reachable rails.(i) a b || any_rail_reachable rails (i + 1) a b)

let reachable t a b = a = b || any_rail_reachable t.rail_states 0 a b

let set_loss t p = t.loss <- p

let set_fault_filter t f = t.fault_filter <- f

(* The per-packet lookups below use [Hashtbl.find] and catch
   [Not_found] rather than [find_opt]: a hit then allocates no [Some]. *)
let nic_is_live t nic =
  Sim.Node.is_alive nic.node
  && Sim.Node.incarnation nic.node = nic.incarnation
  &&
  match Hashtbl.find t.nics (Sim.Node.id nic.node) with
  | current -> current == nic
  | exception Not_found -> false

let proto_handle t proto =
  match Hashtbl.find t.by_proto proto with
  | h -> h
  | exception Not_found ->
      let h =
        Sim.Metrics.counter (Sim.Engine.metrics t.engine) ("net.pkt." ^ proto)
      in
      Hashtbl.add t.by_proto proto h;
      h

(* One packet on the wire: the total and the per-proto counter. *)
let count_packet t proto =
  Sim.Metrics.incr_handle t.pkt;
  Sim.Metrics.incr_handle (proto_handle t proto)

(* The jitter is [Rng.uniform ~lo:0.0 ~hi:jitter] with its formula
   spelled out, so the same draw gives the same bits: passing [jitter]
   out of the flat latency record would box it on every packet. *)
let[@inline] delivery_delay t ~src ~dst =
  if src = dst then t.latency.local
  else
    let jitter = t.latency.jitter in
    t.latency.base +. (0.0 +. ((jitter -. 0.0) *. Sim.Rng.float t.rng))

(* Hand [packet] to [dst]'s handler: re-checks liveness, reachability
   and the listener at delivery time, as a real wire + NIC would. The
   handler runs inside the delivery event. *)
let deliver t packet dst =
  if Sim.Engine.profiling t.engine then
    Sim.Engine.attribute t.engine Sim.Engine.Deliver
      (Payload.constructor packet.Packet.payload);
  if reachable t packet.Packet.src dst then
    match Hashtbl.find t.nics dst with
    | exception Not_found -> ()
    | nic -> (
        if nic_is_live t nic then
          match Hashtbl.find nic.handlers packet.proto with
          | handler -> handler packet
          | exception Not_found -> ())

let release t slot =
  if t.n_free = Array.length t.free then begin
    let free = Array.make (max 8 (2 * t.n_free)) slot in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

(* The slot's event: empty the slot and free it first, so the handler
   can send (and reuse it) and the slot keeps no packet alive. *)
let fire t slot =
  let packet = slot.packet and dst = slot.dst in
  slot.packet <- no_packet;
  release t slot;
  deliver t packet dst

let new_slot t =
  let slot = { packet = no_packet; dst = -1; event = Sim.Engine.event ignore } in
  slot.event <- Sim.Engine.event (fun () -> fire t slot);
  slot

(* Schedule [packet]'s delivery to [dst] after [delay] in a free slot.
   The engine event is the slot's own, pushed at the same instant and
   seq a fresh one would take. *)
let[@inline] deliver_later t packet ~dst ~delay =
  let slot =
    if t.n_free = 0 then new_slot t
    else begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
  in
  slot.packet <- packet;
  slot.dst <- dst;
  Sim.Engine.schedule_event t.engine ~delay slot.event

let apply_fault_filter t packet =
  match t.fault_filter with None -> Deliver | Some f -> f packet

let[@inline] lost t ~src ~dst =
  (* Loopback never touches the wire, so it cannot be lost. *)
  src <> dst && Sim.Rng.bool t.rng ~p:t.loss

let transmit t packet ~dst ~extra_delay =
  if reachable t packet.Packet.src dst && not (lost t ~src:packet.Packet.src ~dst)
  then begin
    let delay = delivery_delay t ~src:packet.src ~dst +. extra_delay in
    deliver_later t packet ~dst ~delay
  end

(* The cached fan-out set: every live NIC, ascending node id, so a
   multicast's deliveries are scheduled in node-id order and same-seed
   runs keep byte-identical traces. *)
let receiver_array t =
  match t.receivers with
  | Some receivers -> receivers
  | None ->
      let receivers =
        Hashtbl.fold (fun dst nic acc -> (dst, nic) :: acc) t.nics []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> Array.of_list
      in
      t.receivers <- Some receivers;
      receivers

let send_unicast t packet dst =
  (* The attrs thunk is a closure allocated at the call site even
     when tracing is off, so an untraced packet skips it. *)
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine ~subsystem:"net" ~node:packet.Packet.src ~name:"send"
      (fun () ->
        [
          ("dst", Sim.Trace.Int dst);
          ("proto", Sim.Trace.Str packet.proto);
          ("payload", Sim.Trace.Str (Payload.to_string packet.payload));
        ]);
  count_packet t packet.proto;
  match apply_fault_filter t packet with
  | Drop -> ()
  | Deliver -> transmit t packet ~dst ~extra_delay:0.0
  | Delay d -> transmit t packet ~dst ~extra_delay:d

let send_multicast t packet =
  let src = packet.Packet.src and proto = packet.proto in
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine ~subsystem:"net" ~node:src ~name:"mcast" (fun () ->
        [
          ("proto", Sim.Trace.Str proto);
          ("payload", Sim.Trace.Str (Payload.to_string packet.payload));
        ]);
  (* Ethernet multicast: one packet on the wire regardless of the
     number of receivers — this is what makes SendToGroup cheap. *)
  count_packet t proto;
  Sim.Metrics.incr_handle t.mcast_pkt;
  match apply_fault_filter t packet with
  | Drop -> ()
  | (Deliver | Delay _) as action ->
      let extra_delay = match action with Delay d -> d | Deliver | Drop -> 0.0 in
      (* Visit receivers in node-id order so the per-receiver jitter
         draws are deterministic for a given seed. A loop, not an
         iterated closure: the fan-out allocates only the deliveries. *)
      let receivers = receiver_array t in
      for i = 0 to Array.length receivers - 1 do
        let dst, nic = receivers.(i) in
        if Hashtbl.mem nic.handlers proto then
          if not (lost t ~src ~dst) then begin
            (* The jitter draw happens for every reachable receiver,
               opted-out or not: skipping it would shift the RNG
               stream and change every later delivery in the run. *)
            let delay = delivery_delay t ~src ~dst +. extra_delay in
            if multicast_interested nic ~proto then
              deliver_later t packet ~dst ~delay
          end
      done

let send_packet t nic packet =
  if nic_is_live t nic then
    match packet.Packet.dst with
    | Unicast dst -> send_unicast t packet dst
    | Multicast -> send_multicast t packet

let packet nic ~dst ~proto payload = { Packet.src = Sim.Node.id nic.node; dst; proto; payload }

let send t nic ~dst ~proto payload = send_packet t nic (packet nic ~dst:(Unicast dst) ~proto payload)

let multicast t nic ~proto payload = send_packet t nic (packet nic ~dst:Multicast ~proto payload)
