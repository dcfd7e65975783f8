(** The simulated Ethernet segment.

    Models what the paper's 10 Mbit/s Ethernet + FLIP stack provides:

    - unicast datagrams with configurable latency and jitter;
    - hardware multicast — one packet reaches every listening node in the
      sender's partition (this is why [SendToGroup] costs so few
      messages);
    - {e clean} network partitions: nodes in the same cell communicate,
      nodes in different cells do not, with no in-between;
    - optional uniform packet loss and a per-packet fault filter for
      targeted test interference.

    A node talks to the network through a {!nic} obtained from [attach].
    NICs die with their node incarnation: packets addressed to a crashed
    or restarted-since node are dropped, like frames to a powered-off
    host. *)

type t

type nic

type fault_action = Deliver | Drop | Delay of float

(** Latency parameters, in milliseconds. Delivery takes
    [base + uniform(0, jitter)], or [local] when a node sends to itself
    (loopback, no wire). *)
type latency = { base : float; jitter : float; local : float }

(** [create engine ()] makes an empty network. [latency] defaults to a
    0.7 ms base, up to 0.2 ms jitter and 0.05 ms loopback. [seed] fixes
    the network's own RNG stream instead of splitting it off the
    engine's — a sharded cluster gives each shard's network a derived
    seed so one shard's jitter stream does not depend on how many other
    shards exist. Packet counters ([net.pkt], [net.pkt.<proto>],
    [net.mcast]) go to the engine's registry ({!Sim.Engine.metrics}). *)
val create :
  Sim.Engine.t -> ?latency:latency -> ?rails:int -> ?seed:int64 -> unit -> t

val engine : t -> Sim.Engine.t

(** [attach net node] connects [node] with a fresh NIC for its current
    incarnation, replacing any previous NIC. The NIC is torn down if the
    node crashes. *)
val attach : t -> Sim.Node.t -> nic

val nic_node : nic -> Sim.Node.t

(** [listen nic ~proto handler] makes [nic] receive [proto] packets:
    each one that arrives is passed to [handler] {e inside its delivery
    event}, as a kernel runs a protocol on packet arrival, so a packet
    costs one engine event and no fiber wakeup. The handler must not
    block (it runs outside any fiber); one that needs a thread hands the
    work to a mailbox, as the RPC server's workers do. A second [listen]
    on the same proto replaces the first handler — how a protocol
    endpoint reincarnated on a live node (a member that left a group and
    joins again) takes the packets over from its predecessor. A NIC only
    receives multicasts for protocols it listens to. *)
val listen : nic -> proto:string -> (Packet.t -> unit) -> unit

(** [socket nic ~proto] is a fresh mailbox registered through {!listen}
    for code that wants to receive [proto] packets from a fiber (tests,
    probes). Like [listen], it replaces any earlier handler. *)
val socket : nic -> proto:string -> Packet.t Sim.Mailbox.t

(** [set_multicast_interest nic ~proto interested] programs the NIC's
    multicast filter for [proto], like (de)programming a group MAC
    address on real hardware. A NIC starts interested in every proto it
    listens to; an opted-out NIC still receives {e unicasts} for that
    proto. Filtering happens at send time and is invisible to the
    simulation's RNG stream: the per-receiver loss and jitter draws
    still happen for opted-out receivers, only the (always discarded)
    delivery event is elided. Endpoints that can never act on a
    multicast — e.g. pure RPC clients, which only ever receive unicast
    replies — opt out so a 50-client broadcast storm does not schedule
    50 pointless deliveries per packet. *)
val set_multicast_interest : nic -> proto:string -> bool -> unit

(** [packet nic ~dst ~proto payload] builds the packet [nic]'s node
    would send. *)
val packet : nic -> dst:Packet.dst -> proto:string -> Payload.t -> Packet.t

(** [send_packet net nic packet] transmits a packet built by {!packet}
    for [nic]: a unicast as {!send} does, a multicast as {!multicast}
    does, and nothing at all once [nic]'s node has crashed or
    restarted. Packets are immutable, so a sender whose packet does not
    change between sends (a heartbeat) builds it once and sends it
    again. [send] and [multicast] are [packet], then [send_packet].

    Each receiver's delivery rides in a slot the network reuses: the
    slot owns one pre-built engine event ({!Sim.Engine.event}), is
    filled when the delivery is scheduled and emptied when it runs, so
    a delivery allocates no closure or event, and an idle slot holds no
    packet. *)
val send_packet : t -> nic -> Packet.t -> unit

(** [send net nic ~dst ~proto payload] transmits a unicast packet. It is
    silently dropped when src and dst are in different partition cells,
    when the loss process fires, or when the destination has no live NIC
    or no [proto] listener at delivery time. *)
val send : t -> nic -> dst:int -> proto:string -> Payload.t -> unit

(** [multicast net nic ~proto payload] delivers one packet to every node
    in the sender's partition cell that listens to [proto] — including
    the sender itself. *)
val multicast : t -> nic -> proto:string -> Payload.t -> unit

(** Partition control. [set_partitions net cells] installs clean cells,
    e.g. [[ [1;2]; [3] ]]. Nodes not listed are unreachable by and from
    everyone. [heal] restores full connectivity.

    {b Redundant rails} (the paper's §2 deployment requirement: "all the
    directory servers should be connected by multiple, redundant
    networks"): a network can be created with [rails] physical segments.
    Each packet is carried by any rail that currently connects source
    and destination — one healthy rail suffices, so cutting or
    partitioning a single rail is invisible to the protocols above,
    exactly as FLIP promised. [set_partitions] cuts {e every} rail the
    same way (a true network partition); [set_rail_partitions] and
    [fail_rail] damage one rail only. *)

val set_partitions : t -> int list list -> unit

(** [set_rail_partitions net ~rail cells] partitions one rail only. *)
val set_rail_partitions : t -> rail:int -> int list list -> unit

(** [fail_rail net ~rail] takes a whole rail down ([restore_rail] undoes). *)
val fail_rail : t -> rail:int -> unit

val restore_rail : t -> rail:int -> unit

val heal : t -> unit

val reachable : t -> int -> int -> bool

(** Uniform packet loss probability (applied to unicasts and, per
    receiver, to multicasts). *)
val set_loss : t -> float -> unit

(** Test hook: inspect every packet about to be sent and decide its fate.
    Runs before loss and partition checks. *)
val set_fault_filter : t -> (Packet.t -> fault_action) option -> unit
