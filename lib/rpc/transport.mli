(** Per-node RPC endpoint: client transactions and server registration.

    One transport per node multiplexes every service the node offers and
    every outstanding client call, mirroring the Amoeba kernel's RPC
    machinery. *)

type t

(** Raised by {!trans} when a transaction cannot be completed: the
    service was never located, or every attempt was bounced or its
    server found dead. *)
exception Rpc_failure of string

(** How often (ms) a client asks the server of an outstanding
    transaction whether it still holds the request. Two consecutive
    unanswered enquiries end the attempt. *)
val enquiry_period : float

(** [create net nic] builds a transport that handles RPC packets as
    they arrive on [nic], like the Amoeba kernel, with no dispatcher
    thread. Call once per node incarnation. A transaction makes at most
    [max_attempts] (default 6) request attempts before {!trans} gives
    up. A locate broadcast collects HEREIS answers for 2 ms and is
    repeated after 5 ms, up to 4 broadcasts. *)
val create : ?max_attempts:int -> Simnet.Network.t -> Simnet.Network.nic -> t

val node_id : t -> int

(** The node this transport runs on. *)
val node : t -> Sim.Node.t

val engine : t -> Sim.Engine.t

(** The NIC this transport uses — other protocol layers on the same node
    (e.g. group communication) listen on the same NIC. *)
val nic : t -> Simnet.Network.nic

(** Server side. [serve t ~port ~threads handler] registers a service and
    starts [threads] worker fibers. A worker picks up one request at a
    time; a request arriving while no worker is blocked receiving is
    bounced with NOTHERE. The handler receives the client node id and the
    request body and returns the reply body; it may block (RPC, disk,
    CPU). *)
val serve :
  t ->
  port:string ->
  ?threads:int ->
  (client:int -> Simnet.Payload.t -> Simnet.Payload.t) ->
  unit

(** [stop_serving t ~port] deregisters the service: subsequent locates are
    not answered and requests are bounced. Worker fibers drain and park. *)
val stop_serving : t -> port:string -> unit

(** Client side. [trans t ~port body] performs one transaction: locate
    (cached), send request, await reply. While the reply is outstanding
    the transport sends the server an enquiry every {!enquiry_period}
    ms; the server's kernel answers while it holds the request. An
    attempt ends in one of three ways: the reply arrives, the server
    bounces it (NOTHERE, [rpc]/[trans.bounce]), or two consecutive
    enquiries go unanswered ([trans.dead]: the server crashed, rebooted
    or is cut off, so it is abandoned within 600 ms). There is no
    deadline: a server that keeps answering enquiries is waited for
    however long its handler takes. After a dead verdict the server
    leaves the port cache and the next attempt goes to another one; the
    abandoned server may still have executed the request. A reply
    within 200 ms costs no enquiry, so an RPC stays 3 packets. Raises
    {!Rpc_failure} when the service is unreachable. Must run inside a
    fiber on the transport's node. *)
val trans : t -> port:string -> Simnet.Payload.t -> Simnet.Payload.t

(** The cached server list for [port], in first-replied-first order
    (tests observe the balancing behaviour through this). *)
val cached_servers : t -> port:string -> int list

(** Drop the cache entry for [port] (e.g. after a known failover). *)
val invalidate_cache : t -> port:string -> unit
