(** Deployment builder: wires nodes, disks, Bullet servers, NVRAM boards
    and directory servers into the four configurations the paper
    compares, and provides the fault-injection controls the tests,
    examples and benches drive.

    Per Fig. 3, a group deployment allocates one machine pair per
    replica: a directory server node and a Bullet server node sharing
    one disk (the object table and commit block live in the first
    blocks; Bullet owns the rest). *)

type flavor =
  | Group_disk  (** the paper's triplicated group service (§3) *)
  | Group_nvram  (** same, committing to NVRAM (§4.1) *)
  | Rpc_pair  (** the previous duplicated RPC service (§1) *)
  | Nfs_single  (** the SunOS/NFS comparator (§4.1) *)

type t

(** [create flavor] builds and boots a deployment. [servers] is the
    replica count for the group flavours (default 3; the paper notes the
    protocol is unchanged for more). With [params.shards] > 1 (group
    flavours only) the deployment becomes a "cluster of clusters":
    [shards] independent replica groups of [servers] machines each, a
    hash partition of the namespace across them, and a backbone
    network for cross-shard transaction termination. Every shard count
    is built the same way: shard k's network draws from its own seed,
    derived from [seed]. *)
val create :
  ?seed:int64 -> ?params:Params.t -> ?servers:int -> ?rails:int -> flavor -> t
  [@@ocaml.doc
    "[rails] builds the deployment on that many redundant network\n\
    \ segments (the paper's \"multiple, redundant networks\"\n\
    \ requirement); default 1."]

val flavor : t -> flavor

val engine : t -> Sim.Engine.t

val net : t -> Simnet.Network.t

(** The network linking the shards' servers (M > 1 only): it carries
    cross-shard forwarded commits and termination queries. *)
val backbone : t -> Simnet.Network.t option

(** The engine's registry ({!Sim.Engine.metrics}): every network,
    device, group member and server of the cluster counts into it. *)
val metrics : t -> Sim.Metrics.t

val params : t -> Params.t

(** Replica count of one group (shard). *)
val n_servers : t -> int

(** Number of replica groups (1 unless [params.shards] > 1). *)
val shards : t -> int

(** Directory servers across every shard ([shards * n_servers]). *)
val total_servers : t -> int

(** Run the simulation clock forward (absolute target time). *)
val run_until : t -> float -> unit

(** [client t] creates a fresh client machine with one transport per
    shard (separate locate caches) behind a {!Shard_router}.
    [max_attempts] bounds the client kernel's request attempts per
    transaction (tests that must not fail over to another server pass
    [~max_attempts:1]). *)
val client : ?max_attempts:int -> t -> Client.t

(** Fault injection. Server ids are 1-based; [_in] variants address a
    specific shard (shard 0 = the plain functions). *)

(** Crash the directory server process/machine (its Bullet server and
    disk survive). *)
val crash_server : t -> int -> unit

(** Crash and immediately reboot the directory server from its
    persistent state. *)
val reboot_server : t -> int -> unit

(** Restart a previously crashed server. *)
val restart_server : t -> int -> unit

val crash_server_in : t -> shard:int -> int -> unit

val restart_server_in : t -> shard:int -> int -> unit

(** Introspection. *)

val group_server : t -> int -> Group_server.t

val group_server_in : t -> shard:int -> int -> Group_server.t

val store_snapshots : t -> (int * Directory.store) list

val store_snapshots_in : t -> shard:int -> (int * Directory.store) list

(** For group flavours: ids of servers currently serving (shard 0). *)
val serving_servers : t -> int list

val serving_servers_in : t -> shard:int -> int list

val device : t -> int -> Storage.Block_device.t

(** The device holding server [i]'s commit block (shard 0): its NVRAM
    board under [Group_nvram], else its disk. *)
val commit_device : t -> int -> Storage.Block_device.t

(** Wait (in simulated time) until at least [count] group servers are
    serving — counted across every shard — or [timeout] elapses;
    returns whether it happened. Runs the engine in 20 ms chunks and
    checks between them, so the clock stops on a chunk boundary: the
    first one at or past the transition or the deadline. *)
val await_serving : ?timeout:float -> t -> count:int -> bool

(** Wait until the deployment serves clients: for the group flavours,
    {!await_serving} on every server of every shard; the RPC and NFS
    baselines get 100 ms of simulated time to boot and answer [true].
    The one ready-wait every driver uses. *)
val await_ready : ?timeout:float -> t -> bool

(** The client-facing service port of this deployment. *)
val port : t -> string

(** Bullet port of server [i]'s file server (the tmp-file scenario uses
    it as the paper's file service). Group and RPC flavours only. *)
val bullet_port : t -> int -> string
