(** The calibrated cost model.

    All latency constants live here so every experiment states its
    assumptions in one place. Values are chosen to match the paper's
    hardware: Sun3/60-class machines on 10 Mbit/s Ethernet with Wren IV
    SCSI disks and a 24 KB NVRAM board. EXPERIMENTS.md records how the
    calibrated model reproduces each figure. The record holds what an
    experiment varies; the constants below it hold the rest. Two costs
    are the defaults of the layer that models them: the network's
    per-packet latency ({!Simnet.Network.create}: ~0.7 ms + jitter,
    loopback 0.05 ms) and the Bullet server's 0.4 ms per request. *)

type t = {
  disk_write_ms : float;  (** random small write incl. seek (Wren IV) *)
  disk_read_ms : float;
  intentions_write_ms : float;
      (** the RPC service's intentions-log append: sequential, cheaper
          than a random write *)
  nvram_capacity : int;  (** bytes; the paper's board held 24 KB *)
  resilience_override : int option;
      (** force the group resilience degree r instead of the default
          n-1 (the r-vs-performance ablation; the paper's §1 trade-off) *)
  dissemination : Group.Types.dissemination;
      (** group dissemination method (PB forwards bodies through the
          sequencer; BB broadcasts them from the sender) *)
  batch_max : int;
      (** sequencer-side batching degree passed to the group layer, and
          the servers' durability policy: 1 (the default) commits every
          update in place before replying, as the paper does; above 1 a
          delivered batch shares one commit-block write *)
  admin_slots : int;  (** object-table slots (max directories) *)
  shards : int;
      (** number of independent replica groups the namespace is hash
          partitioned over: 1 (the default) is the single-group service *)
}

val default : t

(** One write to the VME NVRAM board, which holds the commit block and
    its log (ms; reads cost the same). *)
val nvram_write_ms : float

(** Directory server processing per read request (ms): the paper's
    ≈3 ms, which bounds a server at ≈333 lookups/s. *)
val cpu_read_ms : float

(** Directory server processing per update (ms). *)
val cpu_write_ms : float

(** SunOS/NFS lookup processing (ms; ≈6 ms in total with the network). *)
val nfs_cpu_read_ms : float

val nfs_cpu_write_ms : float

(** RPC worker threads per directory server. *)
val server_threads : int

(** How long a server with a non-empty commit-block log (group commit on
    disk, or any NVRAM server) waits for more ordered updates before
    applying the log to the per-directory disk blocks in the background
    (ms). *)
val batch_persist_idle_ms : float

(** Geometry of each server machine's disk. *)
val disk_blocks : int

val disk_block_size : int

(** Cross-shard move: how long a destination holds a staged prepare
    before its resolver re-sends the source's decision (ms). It times a
    re-send only and decides nothing: the source's ordered decision
    ends every move. *)
val xshard_timeout_ms : float

(** [default] with every disk operation scaled by a factor — the
    disk-bottleneck ablation. *)
val with_disk_scale : t -> float -> t

(** The group-layer configuration of one replica group of [servers]
    directory servers: resilience r = [servers] - 1 unless overridden,
    plus the dissemination method and the batching degree. *)
val group_config : t -> servers:int -> Group.Types.config
