(** The calibrated cost model.

    All latency constants live here so every experiment states its
    assumptions in one place. Values are chosen to match the paper's
    hardware: Sun3/60-class machines on 10 Mbit/s Ethernet with Wren IV
    SCSI disks and a 24 KB NVRAM board. EXPERIMENTS.md records how the
    calibrated model reproduces each figure. *)

type t = {
  net_latency : Simnet.Network.latency;
      (** ~0.7 ms per packet + jitter; loopback 0.05 ms *)
  disk_write_ms : float;  (** random small write incl. seek (Wren IV) *)
  disk_read_ms : float;
  intentions_write_ms : float;
      (** the RPC service's intentions-log append: sequential, cheaper
          than a random write *)
  nvram_write_ms : float;
      (** one write to the VME NVRAM board, which holds the commit block
          and its log *)
  nvram_capacity : int;  (** bytes; the paper's board held 24 KB *)
  cpu_read_ms : float;
      (** directory server processing per read request (the paper's
          ≈3 ms, which bounds a server at ≈333 lookups/s) *)
  cpu_write_ms : float;  (** directory server processing per update *)
  bullet_cpu_ms : float;  (** Bullet server processing per request *)
  nfs_cpu_read_ms : float;  (** SunOS/NFS lookup processing (≈6 ms total) *)
  nfs_cpu_write_ms : float;
  server_threads : int;  (** RPC worker threads per directory server *)
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
  batch_window_ms : float;
      (** how long the sequencer holds a partial batch (ms) *)
  batch_persist_idle_ms : float;
      (** how long a server with a non-empty commit-block log (group
          commit on disk, or any NVRAM server) waits for more ordered
          updates before applying the log to the per-directory disk
          blocks in the background *)
  disk_blocks : int;  (** geometry of each server machine's disk *)
  disk_block_size : int;
  admin_slots : int;  (** object-table slots (max directories) *)
  shards : int;
      (** number of independent replica groups the namespace is hash
          partitioned over: 1 (the default) is the single-group service *)
  xshard_timeout_ms : float;
      (** cross-shard commit: how long a participant holds a staged
          prepare before asking around / presuming abort *)
}

val default : t

(** [default] with every disk operation scaled by a factor — the
    disk-bottleneck ablation. *)
val with_disk_scale : t -> float -> t

(** The group-layer configuration of one replica group of [servers]
    directory servers: resilience r = [servers] - 1 unless overridden,
    plus the dissemination method and the batching knobs. *)
val group_config : t -> servers:int -> Group.Types.config
