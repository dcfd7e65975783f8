(** Simulated block device (one Wren-IV-class disk per server machine).

    The device serialises operations like a single disk arm: each request
    completes [read_ms]/[write_ms] after the previous one finishes. The
    contents are {e persistent}: the device object outlives node crashes,
    so a restarted server recovers from what was actually written —
    including the case where the issuing fiber died while the write was
    in flight (the controller still completes it, like a real disk).

    Writes are atomic per block, which is the paper's implicit assumption
    for the commit block.

    Ops complete in the order they were submitted (the arm's schedule
    never lets a later op finish first), so a device keeps one queue of
    pending ops and one of waiting fibers, and completes them through
    one engine event built at {!create}: an op costs its queue entry
    and its fiber's waker. [read] and [write] block the calling fiber
    and must be called from one.

    Every device counts into its engine's registry
    ({!Sim.Engine.metrics}): the [disk.read] / [disk.write] counters and
    the [disk.read_ms] / [disk.write_ms] histograms labelled by device
    name. *)

type t

val create :
  Sim.Engine.t ->
  ?name:string ->
  blocks:int ->
  block_size:int ->
  read_ms:float ->
  write_ms:float ->
  unit ->
  t

val name : t -> string

val blocks : t -> int

val block_size : t -> int

(** [read t i] blocks the calling fiber for the disk latency and returns
    a copy of block [i]. *)
val read : t -> int -> bytes

(** [write t i data] rejects [data] against the block size and commits
    it atomically. Raises [Invalid_argument] if [data] exceeds the block
    size or [i] is out of range.

    Ownership: the device keeps [data] itself as the block's contents,
    not a copy, so the caller hands it over and must never mutate it
    afterwards. Every writer passes bytes made for this one write (a
    fresh {!Codec.Writer.encode_bytes} result or a new [Bytes.t]); a
    buffer that is reused, such as a codec's scratch writer, must be
    copied out before it is written. *)
val write : t -> int -> bytes -> unit

(** Instant, latency-free read used only at boot-time recovery scans
    (the paper never charges recovery I/O against operation latency). *)
val peek : t -> int -> bytes

(** Number of completed write operations (for the disk-ops-per-update
    analysis). *)
val writes_completed : t -> int
