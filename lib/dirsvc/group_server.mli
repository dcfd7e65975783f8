(** The group directory server: the paper's core contribution (§3).

    Triplicated (n is configurable), actively replicated via the totally
    ordered group; accessible-copies consistency with a majority rule;
    recovery via Skeen's last-to-fail algorithm over commit-block
    configuration vectors, including the paper's §3.2 improvement.

    Per Fig. 5:
    {ul
    {- {e server threads} (RPC workers) refuse every request without a
       majority; serve reads locally after making sure all buffered
       group messages have been applied (read-your-writes across
       replicas); broadcast writes with [SendToGroup] (r = n-1) and wait
       until the local group thread has executed them;}
    {- the {e group thread} applies updates in total order: new directory
       version into a Bullet file, then the object-table entry — commit —
       and retires the old file off the critical path; directory
       deletions advance the sequence number in the commit block;}
    {- on a group failure it calls ResetGroup; with a majority it updates
       the configuration vector and continues, otherwise it runs the
       recovery protocol of Fig. 6. That protocol is {!Recovery.step}, a
       pure transition, with {!Skeen.decide} for the last-to-fail rule;
       the group thread carries out its actions in order (leave, back
       off, join or create, poll, exchange, fetch, reinstall, serve) and
       feeds each blocking one's outcome back. The one field it writes
       says whether the server serves, its recovering flag and Skeen's
       [stayed_up]. While the server recovers, its commit-block writes
       keep the configuration vector on disk.}}

    Every update goes through one stage-and-flush pipeline. With
    [params.batch_max] = 1 each update is flushed on its own before its
    writer is woken, exactly as above; with larger batches a whole
    delivered burst shares one commit-block write that carries the
    updates in the commit block's log, and directory blocks are
    rewritten when the group goes quiet or the log outgrows the block.

    With an NVRAM board attached, the commit block lives on the board
    and every flush goes through its log, one board write per flush; the
    same idle or overflow rule applies the log to disk (§4.1). On either
    medium a delete annihilates an append still in the log: neither
    reaches a directory block, but the cancel is made durable by the
    burst's own commit-block write before any writer is woken, so the
    pair costs two commit-block writes and no directory-block write.

    The client request path (dispatch, op timing, reply mapping) is
    {!Dir_front}; the Bullet-file directory image is {!Dir_image}. *)

type t

(** [start params net ~server_id ~peers ~node ~device ~bullet_port ~gname
    ~port ()] boots a directory server (fresh or after a crash: all
    persistent state is re-read from [device] — and [nvram] if given).
    [nvram] is the server's NVRAM board, a one-block device that then
    holds the commit block in place of [device]'s block 0.
    [peers] lists every configured directory server as
    [(server_id, node_id)], including this one. The returned handle is
    ready immediately; the server starts serving once recovery
    establishes a safe majority.

    [shard] marks a sharded deployment: the server bounces requests for
    capabilities minted by other shards with {!Wire.Wrong_shard},
    labels its op histograms with the shard index, accepts cross-shard
    prepare / commit / abort records through its total order, and runs
    an abandonment resolver. [xnet] is the inter-shard backbone; on it
    (port ["xs@"^port]) the server takes the cross-shard records a peer
    shard sends, prepares, decisions, forwarded commits and aborts, and
    orders each through its own group. Both are absent in a
    single-group deployment, which has no other shard to bounce to or
    move rows with. *)
val start :
  params:Params.t ->
  ?nvram:Storage.Block_device.t ->
  ?shard:int ->
  ?xnet:Simnet.Network.t ->
  Simnet.Network.t ->
  server_id:int ->
  peers:(int * int) list ->
  node:Sim.Node.t ->
  device:Storage.Block_device.t ->
  bullet_port:string ->
  gname:string ->
  port:string ->
  unit ->
  t

val serving : t -> bool

(** Register (or clear) a callback run synchronously each time the
    server transitions to serving, at the exact simulated time of the
    transition. Its one caller is the benchmark's [rejoin_ms] timer;
    a driver that waits for serving polls {!serving} (see
    [Cluster.await_serving]). *)
val set_serving_watch : t -> (unit -> unit) option -> unit

(** Highest update sequence number applied. *)
val useq : t -> int

(** Snapshot of the in-core store (tests and the consistency checker). *)
val store_snapshot : t -> Directory.store

(** One successfully applied update, attributed to the initiating
    server and its request uid — the unit of the exactly-once check. *)
type applied = {
  a_useq : int;
  a_origin : int;  (** initiating server's node id *)
  a_uid : int;
      (** [boot * 1_000_000_000 + n]: the server's boot count (kept in
          its commit block) and the n-th update it initiated in that
          boot, so a uid never repeats across reboots *)
  a_op : Directory.op;
}

(** Updates this server applied itself, oldest first — empty again after
    a state-transfer recovery (the fetched prefix was applied
    elsewhere). The consistency checker replays it through the pure
    semantics and asserts each (origin, uid) appears at most once. *)
val applied_log : t -> applied list

(** Administrator's escape hatch (paper §3.1: "there is an escape for
    system administrators in case two servers lose their data forever").
    Forces this server's next recovery round to skip the last-to-fail
    containment check and recover from the best data currently
    reachable — data loss is then possible and the operator owns it. *)
val force_recover : t -> unit
