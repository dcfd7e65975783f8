(** Client-side shard routing: the route every {!Client} takes. A
    lone group is the one-shard case; with M > 1 the deployment is a
    "cluster of clusters".

    The namespace is hash partitioned over M independent replica
    groups: a directory lives on the shard its placement name hashes
    to, and its capabilities carry that shard's service port, so
    routing an existing capability is a port lookup. Each shard keeps
    its own locate / port-cache state inside the shared transport
    (one cache per port), so a view change on one shard never
    invalidates another shard's cache. A request sent to the wrong
    group returns {!Wire.Wrong_shard} and is re-routed once to the
    owning shard — the shard-level NOTHERE bounce. *)

type t

(** [make transports ~ports] — [transports.(k)] reaches shard [k]'s
    network and [ports.(k)] is its service port. *)
val make : Rpc.Transport.t array -> ports:string array -> t

val shards : t -> int

val port : t -> shard:int -> string

val transport : t -> shard:int -> Rpc.Transport.t

(** The partition map: deterministic (FNV-1a, folded to 30 bits) hash
    of a placement name. Stable across runs, hosts and M — the same
    name maps to the same shard for a given shard count. *)
val shard_of_name : shards:int -> string -> int

(** Which shard minted this capability (by service port), if any. *)
val shard_of_cap : t -> Capability.t -> int option

(** [call t ~shard request] sends to shard [shard]'s group, following
    one {!Wire.Wrong_shard} bounce to the capability's owner. A
    {!Wire.Busy} refusal (a name reserved by a cross-shard move) is
    retried with doubling pauses (5 ms up to 160 ms) until the
    reservation clears, so it never reaches the caller; after 10 s of
    refusals it raises {!Wire.Unavailable}. Raises {!Wire.Dir_error}
    like {!Client}'s calls. *)
val call : t -> shard:int -> Wire.request -> Wire.reply

(** Coordinator-unique transaction id for a cross-shard move. *)
val fresh_txid : t -> int

(** Bump the [dirsvc.cross_shard] counter in the engine's registry. *)
val count_cross : t -> unit
