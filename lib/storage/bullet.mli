(** The Bullet file server: immutable whole files, kept in core, committed
    to disk on creation (van Renesse et al., "The Design of a
    High-Performance File Server").

    Properties that matter for the directory service built on top:

    {ul
    {- files are {e immutable}: an update to a directory writes a new
       Bullet file and retires the old one;}
    {- [create] returns only after the file is committed to disk. An
       inode slot is one whole disk block, and a file of up to
       [block_size - 64] bytes (a typical directory) is {e immediate}:
       the data lives in its inode block, so creation costs exactly one
       disk write — which is what makes a group-service update cost two
       disk operations in the paper's §3.1 analysis;}
    {- reads are served from core (no disk I/O), like the paper's cached
       directory lookups;}
    {- deletion retires the file in core immediately; inode tombstones
       are flushed lazily, and mostly covered for free by the next create
       reusing the slot, keeping retirement off the update critical path.
       A larger file's data blocks are freed once its tombstone is on
       disk;}
    {- a restarted server recovers its files by scanning the inode
       region, so only un-committed creations are lost in a crash.}}

    The server answers over RPC on [port_of node_id]. *)

exception Error of string

type t

(** Rights bits in file capabilities. *)

val right_read : Capability.rights

val right_destroy : Capability.rights

val port_of : int -> string

(** [start net transport ~device ~first_block ~region_blocks ()] boots a
    Bullet server on [transport]'s node, owning device blocks
    [first_block, first_block + region_blocks). Performs the boot-time
    recovery scan. [cpu] (0.4 ms per request) models request
    processing cost. *)
val start :
  Simnet.Network.t ->
  Rpc.Transport.t ->
  device:Block_device.t ->
  first_block:int ->
  region_blocks:int ->
  ?inode_blocks:int ->
  ?cpu:Sim.Resource.t ->
  unit ->
  t

(** Live (non-retired) file count. *)
val live_files : t -> int

(** Client operations (run from any fiber with an RPC transport). All
    raise {!Error} on service-reported failure. *)

val create : Rpc.Transport.t -> port:string -> string -> Capability.t

val read : Rpc.Transport.t -> port:string -> Capability.t -> string

val delete : Rpc.Transport.t -> port:string -> Capability.t -> unit
