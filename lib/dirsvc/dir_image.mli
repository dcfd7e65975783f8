(** The stable copy of a replica's directories, shared by the group
    server and the RPC pair: each directory lives in its own immutable
    Bullet file, and its object-table entry (one disk block, written
    after the file exists) is the commit point. A new version is a new
    file; the file it replaces is deleted afterwards, off the critical
    path, by one retiring fiber per node incarnation that the first
    retirement spawns. *)

type t

(** [attach transport ~bullet_port ~device ~slots] — the object table
    occupies blocks [1 .. slots] of [device] (block 0 is the commit
    block); files are created on the Bullet server at [bullet_port]. *)
val attach :
  Rpc.Transport.t ->
  bullet_port:string ->
  device:Storage.Block_device.t ->
  slots:int ->
  t

(** [admits t op dir_id] is false when [op] creates [dir_id]
    ({!Directory.dir_id_of_op}) past the object table, where it could
    never be made stable: a server refuses it with [Table_full] before
    applying it. Every replica decides on the same store, so all refuse
    it alike. *)
val admits : t -> Directory.op -> Directory.dir_id -> bool

(** [persist t store dir_id] makes [dir_id]'s state in [store] the
    stable copy: a new Bullet file, then the object-table entry. A
    directory absent from [store] has its entry cleared instead. Returns
    the file the write replaced, for [retire] once the caller has made
    the rest of the update durable (a deletion's commit-block write). *)
val persist : t -> Directory.store -> Directory.dir_id -> Capability.t option

(** [retire t file] hands a replaced file, if any, to the retiring
    fiber, which deletes it off the critical path. *)
val retire : t -> Capability.t option -> unit

(** [load t ~lost] reads every directory the object table names, at
    boot. A file that cannot be read is skipped and reported to
    [lost]. *)
val load : t -> lost:(Directory.dir_id -> unit) -> Directory.store
