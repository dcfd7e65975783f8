(** Client library for the directory service.

    A client is a {!Shard_router}: every deployment routes through its
    partition map, and a lone group is a one-shard router. Each shard
    is reached over its own RPC transport, so server selection uses the
    locate / port-cache / NOTHERE mechanism — the load-balancing
    behaviour behind the paper's Figure 8. Build one with
    {!Cluster.client}.

    All operations raise {!Wire.Dir_error} on a service-reported error
    and {!Rpc.Transport.Rpc_failure} when no server answers at all. *)

type t = Shard_router.t

(** The underlying transport (shard 0's). *)
val transport : t -> Rpc.Transport.t

(** The shard router; always [Some] (every client is one). *)
val router : t -> Shard_router.t option

(** Updates (Fig. 2). *)

(** [create_dir t ~columns] returns the owner capability of the new
    directory. [placement] is the name the partition map hashes to
    pick the directory's shard (sharded clients only; default
    shard 0). *)
val create_dir : ?placement:string -> t -> columns:string list -> Capability.t

val delete_dir : t -> Capability.t -> unit

(** [append_row t cap ~name caps] adds a row; [caps] holds one
    capability per column (short lists are padded). *)
val append_row :
  t -> Capability.t -> name:string -> ?masks:int list -> Capability.t list ->
  unit

val chmod_row : t -> Capability.t -> name:string -> masks:int list -> unit

val delete_row : t -> Capability.t -> name:string -> unit

val replace_set :
  t -> Capability.t -> (string * Capability.t list) list -> unit

(** Reads. *)

val list_dir : t -> ?column:int -> Capability.t -> Directory.listing

(** [lookup t cap name] is the capability (and its effective mask) bound
    to [name], or [None]. *)
val lookup :
  t -> ?column:int -> Capability.t -> string -> (Capability.t * int) option

(** The paper's "Lookup set": several names resolved in one request
    (one request per shard touched). *)
val lookup_set :
  t ->
  ?column:int ->
  (Capability.t * string) list ->
  (Capability.t * int) option list

(** [move_row t ~src ~dst ~name] moves the row [name] from directory
    [src] to directory [dst]. When the two directories live on
    different shards this is a two-group coordinator commit (prepare
    both, commit source then destination); otherwise a plain
    append + delete. [hook] is called after each protocol step with
    ["prepared_src"], ["prepared_dst"], ["committed_src"],
    ["committed_dst"] — a hook that raises simulates a coordinator
    crash at that point (no abort is sent), leaving termination to
    the shards' resolvers. *)
val move_row :
  ?hook:(string -> unit) ->
  t ->
  src:Capability.t ->
  dst:Capability.t ->
  name:string ->
  unit
