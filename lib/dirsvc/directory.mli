(** The directory data model and its sequential semantics.

    A directory (paper §2) is a table: one row per (name, capability)
    binding, one column per protection domain. A row stores one
    capability per column — typically the same object capability with
    progressively fewer rights — plus a rights mask per column. Giving
    someone a directory capability restricted to column 3 gives them
    access to the weak capabilities only.

    Everything here is {e pure}: [apply] maps a store and an operation to
    a new store. Every server flavour (group, RPC, NVRAM, NFS) and the
    one-copy-serializability checker run the {e same} function, so a
    divergence between replicas is a protocol bug by construction, never
    a semantics disagreement.

    Operations carry the client's directory capability and are validated
    {e inside} [apply]: authorisation is part of the serialized state
    machine, so "validate then broadcast" races (e.g. against a
    concurrent delete) cannot produce divergent outcomes. *)

type dir_id = int

(** Rights bits in directory capabilities: bit [i < 4] grants reading
    column [i]; {!right_modify} grants updates; {!right_delete} grants
    deletion of the directory itself. *)

val column_right : int -> Capability.rights

val right_modify : Capability.rights

val right_delete : Capability.rights

val all_columns_mask : Capability.rights

type row = {
  name : string;
  caps : Capability.t array;  (** one per column *)
  masks : int array;
      (** per-column rights masks maintained by Chmod; reported as the
          effective rights alongside lookups *)
}

type dir = {
  columns : string array;
  rows : row list;  (** insertion order *)
  seqno : int;  (** sequence number of the last change (paper §3) *)
  secret : Capability.secret;  (** owner check field, replicated *)
}

module Store : Map.S with type key = int

type store = dir Store.t

val empty : store

(** Operations of Fig. 2 that modify state. [cap] authorises; Create
    carries the initiator-generated check field instead (all replicas
    must mint the identical capability — paper §3.1). *)
type op =
  | Create_dir of {
      columns : string list;
      secret : Capability.secret;
      hint : dir_id option;
          (** force this id (must be free) instead of lowest-free
              allocation — used by the RPC service, whose two servers
              partition the id space instead of agreeing on an order *)
    }
  | Delete_dir of { cap : Capability.t }
  | Append_row of {
      cap : Capability.t;
      name : string;
      caps : Capability.t list;
      masks : int list;
    }
  | Chmod_row of { cap : Capability.t; name : string; masks : int list }
  | Delete_row of { cap : Capability.t; name : string }
  | Replace_set of {
      cap : Capability.t;
      rows : (string * Capability.t list) list;
    }

type error =
  | Not_found
  | Already_exists
  | Bad_capability
  | No_permission
  | Bad_request of string
  | Table_full  (** a create past the servers' object table *)

val error_to_string : error -> string

type op_result = Created of dir_id | Updated

(** [apply store ~seqno op] executes one update atomically. [seqno]
    stamps the touched directory (the group seqno / update counter).
    Deterministic: identical stores and arguments give identical
    results on every replica. A mask outside [0 .. 0xFFFF_FFFF], which
    the on-disk format cannot hold, is refused with [Bad_request]. *)
val apply : store -> seqno:int -> op -> (store * op_result, error) result

(** Short stable name of an operation's constructor, for metric labels
    and trace events. *)
val op_kind : op -> string

(** [dir_id_of_op store op] is the directory an operation touches once
    applied — for Create the id that [apply store] allocates, the one
    its [Created] result names. The servers key their locks, read gate
    and log records on it. *)
val dir_id_of_op : store -> op -> dir_id

(** Reads (Fig. 2's List / Lookup). [column] selects the protection
    domain; the capability must carry that column's read right. A
    column outside [0 .. 3], or past the directory's columns, is
    refused with [Bad_request "no such column"]. *)

type listing = {
  listed_columns : string list;
  entries : (string * Capability.t * int) list;
      (** name, that column's capability, effective mask *)
}

val list_dir :
  store -> cap:Capability.t -> column:int -> (listing, error) result

val lookup :
  store ->
  cap:Capability.t ->
  name:string ->
  column:int ->
  (Capability.t * int, error) result

(** A lookup's items, each resolved as {!lookup} does: its capability
    and mask in [column], or [None] where {!lookup} refuses it. A loop
    with no closure: the read path of every lookup request. *)
val lookup_items :
  store ->
  column:int ->
  (Capability.t * string) list ->
  (Capability.t * int) option list

(** Binary codec for one directory — the bytes stored in its Bullet
    file. *)

val encode_dir : dir -> string

val decode_dir : string -> dir

(** Content digest of one directory (deterministic across replicas);
    used by incremental state transfer to detect divergent content even
    when sequence numbers collide. *)
val digest : dir -> int64

(** Structural equality on stores (replica-convergence checks). *)
val equal_store : store -> store -> bool

val pp_dir : Format.formatter -> dir -> unit
