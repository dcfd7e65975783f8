(** Wire messages of the directory service: the client-facing request /
    reply surface (shared by all four implementations), the group
    message that carries an update through the total order, the
    recovery-time server-to-server exchange and state transfer (shared
    by the group server and the RPC pair), and the RPC baseline's
    intentions protocol. *)

(** Client-visible failures beyond the data-model errors. *)
type service_error =
  | Op_error of Directory.error
  | No_majority
      (** fewer than a majority of directory servers are up — reads and
          writes are both refused (paper §3.1's partition argument) *)
  | Unavailable of string  (** transient: recovery or view change *)
  | Wrong_shard
      (** the capability hashes to a different replica group; the
          shard router re-routes on this bounce (NOTHERE analogue at
          the shard level) *)
  | Busy
      (** the update would conflict with a name a cross-shard move has
          reserved at its destination; the shard router retries it
          until the move commits or aborts *)

val service_error_to_string : service_error -> string

exception Dir_error of service_error

(** Cross-shard move: the source shard runs it, and only the source's
    ordered decision ends it. The client sends one [Xmove] to the
    source shard. The server that takes it looks the row up under the
    read gate, has the destination stage the append and reserve its
    name ([Xprepare], over the backbone), then orders [Xdecide]: if the
    row still carries the capability and mask in [row] the source
    records the commit, deletes the row and forwards [Xcommit] to the
    destination before its own flush, so the two halves reach disk in
    parallel; else it records an abort, answered [Op_error Not_found].
    The staged half keeps its [decide]. When it outlives
    {!Params.xshard_timeout_ms}, the destination re-sends that same
    decision to the source ([peer_port]): a decided move is answered
    from the source's decision table, and a commit forwarded again.
    The source never orders [Xabort]; the destination orders it only
    once the source has answered an abort. *)
type prepare = {
  txid : int;
  op : Directory.op;  (** the destination's append *)
  peer_port : string;  (** the source shard's service port *)
  decide : xshard_cmd;  (** the source's [Xdecide], to re-send *)
}

and xshard_cmd =
  | Xprepare of prepare  (** destination: stage [op] and reserve its name *)
  | Xdecide of {
      txid : int;
      op : Directory.op;  (** the source's delete *)
      row : Capability.t * int;  (** what the lookup returned *)
      peer_port : string;  (** the destination shard's service port *)
    }  (** source: the decision, and on commit the delete *)
  | Xcommit of { txid : int }
  | Xabort of { txid : int }

type request =
  | Write_op of Directory.op
  | List_req of { cap : Capability.t; column : int }
  | Lookup_req of { items : (Capability.t * string) list; column : int }
  | Xmove of {
      txid : int;
      src : Capability.t;
      dst : Capability.t;
      name : string;
    }  (** a cross-shard move of row [name], sent to the source shard *)
  | Xshard_req of xshard_cmd  (** shard to shard, over the backbone *)

type reply =
  | Cap_rep of Capability.t  (** Create_dir: the new owner capability *)
  | Ok_rep
  | Listing_rep of Directory.listing
  | Lookup_rep of (Capability.t * int) option list
  | Err_rep of service_error

(** The capability a request addresses, if any: the target of a write
    other than Create_dir, the listed directory, the first looked-up
    item, or a move's source. A sharded deployment routes and bounces
    on its port. *)
val cap_of_request : request -> Capability.t option

type Simnet.Payload.t +=
  | Dir_request of request
  | Dir_reply of reply
  | Dir_op_msg of { uid : int; op : Directory.op }
      (** an update travelling through SendToGroup; [uid] is the
          initiating server's, whose node the group entry names as its
          origin *)
  | Dir_xact_msg of { uid : int; xact : xshard_cmd }
      (** a cross-shard transaction record travelling through one
          shard's total order *)
  | Exchange_req  (** recovery: ask a peer for its [Exchange_rep] *)
  | Exchange_rep of Skeen.peer_state
      (** recovery: mourned set + update sequence number (Fig. 6) *)
  | Fetch_state_req of {
      required : int;
      have : (int * int * int64) list;
          (** requester's (dir id, seqno, content digest) inventory *)
    }
      (** state transfer, for both replicated services: send me what
          differs from my inventory (see [delta]) once you have
          processed group position [required] — 0 for the RPC pair,
          which has no group positions. *)
  | Fetch_state_rep of {
      changed : string;  (** encoded store of dirs to install/overwrite *)
      deleted : int list;  (** requester's dirs that no longer exist *)
      useq : int;
      watermark : int;
      decisions : (int * bool) list;
          (** the donor's cross-shard decisions: txid, committed? *)
      staged : prepare list;
          (** its staged destination halves, each as its prepare.
              Both empty for the RPC pair. *)
    }
  | Intend_req of { op : Directory.op }
      (** RPC service: store my intention before I commit (paper §1) *)
  | Intend_ok
  | Intend_busy  (** conflicting operation in progress; back off *)

(** Incremental state transfer ({!Fetch_state_req} / {!Fetch_state_rep}):
    the joiner sends its [inventory], the donor answers with its
    [delta], and the joiner [install]s that. *)

val inventory : Directory.store -> (int * int * int64) list

(** [delta store ~have]: the encoded directories of [store] whose seqno
    or digest differs from inventory [have] (or that [have] lacks), and
    the ids in [have] that [store] no longer holds. The donor is
    authoritative, so a mismatch in either direction resends: a rebooted
    requester may hold uncommitted versions that must be discarded. *)
val delta :
  Directory.store -> have:(int * int * int64) list -> string * Directory.dir_id list

(** [install store ~changed ~deleted] applies a [delta] to [store]; it
    returns the new store and the ids of the directories [changed]
    carried. *)
val install :
  Directory.store -> changed:string -> deleted:Directory.dir_id list ->
  Directory.store * Directory.dir_id list

(** Codec for the commit-block log: [(useq, dir_id, op)] records,
    oldest first. A log is written as its records' encodings, each made
    once by [encode_log_record], joined by [join_log_records] (oldest
    first), so a writer that keeps each record's encoding builds every
    later log without encoding a record again. [join_log_records []] is
    [""]. *)

val encode_log_record : useq:int -> dir_id:int -> Directory.op -> string

val join_log_records : string list -> string

val decode_log_records : string -> (int * int * Directory.op) list

(** Rough wire footprint of an operation in bytes. *)
val op_size : Directory.op -> int
