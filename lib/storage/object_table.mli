(** The directory server's object table: blocks 1..n-1 of the raw
    administrative partition.

    Entry [d] lives alone in block [first_block + d], so committing an
    update is exactly one block write — the paper's "writes the changed
    entry in the object table to its disk". An entry maps a directory id
    to the capability of the Bullet file holding the directory's current
    contents, together with the directory's sequence number. *)

type entry = {
  file_cap : Capability.t;
  seqno : int;
}

type t

(** [attach device ~first_block ~slots] manages [slots] entries starting
    at [first_block]. *)
val attach : Block_device.t -> first_block:int -> slots:int -> t

(** [write_entry t ~dir_id entry] commits one entry (one block write). *)
val write_entry : t -> dir_id:int -> entry -> unit

(** [clear_entry t ~dir_id] commits a tombstone (directory deleted). *)
val clear_entry : t -> dir_id:int -> unit

(** [read_entry t ~dir_id] reads one entry with disk latency. *)
val read_entry : t -> dir_id:int -> entry option

(** [scan t] reads the whole table without latency (boot-time recovery
    scan). Returns present entries only. *)
val scan : t -> (int * entry) list
