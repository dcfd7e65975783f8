(** The commit block (paper Fig. 4): block 0 of a directory server's raw
    administrative partition.

    It records the {e configuration vector} — which servers were up in
    the last configuration this server belonged to with a majority — a
    sequence number (only advanced here on directory {e deletions}, which
    otherwise would leave no trace that an update happened), and the
    {e recovering} flag, set while a recovery is in progress so a crash
    during recovery is detectable (the server must then treat its own
    state as inconsistent and zero its sequence number). It also counts
    the server's boots, so the request ids a server mints never repeat
    across reboots. *)

type t = {
  config_vector : bool array;  (** indexed by server number *)
  seqno : int;
  recovering : bool;
  boot : int;
      (** how many times the server has booted on this block, counting
          the current boot; made durable before the server serves *)
  log : string;
      (** group-commit log: encoded directory operations that were made
          stable by this block write but not yet applied to their
          per-directory disk blocks. Replayed (idempotently) at boot;
          [""] when every directory block is up to date *)
}

val make : servers:int -> t
(** All-up vector, seqno 0, not recovering, boot 0, empty log. *)

val encode : t -> bytes

(** [decode data] is [None] for a blank (never-written) block and raises
    {!Codec.Corrupt} on garbage. *)
val decode : bytes -> t option

(** Convenience accessors over a block device (always block 0). *)

val read : Block_device.t -> t option

val write : Block_device.t -> t -> unit
