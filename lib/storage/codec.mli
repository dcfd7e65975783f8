(** Minimal binary encoder/decoder used by everything that goes to
    "disk": commit blocks, object-table entries, Bullet inodes and the
    directory representation itself. Fixed little-endian integers,
    length-prefixed strings. Decoding raises {!Corrupt} on malformed
    input — on-disk corruption must never crash a server silently. *)

exception Corrupt of string

module Writer : sig
  type t

  (** [encode f] runs [f] on an empty writer and returns what it wrote.
      The writer is a scratch buffer kept per domain and reused (a
      nested [encode] gets its own), so an encoding costs one copy of
      its result: no buffer growth once warm, no second copy. *)
  val encode : (t -> unit) -> string

  (** [encode_bytes f] is [encode f] as bytes, still one copy. With
      [~tail], [tail] follows what [f] wrote, as {!string} would write
      it, and is copied once, straight into the result. *)
  val encode_bytes : ?tail:string -> (t -> unit) -> bytes

  val u8 : t -> int -> unit

  val u32 : t -> int -> unit

  val i64 : t -> int64 -> unit

  val bool : t -> bool -> unit

  val string : t -> string -> unit

  (** [raw t s] writes the bytes of [s] alone, with no length: for
      splicing in what another encoding produced. *)
  val raw : t -> string -> unit

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
end

module Reader : sig
  type t

  val of_bytes : bytes -> t

  val u8 : t -> int

  val u32 : t -> int

  val i64 : t -> int64

  val bool : t -> bool

  val string : t -> string

  val list : t -> (t -> 'a) -> 'a list

  (** Bytes not yet consumed. *)
  val remaining : t -> int
end
