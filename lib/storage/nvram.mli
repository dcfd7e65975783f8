(** Simulated battery-backed NVRAM (the paper's 24 KB board).

    NVRAM is a {e reliable} medium: its contents survive node crashes
    (keep the [t] and hand it to the restarted server), so logging a
    modification here provides the same fault tolerance as a disk write
    at a fraction of the latency. A server logs directory modifications
    into NVRAM on the critical path and applies them to disk lazily; the
    annihilation of an append by a matching delete (the /tmp effect:
    both records vanish without any disk I/O) is supported via
    {!remove_if}. *)

type 'a t

(** [create ?engine ~capacity ~size_of ~write_ms ()] — [size_of]
    measures each record's footprint against [capacity] bytes. When
    [engine] is given, appends, annihilations and flushes emit
    ["storage"] trace events. *)
val create :
  ?engine:Sim.Engine.t ->
  capacity:int ->
  size_of:('a -> int) ->
  write_ms:float ->
  unit ->
  'a t

val capacity : 'a t -> int

val used_bytes : 'a t -> int

val length : 'a t -> int

(** Fraction of capacity in use, 0..1. *)
val fill_ratio : 'a t -> float

(** [append_all t rs] logs the records in order, blocking for a
    {e single} NVRAM write latency for the whole list — group commit.
    All-or-nothing: returns [false] (and logs nothing) when they do not
    all fit; the caller must flush first. [append_all t []] is [true]
    and free. Like a disk write, an issued write completes even if the
    calling node crashes while it is in flight. *)
val append_all : 'a t -> 'a list -> bool

(** [remove_if t pred] removes all matching records {e without} any
    latency beyond a single NVRAM write (which, like an append,
    completes even if the caller crashes); returns them oldest-first. *)
val remove_if : 'a t -> ('a -> bool) -> 'a list

(** [take_all t] atomically drains the log, oldest-first (used by the
    background flusher). *)
val take_all : 'a t -> 'a list

(** Oldest-first view without removing anything (crash recovery replay). *)
val peek_all : 'a t -> 'a list
