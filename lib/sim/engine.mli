(** Discrete-event simulation engine.

    The engine owns the virtual clock and the event heap. Everything that
    happens in a simulation — fiber wakeups, network deliveries, timers —
    is an event scheduled here. Events with equal timestamps run in the
    order they were scheduled, so a run is a pure function of the seed. *)

type t

exception Stopped

val create : ?seed:int64 -> unit -> t

(** Current virtual time, in milliseconds. *)
val now : t -> float

(** The engine's root random stream (split it rather than sharing it). *)
val rng : t -> Rng.t

(** Monotonic per-engine id source (1, 2, 3, …). Protocol layers that
    need unique instance or message ids must draw them here rather than
    from module-level counters, which leak state between simulations in
    the same process and break same-seed determinism. *)
val fresh_id : t -> int

(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** A pre-built event: one value that can be scheduled again each time
    it has run, for a caller that recycles the work it schedules (the
    network's delivery slots). [schedule_event t ~delay (event f)] runs
    [f] exactly as [schedule t ~delay f] would, at the same instant and
    seq, and allocates nothing beyond the heap entry. *)
type event

val event : (unit -> unit) -> event

val schedule_event : t -> delay:float -> event -> unit

(** A cancelable timer handle (see {!Timer} for the public face). *)
type timer

(** [schedule_timer t ~delay f] is [schedule], but returns a handle that
    can revoke the event. A canceled timer is tombstoned in place: the
    run loop discards it when it reaches the top of the heap without
    executing it or counting it in {!events_executed} — it costs one
    lazy heap pop instead of a simulated event. The clock still
    advances to the tombstone's time, as it would for a dead no-op
    event, so {!now} after a drained-heap [run] does not depend on
    whether a timer was canceled. *)
val schedule_timer : t -> delay:float -> (unit -> unit) -> timer

(** [schedule_every t ~period f] runs [f] at [now t +. period] and then
    every [period] after each run, until canceled. It is one timer
    record: after [f] returns, the run loop pushes the same heap value
    again at [now +. period], unless [f] canceled it. The re-push comes
    after every event [f] scheduled, so each tick has the instant and
    the seq of a one-shot [schedule_timer] armed as [f]'s last action.
    [period] must be positive. *)
val schedule_every : t -> period:float -> (unit -> unit) -> timer

(** O(1); idempotent; a no-op after a one-shot timer fired. Canceling a
    periodic timer from inside its own callback stops it: no further
    tick is pushed. *)
val cancel_timer : timer -> unit

(** A timer that was never scheduled and is not active: a slot's value
    while it guards nothing. Cancelling it is a no-op. *)
val no_timer : timer

(** A timer is active until it fires (one-shot) or is canceled. *)
val timer_active : timer -> bool

(** [run t] executes events until the heap drains, [stop] is called, or
    [until] (absolute virtual time) is reached. An exception escaping an
    event aborts the run and is re-raised to the caller of [run]. *)
val run : ?until:float -> t -> unit

(** Ask the engine to stop after the current event. *)
val stop : t -> unit

(** Number of events executed so far (for tests and reporting). Canceled
    timers never count. *)
val events_executed : t -> int

(** Optional structured trace buffer (see {!Trace}). [None] disables
    tracing; instrumented code pays only a closure allocation then, and
    per-packet or per-request call sites check {!tracing} first so they
    pay nothing. *)
val set_trace : t -> Trace.t option -> unit

val tracing : t -> bool

(** The run's counters and latency histograms (see {!Metrics}). One
    registry per engine, created with it: every layer counts into the
    registry of the engine it runs on. *)
val metrics : t -> Metrics.t

(** [emit t ~subsystem ~node ~name attrs] records a trace event stamped
    with the current virtual time. [attrs] is a thunk, forced only when
    a trace buffer is installed — keep attribute construction inside it. *)
val emit :
  t ->
  subsystem:string ->
  node:int ->
  name:string ->
  (unit -> (string * Trace.attr) list) ->
  unit

(** {2 Profiling}

    Off by default, and then free: no allocation, no event, one match
    per executed event. On, every executed event is charged to one
    bucket: its events and the minor words allocated from just before
    its pop to its end (so the clock's box and a periodic timer's re-push
    count for the event that caused them). The event names its bucket
    with {!attribute} while it runs; an event that names none is charged
    to [(Other, "other")], or [(Tick, "other")] for a timer. Cancelled
    timers popped as tombstones execute no event and are charged to
    [(Tick, "(cancelled)")] with 0 events. The state lives in the
    engine, so engines on different domains profile independently. *)

type kind =
  | Deliver  (** a packet delivery, named by its payload constructor *)
  | Wake  (** a fiber resumed, named by the fiber *)
  | Tick  (** a timer, named by its owner *)
  | Other

(** [set_profiling t true] starts a fresh profile; [false] drops it. *)
val set_profiling : t -> bool -> unit

val profiling : t -> bool

(** Name the bucket of the event now running (the last call wins). A
    no-op when profiling is off; pass constant strings, so the call
    allocates nothing either way. *)
val attribute : t -> kind -> string -> unit

type bucket_report = { kind : kind; name : string; events : int; minor_words : float }

(** Every bucket charged so far, in no particular order. *)
val profile : t -> bucket_report list

(** Events executed and minor words allocated inside {!run} while
    profiling, measured around each whole call, independently of the
    buckets: the buckets' sums equal these up to the loop's own
    bookkeeping between two events (a new bucket's table entry). *)
val profile_totals : t -> int * float
