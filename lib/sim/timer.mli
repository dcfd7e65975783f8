(** Cancelable timers.

    A timer is a tombstoned heap entry: {!cancel} is O(1) and the engine
    discards the corpse lazily when it reaches the top of the heap —
    without executing it and without counting it as a simulated event;
    the clock still advances to its time, as for a dead no-op event.
    Guard timers that rarely fire (receive timeouts, RPC enquiries,
    liveness ticks of departed members) therefore cost a heap slot, not
    an event.

    Cancellation is invisible to the simulation: a canceled timer draws
    no RNG and runs no code, exactly like the dead no-op event it
    replaces, so same-seed results are unchanged. *)

type t

(** [after engine ~delay f] runs [f] once at [now + delay] unless
    canceled first. *)
val after : Engine.t -> delay:float -> (unit -> unit) -> t

(** [every engine ~period f] runs [f] at [now + period], then every
    [period] after each run, until canceled. One timer record serves
    every tick (a periodic tick allocates nothing of its own), and each
    tick falls at the instant and in the order of the chain
    [after ~delay:period] re-armed as [f]'s last action would give: the
    engine re-pushes the timer after everything [f] scheduled. Liveness
    rounds (the group failure detector, the RPC enquiry) use it. *)
val every : Engine.t -> period:float -> (unit -> unit) -> t

(** O(1); idempotent; a no-op after a one-shot timer fired. A periodic
    timer canceled from outside is tombstoned like a one-shot one; one
    canceled from inside its own callback is simply not re-pushed. *)
val cancel : t -> unit

(** A timer is active until it fires (one-shot) or is canceled. *)
val active : t -> bool
