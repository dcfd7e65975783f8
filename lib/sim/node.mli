(** Simulated machines with fail-stop crash/restart semantics.

    A node carries an {e incarnation} counter. Crashing a node kills every
    fiber, timer and network endpoint belonging to the current incarnation:
    their wakeups notice the stale incarnation and are silently dropped.
    Restarting bumps the incarnation, so a freshly booted node starts from
    its persistent state (simulated disks survive crashes; volatile state
    does not). This is exactly the clean fail-stop model the paper assumes
    (no Byzantine behaviour). *)

type t

val create : id:int -> name:string -> t

val id : t -> int

val name : t -> string

val is_alive : t -> bool

(** Monotonically increasing incarnation number; bumped on every restart. *)
val incarnation : t -> int

(** [crash node] fail-stops the node. All suspended fibers and pending
    timers of the current incarnation die; persistent storage is kept.
    Idempotent. *)
val crash : t -> unit

(** [restart node] boots a new incarnation. The caller is responsible for
    re-running the node's software (e.g. a server's recovery procedure). *)
val restart : t -> unit

(** Hook invoked on [crash]; used by subsystems (e.g. network interfaces)
    to tear down volatile per-incarnation state. *)
val on_crash : t -> (unit -> unit) -> unit
