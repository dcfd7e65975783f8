(** Cooperative simulated processes (fibers) over OCaml effect handlers.

    Fibers let protocol code block — in [sleep], in a mailbox receive, in
    an RPC — exactly like the threads in the paper's pseudocode, while the
    engine underneath stays a deterministic single-threaded event loop.

    Every fiber runs on behalf of a {!Node.t}. When that node crashes, any
    wakeup destined for a fiber of the old incarnation is dropped, so the
    fiber simply never runs again — the fail-stop model. *)

exception Timeout

(** Raised when blocking on something that can no longer complete
    (e.g. receiving from a mailbox whose peer is permanently gone). *)
exception Cancelled of string

(** One-shot wakeup handles for suspended fibers. *)
module Waker : sig
  type 'a t

  (** [wake w v] resumes the fiber with value [v]. Returns [false] when
      the waker was already used or its fiber's node incarnation died —
      in that case the caller keeps ownership of [v] (e.g. a mailbox
      keeps the message). *)
  val wake : 'a t -> 'a -> bool

  (** [wake_exn w e] resumes the fiber by raising [e] at the suspension
      point. Same return convention as {!wake}. *)
  val wake_exn : 'a t -> exn -> bool

  (** A waker is viable while it is unused and its fiber can still run. *)
  val is_viable : 'a t -> bool

  (** [on_wake w f] runs [f] once, at the moment [w] is consumed by
      {!wake} or {!wake_exn}. Used to revoke guard timers (see
      {!Timer}): when the guarded event happens first, the pending
      timeout is canceled instead of firing later as a dead event.
      Multiple hooks compose in registration order. *)
  val on_wake : 'a t -> (unit -> unit) -> unit
end

(** [boot engine node ?name f] starts a root fiber for [node]; it begins
    executing when [Engine.run] reaches the current time. Use this to
    start servers and clients from outside any fiber. *)
val boot : Engine.t -> Node.t -> ?name:string -> (unit -> unit) -> unit

(** [spawn ?name f] forks a fiber on the calling fiber's node.
    Must be called from within a fiber. *)
val spawn : ?name:string -> (unit -> unit) -> unit

(** [suspend register] parks the calling fiber and hands a {!Waker.t} to
    [register]; the fiber resumes when the waker fires. This is the one
    primitive from which sleeps, mailboxes and timeouts are built. *)
val suspend : ('a Waker.t -> unit) -> 'a

(** [sleep d] blocks the calling fiber for [d] milliseconds of virtual
    time. *)
val sleep : float -> unit

(** Reschedule the calling fiber at the current time, letting other
    ready events run first. *)
val yield : unit -> unit

(** Virtual time, engine, and identity of the calling fiber. *)
val now : unit -> float

val engine : unit -> Engine.t

val node : unit -> Node.t

(** [with_timeout d f] runs [f ()] in a child fiber and raises {!Timeout}
    at the caller if no result arrived after [d] milliseconds. On timeout
    the child keeps running in the background and its eventual result is
    discarded — like a kernel call whose late reply nobody collects. *)
val with_timeout : float -> (unit -> 'a) -> 'a
