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

(** One-shot wakeup handles for suspended fibers. A waker is one small
    record: its fiber, the fiber's wake count at the suspend, and the
    continuation. Waking a fiber bumps that count, so every earlier
    waker of the same fiber is inert from then on. *)
module Waker : sig
  type 'a t

  (** [wake w v] resumes the fiber with value [v] at the current instant,
      as an event scheduled now at delay 0. Returns [false] when the
      fiber was already woken since [w]'s suspend, or its node
      incarnation died — in that case the caller keeps ownership of [v]
      (e.g. a mailbox keeps the message). *)
  val wake : 'a t -> 'a -> bool

  (** [wake_exn w e] resumes the fiber by raising [e] at the suspension
      point. Same return convention as {!wake}. *)
  val wake_exn : 'a t -> exn -> bool

  (** A waker is viable while its fiber has not been woken since and can
      still run. *)
  val is_viable : 'a t -> bool
end

(** [boot engine node ?name f] starts a root fiber for [node]; it begins
    executing when [Engine.run] reaches the current time. Use this to
    start servers and clients from outside any fiber. *)
val boot : Engine.t -> Node.t -> ?name:string -> (unit -> unit) -> unit

(** [spawn ?name f] forks a fiber on the calling fiber's node.
    Must be called from within a fiber. *)
val spawn : ?name:string -> (unit -> unit) -> unit

(** [wait ?timeout q] parks the calling fiber with its waker at the back
    of [q], whose owner wakes it: the one primitive from which mailboxes,
    condition variables, ivars, resources and the disk's queue are
    built. With [timeout], the fiber is woken with {!Timeout} after that
    many milliseconds unless it was woken first; a wake that comes first
    cancels that timer, which then runs no event (it stays in the heap
    as a tombstone, see {!Timer}).

    A wait allocates its waker, and with [timeout] its guard timer;
    nothing else. The queue and the timeout are left on the calling
    fiber and read by that fiber's parker, which {!boot} builds once.
    Outside a fiber it raises [Invalid_argument]. *)
val wait : ?timeout:float -> 'a Waker.t Queue.t -> 'a

(** [sleep d] blocks the calling fiber for [d] milliseconds of virtual
    time: one event at [now + d] that wakes it and the resume at delay
    0 behind it, as a timer's wake of a waiting fiber would; neither
    allocates a closure. *)
val sleep : float -> unit

(** Reschedule the calling fiber at the current time, letting other
    ready events run first. *)
val yield : unit -> unit

(** Virtual time, engine, and identity of the calling fiber: each
    reads the fiber running on this domain, which is set around every
    resume. Outside a fiber they raise [Invalid_argument]. *)
val now : unit -> float

val engine : unit -> Engine.t

val node : unit -> Node.t
