(** Unbounded FIFO message queues with blocking receive.

    Mailboxes connect event-world producers (network deliveries, timers)
    to fiber-world consumers (server threads). Sends never block; receives
    block the calling fiber until a message or a timeout arrives. Waiting
    fibers are served in FIFO order, and a message is only handed to a
    waiter whose node incarnation is still alive — otherwise the message
    stays queued. *)

type 'a t

val create : unit -> 'a t

(** [send mbox v] enqueues [v] or hands it directly to the oldest viable
    waiter. Callable from fibers and from plain engine events alike. *)
val send : 'a t -> 'a -> unit

(** [recv ?timeout mbox] blocks until a message is available. Raises
    {!Proc.Timeout} if [timeout] (milliseconds) elapses first. *)
val recv : ?timeout:float -> 'a t -> 'a

(** Queued (undelivered) message count. *)
val length : 'a t -> int

(** Number of fibers currently blocked in [recv]. The RPC layer uses this
    to decide whether a server is "listening" (idle thread available) —
    the NOTHERE heuristic from the paper. *)
val waiters : 'a t -> int

(** [has_waiter mbox] is [waiters mbox > 0] without rebuilding the wait
    queue: it drops dead waiters from the front, as {!send} does, and
    allocates nothing. The RPC layer asks it once per Locate and
    Request packet. *)
val has_waiter : 'a t -> bool
