(** Write-once synchronisation cells.

    An ivar is filled exactly once; any number of fibers can block in
    [read] until the value (or an error) arrives. Used for RPC replies,
    "wait until the group thread executed my request" handshakes, and
    similar one-shot rendezvous. *)

type 'a t

val create : unit -> 'a t

(** [fill ivar v] stores the value and wakes all readers.
    Subsequent fills are ignored (first writer wins). *)
val fill : 'a t -> 'a -> unit

(** [fill_exn ivar e] completes the ivar with an error; readers see [e]
    raised at their suspension point. *)
val fill_exn : 'a t -> exn -> unit

val is_filled : 'a t -> bool

(** [read ?timeout ivar] blocks until filled. Raises {!Proc.Timeout} if
    [timeout] (milliseconds) elapses first. *)
val read : ?timeout:float -> 'a t -> 'a

val peek : 'a t -> 'a option
