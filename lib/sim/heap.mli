(** Binary min-heap keyed by [(time, sequence)] pairs.

    The heap is the core of the event loop: events fire in increasing
    timestamp order, and events with equal timestamps fire in insertion
    order (the [sequence] component), which is what makes simulations
    deterministic. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push heap ~time ~seq value] inserts [value] with priority
    [(time, seq)]. Lower times pop first; among equal times, lower
    sequence numbers pop first. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** [push_after heap ~base ~delay ~seq value] is
    [push heap ~time:(base +. delay) ~seq value], with the sum formed
    inside the heap so that the caller need not box it. *)
val push_after : 'a t -> base:float -> delay:float -> seq:int -> 'a -> unit

(** [pop_min heap] removes and returns the minimum element, or [None]
    when the heap is empty. *)
val pop_min : 'a t -> (float * int * 'a) option

(** [peek_min heap] returns the minimum element without removing it. *)
val peek_min : 'a t -> (float * int * 'a) option

(** Allocation-free variants for the event loop. *)

(** [min_time heap] is the time of the minimum element, without
    removing or allocating anything. Raises [Invalid_argument] on an
    empty heap. *)
val min_time : 'a t -> float

(** [min_time_after heap limit] is [min_time heap > limit], and
    [min_time_differs heap time] is [min_time heap <> time]; neither
    boxes a float. Both raise [Invalid_argument] on an empty heap. *)
val min_time_after : 'a t -> float -> bool

val min_time_differs : 'a t -> float -> bool

(** [pop_min_value heap] removes the minimum element and returns its
    value alone (no tuple, no option). Raises [Invalid_argument] on an
    empty heap. *)
val pop_min_value : 'a t -> 'a
