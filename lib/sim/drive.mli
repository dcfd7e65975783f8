(** Polling engine driver.

    [run_until_filled ~quantum ~max_quanta engine ivar] runs the engine
    in chunks of [quantum] ms of virtual time, checking [ivar] before
    each chunk, and returns [true] once it is filled. Returns [false]
    if it is still empty after [max_quanta] chunks, or as soon as a
    chunk drains the event heap (nothing is left that could fill it).

    The clock therefore stops on a chunk boundary, the iterated sum
    [start +. quantum +. ... +. quantum], unless the heap drained first.
    A chunk with nothing due only peeks at the heap, so polling costs
    one bounded {!Engine.run} per quantum and no extra event. *)
val run_until_filled :
  ?quantum:float -> max_quanta:int -> Engine.t -> 'a Ivar.t -> bool
