(** FIFO-fair counted resources (CPUs, disk arms).

    A resource with capacity 1 serialises its users: while one fiber holds
    it, others queue in arrival order. [use] models occupying the resource
    for a stretch of virtual time — e.g. a CPU processing a request for
    3 ms, or a disk performing a 40 ms write. This is what makes server
    throughput saturate realistically instead of scaling with the number
    of threads.

    Resources are volatile: per-incarnation code creates them at boot, so
    a crash simply abandons the old object. *)

type t

val create : capacity:int -> unit -> t

(** [use t d] holds the resource for [d] ms: it waits its turn, sleeps
    [d] and hands the resource to the next in line. *)
val use : t -> float -> unit

(** [with_held t f] holds the resource while [f] runs (released also on
    exception). *)
val with_held : t -> (unit -> 'a) -> 'a
