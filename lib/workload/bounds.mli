(** The paper's §4.2 back-of-envelope upper bounds.

    "The time needed by a server to process a read operation is roughly
    3 msec … the maximum number of read operations per server is
    therefore 333 per second. Thus the upper bound for the group service
    using 3 servers is 1000 per second and for the duplicated RPC
    implementation 666." Write throughput is bounded by the single-pair
    latency because writes cannot be performed in parallel. *)

(** [read_bound ~servers] — lookups/second at
    {!Dirsvc.Params.cpu_read_ms} per lookup. *)
val read_bound : servers:int -> float

(** [write_bound ~pair_latency_ms] — append-delete pairs/second from a
    measured single-client pair latency. *)
val write_bound : pair_latency_ms:float -> float
