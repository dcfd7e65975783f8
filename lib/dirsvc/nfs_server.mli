(** The SunOS/NFS comparator (paper §4.1, column 3 of Fig. 7).

    One server, no replication, no fault tolerance, no consistency
    guarantees for remote caches — just the same operation surface with
    UNIX-like costs: a lookup touches only the server's cache; an update
    performs a single synchronous disk write. Exists purely so the
    benches can reproduce the paper's comparison columns.

    The client request path is {!Dir_front}. *)

type t

val start :
  params:Params.t ->
  Simnet.Network.t ->
  node:Sim.Node.t ->
  device:Storage.Block_device.t ->
  port:string ->
  unit ->
  t

val store_snapshot : t -> Directory.store
