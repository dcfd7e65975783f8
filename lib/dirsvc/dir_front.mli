(** The client-facing request path of the directory servers.

    The group server, the RPC pair and the NFS comparator answer the
    same Fig. 2 interface; each supplies only its own write and read
    paths, and this module does the rest: dispatch of
    [Write_op] / [List_req] / [Lookup_req] (anything else is a "bad
    request"), the per-op latency histogram
    ["dirsvc.op_ms{op,server[,shard]}"] in the engine's registry
    (handle cached per op), one ["dirsvc"] / ["op"] trace event per
    request with its outcome, and the write-result → reply mapping. *)

(** How a server is labelled in metrics and traces: a replica by its
    server id, a lone server by name (["nfs"]). *)
type server = Replica of int | Named of string

type t

(** [create ~shard net ~node server] — [shard] adds the [shard] label
    (sharded deployments only). *)
val create :
  shard:int option ->
  Simnet.Network.t ->
  node:Sim.Node.t ->
  server ->
  t

(** The simulated clock, for a request's [started] stamp. *)
val now : t -> float

(** [observe t ~op ~started reply] records the simulated latency since
    [started] under [op], emits the trace event and returns [reply].
    For requests a server answers outside {!handler} (the group
    server's cross-shard commands). *)
val observe : t -> op:string -> started:float -> Wire.reply -> Wire.reply

(** The client's reply to an applied write: the owner capability
    (minted for [port]) for a Create_dir, [Ok_rep] for any other
    success, the directory error otherwise. *)
val write_reply :
  port:string ->
  Directory.op ->
  (Directory.op_result, Directory.error) result ->
  Wire.reply

(** An RPC handler for the client port. [write op] performs one update
    and returns its reply; [read ~dirs serve] runs [serve] against a
    store the server may answer from, or refuses with its own reply.
    [dirs] names the directories the read looks at (the [obj] ids of a
    lookup's items, or of a listing's capability), so a replicated
    server need only catch up on updates to those. *)
val handler :
  t ->
  write:(Directory.op -> Wire.reply) ->
  read:
    (dirs:Directory.dir_id list ->
    (Directory.store -> Wire.reply) ->
    Wire.reply) ->
  client:int ->
  Simnet.Payload.t ->
  Simnet.Payload.t
