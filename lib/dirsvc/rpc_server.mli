(** The previous, RPC-based directory service (paper §1): the baseline.

    Two servers. Reads are served locally by either. For a write, the
    initiating server locks the directory, sends its {e intention} to
    the peer — which refuses if it is busy with a conflicting operation,
    otherwise appends the intention to its intentions log on disk (the
    extra disk operation the paper blames for the RPC service's slower
    updates) and applies the change in core — then commits locally (new
    Bullet file + object table entry) and answers the client. The peer
    writes its own {e second disk copy} lazily in the background.

    Faithfully reproduced limitations:
    {ul
    {- duplicated only: no majority, so {e network partitions break
       consistency} — with the wire cut, both halves keep serving and
       their stores diverge (a test demonstrates this);}
    {- a peer crash between the intention and its lazy disk copy can
       lose the second replica, exactly the paper's §5 criticism.}}

    The two servers partition the directory-id space (odd/even) instead
    of agreeing on an allocation order.

    The client request path is {!Dir_front}; the Bullet-file directory
    image is {!Dir_image}, shared with the group server. *)

type t

val start :
  params:Params.t ->
  Simnet.Network.t ->
  server_id:int ->
  peer_node:int ->
  node:Sim.Node.t ->
  device:Storage.Block_device.t ->
  intent_device:Storage.Block_device.t ->
  bullet_port:string ->
  port:string ->
  unit ->
  t

val store_snapshot : t -> Directory.store
