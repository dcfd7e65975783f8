type t = {
  params : Params.t;
  node : Sim.Node.t;
  transport : Rpc.Transport.t;
  server_id : int; (* 1 or 2 *)
  peer_node : int;
  intent_device : Storage.Block_device.t;
  image : Dir_image.t;
  port : string;
  cpu : Sim.Resource.t;
  mutable store : Directory.store;
  mutable useq : int;
  locked : (int, unit) Hashtbl.t; (* dir ids with an operation in flight *)
  unlocked : Sim.Condvar.t;
  mutable next_intent_block : int;
  mutable lazy_queue : int list; (* dirty dir ids awaiting the disk copy *)
  lazy_kick : Sim.Condvar.t;
  mutable next_dir_id : int; (* parity-partitioned allocation *)
  mutable next_secret : int;
}

let store_snapshot t = t.store

let fresh_secret t =
  t.next_secret <- t.next_secret + 1;
  Capability.mint_secret
    (Int64.of_int ((Sim.Node.id t.node * 999_983) + t.next_secret))

(* Odd/even id partitioning: server 1 allocates 1,3,5…; server 2
   allocates 2,4,6… — concurrent creates can never collide. *)
let fresh_dir_id t =
  let rec next candidate =
    if Directory.Store.mem candidate t.store then next (candidate + 2)
    else candidate
  in
  let id = next t.next_dir_id in
  t.next_dir_id <- id + 2;
  id

let lock t dir_id =
  while Hashtbl.mem t.locked dir_id do
    Sim.Condvar.wait t.unlocked
  done;
  Hashtbl.replace t.locked dir_id ()

let try_lock t dir_id =
  if Hashtbl.mem t.locked dir_id then false
  else begin
    Hashtbl.replace t.locked dir_id ();
    true
  end

let unlock t dir_id =
  Hashtbl.remove t.locked dir_id;
  Sim.Condvar.broadcast t.unlocked

(* The per-directory sequence number: both replicas compute the same
   stamp because operations on one directory are serialised by the
   locks. *)
let next_seqno t op =
  let dir_id = Directory.dir_id_of_op t.store op in
  match Directory.Store.find_opt dir_id t.store with
  | Some dir -> dir.Directory.seqno + 1
  | None -> 1

let persist_dir_to_disk t dir_id =
  Dir_image.retire t.image (Dir_image.persist t.image t.store dir_id)

let apply_in_core t op =
  let seqno = next_seqno t op in
  match Directory.apply t.store ~seqno op with
  | Ok (store', result) ->
      t.store <- store';
      t.useq <- t.useq + 1;
      Ok result
  | Error e -> Error e

(* ---- Peer side: intentions + lazy replication --------------------- *)

(* One intentions-log append: a small sequential write to the dedicated
   region — cheaper than a random data write (paper §3.1: the RPC
   implementation pays "an additional disk operation to store an
   intentions list"). *)
let write_intention t op =
  let intention =
    Storage.Codec.Writer.encode_bytes (fun w ->
        Storage.Codec.Writer.u32 w (Wire.op_size op))
  in
  let block = t.next_intent_block in
  t.next_intent_block <-
    (if block + 1 >= Storage.Block_device.blocks t.intent_device then 0
     else block + 1);
  Storage.Block_device.write t.intent_device block intention

let handle_intend t op =
  let dir_id = Directory.dir_id_of_op t.store op in
  if not (try_lock t dir_id) then Wire.Intend_busy
  else begin
    write_intention t op;
    (* Apply in core right away: reads at this replica stay
       consistent. The disk copy is made lazily below. *)
    ignore (apply_in_core t op);
    unlock t dir_id;
    t.lazy_queue <- t.lazy_queue @ [ dir_id ];
    Sim.Condvar.broadcast t.lazy_kick;
    Wire.Intend_ok
  end

let lazy_replicator t () =
  while true do
    Sim.Condvar.await t.lazy_kick (fun () -> t.lazy_queue <> []);
    match t.lazy_queue with
    | [] -> ()
    | dir_id :: rest ->
        t.lazy_queue <- rest;
        lock t dir_id;
        persist_dir_to_disk t dir_id;
        unlock t dir_id
  done

(* ---- Initiator side ------------------------------------------------ *)

let intend_at_peer t op =
  match
    Rpc.Transport.trans t.transport
      ~port:(Printf.sprintf "dirx@%d" t.peer_node)
      (Wire.Intend_req { op })
  with
  | Wire.Intend_ok -> `Ok
  | Wire.Intend_busy -> `Busy
  | _ -> `Down
  | exception Rpc.Transport.Rpc_failure _ ->
      (* The transport's dead verdict (two unanswered enquiries, at
         most 600 ms): the RPC service takes the silent peer for
         crashed and proceeds alone — this is precisely why it cannot
         tolerate partitions. A peer that is merely slow keeps
         answering enquiries and is waited for. *)
      `Down

let handle_write t op =
  Sim.Resource.use t.cpu Params.cpu_write_ms;
  let op =
    match op with
    | Directory.Create_dir { columns; _ } ->
        Directory.Create_dir
          { columns; secret = fresh_secret t; hint = Some (fresh_dir_id t) }
    | other -> other
  in
  let dir_id = Directory.dir_id_of_op t.store op in
  let rec attempt tries =
    if tries > 12 then Wire.Err_rep (Wire.Unavailable "peer busy")
    else begin
      lock t dir_id;
      match intend_at_peer t op with
      | `Busy ->
          (* Conflicting operation at the peer: release and retry. The
             backoff is deliberately asymmetric between the two servers,
             or simultaneous initiators would collide again on every
             round. *)
          unlock t dir_id;
          Sim.Proc.sleep
            (2.0
            +. (float_of_int t.server_id *. 3.7)
            +. (float_of_int tries *. 2.3));
          attempt (tries + 1)
      | `Ok | `Down ->
          let outcome = apply_in_core t op in
          (match outcome with
          | Ok _ -> persist_dir_to_disk t dir_id
          | Error _ -> ());
          unlock t dir_id;
          Dir_front.write_reply ~port:t.port op outcome
    end
  in
  (* Refused before the peer hears of it, so neither server applies it. *)
  if Dir_image.admits t.image op dir_id then attempt 0
  else Dir_front.write_reply ~port:t.port op (Error Directory.Table_full)

let handle_read t ~dirs:_ serve =
  Sim.Resource.use t.cpu Params.cpu_read_ms;
  serve t.store

let admin_handler t ~client:_ body =
  match body with
  | Wire.Intend_req { op } -> handle_intend t op
  | Wire.Fetch_state_req { have; _ } ->
      let changed, deleted = Wire.delta t.store ~have in
      Wire.Fetch_state_rep
        {
          changed;
          deleted;
          useq = t.useq;
          watermark = 0;
          decisions = [];
          staged = [];
        }
  | _ -> Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "bad request"))

(* Catch up from the peer when it is reachable (restart path): only the
   directories that differ from the disk image travel, and only those
   are queued for a lazy rewrite. *)
let load_disk_state t =
  t.store <- Dir_image.load t.image ~lost:ignore;
  match
    Rpc.Transport.trans t.transport
      ~port:(Printf.sprintf "dirx@%d" t.peer_node)
      (Wire.Fetch_state_req { required = 0; have = Wire.inventory t.store })
  with
  | Wire.Fetch_state_rep { changed; deleted; _ } ->
      let store, changed = Wire.install t.store ~changed ~deleted in
      t.store <- store;
      t.lazy_queue <- t.lazy_queue @ changed @ deleted;
      Sim.Condvar.broadcast t.lazy_kick
  | _ | (exception Rpc.Transport.Rpc_failure _) -> ()

let start ~params net ~server_id ~peer_node ~node ~device ~intent_device
    ~bullet_port ~port () =
  let nic = Simnet.Network.attach net node in
  let transport = Rpc.Transport.create net nic in
  let t =
    {
      params;
      node;
      transport;
      server_id;
      peer_node;
      intent_device;
      image =
        Dir_image.attach transport ~bullet_port ~device
          ~slots:params.Params.admin_slots;
      port;
      cpu = Sim.Resource.create ~capacity:1 ();
      store = Directory.empty;
      useq = 0;
      locked = Hashtbl.create 8;
      unlocked = Sim.Condvar.create ();
      next_intent_block = 0;
      lazy_queue = [];
      lazy_kick = Sim.Condvar.create ();
      next_dir_id = server_id; (* 1 -> odd ids, 2 -> even ids *)
      next_secret = 0;
    }
  in
  let front =
    Dir_front.create ~shard:None net ~node (Dir_front.Replica server_id)
  in
  Rpc.Transport.serve transport ~port ~threads:Params.server_threads
    (Dir_front.handler front ~write:(handle_write t) ~read:(handle_read t));
  Rpc.Transport.serve transport
    ~port:(Printf.sprintf "dirx@%d" (Sim.Node.id node))
    ~threads:2 (admin_handler t);
  Sim.Proc.boot (Simnet.Network.engine net) node ~name:"dirsvc-rpc.boot"
    (fun () ->
      load_disk_state t;
      Sim.Proc.spawn ~name:"dirsvc-rpc.lazy" (lazy_replicator t));
  t
