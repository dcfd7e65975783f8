type flavor = Group_disk | Group_nvram | Rpc_pair | Nfs_single

type server_slot = {
  dir_node : Sim.Node.t;
  bullet_node : Sim.Node.t option;
  device : Storage.Block_device.t;
  intent_device : Storage.Block_device.t option;
  nvram : Group_server.nvram option;
  mutable group_server : Group_server.t option;
  mutable rpc_server : Rpc_server.t option;
  mutable nfs_server : Nfs_server.t option;
}

(* One replica group. Every deployment is built the same way, whatever
   its shard count M ([Params.shards]; always 1 for the RPC / NFS
   flavours): shard k gets its own network, whose RNG seed is element k
   of [Rng.derive ~base:seed] — so shard k's event stream is independent
   of how many other shards exist — its own service port
   ([service_port]), group name "dirgrp<k>" and "s<k>."-prefixed machine
   names. With M > 1 a backbone network (the next derived seed) carries
   cross-shard termination queries. *)
type shard = {
  index : int;
  snet : Simnet.Network.t;
  sport : string;
  sgname : string;
  slots : server_slot array; (* index = server_id - 1 *)
}

type t = {
  flavor : flavor;
  engine : Sim.Engine.t;
  metrics : Sim.Metrics.t;
  params : Params.t;
  shard_arr : shard array;
  backbone : Simnet.Network.t option; (* only when M > 1 *)
  mutable next_client : int;
}

let flavor t = t.flavor

let engine t = t.engine

let net t = t.shard_arr.(0).snet

let metrics t = t.metrics

let params t = t.params

let port t = t.shard_arr.(0).sport

let shards t = Array.length t.shard_arr

let n_servers t = Array.length t.shard_arr.(0).slots

let total_servers t =
  Array.fold_left (fun acc sh -> acc + Array.length sh.slots) 0 t.shard_arr

let shard_port t k = t.shard_arr.(k).sport

let run_until t time = Sim.Engine.run ~until:time t.engine

(* Node-id scheme: shard k's servers live at 500k + server_id (Bullet
   at 500k + 20 + server_id), so shard 0's servers are nodes 1..n and
   no shard collides with client ids (100+). *)
let dir_node_id ~shard_index server_id = (500 * shard_index) + server_id

let bullet_node_id ~shard_index server_id = (500 * shard_index) + 20 + server_id

(* Service port of shard k: "dirsvc" for a lone group, "dirsvc<k>" when
   M > 1. Every capability embeds the port, so its length sets a
   directory's encoded size, and so whether the directory's Bullet file
   still fits inside an inode, which changes what an update writes to
   disk. A sharded deployment's longer port therefore costs its updates
   a little more; these are the sizes every figure and benchmark
   baseline was measured with. *)
let service_port ~shards k = if shards = 1 then "dirsvc" else Printf.sprintf "dirsvc%d" k

let make_device ~engine ~metrics ~params ~name =
  Storage.Block_device.create engine ~metrics ~name
    ~blocks:params.Params.disk_blocks
    ~block_size:params.Params.disk_block_size
    ~read_ms:params.Params.disk_read_ms ~write_ms:params.Params.disk_write_ms
    ()

(* Boot the Bullet server that shares server [i]'s disk. *)
let boot_bullet t ~snet slot =
  match slot.bullet_node with
  | None -> ()
  | Some node ->
      let nic = Simnet.Network.attach snet node in
      let transport = Rpc.Transport.create snet nic in
      let cpu = Sim.Resource.create ~name:"bullet-cpu" ~capacity:1 () in
      ignore
        (Storage.Bullet.start snet transport ~device:slot.device
           ~first_block:(t.params.Params.admin_slots + 1)
           ~region_blocks:
             (t.params.Params.disk_blocks - t.params.Params.admin_slots - 1)
           ~cpu ~cpu_ms:t.params.Params.bullet_cpu_ms ())

let peers_of shard =
  Array.to_list shard.slots
  |> List.mapi (fun i slot -> (i + 1, Sim.Node.id slot.dir_node))

let boot_dir_server t shard server_id =
  let slot = shard.slots.(server_id - 1) in
  match t.flavor with
  | Group_disk | Group_nvram ->
      let bullet_port =
        match slot.bullet_node with
        | Some node -> Storage.Bullet.port_of (Sim.Node.id node)
        | None -> assert false
      in
      let server =
        Group_server.start ~params:t.params ~metrics:t.metrics
          ?nvram:slot.nvram
          ?shard:(if shards t > 1 then Some shard.index else None)
          ?xnet:t.backbone shard.snet ~server_id ~peers:(peers_of shard)
          ~node:slot.dir_node ~device:slot.device ~bullet_port
          ~gname:shard.sgname ~port:shard.sport ()
      in
      slot.group_server <- Some server
  | Rpc_pair ->
      let peer = if server_id = 1 then 2 else 1 in
      let intent_device =
        match slot.intent_device with Some d -> d | None -> assert false
      in
      let bullet_port =
        match slot.bullet_node with
        | Some node -> Storage.Bullet.port_of (Sim.Node.id node)
        | None -> assert false
      in
      let server =
        Rpc_server.start ~params:t.params ~metrics:t.metrics shard.snet
          ~server_id
          ~peer_node:(Sim.Node.id shard.slots.(peer - 1).dir_node)
          ~node:slot.dir_node ~device:slot.device ~intent_device ~bullet_port
          ~port:shard.sport ()
      in
      slot.rpc_server <- Some server
  | Nfs_single ->
      let server =
        Nfs_server.start ~params:t.params ~metrics:t.metrics shard.snet
          ~node:slot.dir_node ~device:slot.device ~port:shard.sport ()
      in
      slot.nfs_server <- Some server

let make_slots ~engine ~metrics ~params ~flavor ~shard_index n =
  Array.init n (fun i ->
      let server_id = i + 1 in
      let prefixed fmt = Printf.sprintf "s%d.%s%d" shard_index fmt server_id in
      let device = make_device ~engine ~metrics ~params ~name:(prefixed "disk") in
      let intent_device =
        match flavor with
        | Rpc_pair ->
            Some
              (Storage.Block_device.create engine ~metrics
                 ~name:(Printf.sprintf "intent%d" server_id)
                 ~blocks:64 ~block_size:params.Params.disk_block_size
                 ~read_ms:params.Params.disk_read_ms
                 ~write_ms:params.Params.intentions_write_ms ())
        | Group_disk | Group_nvram | Nfs_single -> None
      in
      let nvram =
        match flavor with
        | Group_nvram ->
            Some
              (Storage.Nvram.create ~engine
                 ~capacity:params.Params.nvram_capacity
                 ~size_of:Group_server.log_record_size
                 ~write_ms:params.Params.nvram_write_ms ())
        | Group_disk | Rpc_pair | Nfs_single -> None
      in
      let bullet_node =
        match flavor with
        | Nfs_single -> None
        | Group_disk | Group_nvram | Rpc_pair ->
            Some
              (Sim.Node.create
                 ~id:(bullet_node_id ~shard_index server_id)
                 ~name:(prefixed "bullet"))
      in
      {
        dir_node =
          Sim.Node.create
            ~id:(dir_node_id ~shard_index server_id)
            ~name:(prefixed "dir");
        bullet_node;
        device;
        intent_device;
        nvram;
        group_server = None;
        rpc_server = None;
        nfs_server = None;
      })

let create ?(seed = 7L) ?(params = Params.default) ?servers ?(rails = 1) flavor
    =
  let n =
    match (servers, flavor) with
    | Some n, (Group_disk | Group_nvram) -> n
    | None, (Group_disk | Group_nvram) -> 3
    | _, Rpc_pair -> 2
    | _, Nfs_single -> 1
  in
  let shards_n =
    match flavor with
    | Group_disk | Group_nvram -> max 1 params.Params.shards
    | Rpc_pair | Nfs_single -> 1
  in
  let engine = Sim.Engine.create ~seed () in
  let metrics = Sim.Metrics.create () in
  (* Shard k's network runs on derived seed k — independent of the
     engine RNG and of every other shard; index [shards_n] seeds the
     backbone. *)
  let seeds = Array.of_list (Sim.Rng.derive ~base:seed (shards_n + 1)) in
  let network k =
    Simnet.Network.create engine ~metrics ~latency:params.Params.net_latency
      ~rails ~seed:seeds.(k) ()
  in
  let shard_arr =
    Array.init shards_n (fun k ->
        let snet = network k in
        let slots = make_slots ~engine ~metrics ~params ~flavor ~shard_index:k n in
        {
          index = k;
          snet;
          sport = service_port ~shards:shards_n k;
          sgname = Printf.sprintf "dirgrp%d" k;
          slots;
        })
  in
  (* A lone group has no cross-shard traffic to carry. *)
  let backbone = if shards_n > 1 then Some (network shards_n) else None in
  let t =
    { flavor; engine; metrics; params; shard_arr; backbone; next_client = 0 }
  in
  Array.iter
    (fun sh -> Array.iter (boot_bullet t ~snet:sh.snet) sh.slots)
    t.shard_arr;
  Array.iter
    (fun sh ->
      for server_id = 1 to Array.length sh.slots do
        boot_dir_server t sh server_id
      done)
    t.shard_arr;
  t

let client ?rpc_config t =
  t.next_client <- t.next_client + 1;
  let node =
    Sim.Node.create
      ~id:(100 + t.next_client)
      ~name:(Printf.sprintf "client%d" t.next_client)
  in
  (* One NIC + transport per shard: each shard's locate / port cache
     lives in its own transport, so a view change on one shard never
     touches another shard's cache. *)
  let transports =
    Array.map
      (fun sh ->
        let nic = Simnet.Network.attach sh.snet node in
        Rpc.Transport.create ?config:rpc_config sh.snet nic)
      t.shard_arr
  in
  let ports = Array.map (fun sh -> sh.sport) t.shard_arr in
  (* A lone group has no cross-shard moves to count. *)
  let metrics = if shards t > 1 then Some t.metrics else None in
  Shard_router.make ?metrics transports ~ports

let crash_server_in t ~shard server_id =
  Sim.Node.crash t.shard_arr.(shard).slots.(server_id - 1).dir_node

let restart_server_in t ~shard server_id =
  let sh = t.shard_arr.(shard) in
  let slot = sh.slots.(server_id - 1) in
  if not (Sim.Node.is_alive slot.dir_node) then begin
    Sim.Node.restart slot.dir_node;
    boot_dir_server t sh server_id
  end

let crash_server t server_id = crash_server_in t ~shard:0 server_id

let restart_server t server_id = restart_server_in t ~shard:0 server_id

let reboot_server t server_id =
  crash_server t server_id;
  restart_server t server_id

let group_server_in t ~shard server_id =
  match t.shard_arr.(shard).slots.(server_id - 1).group_server with
  | Some s -> s
  | None -> invalid_arg "Cluster.group_server: not a group deployment"

let group_server t server_id = group_server_in t ~shard:0 server_id

let store_snapshots_in t ~shard =
  Array.to_list t.shard_arr.(shard).slots
  |> List.mapi (fun i slot ->
         let server_id = i + 1 in
         let store =
           match (slot.group_server, slot.rpc_server, slot.nfs_server) with
           | Some s, _, _ -> Group_server.store_snapshot s
           | None, Some s, _ -> Rpc_server.store_snapshot s
           | None, None, Some s -> Nfs_server.store_snapshot s
           | None, None, None -> Directory.empty
         in
         (server_id, store))

let store_snapshots t = store_snapshots_in t ~shard:0

let serving_servers_in t ~shard =
  Array.to_list t.shard_arr.(shard).slots
  |> List.mapi (fun i slot ->
         match slot.group_server with
         | Some s when Group_server.serving s && Sim.Node.is_alive slot.dir_node
           ->
             Some (i + 1)
         | Some _ | None -> None)
  |> List.filter_map Fun.id

let serving_servers t = serving_servers_in t ~shard:0

let total_serving t =
  Array.fold_left
    (fun acc sh -> acc + List.length (serving_servers_in t ~shard:sh.index))
    0 t.shard_arr

let device t server_id = t.shard_arr.(0).slots.(server_id - 1).device

(* Event-driven replacement for a 20 ms chunked poller: each serving
   transition stops the engine via [set_serving_watch]; we then drain to
   the 20 ms boundary the poller would have sampled the predicate on, so
   the final clock (which later scenarios anchor on) is unchanged.
   [count] counts serving servers across every shard. *)
let await_serving ?(timeout = 2000.0) t ~count =
  let pred () = total_serving t >= count in
  let quantum = 20.0 in
  let start = Sim.Engine.now t.engine in
  let deadline = start +. timeout in
  (* The poller ran chunks while its clock (always on a boundary) was
     below the deadline, so its last chunk ended on the first boundary
     at or past it. *)
  let cap = Sim.Drive.boundary_at_or_past ~start ~quantum deadline in
  (* The watch is disarmed during boundary drains: a transition seen
     mid-drain must not cut the drain short of the boundary. *)
  let armed = ref false in
  let watch () = if !armed && pred () then Sim.Engine.stop t.engine in
  let set_watch w =
    Array.iter
      (fun sh ->
        Array.iter
          (fun slot ->
            match slot.group_server with
            | Some s -> Group_server.set_serving_watch s w
            | None -> ())
          sh.slots)
      t.shard_arr
  in
  set_watch (Some watch);
  let rec go () =
    if pred () then true
    else if Sim.Engine.now t.engine >= deadline then false
    else begin
      let before = Sim.Engine.now t.engine in
      armed := true;
      Sim.Engine.run ~until:cap t.engine;
      armed := false;
      let now = Sim.Engine.now t.engine in
      if pred () then begin
        (* Stopped at the transition: execute the rest of the quantum,
           exactly as the poller did before observing the flip. *)
        Sim.Engine.run
          ~until:(Sim.Drive.boundary_at_or_past ~start ~quantum now)
          t.engine;
        go ()
      end
      else if now > before then go ()
      else false (* heap drained: nothing left that could flip it *)
    end
  in
  let ok = go () in
  set_watch None;
  ok

let await_ready ?timeout t =
  match t.flavor with
  | Group_disk | Group_nvram ->
      await_serving ?timeout t ~count:(total_servers t)
  | Rpc_pair | Nfs_single ->
      run_until t (Sim.Engine.now t.engine +. 100.0);
      true

let bullet_port t server_id =
  match t.shard_arr.(0).slots.(server_id - 1).bullet_node with
  | Some node -> Storage.Bullet.port_of (Sim.Node.id node)
  | None -> invalid_arg "Cluster.bullet_port: no bullet in this flavour"
