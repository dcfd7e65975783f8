type flavor = Group_disk | Group_nvram | Rpc_pair | Nfs_single

(* One server's machines and devices, by flavour; the server field is
   filled at each boot. *)
type server_slot =
  | Group_slot of {
      dir_node : Sim.Node.t;
      bullet_node : Sim.Node.t;
      device : Storage.Block_device.t;
      nvram : Storage.Block_device.t option; (* Group_nvram's commit block *)
      mutable group_server : Group_server.t option;
    }
  | Rpc_slot of {
      dir_node : Sim.Node.t;
      bullet_node : Sim.Node.t;
      device : Storage.Block_device.t;
      intent_device : Storage.Block_device.t;
      mutable rpc_server : Rpc_server.t option;
    }
  | Nfs_slot of {
      dir_node : Sim.Node.t;
      device : Storage.Block_device.t;
      mutable nfs_server : Nfs_server.t option;
    }

let dir_node = function
  | Group_slot { dir_node; _ }
  | Rpc_slot { dir_node; _ }
  | Nfs_slot { dir_node; _ } ->
      dir_node

let slot_device = function
  | Group_slot { device; _ } | Rpc_slot { device; _ } | Nfs_slot { device; _ }
    ->
      device

let bullet_node = function
  | Group_slot { bullet_node; _ } | Rpc_slot { bullet_node; _ } ->
      Some bullet_node
  | Nfs_slot _ -> None

(* One replica group. Every deployment is built the same way, whatever
   its shard count M ([Params.shards]; always 1 for the RPC / NFS
   flavours): shard k gets its own network, whose RNG seed is element k
   of [Rng.derive ~base:seed] — so shard k's event stream is independent
   of how many other shards exist — its own service port
   ([service_port]), group name "dirgrp<k>" and "s<k>."-prefixed machine
   names. With M > 1 a backbone network (the next derived seed) carries
   the cross-shard moves' steps between shards. *)
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
  params : Params.t;
  shard_arr : shard array;
  backbone : Simnet.Network.t option; (* only when M > 1 *)
  mutable next_client : int;
}

let flavor t = t.flavor

let engine t = t.engine

let net t = t.shard_arr.(0).snet

let backbone t = t.backbone

let metrics t = Sim.Engine.metrics t.engine

let params t = t.params

let port t = t.shard_arr.(0).sport

let shards t = Array.length t.shard_arr

let n_servers t = Array.length t.shard_arr.(0).slots

let total_servers t =
  Array.fold_left (fun acc sh -> acc + Array.length sh.slots) 0 t.shard_arr

let run_until t time = Sim.Engine.run ~until:time t.engine

(* Node-id scheme: shard k's servers live at 500k + server_id (Bullet
   at 500k + 20 + server_id), so shard 0's servers are nodes 1..n and
   no shard collides with client ids (100+). *)
let dir_node_id ~shard_index server_id = (500 * shard_index) + server_id

let bullet_node_id ~shard_index server_id = (500 * shard_index) + 20 + server_id

(* Service port of shard k: "dirsvc" for a lone group, "dirsvc<k>" when
   M > 1. Every capability embeds the port, so its length sets a
   directory's encoded size. A directory of up to 960 B is one Bullet
   write (its inode block) whatever the port's length, so the port does
   not change what such an update writes to disk. *)
let service_port ~shards k = if shards = 1 then "dirsvc" else Printf.sprintf "dirsvc%d" k

let make_device ~engine ~params ~name =
  Storage.Block_device.create engine ~name
    ~blocks:Params.disk_blocks ~block_size:Params.disk_block_size
    ~read_ms:params.Params.disk_read_ms ~write_ms:params.Params.disk_write_ms
    ()

(* Boot the Bullet server that shares server [i]'s disk. *)
let boot_bullet t ~snet slot =
  match bullet_node slot with
  | None -> ()
  | Some node ->
      let nic = Simnet.Network.attach snet node in
      let transport = Rpc.Transport.create snet nic in
      let cpu = Sim.Resource.create ~capacity:1 () in
      ignore
        (Storage.Bullet.start snet transport ~device:(slot_device slot)
           ~first_block:(t.params.Params.admin_slots + 1)
           ~region_blocks:
             (Params.disk_blocks - t.params.Params.admin_slots - 1)
           ~cpu ())

let peers_of shard =
  Array.to_list shard.slots
  |> List.mapi (fun i slot -> (i + 1, Sim.Node.id (dir_node slot)))

let boot_dir_server t shard server_id =
  let bullet_port node = Storage.Bullet.port_of (Sim.Node.id node) in
  match shard.slots.(server_id - 1) with
  | Group_slot slot ->
      slot.group_server <-
        Some
          (Group_server.start ~params:t.params ?nvram:slot.nvram
             ?shard:(if shards t > 1 then Some shard.index else None)
             ?xnet:t.backbone shard.snet ~server_id ~peers:(peers_of shard)
             ~node:slot.dir_node ~device:slot.device
             ~bullet_port:(bullet_port slot.bullet_node)
             ~gname:shard.sgname ~port:shard.sport ())
  | Rpc_slot slot ->
      let peer = if server_id = 1 then 2 else 1 in
      slot.rpc_server <-
        Some
          (Rpc_server.start ~params:t.params shard.snet ~server_id
             ~peer_node:(Sim.Node.id (dir_node shard.slots.(peer - 1)))
             ~node:slot.dir_node ~device:slot.device
             ~intent_device:slot.intent_device
             ~bullet_port:(bullet_port slot.bullet_node)
             ~port:shard.sport ())
  | Nfs_slot slot ->
      slot.nfs_server <-
        Some
          (Nfs_server.start ~params:t.params shard.snet ~node:slot.dir_node
             ~device:slot.device ~port:shard.sport ())

let make_slots ~engine ~params ~flavor ~shard_index n =
  Array.init n (fun i ->
      let server_id = i + 1 in
      let prefixed fmt = Printf.sprintf "s%d.%s%d" shard_index fmt server_id in
      let dir_node =
        Sim.Node.create
          ~id:(dir_node_id ~shard_index server_id)
          ~name:(prefixed "dir")
      in
      let device = make_device ~engine ~params ~name:(prefixed "disk") in
      let bullet_node () =
        Sim.Node.create
          ~id:(bullet_node_id ~shard_index server_id)
          ~name:(prefixed "bullet")
      in
      match flavor with
      | Group_disk | Group_nvram ->
          let nvram =
            if flavor = Group_nvram then
              Some
                (Storage.Block_device.create engine ~name:(prefixed "nvram")
                   ~blocks:1 ~block_size:params.Params.nvram_capacity
                   ~read_ms:Params.nvram_write_ms
                   ~write_ms:Params.nvram_write_ms ())
            else None
          in
          Group_slot
            {
              dir_node;
              bullet_node = bullet_node ();
              device;
              nvram;
              group_server = None;
            }
      | Rpc_pair ->
          Rpc_slot
            {
              dir_node;
              bullet_node = bullet_node ();
              device;
              intent_device =
                Storage.Block_device.create engine
                  ~name:(Printf.sprintf "intent%d" server_id)
                  ~blocks:64 ~block_size:Params.disk_block_size
                  ~read_ms:params.Params.disk_read_ms
                  ~write_ms:params.Params.intentions_write_ms ();
              rpc_server = None;
            }
      | Nfs_single -> Nfs_slot { dir_node; device; nfs_server = None })

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
  (* Shard k's network runs on derived seed k — independent of the
     engine RNG and of every other shard; index [shards_n] seeds the
     backbone. *)
  let seeds = Array.of_list (Sim.Rng.derive ~base:seed (shards_n + 1)) in
  let network k =
    Simnet.Network.create engine ~rails ~seed:seeds.(k) ()
  in
  let shard_arr =
    Array.init shards_n (fun k ->
        let snet = network k in
        let slots = make_slots ~engine ~params ~flavor ~shard_index:k n in
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
  let t = { flavor; engine; params; shard_arr; backbone; next_client = 0 } in
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

let client ?max_attempts t =
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
        Rpc.Transport.create ?max_attempts sh.snet nic)
      t.shard_arr
  in
  Shard_router.make transports
    ~ports:(Array.map (fun sh -> sh.sport) t.shard_arr)

let crash_server_in t ~shard server_id =
  Sim.Node.crash (dir_node t.shard_arr.(shard).slots.(server_id - 1))

let restart_server_in t ~shard server_id =
  let sh = t.shard_arr.(shard) in
  let node = dir_node sh.slots.(server_id - 1) in
  if not (Sim.Node.is_alive node) then begin
    Sim.Node.restart node;
    boot_dir_server t sh server_id
  end

let crash_server t server_id = crash_server_in t ~shard:0 server_id

let restart_server t server_id = restart_server_in t ~shard:0 server_id

let reboot_server t server_id =
  crash_server t server_id;
  restart_server t server_id

let group_server_in t ~shard server_id =
  match t.shard_arr.(shard).slots.(server_id - 1) with
  | Group_slot { group_server = Some s; _ } -> s
  | Group_slot _ | Rpc_slot _ | Nfs_slot _ ->
      invalid_arg "Cluster.group_server: not a group deployment"

let group_server t server_id = group_server_in t ~shard:0 server_id

let store_snapshots_in t ~shard =
  Array.to_list t.shard_arr.(shard).slots
  |> List.mapi (fun i slot ->
         let server_id = i + 1 in
         let store =
           match slot with
           | Group_slot { group_server = Some s; _ } ->
               Group_server.store_snapshot s
           | Rpc_slot { rpc_server = Some s; _ } -> Rpc_server.store_snapshot s
           | Nfs_slot { nfs_server = Some s; _ } -> Nfs_server.store_snapshot s
           | Group_slot _ | Rpc_slot _ | Nfs_slot _ -> Directory.empty
         in
         (server_id, store))

let store_snapshots t = store_snapshots_in t ~shard:0

let serving_servers_in t ~shard =
  Array.to_list t.shard_arr.(shard).slots
  |> List.mapi (fun i slot ->
         match slot with
         | Group_slot { group_server = Some s; dir_node; _ }
           when Group_server.serving s && Sim.Node.is_alive dir_node ->
             Some (i + 1)
         | Group_slot _ | Rpc_slot _ | Nfs_slot _ -> None)
  |> List.filter_map Fun.id

let serving_servers t = serving_servers_in t ~shard:0

let total_serving t =
  Array.fold_left
    (fun acc sh -> acc + List.length (serving_servers_in t ~shard:sh.index))
    0 t.shard_arr

let device t server_id = slot_device t.shard_arr.(0).slots.(server_id - 1)

let commit_device t server_id =
  match t.shard_arr.(0).slots.(server_id - 1) with
  | Group_slot { nvram = Some board; _ } -> board
  | slot -> slot_device slot

(* Polls [count] (serving servers across every shard) every 20 ms of
   virtual time, the way {!Sim.Drive} polls an ivar, so the clock ends
   on a 20 ms boundary: the first one at or past the transition, or at
   or past the deadline. *)
let await_serving ?(timeout = 2000.0) t ~count =
  let serving () = total_serving t >= count in
  let deadline = Sim.Engine.now t.engine +. timeout in
  let rec poll () =
    if serving () then true
    else if Sim.Engine.now t.engine >= deadline then false
    else begin
      let limit = Sim.Engine.now t.engine +. 20.0 in
      Sim.Engine.run ~until:limit t.engine;
      (* Short of the limit: the heap drained, nothing can flip it. *)
      if Sim.Engine.now t.engine < limit then serving () else poll ()
    end
  in
  poll ()

let await_ready ?timeout t =
  match t.flavor with
  | Group_disk | Group_nvram ->
      await_serving ?timeout t ~count:(total_servers t)
  | Rpc_pair | Nfs_single ->
      run_until t (Sim.Engine.now t.engine +. 100.0);
      true

let bullet_port t server_id =
  match bullet_node t.shard_arr.(0).slots.(server_id - 1) with
  | Some node -> Storage.Bullet.port_of (Sim.Node.id node)
  | None -> invalid_arg "Cluster.bullet_port: no bullet in this flavour"
