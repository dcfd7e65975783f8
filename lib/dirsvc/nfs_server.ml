type t = {
  params : Params.t;
  node : Sim.Node.t;
  device : Storage.Block_device.t;
  port : string;
  cpu : Sim.Resource.t;
  mutable store : Directory.store;
  mutable useq : int;
  mutable next_secret : int;
}

let store_snapshot t = t.store

let fresh_secret t =
  t.next_secret <- t.next_secret + 1;
  Capability.mint_secret
    (Int64.of_int ((Sim.Node.id t.node * 999_979) + t.next_secret))

(* One synchronous metadata write per update — the UNIX directory
   update cost. Block index only spreads wear; contents are the encoded
   directory (truncated to a block: this comparator is never recovered
   from disk). *)
let disk_commit t dir_id =
  let data =
    match Directory.Store.find_opt dir_id t.store with
    | Some dir ->
        let encoded = Directory.encode_dir dir in
        let cap = Storage.Block_device.block_size t.device in
        if String.length encoded > cap then String.sub encoded 0 cap
        else encoded
    | None -> ""
  in
  let block = 1 + (dir_id mod (Storage.Block_device.blocks t.device - 1)) in
  Storage.Block_device.write t.device block (Bytes.of_string data)

let handle_write t op =
  Sim.Resource.use t.cpu Params.nfs_cpu_write_ms;
  let op =
    match op with
    | Directory.Create_dir { columns; hint; _ } ->
        Directory.Create_dir { columns; secret = fresh_secret t; hint }
    | other -> other
  in
  let dir_id = Directory.dir_id_of_op t.store op in
  let outcome =
    match Directory.apply t.store ~seqno:(t.useq + 1) op with
    | Ok (store', result) ->
        t.useq <- t.useq + 1;
        t.store <- store';
        disk_commit t dir_id;
        Ok result
    | Error e -> Error e
  in
  Dir_front.write_reply ~port:t.port op outcome

let handle_read t ~dirs:_ serve =
  Sim.Resource.use t.cpu Params.nfs_cpu_read_ms;
  serve t.store

let start ~params net ~node ~device ~port () =
  let nic = Simnet.Network.attach net node in
  let transport = Rpc.Transport.create net nic in
  let t =
    {
      params;
      node;
      device;
      port;
      cpu = Sim.Resource.create ~capacity:1 ();
      store = Directory.empty;
      useq = 0;
      next_secret = 0;
    }
  in
  let front = Dir_front.create ~shard:None net ~node (Dir_front.Named "nfs") in
  Rpc.Transport.serve transport ~port ~threads:Params.server_threads
    (Dir_front.handler front ~write:(handle_write t) ~read:(handle_read t));
  t
