(* A directory's stable copy: an immutable Bullet file holding its
   encoding, named by its object-table entry (paper §3, Fig. 3). *)

type t = {
  transport : Rpc.Transport.t;
  bullet_port : string;
  table : Storage.Object_table.t;
  slots : int;
  files : Capability.t option array;
      (* dir id -> Bullet file currently holding it (in-core copy of
         the object table's capabilities, for retiring old versions);
         ids are bounded by the table's slots *)
  mutable retirer : (int * Capability.t Sim.Mailbox.t) option;
      (* the node incarnation whose retiring fiber drains this queue *)
}

let attach transport ~bullet_port ~device ~slots =
  {
    transport;
    bullet_port;
    table = Storage.Object_table.attach device ~first_block:1 ~slots;
    slots;
    files = Array.make slots None;
    retirer = None;
  }

(* The Bullet server can be transiently unlocatable when all its worker
   threads are busy; a directory server must ride that out, not die. *)
let create_file t data =
  let rec go tries =
    match Storage.Bullet.create t.transport ~port:t.bullet_port data with
    | cap -> cap
    | exception Rpc.Transport.Rpc_failure _ when tries > 0 ->
        Sim.Proc.sleep 25.0;
        go (tries - 1)
  in
  go 8

(* The Bullet server may be down or the file already gone; either way
   the file is no longer named, so a failure is ignored. *)
let delete_file t cap =
  try Storage.Bullet.delete t.transport ~port:t.bullet_port cap
  with Storage.Bullet.Error _ | Rpc.Transport.Rpc_failure _ -> ()

(* Off the critical path, per Fig. 5's "remove old Bullet files": one
   fiber per node incarnation deletes the retired files in turn. The
   first retire spawns it with that file in hand, later ones queue for
   it, and it dies with its incarnation. *)
let retire_file t cap =
  let incarnation = Sim.Node.incarnation (Sim.Proc.node ()) in
  match t.retirer with
  | Some (i, queue) when i = incarnation -> Sim.Mailbox.send queue cap
  | Some _ | None ->
      let queue = Sim.Mailbox.create () in
      t.retirer <- Some (incarnation, queue);
      Sim.Proc.spawn ~name:"dirsvc.retirer" (fun () ->
          delete_file t cap;
          while true do
            delete_file t (Sim.Mailbox.recv queue)
          done)

let admits t op dir_id =
  match op with Directory.Create_dir _ -> dir_id < t.slots | _ -> true

let persist t store dir_id =
  let file =
    match Directory.Store.find_opt dir_id store with
    | Some dir ->
        let cap = create_file t (Directory.encode_dir dir) in
        Storage.Object_table.write_entry t.table ~dir_id
          { Storage.Object_table.file_cap = cap; seqno = dir.Directory.seqno };
        Some cap
    | None ->
        Storage.Object_table.clear_entry t.table ~dir_id;
        None
  in
  let replaced = t.files.(dir_id) in
  t.files.(dir_id) <- file;
  replaced

let retire t = function Some cap -> retire_file t cap | None -> ()

let load t ~lost =
  List.fold_left
    (fun store (dir_id, { Storage.Object_table.file_cap; _ }) ->
      match Storage.Bullet.read t.transport ~port:t.bullet_port file_cap with
      | data ->
          let dir = Directory.decode_dir data in
          t.files.(dir_id) <- Some file_cap;
          Directory.Store.add dir_id dir store
      | exception (Storage.Bullet.Error _ | Rpc.Transport.Rpc_failure _) ->
          lost dir_id;
          store)
    Directory.empty
    (Storage.Object_table.scan t.table)
