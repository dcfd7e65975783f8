exception Error of string

let right_read = 0x1

let right_destroy = 0x2

let port_of node_id = Printf.sprintf "bullet@%d" node_id

(* Processing per request on the server's [cpu] (ms). *)
let cpu_ms = 0.4

(* How long retired files' tombstones accumulate before the flusher
   writes them (ms). *)
let flush_interval = 300.0

type Simnet.Payload.t +=
  | Create_req of string
  | Read_req of Capability.t
  | Delete_req of Capability.t
  | Cap_rep of Capability.t
  | Data_rep of string
  | Ok_rep
  | Err_rep of string

let () =
  Simnet.Payload.register_printer ~name:"bullet" (function
    | Create_req data -> Some (Printf.sprintf "bullet.create %dB" (String.length data))
    | Read_req cap -> Some (Format.asprintf "bullet.read %a" Capability.pp cap)
    | Delete_req cap -> Some (Format.asprintf "bullet.delete %a" Capability.pp cap)
    | Cap_rep cap -> Some (Format.asprintf "bullet.cap %a" Capability.pp cap)
    | Data_rep data -> Some (Printf.sprintf "bullet.data %dB" (String.length data))
    | Ok_rep -> Some "bullet.ok"
    | Err_rep e -> Some ("bullet.err " ^ e)
    | _ -> None)

(* ---- On-disk inode layout ----------------------------------------

   An inode slot is one whole disk block. A slot is either free, or
   holds a file's metadata plus — for files that fit in the block
   ("immediate" files) — the data itself, so creating one is a single
   atomic block write. *)

type file = {
  obj : int;
  secret : Capability.secret;
  data : string;
  slot : int; (* global slot index *)
  data_blocks : int list; (* non-immediate files only *)
}

type t = {
  net : Simnet.Network.t;
  transport : Rpc.Transport.t;
  device : Block_device.t;
  port : string;
  first_block : int;
  inode_blocks : int;
  data_first : int;
  data_blocks : int;
  cpu : Sim.Resource.t option;
  files : (int, file) Hashtbl.t; (* by obj *)
  slot_owner : int option array; (* slot -> obj *)
  data_free : bool array;
  mutable next_obj : int;
  mutable dirty_tombstones : file list; (* retired files awaiting flush *)
  mutable free_stack : int list;
      (* recently freed slots, newest first: LIFO reuse means the next
         create's inode write almost always covers the tombstone *)
  flush_kick : Sim.Condvar.t;
}

let immediate_limit t = Block_device.block_size t.device - 64

let slot_block t slot = t.first_block + slot

let encode_slot owner =
  Codec.Writer.encode_bytes (fun w ->
      match owner with
      | None -> Codec.Writer.u8 w 0
      | Some file ->
          Codec.Writer.u8 w 1;
          Codec.Writer.u32 w file.obj;
          Codec.Writer.i64 w file.secret;
          if file.data_blocks = [] then begin
            Codec.Writer.u8 w 1;
            (* immediate *)
            Codec.Writer.string w file.data
          end
          else begin
            Codec.Writer.u8 w 0;
            Codec.Writer.u32 w (String.length file.data);
            Codec.Writer.list w Codec.Writer.u32 file.data_blocks
          end)

(* Write a slot's current in-core state to its inode block. *)
let write_inode_block t slot =
  let owner =
    match t.slot_owner.(slot) with
    | Some obj -> Hashtbl.find_opt t.files obj
    | None -> None
  in
  Block_device.write t.device (slot_block t slot) (encode_slot owner)

let charge_cpu t =
  match t.cpu with None -> () | Some cpu -> Sim.Resource.use cpu cpu_ms

let find_free_slot t =
  match t.free_stack with
  | slot :: rest when t.slot_owner.(slot) = None ->
      t.free_stack <- rest;
      slot
  | _ ->
      let n = Array.length t.slot_owner in
      let rec go i =
        if i >= n then raise (Error "bullet: out of inodes")
        else if t.slot_owner.(i) = None then i
        else go (i + 1)
      in
      go 0

(* The [count] lowest free data blocks, lowest first. *)
let alloc_data_blocks t count =
  let rec scan i found acquired =
    if found = count then acquired
    else if i = t.data_blocks then raise (Error "bullet: disk full")
    else if t.data_free.(i) then scan (i + 1) (found + 1) (i :: acquired)
    else scan (i + 1) found acquired
  in
  let acquired = scan 0 0 [] in
  List.iter (fun i -> t.data_free.(i) <- false) acquired;
  List.rev_map (fun i -> t.data_first + i) acquired

let rec holds_tombstone slot = function
  | [] -> false
  | f :: rest -> f.slot = slot || holds_tombstone slot rest

let rec drop_tombstones slot = function
  | [] -> []
  | f :: rest ->
      if f.slot = slot then drop_tombstones slot rest
      else f :: drop_tombstones slot rest

let do_create t data =
  let slot = find_free_slot t in
  let obj = t.next_obj in
  t.next_obj <- obj + 1;
  let secret =
    Capability.mint_secret
      (Int64.of_int ((Rpc.Transport.node_id t.transport * 1_000_003) + obj))
  in
  let block_size = Block_device.block_size t.device in
  let file =
    if String.length data <= immediate_limit t then
      { obj; secret; data; slot; data_blocks = [] }
    else begin
      let nblocks = (String.length data + block_size - 1) / block_size in
      let blocks = alloc_data_blocks t nblocks in
      { obj; secret; data; slot; data_blocks = blocks }
    end
  in
  (* Reusing a pending-tombstone slot: this create's inode write covers
     the tombstone, so drop it from the flush queue. *)
  if holds_tombstone slot t.dirty_tombstones then
    t.dirty_tombstones <- drop_tombstones slot t.dirty_tombstones;
  Hashtbl.replace t.files obj file;
  t.slot_owner.(slot) <- Some obj;
  (* Write the data blocks first, then commit via the inode block. *)
  List.iteri
    (fun i block ->
      let off = i * block_size in
      let len = min block_size (String.length data - off) in
      let chunk = Bytes.create len in
      Bytes.blit_string data off chunk 0 len;
      Block_device.write t.device block chunk)
    file.data_blocks;
  write_inode_block t slot;
  Capability.owner ~port:t.port ~obj secret

let lookup_validated t cap ~need =
  match Hashtbl.find_opt t.files cap.Capability.obj with
  | None -> raise (Error "bullet: no such file")
  | Some file ->
      if not (Capability.validate cap file.secret) then
        raise (Error "bullet: invalid capability");
      if not (Capability.has_rights cap ~need) then
        raise (Error "bullet: insufficient rights");
      file

let do_read t cap =
  let file = lookup_validated t cap ~need:right_read in
  file.data

let do_delete t cap =
  let file = lookup_validated t cap ~need:right_destroy in
  Hashtbl.remove t.files file.obj;
  if file.data_blocks = [] then begin
    (* Immediate file: the slot is reusable at once — the next create
       that lands in it persists the tombstone for free, so steady-state
       retirement costs no disk writes. Until then the on-disk inode is
       an orphan (the real Bullet collected such garbage offline); the
       idle flusher eventually clears it. *)
    t.slot_owner.(file.slot) <- None;
    t.free_stack <- file.slot :: t.free_stack
  end;
  (* Files with separate data blocks keep their slot and blocks until
     the tombstone is durable, so a crash cannot leave two inodes naming
     the same data blocks. *)
  t.dirty_tombstones <- file :: t.dirty_tombstones;
  Sim.Condvar.broadcast t.flush_kick

let flusher t () =
  while true do
    Sim.Condvar.await t.flush_kick (fun () -> t.dirty_tombstones <> []);
    (* Let tombstones accumulate; most are covered for free by reusing
       creates. Whatever remains costs one block write each. *)
    Sim.Proc.sleep flush_interval;
    let retired = t.dirty_tombstones in
    t.dirty_tombstones <- [];
    List.iter (fun f -> t.slot_owner.(f.slot) <- None) retired;
    List.iter
      (fun (f : file) ->
        write_inode_block t f.slot;
        (* The tombstone is durable: its data blocks may be reused. *)
        List.iter (fun b -> t.data_free.(b - t.data_first) <- true) f.data_blocks)
      retired
  done

let recover t =
  for slot = 0 to t.inode_blocks - 1 do
    let image = Block_device.peek t.device (slot_block t slot) in
    if Bytes.length image > 0 then begin
      let r = Codec.Reader.of_bytes image in
      match Codec.Reader.u8 r with
      | 1 ->
          let obj = Codec.Reader.u32 r in
          let secret = Codec.Reader.i64 r in
          let immediate = Codec.Reader.u8 r = 1 in
          let file =
            if immediate then
              let data = Codec.Reader.string r in
              { obj; secret; data; slot; data_blocks = [] }
            else begin
              let size = Codec.Reader.u32 r in
              let blocks = Codec.Reader.list r Codec.Reader.u32 in
              let buffer = Buffer.create size in
              List.iter
                (fun b -> Buffer.add_bytes buffer (Block_device.peek t.device b))
                blocks;
              let data = Buffer.sub buffer 0 size in
              List.iter (fun b -> t.data_free.(b - t.data_first) <- false) blocks;
              { obj; secret; data; slot; data_blocks = blocks }
            end
          in
          Hashtbl.replace t.files obj file;
          t.slot_owner.(slot) <- Some obj;
          if obj >= t.next_obj then t.next_obj <- obj + 1
      | _ -> ()
    end
  done

let handler t ~client:_ body =
  charge_cpu t;
  match body with
  | Create_req data -> (
      match do_create t data with
      | cap -> Cap_rep cap
      | exception Error e -> Err_rep e)
  | Read_req cap -> (
      match do_read t cap with
      | data -> Data_rep data
      | exception Error e -> Err_rep e)
  | Delete_req cap -> (
      match do_delete t cap with
      | () -> Ok_rep
      | exception Error e -> Err_rep e)
  | _ -> Err_rep "bullet: bad request"

let start net transport ~device ~first_block ~region_blocks ?(inode_blocks = 0)
    ?cpu () =
  let inode_blocks =
    if inode_blocks > 0 then inode_blocks else max 1 (region_blocks / 4)
  in
  if inode_blocks >= region_blocks then
    invalid_arg "Bullet.start: no room for data blocks";
  let data_first = first_block + inode_blocks in
  let data_blocks = region_blocks - inode_blocks in
  let t =
    {
      net;
      transport;
      device;
      port = port_of (Rpc.Transport.node_id transport);
      first_block;
      inode_blocks;
      data_first;
      data_blocks;
      cpu;
      files = Hashtbl.create 64;
      slot_owner = Array.make inode_blocks None;
      data_free = Array.make data_blocks true;
      next_obj = 1;
      dirty_tombstones = [];
      free_stack = [];
      flush_kick = Sim.Condvar.create ();
    }
  in
  recover t;
  Rpc.Transport.serve transport ~port:t.port ~threads:8 (handler t);
  Sim.Proc.boot (Simnet.Network.engine net) (Rpc.Transport.node transport)
    ~name:"bullet.flusher" (flusher t);
  t

let live_files t = Hashtbl.length t.files

(* ---- Client helpers ---------------------------------------------- *)

let expect_ok = function
  | Err_rep e -> raise (Error e)
  | other -> other

let create transport ~port data =
  match expect_ok (Rpc.Transport.trans transport ~port (Create_req data)) with
  | Cap_rep cap -> cap
  | _ -> raise (Error "bullet: unexpected reply to create")

let read transport ~port cap =
  match expect_ok (Rpc.Transport.trans transport ~port (Read_req cap)) with
  | Data_rep data -> data
  | _ -> raise (Error "bullet: unexpected reply to read")

let delete transport ~port cap =
  match expect_ok (Rpc.Transport.trans transport ~port (Delete_req cap)) with
  | Ok_rep -> ()
  | _ -> raise (Error "bullet: unexpected reply to delete")
