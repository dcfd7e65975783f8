(* The on-disk formats, pinned byte for byte: a directory image, an
   object-table entry and tombstone, an immediate Bullet inode, the
   inode of a multi-block file (which pins the data blocks a create
   takes) and a commit block carrying a two-record log. Each fixture's
   encoding must equal its pinned hex, and the pinned bytes (an image a
   server wrote to its disk before any later change to the encoders)
   must still decode to the fixture, so boot replay keeps reading old
   disks. *)

open Harness

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let unhex s =
  Bytes.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let cap i =
  Capability.owner ~port:"bullet@1" ~obj:i (Capability.mint_secret (Int64.of_int i))

let null_cap = Capability.owner ~port:"" ~obj:0 0L

let names = [ "a"; "bb"; "ccc"; "dddd" ]

let dir_1col =
  {
    Dirsvc.Directory.columns = [| "owner" |];
    rows =
      List.mapi
        (fun i name ->
          { Dirsvc.Directory.name; caps = [| cap (i + 1) |]; masks = [| 0x0F |] })
        names;
    seqno = 42;
    secret = Capability.mint_secret 7L;
  }

let dir_4col =
  {
    Dirsvc.Directory.columns = [| "owner"; "group"; "other"; "public" |];
    rows =
      List.mapi
        (fun i name ->
          {
            Dirsvc.Directory.name;
            caps = [| cap (i + 1); cap (i + 11); null_cap; cap (i + 21) |];
            masks = [| 0x0F; 0x07; Capability.all_rights; i |];
          })
        names;
    seqno = 1_000_003;
    secret = Capability.mint_secret 8L;
  }

let dir_1col_hex =
  "01000000050000006f776e65722a000000a074df1fa615359104000000010000\
   0061010000000800000062756c6c6574403101000000ff000000e262537dd0f3\
   5e280f000000020000006262010000000800000062756c6c6574403102000000\
   ff00000068cdf4769c92a6290f00000003000000636363010000000800000062\
   756c6c6574403103000000ff00000083522aeb8fd47e8f0f0000000400000064\
   646464010000000800000062756c6c6574403104000000ff000000a7fc9ad3a9\
   7404ed0f000000"

let dir_4col_hex =
  "04000000050000006f776e65720500000067726f7570050000006f7468657206\
   0000007075626c696343420f00adcb4ef404d8b6000400000001000000610400\
   00000800000062756c6c6574403101000000ff000000e262537dd0f35e280800\
   000062756c6c657440310b000000ff0000003214b3c7a4903335000000000000\
   0000ff00000000000000000000000800000062756c6c6574403115000000ff00\
   0000701c685de3965cf60f00000007000000ff00000000000000020000006262\
   040000000800000062756c6c6574403102000000ff00000068cdf4769c92a629\
   0800000062756c6c657440310c000000ff000000296d60f310400d9d00000000\
   00000000ff00000000000000000000000800000062756c6c6574403116000000\
   ff000000dccbac2a96ac64d70f00000007000000ff0000000100000003000000\
   636363040000000800000062756c6c6574403103000000ff00000083522aeb8f\
   d47e8f0800000062756c6c657440310d000000ff000000fd42046a597c60eb00\
   00000000000000ff00000000000000000000000800000062756c6c6574403117\
   000000ff000000ca7c4c393b96c2f70f00000007000000ff0000000200000004\
   00000064646464040000000800000062756c6c6574403104000000ff000000a7\
   fc9ad3a97404ed0800000062756c6c657440310e000000ff0000007d4d9cd675\
   0bd0b20000000000000000ff00000000000000000000000800000062756c6c65\
   74403118000000ff000000a314ac00b3595fca0f00000007000000ff00000003\
   000000"

let check_dir label dir pinned () =
  Alcotest.(check string) (label ^ ": encoding") pinned
    (hex (Bytes.of_string (Dirsvc.Directory.encode_dir dir)));
  Alcotest.(check bool) (label ^ ": pinned image decodes") true
    (Dirsvc.Directory.decode_dir (Bytes.to_string (unhex pinned)) = dir)

let entry = { Storage.Object_table.file_cap = cap 5; seqno = 77 }

let entry_hex =
  "475e0b000800000062756c6c6574403105000000ff000000a5b855159fdf3a00\
   4d000000"

let tombstone_hex = "005e0b00"

let make_device w =
  Storage.Block_device.create w.engine ~blocks:32 ~block_size:1024 ~read_ms:15.0
    ~write_ms:40.0 ()

let test_object_table () =
  let w = make_world () in
  let n = node ~id:1 "n1" in
  let device = make_device w in
  let table = Storage.Object_table.attach device ~first_block:1 ~slots:4 in
  run_fiber w n (fun () ->
      Storage.Object_table.write_entry table ~dir_id:0 entry;
      Storage.Object_table.clear_entry table ~dir_id:1);
  Alcotest.(check string) "entry encoding" entry_hex
    (hex (Storage.Block_device.peek device 1));
  Alcotest.(check string) "tombstone encoding" tombstone_hex
    (hex (Storage.Block_device.peek device 2));
  (* The pinned images, written raw, read back through the table. *)
  let old = make_device w in
  let table = Storage.Object_table.attach old ~first_block:1 ~slots:4 in
  run_fiber w n (fun () ->
      Storage.Block_device.write old 1 (unhex tombstone_hex);
      Storage.Block_device.write old 3 (unhex entry_hex));
  match Storage.Object_table.scan table with
  | [ (2, got) ] ->
      Alcotest.(check int) "seqno" entry.seqno got.Storage.Object_table.seqno;
      Alcotest.(check bool) "cap" true (Capability.equal entry.file_cap got.file_cap)
  | got -> Alcotest.failf "scan found %d entries, expected dir 2 only" (List.length got)

(* One Bullet server on node 1 with its inodes from block 16: the
   immediate file's inode is slot 0's block. *)
let bullet_on device w =
  let server = node ~id:1 "bullet-server" and client = node ~id:2 "client" in
  let st = Rpc.Transport.create w.net (Simnet.Network.attach w.net server) in
  let ct = Rpc.Transport.create w.net (Simnet.Network.attach w.net client) in
  ignore (Storage.Bullet.start w.net st ~device ~first_block:16 ~region_blocks:16 ());
  (client, ct)

let inode_hex =
  "0101000000d82ffdbc14faa00f011700000074696e79206469726563746f7279\
   20636f6e74656e7473"

let contents = "tiny directory contents"

let test_bullet_inode () =
  let w = make_world () in
  let device = make_device w in
  let client, ct = bullet_on device w in
  let port = Storage.Bullet.port_of 1 in
  let cap = run_fiber w client (fun () -> Storage.Bullet.create ct ~port contents) in
  Alcotest.(check string) "inode encoding" inode_hex
    (hex (Storage.Block_device.peek device 16));
  (* A server booting on the pinned inode serves the file. *)
  let w = make_world () in
  let old = make_device w in
  run_fiber w (node ~id:3 "writer") (fun () ->
      Storage.Block_device.write old 16 (unhex inode_hex));
  let client, ct = bullet_on old w in
  Alcotest.(check string) "pinned inode reads back" contents
    (run_fiber w client (fun () -> Storage.Bullet.read ct ~port cap))

(* A file too big for its inode takes the lowest free data blocks, in
   ascending order, and its inode lists them: with blocks 20-22 freed by
   a deleted file and 23-25 held, a 5-block file takes 20-22 and
   26-27. *)
let blocks_inode_hex =
  "01030000002663ac6c7b5e02f40094110000050000001400000015000000160000\
   001a0000001b000000"

let test_bullet_blocks_inode () =
  let w = make_world () in
  let device = make_device w in
  let client, ct = bullet_on device w in
  let port = Storage.Bullet.port_of 1 in
  let big = String.init 4500 (fun i -> Char.chr (i mod 251)) in
  run_fiber w client (fun () ->
      let a = Storage.Bullet.create ct ~port (String.make 2500 'a') in
      ignore (Storage.Bullet.create ct ~port (String.make 2500 'b'));
      Storage.Bullet.delete ct ~port a;
      Sim.Proc.sleep 1_000.0;
      let c = Storage.Bullet.create ct ~port big in
      Alcotest.(check string) "file reads back" big (Storage.Bullet.read ct ~port c));
  Alcotest.(check string) "inode encoding" blocks_inode_hex
    (hex (Storage.Block_device.peek device 16))

let records =
  [
    ( 8,
      2,
      Dirsvc.Directory.Append_row
        { cap = cap 2; name = "row"; caps = [ cap 3; null_cap ]; masks = [ 0x0F; 1 ] } );
    (9, 2, Dirsvc.Directory.Delete_row { cap = cap 2; name = "other" });
  ]

let commit_block =
  {
    Storage.Commit_block.config_vector = [| true; false; true |];
    seqno = 9;
    recovering = false;
    boot = 3;
    log =
      Dirsvc.Wire.join_log_records
        (List.map
           (fun (useq, dir_id, op) -> Dirsvc.Wire.encode_log_record ~useq ~dir_id op)
           records);
  }

let commit_block_hex =
  "0cb1c000030000000100010900000000030000009e0000000200000008000000\
   02000000020800000062756c6c6574403102000000ff00000068cdf4769c92a6\
   2903000000726f77020000000800000062756c6c6574403103000000ff000000\
   83522aeb8fd47e8f0000000000000000ff000000000000000000000002000000\
   0f000000010000000900000002000000040800000062756c6c65744031020000\
   00ff00000068cdf4769c92a629050000006f74686572"

let test_commit_block () =
  Alcotest.(check string) "encoding" commit_block_hex
    (hex (Storage.Commit_block.encode commit_block));
  match Storage.Commit_block.decode (unhex commit_block_hex) with
  | Some cb ->
      Alcotest.(check bool) "header" true
        ({ cb with log = "" } = { commit_block with log = "" });
      Alcotest.(check bool) "log replays" true
        (Dirsvc.Wire.decode_log_records cb.log = records)
  | None -> Alcotest.fail "pinned commit block reads as blank"

let suite =
  let tc = Alcotest.test_case in
  [
    tc "directory image, 1 column" `Quick (check_dir "1 column" dir_1col dir_1col_hex);
    tc "directory image, 4 columns" `Quick (check_dir "4 columns" dir_4col dir_4col_hex);
    tc "object-table entry and tombstone" `Quick test_object_table;
    tc "bullet immediate inode" `Quick test_bullet_inode;
    tc "bullet inode of a multi-block file" `Quick test_bullet_blocks_inode;
    tc "commit block with a two-record log" `Quick test_commit_block;
  ]
