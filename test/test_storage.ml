(* Tests for the storage substrates: block device, commit block, object
   table, Bullet server. *)

open Harness

let make_device w ?(blocks = 64) ?(write_ms = 40.0) ?(read_ms = 15.0) () =
  Storage.Block_device.create w.engine ~blocks ~block_size:1024 ~read_ms
    ~write_ms ()

let test_device_latency_and_serialisation () =
  let w = make_world () in
  let n = node ~id:1 "n1" in
  let device = make_device w () in
  let finished = ref [] in
  (* Two writes and a read issued together must serialise: 40+40+15. *)
  Sim.Proc.boot w.engine n (fun () ->
      Storage.Block_device.write device 1 (Bytes.of_string "a");
      finished := ("w1", Sim.Proc.now ()) :: !finished);
  Sim.Proc.boot w.engine n (fun () ->
      Storage.Block_device.write device 2 (Bytes.of_string "b");
      finished := ("w2", Sim.Proc.now ()) :: !finished);
  Sim.Proc.boot w.engine n (fun () ->
      let data = Storage.Block_device.read device 1 in
      finished := ("r", Sim.Proc.now ()) :: !finished;
      Alcotest.(check string) "read back" "a" (Bytes.to_string data));
  Sim.Engine.run w.engine;
  Alcotest.(check (list (pair string (float 1e-6)))) "arm serialises"
    [ ("w1", 40.0); ("w2", 80.0); ("r", 95.0) ]
    (List.rev !finished)

let test_device_write_survives_caller_crash () =
  let w = make_world () in
  let n = node ~id:1 "n1" in
  let device = make_device w () in
  Sim.Proc.boot w.engine n (fun () ->
      Storage.Block_device.write device 3 (Bytes.of_string "durable"));
  (* Crash the node while the write is in flight: the controller still
     completes it. *)
  at w ~delay:10.0 (fun () -> Sim.Node.crash n);
  Sim.Engine.run w.engine;
  Alcotest.(check string) "write completed" "durable"
    (Bytes.to_string (Storage.Block_device.peek device 3))

let test_commit_block_roundtrip () =
  let w = make_world () in
  let n = node ~id:1 "n1" in
  let device = make_device w () in
  let cb =
    {
      Storage.Commit_block.config_vector = [| true; true; false |];
      seqno = 17;
      recovering = true;
      boot = 4;
      log = "abc";
    }
  in
  let result =
    run_fiber w n (fun () ->
        Storage.Commit_block.write device cb;
        Storage.Commit_block.read device)
  in
  match result with
  | Some got ->
      Alcotest.(check (array bool)) "vector" cb.config_vector got.config_vector;
      Alcotest.(check int) "seqno" 17 got.Storage.Commit_block.seqno;
      Alcotest.(check bool) "recovering" true got.recovering;
      Alcotest.(check int) "boot" 4 got.boot;
      Alcotest.(check string) "log" "abc" got.log
  | None -> Alcotest.fail "commit block missing"

let test_commit_block_blank () =
  let w = make_world () in
  let n = node ~id:1 "n1" in
  let device = make_device w () in
  let result = run_fiber w n (fun () -> Storage.Commit_block.read device) in
  Alcotest.(check bool) "blank block reads as None" true (result = None)

let commit_block_codec_property =
  QCheck.Test.make ~name:"commit block codec roundtrip" ~count:200
    QCheck.(
      pair
        (quad (list bool) (int_bound 1_000_000) bool (int_bound 1_000))
        printable_string)
    (fun ((vector, seqno, recovering, boot), log) ->
      let cb =
        {
          Storage.Commit_block.config_vector = Array.of_list vector;
          seqno;
          recovering;
          boot;
          log;
        }
      in
      match Storage.Commit_block.decode (Storage.Commit_block.encode cb) with
      | Some got ->
          got.Storage.Commit_block.config_vector = cb.config_vector
          && got.seqno = seqno
          && got.recovering = recovering
          && got.boot = boot
          && got.log = log
      | None -> false)

let test_object_table () =
  let w = make_world () in
  let n = node ~id:1 "n1" in
  let device = make_device w () in
  let table = Storage.Object_table.attach device ~first_block:1 ~slots:8 in
  let cap = Capability.owner ~port:"bullet@9" ~obj:3 (Capability.mint_secret 1L) in
  run_fiber w n (fun () ->
      Storage.Object_table.write_entry table ~dir_id:2
        { Storage.Object_table.file_cap = cap; seqno = 5 };
      Storage.Object_table.write_entry table ~dir_id:4
        { Storage.Object_table.file_cap = cap; seqno = 9 };
      Storage.Object_table.clear_entry table ~dir_id:4;
      match Storage.Object_table.read_entry table ~dir_id:2 with
      | Some entry ->
          Alcotest.(check int) "seqno back" 5 entry.Storage.Object_table.seqno;
          Alcotest.(check bool) "cap back" true
            (Capability.equal cap entry.file_cap)
      | None -> Alcotest.fail "entry lost");
  Alcotest.(check (list int)) "scan sees only live entries" [ 2 ]
    (List.map fst (Storage.Object_table.scan table))

(* Bullet helpers: one server node, one client node. *)
let bullet_world ?(seed = 5L) () =
  let w = make_world ~seed () in
  let server = node ~id:1 "bullet-server" in
  let client = node ~id:2 "client" in
  let snic = Simnet.Network.attach w.net server in
  let cnic = Simnet.Network.attach w.net client in
  let st = Rpc.Transport.create w.net snic in
  let ct = Rpc.Transport.create w.net cnic in
  let device = make_device w ~blocks:128 () in
  let bullet =
    Storage.Bullet.start w.net st ~device ~first_block:16 ~region_blocks:112 ()
  in
  (w, server, client, ct, device, bullet, st)

let port1 = Storage.Bullet.port_of 1

let test_bullet_create_read_delete () =
  let w, _server, client, ct, _device, bullet, _st = bullet_world () in
  run_fiber w client (fun () ->
      let cap = Storage.Bullet.create ct ~port:port1 "hello bullet" in
      Alcotest.(check string) "read back" "hello bullet"
        (Storage.Bullet.read ct ~port:port1 cap);
      Storage.Bullet.delete ct ~port:port1 cap;
      match Storage.Bullet.read ct ~port:port1 cap with
      | _ -> Alcotest.fail "read after delete should fail"
      | exception Storage.Bullet.Error _ -> ());
  Alcotest.(check int) "no live files" 0 (Storage.Bullet.live_files bullet)

(* A file that fits in its inode block (up to block_size - 64 bytes)
   is created with one atomic block write, a ~900 B directory as well
   as a tiny one. *)
let test_bullet_small_create_is_one_disk_write () =
  let w, _server, client, ct, device, _bullet, _st = bullet_world () in
  run_fiber w client (fun () ->
      List.iter
        (fun data ->
          let before = Storage.Block_device.writes_completed device in
          ignore (Storage.Bullet.create ct ~port:port1 data);
          let after = Storage.Block_device.writes_completed device in
          Alcotest.(check int)
            (Printf.sprintf "immediate %d B file = 1 write" (String.length data))
            1 (after - before))
        [ "tiny directory contents"; String.make 900 'd' ])

let test_bullet_rights () =
  let w, _server, client, ct, _device, _bullet, _st = bullet_world () in
  run_fiber w client (fun () ->
      let cap = Storage.Bullet.create ct ~port:port1 "guarded" in
      let read_only = Capability.restrict cap ~mask:Storage.Bullet.right_read in
      Alcotest.(check string) "read-only cap reads" "guarded"
        (Storage.Bullet.read ct ~port:port1 read_only);
      match Storage.Bullet.delete ct ~port:port1 read_only with
      | () -> Alcotest.fail "delete without rights should fail"
      | exception Storage.Bullet.Error _ -> ())

let test_bullet_large_file () =
  let w, _server, client, ct, _device, _bullet, _st = bullet_world () in
  let big = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  run_fiber w client (fun () ->
      let cap = Storage.Bullet.create ct ~port:port1 big in
      Alcotest.(check string) "big file intact" big
        (Storage.Bullet.read ct ~port:port1 cap))

(* Deleting a large file returns its data blocks once its tombstone is
   on disk, and not before: 3 rounds of 10 five-block files need 150
   blocks of a data region that holds 84. *)
let test_bullet_reuses_freed_data_blocks () =
  let w, _server, client, ct, _device, bullet, _st = bullet_world () in
  let content round i =
    String.init 4500 (fun k -> Char.chr (((round * 31) + (i * 7) + k) mod 256))
  in
  run_fiber w client (fun () ->
      for round = 1 to 3 do
        let caps =
          List.init 10 (fun i ->
              Storage.Bullet.create ct ~port:port1 (content round i))
        in
        List.iteri
          (fun i cap ->
            Alcotest.(check string) "large file intact" (content round i)
              (Storage.Bullet.read ct ~port:port1 cap))
          caps;
        List.iter (Storage.Bullet.delete ct ~port:port1) caps;
        (match Storage.Bullet.create ct ~port:port1 (String.make 40_000 'x') with
        | _ -> Alcotest.fail "blocks reused before their tombstones are durable"
        | exception Storage.Bullet.Error e ->
            Alcotest.(check string) "blocks still held" "bullet: disk full" e);
        Sim.Proc.sleep 2_000.0
      done);
  Alcotest.(check int) "no live files" 0 (Storage.Bullet.live_files bullet)

let test_bullet_crash_recovery () =
  let w, server, client, ct, device, _bullet, _st = bullet_world () in
  let cap_committed = ref None in
  Sim.Proc.boot w.engine client (fun () ->
      cap_committed := Some (Storage.Bullet.create ct ~port:port1 "survives"));
  at w ~delay:200.0 (fun () ->
      Sim.Node.crash server;
      Sim.Node.restart server;
      (* Reboot the server stack on the persistent device. *)
      let snic = Simnet.Network.attach w.net server in
      let st = Rpc.Transport.create w.net snic in
      ignore
        (Storage.Bullet.start w.net st ~device ~first_block:16
           ~region_blocks:112 ()));
  at w ~delay:300.0 (fun () ->
      Sim.Proc.boot w.engine client (fun () ->
          match !cap_committed with
          | Some cap ->
              Rpc.Transport.invalidate_cache ct ~port:port1;
              Alcotest.(check string) "file recovered from disk" "survives"
                (Storage.Bullet.read ct ~port:port1 cap)
          | None -> Alcotest.fail "create never completed"));
  run_until w 500.0

(* The arm completes ops in the order they were submitted, so two
   fibers interleaving reads and writes on one device each read the
   bytes of the writes submitted before the read, at the instants the
   arm's schedule gives (write 40 ms, read 15 ms, each after the op
   ahead of it). B's last write is in flight when its node crashes: it
   still lands, and B never resumes. *)
let test_device_fifo_completions () =
  let w = make_world () in
  let a = node ~id:1 "a" and b = node ~id:2 "b" in
  let device = make_device w () in
  let log = ref [] in
  let note s = log := (s, Sim.Proc.now ()) :: !log in
  let write who i s =
    Storage.Block_device.write device i (Bytes.of_string s);
    note (Printf.sprintf "%s wrote %d" who i)
  and read who i =
    let got = Storage.Block_device.read device i in
    note (Printf.sprintf "%s read %d = %s" who i (Bytes.to_string got))
  in
  Sim.Proc.boot w.engine a (fun () ->
      write "A" 1 "a1";
      read "A" 2;
      write "A" 2 "a2";
      read "A" 1;
      read "A" 3);
  Sim.Proc.boot w.engine b (fun () ->
      write "B" 2 "b1";
      read "B" 1;
      write "B" 1 "b2";
      write "B" 3 "lost?");
  at w ~delay:200.0 (fun () -> Sim.Node.crash b);
  Sim.Engine.run w.engine;
  Alcotest.(check (list (pair string (float 0.0)))) "completions in submission order"
    [
      ("A wrote 1", 40.0);
      ("B wrote 2", 80.0);
      ("A read 2 = b1", 95.0);
      ("B read 1 = a1", 110.0);
      ("A wrote 2", 150.0);
      ("B wrote 1", 190.0);
      ("A read 1 = b2", 205.0);
      ("A read 3 = lost?", 260.0);
    ]
    (List.rev !log);
  Alcotest.(check int) "every write landed" 5
    (Storage.Block_device.writes_completed device);
  Alcotest.(check string) "the crashed fiber's write is on disk" "lost?"
    (Bytes.to_string (Storage.Block_device.peek device 3))

(* [Block_device.write] keeps the bytes it is handed, so every writer
   hands it a fresh encoding and never a buffer it reuses: the images a
   Bullet create, an object-table write and a commit-block write leave
   on disk stay as they were while later encodings run through the same
   domain's scratch writers, and while the caller scribbles over the
   bytes later encoders hand back, of every length up to 64 bytes (the
   three images are 29 to 36 bytes long). *)
let test_written_images_are_owned () =
  let w, _server, client, ct, device, _bullet, _st = bullet_world () in
  let table = Storage.Object_table.attach device ~first_block:1 ~slots:8 in
  let blocks = [ 0; 3; 16 ] (* commit block, dir 2's entry, slot 0's inode *) in
  let first =
    run_fiber w client (fun () ->
        let file_cap = Storage.Bullet.create ct ~port:port1 "an immediate file" in
        Storage.Object_table.write_entry table ~dir_id:2
          { Storage.Object_table.file_cap; seqno = 3 };
        Storage.Commit_block.write device
          { (Storage.Commit_block.make ~servers:3) with seqno = 4; log = "a log" };
        List.map (Storage.Block_device.peek device) blocks)
  in
  let scribble b = Bytes.fill b 0 (Bytes.length b) '!' in
  for i = 0 to 60 do
    scribble
      (Storage.Commit_block.encode
         { (Storage.Commit_block.make ~servers:3) with seqno = i; log = "a log" });
    scribble
      (Storage.Codec.Writer.encode_bytes (fun w ->
           Storage.Codec.Writer.string w (String.make i 'z')));
    ignore
      (Dirsvc.Directory.encode_dir
         {
           Dirsvc.Directory.columns = [| "c" |];
           rows = [];
           seqno = i;
           secret = Capability.mint_secret 9L;
         })
  done;
  List.iter2
    (fun block image ->
      Alcotest.(check string)
        (Printf.sprintf "block %d keeps its first image" block)
        (Bytes.to_string image)
        (Bytes.to_string (Storage.Block_device.peek device block)))
    blocks first

let suite =
  let tc = Alcotest.test_case in
  [
    tc "device latency and serialisation" `Quick
      test_device_latency_and_serialisation;
    tc "write survives caller crash" `Quick
      test_device_write_survives_caller_crash;
    tc "commit block roundtrip" `Quick test_commit_block_roundtrip;
    tc "commit block blank" `Quick test_commit_block_blank;
    QCheck_alcotest.to_alcotest commit_block_codec_property;
    tc "object table" `Quick test_object_table;
    tc "bullet create/read/delete" `Quick test_bullet_create_read_delete;
    tc "bullet small create = 1 disk write" `Quick
      test_bullet_small_create_is_one_disk_write;
    tc "bullet rights enforcement" `Quick test_bullet_rights;
    tc "bullet large file" `Quick test_bullet_large_file;
    tc "bullet reuses freed data blocks" `Quick
      test_bullet_reuses_freed_data_blocks;
    tc "bullet crash recovery" `Quick test_bullet_crash_recovery;
    tc "written images are owned by the device" `Quick
      test_written_images_are_owned;
    tc "device completes ops in submission order" `Quick
      test_device_fifo_completions;
  ]
