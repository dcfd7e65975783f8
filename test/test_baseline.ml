(* Focused tests for the RPC-pair baseline's machinery (locks and
   intentions, lazy replication, degraded mode) and for assorted edge
   cases across the stack that the end-to-end suites do not reach. *)

module C = Dirsvc.Cluster

let boot_pair ?(seed = 61L) () =
  let cluster = C.create ~seed C.Rpc_pair in
  C.run_until cluster 100.0;
  cluster

let test_concurrent_writes_same_directory () =
  (* Two clients hammer the same directory with distinct rows through
     (potentially) different servers: the intend/busy protocol must
     serialise without deadlock and both replicas converge. *)
  let cluster = boot_pair () in
  let cap =
    Harness.on_client cluster (fun client ->
        Dirsvc.Client.create_dir client ~columns:[ "owner" ])
  in
  let finished = ref 0 in
  for i = 1 to 2 do
    let client = C.client cluster in
    let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
    Sim.Proc.boot (C.engine cluster) node (fun () ->
        for j = 1 to 6 do
          let name = Printf.sprintf "c%d-r%d" i j in
          try
            Dirsvc.Client.append_row client cap ~name [ cap ];
            incr finished
          with _ -> ()
        done)
  done;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 20_000.0);
  Alcotest.(check int) "all 12 writes landed" 12 !finished;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 3_000.0);
  (match Dirsvc.Consistency.check_convergence (C.store_snapshots cluster) with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Dirsvc.Consistency.divergence_to_string d));
  let store = List.assoc 1 (C.store_snapshots cluster) in
  match Dirsvc.Directory.list_dir store ~cap ~column:0 with
  | Ok listing ->
      Alcotest.(check int) "12 rows present" 12
        (List.length listing.Dirsvc.Directory.entries)
  | Error _ -> Alcotest.fail "directory unreadable"

let test_degraded_mode_when_peer_down () =
  (* The RPC service keeps writing when its peer is dead (that is the
     point of assuming clean failures, and why partitions break it). *)
  let cluster = boot_pair ~seed:62L () in
  let cap =
    Harness.on_client cluster (fun client ->
        Dirsvc.Client.create_dir client ~columns:[ "owner" ])
  in
  C.crash_server cluster 2;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 500.0);
  Harness.on_client cluster (fun client ->
      Dirsvc.Client.append_row client cap ~name:"alone" [ cap ];
      match Dirsvc.Client.lookup client cap "alone" with
      | Some _ -> ()
      | None -> Alcotest.fail "degraded write invisible")

let test_restart_pulls_peer_state () =
  let cluster = boot_pair ~seed:63L () in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client cap ~name:"kept" [ cap ];
        cap)
  in
  C.reboot_server cluster 2;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 3_000.0);
  let store2 = List.assoc 2 (C.store_snapshots cluster) in
  match Dirsvc.Directory.lookup store2 ~cap ~name:"kept" ~column:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "restarted server did not pull peer state"

(* ---- assorted edge cases ------------------------------------------- *)

let test_codec_corrupt_input () =
  Alcotest.check_raises "truncated input"
    (Storage.Codec.Corrupt "truncated input") (fun () ->
      ignore (Storage.Codec.Reader.u32 (Storage.Codec.Reader.of_bytes (Bytes.of_string "ab"))));
  let r = Storage.Codec.Reader.of_bytes (Bytes.of_string "\x05") in
  Alcotest.check_raises "bad bool" (Storage.Codec.Corrupt "bad bool 5")
    (fun () -> ignore (Storage.Codec.Reader.bool r))

let test_commit_block_bad_magic () =
  Alcotest.check_raises "garbage block"
    (Storage.Codec.Corrupt "commit block: bad magic") (fun () ->
      ignore (Storage.Commit_block.decode (Bytes.make 16 'z')))

let test_bullet_out_of_inodes () =
  let engine = Sim.Engine.create ~seed:64L () in
  let net = Simnet.Network.create engine () in
  let server = Sim.Node.create ~id:1 ~name:"bullet" in
  let snic = Simnet.Network.attach net server in
  let st = Rpc.Transport.create net snic in
  let device =
    Storage.Block_device.create engine ~blocks:16 ~block_size:1024
      ~read_ms:1.0 ~write_ms:1.0 ()
  in
  (* 2 inode blocks at 4 slots each: 8 files max. *)
  ignore
    (Storage.Bullet.start net st ~device ~first_block:0 ~region_blocks:16
       ~inode_blocks:2 ());
  let client = Sim.Node.create ~id:2 ~name:"client" in
  let cnic = Simnet.Network.attach net client in
  let ct = Rpc.Transport.create net cnic in
  let outcome = ref "" in
  Sim.Proc.boot engine client (fun () ->
      let port = Storage.Bullet.port_of 1 in
      (try
         for i = 1 to 9 do
           ignore (Storage.Bullet.create ct ~port (Printf.sprintf "f%d" i))
         done;
         outcome := "no failure"
       with Storage.Bullet.Error e -> outcome := e));
  Sim.Engine.run ~until:5_000.0 engine;
  Alcotest.(check string) "ninth create refused" "bullet: out of inodes"
    !outcome

let test_directory_digest_distinguishes_content () =
  let secret = Capability.mint_secret 9L in
  let base =
    { Dirsvc.Directory.columns = [| "c" |]; rows = []; seqno = 3; secret }
  in
  let cap = Capability.owner ~port:"p" ~obj:0 secret in
  let with_row name =
    {
      base with
      Dirsvc.Directory.rows =
        [ { Dirsvc.Directory.name; caps = [| cap |]; masks = [| 255 |] } ];
    }
  in
  Alcotest.(check bool) "same content, same digest" true
    (Int64.equal
       (Dirsvc.Directory.digest (with_row "a"))
       (Dirsvc.Directory.digest (with_row "a")));
  Alcotest.(check bool) "different content, different digest" false
    (Int64.equal
       (Dirsvc.Directory.digest (with_row "a"))
       (Dirsvc.Directory.digest (with_row "b")));
  Alcotest.(check bool) "seqno changes digest" false
    (Int64.equal
       (Dirsvc.Directory.digest base)
       (Dirsvc.Directory.digest { base with Dirsvc.Directory.seqno = 4 }))

let test_exactly_once_checker () =
  let op =
    Dirsvc.Directory.Create_dir { columns = [ "c" ]; secret = 1L; hint = None }
  in
  let entry useq uid =
    { Dirsvc.Group_server.a_useq = useq; a_origin = 1; a_uid = uid; a_op = op }
  in
  Alcotest.(check bool) "unique log passes" true
    (Dirsvc.Consistency.check_exactly_once [ entry 1 10; entry 2 11 ] = Ok ());
  match Dirsvc.Consistency.check_exactly_once [ entry 1 10; entry 2 10 ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate (origin, uid) must be flagged"

let test_group_info_fields () =
  let engine = Sim.Engine.create ~seed:65L () in
  let net = Simnet.Network.create engine () in
  let n1 = Sim.Node.create ~id:1 ~name:"n1" in
  let nic = Simnet.Network.attach net n1 in
  let info = ref None in
  Sim.Proc.boot engine n1 (fun () ->
      let m = Group.Member.create_group net nic ~gname:"solo" in
      Group.Member.send m (Simnet.Payload.Opaque "x");
      ignore (Group.Member.receive m);
      info := Some (Group.Member.info m));
  Sim.Engine.run ~until:200.0 engine;
  match !info with
  | Some i ->
      Alcotest.(check (list int)) "members" [ 1 ] i.Group.Types.members;
      Alcotest.(check int) "sequencer" 1 i.sequencer;
      Alcotest.(check int) "next_deliver past the send" 2 i.next_deliver;
      Alcotest.(check string) "status" "normal"
        (Group.Types.status_to_string i.status)
  | None -> Alcotest.fail "info never read"

let suite =
  let tc = Alcotest.test_case in
  [
    tc "rpc pair: concurrent writes, same dir" `Quick
      test_concurrent_writes_same_directory;
    tc "rpc pair: degraded mode when peer down" `Quick
      test_degraded_mode_when_peer_down;
    tc "rpc pair: restart pulls peer state" `Quick test_restart_pulls_peer_state;
    tc "codec rejects corrupt input" `Quick test_codec_corrupt_input;
    tc "commit block rejects bad magic" `Quick test_commit_block_bad_magic;
    tc "bullet out of inodes" `Quick test_bullet_out_of_inodes;
    tc "directory digest distinguishes content" `Quick
      test_directory_digest_distinguishes_content;
    tc "exactly-once checker" `Quick test_exactly_once_checker;
    tc "group info fields" `Quick test_group_info_fields;
  ]
