(* Recovery-protocol tests: the crash schedules worked through in the
   paper's §3.2, plus full-cluster durability and NVRAM replay. *)

module C = Dirsvc.Cluster

let boot ?(seed = 21L) ?params flavor =
  let cluster = C.create ~seed ?params flavor in
  Alcotest.(check bool) "cluster boots" true
    (C.await_serving cluster ~count:(C.n_servers cluster));
  cluster

let advance cluster ms =
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. ms)

let rec retrying ?(tries = 20) f =
  match f () with
  | v -> v
  | exception (Dirsvc.Wire.Dir_error _ | Rpc.Transport.Rpc_failure _)
    when tries > 0 ->
      Sim.Proc.sleep 250.0;
      retrying ~tries:(tries - 1) f

let check_converged_serving cluster =
  let serving = C.serving_servers cluster in
  let snapshots =
    List.filter (fun (sid, _) -> List.mem sid serving) (C.store_snapshots cluster)
  in
  match Dirsvc.Consistency.check_convergence snapshots with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Dirsvc.Consistency.divergence_to_string d)

let test_crash_one_rejoin () =
  let cluster = boot ~seed:31L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  C.crash_server cluster 3;
  advance cluster 500.0;
  (* Majority continues to serve reads and writes. *)
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"while-down" [ cap ]));
  Alcotest.(check (list int)) "two serving" [ 1; 2 ] (C.serving_servers cluster);
  (* Restart: the server recovers the missed update via state transfer. *)
  C.restart_server cluster 3;
  Alcotest.(check bool) "third back" true
    (C.await_serving ~timeout:10_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  let store3 = List.assoc 3 (C.store_snapshots cluster) in
  match Dirsvc.Directory.lookup store3 ~cap ~name:"while-down" ~column:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "rejoined server missed the update"

let test_last_to_fail_ordering () =
  (* The §3.2 sequence: 3 crashes; {1,2} continue (vectors 110) and
     perform an update; then 1 and 2 crash. Restarting 1 alone must not
     serve; restarting 3 as well must STILL not serve (2 might hold the
     latest update); only when 2 returns does service resume, with 2's
     data. *)
  let cluster = boot ~seed:32L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  C.crash_server cluster 3;
  advance cluster 500.0;
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"latest" [ cap ]));
  advance cluster 500.0;
  C.crash_server cluster 1;
  C.crash_server cluster 2;
  advance cluster 500.0;
  C.restart_server cluster 1;
  Alcotest.(check bool) "1 alone cannot serve" false
    (C.await_serving ~timeout:3_000.0 cluster ~count:1);
  C.restart_server cluster 3;
  Alcotest.(check bool) "1+3 cannot serve (2 may hold the latest update)" false
    (C.await_serving ~timeout:4_000.0 cluster ~count:1);
  C.restart_server cluster 2;
  Alcotest.(check bool) "all three recover" true
    (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  Harness.on_client cluster (fun client ->
      match retrying (fun () -> Dirsvc.Client.lookup client cap "latest") with
      | Some _ -> ()
      | None -> Alcotest.fail "the {1,2}-era update was lost")

let test_improved_rule_end_to_end () =
  (* §3.2's improvement: 3 crashes; {1,2} serve and update; 2 crashes;
     1 stays up (loses quorum, never restarts). When 3 returns, {1,3}
     may recover because 1 stayed up with the highest sequence number. *)
  let cluster = boot ~seed:33L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  C.crash_server cluster 3;
  advance cluster 500.0;
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"w1" [ cap ]));
  C.crash_server cluster 2;
  advance cluster 1_000.0;
  Alcotest.(check (list int)) "1 alone refuses" [] (C.serving_servers cluster);
  C.restart_server cluster 3;
  Alcotest.(check bool) "{1,3} recover via the improved rule" true
    (C.await_serving ~timeout:15_000.0 cluster ~count:2);
  advance cluster 1_000.0;
  Harness.on_client cluster (fun client ->
      (match retrying (fun () -> Dirsvc.Client.lookup client cap "w1") with
      | Some _ -> ()
      | None -> Alcotest.fail "pre-crash update lost");
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"w2" [ cap ]));
  check_converged_serving cluster

let test_crash_during_recovery_flag () =
  (* A server that crashed while recovering must distrust its own state
     (sequence number zeroed) and fetch everything from a donor. *)
  let cluster = boot ~seed:34L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"durable" [ cap ]));
  C.crash_server cluster 2;
  advance cluster 500.0;
  (* Simulate "crashed in the middle of recovery": the recovering flag
     is set in its commit block. *)
  let device = C.device cluster 2 in
  let helper = Sim.Node.create ~id:99 ~name:"helper" in
  Sim.Proc.boot (C.engine cluster) helper (fun () ->
      match Storage.Commit_block.decode (Storage.Block_device.peek device 0) with
      | Some cb -> Storage.Commit_block.write device { cb with recovering = true }
      | None -> Alcotest.fail "no commit block");
  advance cluster 500.0;
  C.restart_server cluster 2;
  Alcotest.(check bool) "server 2 back" true
    (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  let store2 = List.assoc 2 (C.store_snapshots cluster) in
  match Dirsvc.Directory.lookup store2 ~cap ~name:"durable" ~column:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "refetched state incomplete"

let test_full_cluster_reboot_durability () =
  let cluster = boot ~seed:35L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap =
          retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ])
        in
        for i = 1 to 5 do
          retrying (fun () ->
              Dirsvc.Client.append_row client cap ~name:(Printf.sprintf "r%d" i)
                [ cap ])
        done;
        cap)
  in
  advance cluster 1_000.0;
  (* Power failure: all three directory servers die, then return. *)
  List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ];
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  Harness.on_client cluster (fun client ->
      let listing =
        retrying (fun () -> Dirsvc.Client.list_dir client cap)
      in
      Alcotest.(check int) "all rows survive the power failure" 5
        (List.length listing.Dirsvc.Directory.entries))

let test_nvram_survives_crash () =
  (* Updates still sitting in the NVRAM log survive a crash: NVRAM is a
     reliable medium, so the restarted server replays it. *)
  let cluster = boot ~seed:36L C.Group_nvram in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap =
          retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ])
        in
        retrying (fun () ->
            Dirsvc.Client.append_row client cap ~name:"logged" [ cap ]);
        cap)
  in
  (* Crash server 2 promptly — before any idle flush can run. *)
  C.crash_server cluster 2;
  C.restart_server cluster 2;
  Alcotest.(check bool) "server 2 back" true
    (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  let store2 = List.assoc 2 (C.store_snapshots cluster) in
  match Dirsvc.Directory.lookup store2 ~cap ~name:"logged" ~column:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "NVRAM-logged update lost across crash"

let test_sequencer_server_crash () =
  (* Crash the server whose node hosts the group sequencer (the group
     creator): view change + service continues. *)
  let cluster = boot ~seed:37L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  C.crash_server cluster 1;
  advance cluster 1_000.0;
  Harness.on_client cluster (fun client ->
      retrying (fun () ->
          Dirsvc.Client.append_row client cap ~name:"post-seq-crash" [ cap ]));
  Alcotest.(check (list int)) "survivors serve" [ 2; 3 ]
    (C.serving_servers cluster);
  check_converged_serving cluster

(* The commit block's group-commit log as a server's block 0 holds it. *)
let commit_log device =
  match Storage.Commit_block.decode (Storage.Block_device.peek device 0) with
  | Some cb -> Dirsvc.Wire.decode_log_records cb.Storage.Commit_block.log
  | None -> []

let test_transfer_clears_commit_log () =
  (* Server 3 crashes while its last updates live only in the commit
     block's log. A state transfer supersedes that log, so the block-0
     write that ends its recovery must not carry the records back: they
     may hold a suffix the donor discarded, which a later reboot would
     replay. *)
  let params = { Dirsvc.Params.default with batch_max = 8 } in
  let cluster = boot ~seed:38L ~params C.Group_disk in
  let caps =
    Harness.on_client cluster (fun client ->
        List.init 6 (fun _ ->
            retrying (fun () ->
                Dirsvc.Client.create_dir client ~columns:[ "owner" ])))
  in
  let device = C.device cluster 3 in
  (* Within the 150 ms idle-persist window of the last append. *)
  Harness.on_client ~budget:2_000.0 cluster (fun client ->
      List.iter
        (fun cap ->
          retrying (fun () ->
              Dirsvc.Client.append_row client cap ~name:"first" [ cap ]))
        caps;
      C.crash_server cluster 3);
  Alcotest.(check bool) "crashed with a non-empty log" true
    (commit_log device <> []);
  Harness.on_client cluster (fun client ->
      List.iter
        (fun cap ->
          retrying (fun () ->
              Dirsvc.Client.append_row client cap ~name:"second" [ cap ]))
        caps);
  C.restart_server cluster 3;
  Alcotest.(check bool) "server 3 back" true
    (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  advance cluster 100.0;
  Alcotest.(check int) "no log records after the transfer" 0
    (List.length (commit_log device));
  check_converged_serving cluster

let test_rejoin_rewrites_changes flavor () =
  (* A rejoining replica rewrites only the directories that changed
     while it was down, not its whole image, and its object table then
     matches its store exactly. *)
  let cluster = boot ~seed:39L flavor in
  let caps =
    Harness.on_client cluster (fun client ->
        List.init 40 (fun _ ->
            retrying (fun () ->
                Dirsvc.Client.create_dir client ~columns:[ "owner" ])))
  in
  advance cluster 1_000.0;
  C.crash_server cluster 3;
  advance cluster 500.0;
  let gone = List.nth caps 1 in
  Harness.on_client cluster (fun client ->
      let cap = List.hd caps in
      retrying (fun () ->
          Dirsvc.Client.append_row client cap ~name:"while-down" [ cap ]);
      retrying (fun () -> Dirsvc.Client.delete_dir client gone));
  let device = C.device cluster 3 in
  let before = Storage.Block_device.writes_completed device in
  C.restart_server cluster 3;
  Alcotest.(check bool) "server 3 back" true
    (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  let written = Storage.Block_device.writes_completed device - before in
  Alcotest.(check bool)
    (Printf.sprintf "rejoin wrote %d blocks (at most 8)" written)
    true (written <= 8);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  let store = List.assoc 3 (C.store_snapshots cluster) in
  Alcotest.(check bool) "deleted directory gone" false
    (Dirsvc.Directory.Store.mem gone.Capability.obj store);
  Harness.check_object_table cluster ~server:3 store

let crash_storm_property =
  (* Random single-server crash/restart schedules interleaved with
     writes: all serving replicas converge and no acknowledged write on
     a surviving majority is lost. *)
  QCheck.Test.make ~name:"random crash/restart storms converge" ~count:4
    QCheck.(pair (int_bound 999) (list_of_size Gen.(2 -- 4) (int_range 1 3)))
    (fun (seed, victims) ->
      let cluster = boot ~seed:(Int64.of_int (2000 + seed)) C.Group_disk in
      let cap =
        Harness.on_client cluster (fun client ->
            retrying (fun () ->
                Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
      in
      let counter = ref 0 in
      List.iter
        (fun victim ->
          incr counter;
          let tag = !counter in
          C.crash_server cluster victim;
          advance cluster 400.0;
          Harness.on_client cluster (fun client ->
              try
                retrying ~tries:8 (fun () ->
                    Dirsvc.Client.append_row client cap
                      ~name:(Printf.sprintf "op%d" tag) [ cap ])
              with _ -> ());
          C.restart_server cluster victim;
          ignore (C.await_serving ~timeout:15_000.0 cluster ~count:3);
          advance cluster 300.0)
        victims;
      advance cluster 2_000.0;
      let serving = C.serving_servers cluster in
      let snapshots =
        List.filter (fun (sid, _) -> List.mem sid serving)
          (C.store_snapshots cluster)
      in
      List.length serving >= 2
      && Dirsvc.Consistency.check_convergence snapshots = Ok ())

let suite =
  let tc = Alcotest.test_case in
  [
    tc "crash one, rejoin with state transfer" `Quick test_crash_one_rejoin;
    tc "last-to-fail ordering (paper scenario)" `Slow test_last_to_fail_ordering;
    tc "improved rule end-to-end" `Quick test_improved_rule_end_to_end;
    tc "crash during recovery flag" `Quick test_crash_during_recovery_flag;
    tc "full cluster reboot durability" `Quick test_full_cluster_reboot_durability;
    tc "nvram survives crash" `Quick test_nvram_survives_crash;
    tc "sequencer-hosting server crash" `Quick test_sequencer_server_crash;
    tc "state transfer clears the commit-block log" `Quick
      test_transfer_clears_commit_log;
    tc "rejoin rewrites only what changed (disk)" `Quick
      (test_rejoin_rewrites_changes C.Group_disk);
    tc "rejoin rewrites only what changed (nvram)" `Quick
      (test_rejoin_rewrites_changes C.Group_nvram);
    QCheck_alcotest.to_alcotest crash_storm_property;
  ]

(* Appended suite extensions: operator escape hatch and exactly-once. *)

let test_force_recover_escape_hatch () =
  (* The {1,3} deadlock from the last-to-fail schedule: normally they
     must wait for 2 (it may hold the latest update). If 2's disk is
     gone forever, the operator forces recovery from the best reachable
     data — the paper's §3.1 "escape for system administrators". *)
  let cluster = boot ~seed:38L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  C.crash_server cluster 3;
  advance cluster 500.0;
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"kept" [ cap ]));
  advance cluster 500.0;
  C.crash_server cluster 1;
  C.crash_server cluster 2;
  advance cluster 500.0;
  C.restart_server cluster 1;
  C.restart_server cluster 3;
  (* Stuck: {1,3} wait for 2 indefinitely. *)
  Alcotest.(check bool) "stuck without the override" false
    (C.await_serving ~timeout:4_000.0 cluster ~count:1);
  (* Operator declares server 2's data lost forever. *)
  Dirsvc.Group_server.force_recover (C.group_server cluster 1);
  Dirsvc.Group_server.force_recover (C.group_server cluster 3);
  Alcotest.(check bool) "{1,3} recover after the override" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:2);
  advance cluster 1_000.0;
  (* Server 1 had applied the update before crashing, so it survives. *)
  Harness.on_client cluster (fun client ->
      match retrying (fun () -> Dirsvc.Client.lookup client cap "kept") with
      | Some _ -> ()
      | None -> Alcotest.fail "best reachable data lost");
  check_converged_serving cluster

let test_exactly_once_across_reboot () =
  (* Regression: a restarted server once reused its uid space, was
     handed its original join grant, and re-executed history. The
     attributed logs of the never-crashed servers must show every
     (origin, uid) exactly once. *)
  let cluster = boot ~seed:39L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"a" [ cap ]));
  C.reboot_server cluster 2;
  ignore (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"b" [ cap ]));
  advance cluster 1_000.0;
  List.iter
    (fun sid ->
      let server = C.group_server cluster sid in
      (match
         Dirsvc.Consistency.check_exactly_once
           (Dirsvc.Group_server.applied_log server)
       with
      | Ok () -> ()
      | Error detail -> Alcotest.failf "server %d: %s" sid detail);
      match
        Dirsvc.Consistency.check_replay
          ~log:(Dirsvc.Group_server.applied_log server)
          (Dirsvc.Group_server.store_snapshot server)
      with
      | Ok () -> ()
      | Error detail ->
          (* Server 2's log restarts empty only if it state-transferred;
             when it recovered from its own disk the replay must match. *)
          if sid <> 2 then Alcotest.failf "server %d replay: %s" sid detail)
    [ 1; 3 ];
  check_converged_serving cluster

(* A rebooted server mints request ids it never used before: the
   updates initiated by server 2 before and after its reboot share no
   (origin, uid), so every replica's log holds each key once. *)
let test_uids_unique_across_reboot () =
  let cluster = boot ~seed:43L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  let append_via_server_2 names =
    let client =
      Harness.client_at ~max_attempts:1 cluster ~server:2 (fun client ->
          ignore (Dirsvc.Client.lookup client cap "probe"))
    in
    Harness.on_client ~client cluster (fun client ->
        List.iter
          (fun name ->
            retrying (fun () ->
                Dirsvc.Client.append_row client cap ~name [ cap ]))
          names)
  in
  append_via_server_2 [ "a"; "b"; "c" ];
  C.reboot_server cluster 2;
  Alcotest.(check bool) "server 2 serving again" true
    (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  append_via_server_2 [ "d"; "e"; "f" ];
  advance cluster 1_000.0;
  let origins =
    List.filter_map
      (fun (a : Dirsvc.Group_server.applied) ->
        match a.a_op with
        | Dirsvc.Directory.Append_row _ -> Some a.a_origin
        | _ -> None)
      (Dirsvc.Group_server.applied_log (C.group_server cluster 1))
  in
  Alcotest.(check int) "six appends, all through one server" 1
    (List.length (List.sort_uniq compare origins));
  Alcotest.(check int) "six appends logged" 6 (List.length origins);
  List.iter
    (fun sid ->
      match
        Dirsvc.Consistency.check_exactly_once
          (Dirsvc.Group_server.applied_log (C.group_server cluster sid))
      with
      | Ok () -> ()
      | Error detail -> Alcotest.failf "server %d: %s" sid detail)
    [ 1; 2; 3 ]

let suite =
  suite
  @ [
      Alcotest.test_case "force_recover escape hatch" `Quick
        test_force_recover_escape_hatch;
      Alcotest.test_case "exactly-once across reboot" `Quick
        test_exactly_once_across_reboot;
      Alcotest.test_case "request ids unique across a reboot" `Quick
        test_uids_unique_across_reboot;
    ]

(* The uncommitted-suffix hazard, end to end. A write reaches only the
   sequencer-hosting server (its multicast is dropped); that server
   commits it locally and crashes. The surviving majority resets and
   moves on without the write. When the crashed server reboots it holds
   the "ghost" update with an inflated sequence number — it must adopt
   the serving majority's state (dropping the ghost), not donate its
   own. *)
let test_uncommitted_suffix_discarded () =
  let cluster = boot ~seed:41L C.Group_disk in
  let net = C.net cluster in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  (* A client whose port cache points at server 1 (the group creator,
     hence the sequencer's host). *)
  (* This client must NOT fail over: its kernel gets a single attempt,
     so the ghost write exists only at server 1 (a normal client would
     eventually retry elsewhere and legitimately commit it — the
     documented absence of exactly-once semantics). *)
  let client_at_1 =
    Harness.client_at ~max_attempts:1 cluster ~server:1 (fun client ->
        ignore (Dirsvc.Client.lookup client cap "warm"))
  in
  (* Drop every group data packet server 1 sends: the ghost update will
     be applied (and disk-committed) only at server 1. *)
  Simnet.Network.set_fault_filter net
    (Some
       (fun packet ->
         match packet.Simnet.Packet.payload with
         | Group.Wire.Data_batch _ when packet.src = 1 -> Simnet.Network.Drop
         | _ -> Simnet.Network.Deliver));
  let node1 = Rpc.Transport.node (Dirsvc.Client.transport client_at_1) in
  Sim.Proc.boot (C.engine cluster) node1 (fun () ->
      match Dirsvc.Client.append_row client_at_1 cap ~name:"ghost" [ cap ] with
      | () -> ()
      | exception _ -> ());
  advance cluster 150.0;
  (* Server 1 has applied (and committed) the ghost; kill it before the
     group recovers, then let the survivors reset. *)
  C.crash_server cluster 1;
  Simnet.Network.set_fault_filter net None;
  advance cluster 2_000.0;
  Alcotest.(check (list int)) "majority serves without the ghost" [ 2; 3 ]
    (C.serving_servers cluster);
  (* Confirm the ghost really is only on server 1's disk-backed state. *)
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"real" [ cap ]));
  C.restart_server cluster 1;
  Alcotest.(check bool) "server 1 back" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  let store1 = List.assoc 1 (C.store_snapshots cluster) in
  (match Dirsvc.Directory.lookup store1 ~cap ~name:"ghost" ~column:0 with
  | Error Dirsvc.Directory.Not_found -> ()
  | Ok _ -> Alcotest.fail "uncommitted ghost update resurrected"
  | Error e -> Alcotest.failf "unexpected: %s" (Dirsvc.Directory.error_to_string e));
  match Dirsvc.Directory.lookup store1 ~cap ~name:"real" ~column:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "rejoined server missed the committed update"

let suite =
  suite
  @ [
      Alcotest.test_case "uncommitted suffix discarded on rejoin" `Quick
        test_uncommitted_suffix_discarded;
    ]

(* The paper: "four or more replicas are also possible, without changing
   the protocol". A 5-replica deployment absorbing a two-server crash
   storm must keep serving (majority 3) and converge. *)
let test_five_replica_crash_storm () =
  let cluster = C.create ~seed:42L ~servers:5 C.Group_disk in
  Alcotest.(check bool) "five boot" true (C.await_serving cluster ~count:5);
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  C.crash_server cluster 2;
  C.crash_server cluster 5;
  advance cluster 1_000.0;
  Harness.on_client cluster (fun client ->
      retrying (fun () ->
          Dirsvc.Client.append_row client cap ~name:"with-3-of-5" [ cap ]));
  Alcotest.(check (list int)) "three keep serving" [ 1; 3; 4 ]
    (C.serving_servers cluster);
  C.restart_server cluster 2;
  C.restart_server cluster 5;
  Alcotest.(check bool) "all five back" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:5);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  Harness.on_client cluster (fun client ->
      match retrying (fun () -> Dirsvc.Client.lookup client cap "with-3-of-5") with
      | Some _ -> ()
      | None -> Alcotest.fail "update lost in the storm")

let suite =
  suite
  @ [
      Alcotest.test_case "five replicas: crash storm" `Quick
        test_five_replica_crash_storm;
    ]

(* Batched group commit logs updates in commit block 0 (one write per
   batch) and applies them to per-directory blocks lazily. A full-power
   failure inside that lazy window must replay the commit-block log on
   reboot — the acknowledged row exists nowhere else on disk. *)
let test_batched_group_commit_replay () =
  let params = { Dirsvc.Params.default with batch_max = 4 } in
  let cluster = boot ~seed:38L ~params C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap =
          retrying (fun () ->
              Dirsvc.Client.create_dir client ~columns:[ "owner" ])
        in
        for i = 1 to 3 do
          retrying (fun () ->
              Dirsvc.Client.append_row client cap
                ~name:(Printf.sprintf "r%d" i) [ cap ])
        done;
        cap)
  in
  (* One more update, then crash every server as soon as it is
     acknowledged — well inside batch_persist_idle_ms. *)
  let client = C.client cluster in
  let cnode = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let appended = ref false in
  Sim.Proc.boot (C.engine cluster) cnode (fun () ->
      retrying (fun () ->
          Dirsvc.Client.append_row client cap ~name:"tail" [ cap ]);
      appended := true);
  let deadline = Sim.Engine.now (C.engine cluster) +. 30_000.0 in
  while (not !appended) && Sim.Engine.now (C.engine cluster) < deadline do
    advance cluster 25.0
  done;
  Alcotest.(check bool) "tail append acknowledged" true !appended;
  List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ];
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  Harness.on_client cluster (fun client ->
      let listing = retrying (fun () -> Dirsvc.Client.list_dir client cap) in
      Alcotest.(check (list string)) "all rows incl. the logged tail survive"
        [ "r1"; "r2"; "r3"; "tail" ]
        (List.map (fun (n, _, _) -> n) listing.Dirsvc.Directory.entries))

let suite =
  suite
  @ [
      Alcotest.test_case "batched commit-block log replays after reboot"
        `Quick test_batched_group_commit_replay;
    ]

let crash_all cluster = List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ]

(* Restart every (crashed) server, and list [cap] once all serve. *)
let names_after_restart cluster cap =
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  Harness.on_client cluster (fun client ->
      let listing = retrying (fun () -> Dirsvc.Client.list_dir client cap) in
      List.map (fun (n, _, _) -> n) listing.Dirsvc.Directory.entries)

(* Delete a row whose append is already on disk, crash every server at
   the delete's ack: the delete, logged in block 0, must survive. The
   setup runs inside [Harness.on_client]'s 60 s budget, so the idle
   persist has long since written the append to the directory's own
   blocks and emptied the commit-block log. *)
let test_persisted_row_delete_crash () =
  let params = { Dirsvc.Params.default with batch_max = 4 } in
  let cluster = boot ~seed:39L ~params C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap =
          retrying (fun () ->
              Dirsvc.Client.create_dir client ~columns:[ "owner" ])
        in
        retrying (fun () ->
            Dirsvc.Client.append_row client cap ~name:"victim" [ cap ]);
        cap)
  in
  (* Delete the row, crash every server right after the ack — inside
     the batch_persist_idle_ms window of the delete itself. *)
  let client = C.client cluster in
  let cnode = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let deleted = ref false in
  Sim.Proc.boot (C.engine cluster) cnode (fun () ->
      retrying (fun () -> Dirsvc.Client.delete_row client cap ~name:"victim");
      deleted := true);
  let deadline = Sim.Engine.now (C.engine cluster) +. 30_000.0 in
  while (not !deleted) && Sim.Engine.now (C.engine cluster) < deadline do
    advance cluster 10.0
  done;
  Alcotest.(check bool) "delete acknowledged" true !deleted;
  crash_all cluster;
  Alcotest.(check (list string)) "acknowledged delete survives the crash" []
    (names_after_restart cluster cap)

(* Append a row and delete it straight away: the delete cancels the
   append while it is still in the commit block's log, so neither
   reaches a directory block. Every server crashes at the delete's ack,
   and the cancel must already be durable in block 0, or replay brings
   the row back. *)
let test_logged_row_delete_crash () =
  let params = { Dirsvc.Params.default with batch_max = 4 } in
  let cluster = boot ~seed:39L ~params C.Group_disk in
  let client = C.client cluster in
  let cnode = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let deleted = ref None in
  Sim.Proc.boot (C.engine cluster) cnode (fun () ->
      let cap =
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ])
      in
      retrying (fun () ->
          Dirsvc.Client.append_row client cap ~name:"victim" [ cap ]);
      retrying (fun () -> Dirsvc.Client.delete_row client cap ~name:"victim");
      crash_all cluster;
      deleted := Some cap);
  advance cluster 30_000.0;
  match !deleted with
  | None -> Alcotest.fail "delete not acknowledged"
  | Some cap ->
      Alcotest.(check (list string)) "acknowledged delete survives the crash"
        [] (names_after_restart cluster cap)

let suite =
  suite
  @ [
      Alcotest.test_case "delete of a persisted row survives a full crash"
        `Quick test_persisted_row_delete_crash;
    ]

(* Group commit on NVRAM: a writer whose result is already applied may
   reply while the group thread is still inside the burst's NVRAM
   append. Like a disk write, an issued NVRAM write must complete even
   if its node crashes, or the acknowledged row is lost when every
   server crashes right after the ack. *)
let test_nvram_group_commit_crash () =
  let params = { Dirsvc.Params.default with batch_max = 4 } in
  let cluster = boot ~seed:40L ~params C.Group_nvram in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  let client = C.client cluster in
  let cnode = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let appended = ref false in
  Sim.Proc.boot (C.engine cluster) cnode (fun () ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"acked" [ cap ]);
      appended := true);
  let deadline = Sim.Engine.now (C.engine cluster) +. 30_000.0 in
  while (not !appended) && Sim.Engine.now (C.engine cluster) < deadline do
    advance cluster 0.5
  done;
  Alcotest.(check bool) "append acknowledged" true !appended;
  (* The board is a device like the disk: its writes are counted in
     the cluster's registry, not only traced. *)
  let nvram_writes =
    Option.fold ~none:0 ~some:Sim.Metrics.Histogram.count
      (Sim.Metrics.histogram (C.metrics cluster) "disk.write_ms{dev=s0.nvram1}")
  in
  Alcotest.(check bool) "nvram writes counted" true (nvram_writes >= 1);
  List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ];
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  Harness.on_client cluster (fun client ->
      let listing = retrying (fun () -> Dirsvc.Client.list_dir client cap) in
      Alcotest.(check (list string)) "acknowledged row survives" [ "acked" ]
        (List.map (fun (n, _, _) -> n) listing.Dirsvc.Directory.entries))

let suite =
  suite
  @ [
      Alcotest.test_case "NVRAM group commit survives a crash at the ack"
        `Quick test_nvram_group_commit_crash;
    ]

(* A replica rejoining behind a backlog of updates to one directory
   answers reads of the other directories at once. Every directory
   changes while the replica is down, so its rejoin rewrites all of
   them — one Bullet file per directory, [n_dirs] of them — and the
   backlog builds meanwhile as writers keep updating directory E (a
   rejoin that rewrites only E is over before a backlog forms);
   afterwards it applies the backlog at the same disk-bound rate the
   writers add to it, so it stays seconds behind. A reader pinned to it
   reads other directories: each read must come back within one disk
   write, not after the backlog (which used to take longer than the
   4 s catch-up timeout). *)
let test_rejoin_reads_skip_backlog () =
  let cluster = boot ~seed:71L C.Group_disk in
  let n_dirs = 120 in
  let all_dirs, dirs, e =
    Harness.on_client ~budget:120_000.0 cluster (fun client ->
        let dirs =
          List.init n_dirs (fun _ ->
              retrying (fun () ->
                  Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
        in
        let read_dirs = List.filteri (fun i _ -> i < 5) dirs in
        List.iter
          (fun cap ->
            retrying (fun () ->
                Dirsvc.Client.append_row client cap ~name:"row" [ cap ]))
          read_dirs;
        (dirs, read_dirs, List.nth dirs (n_dirs - 1)))
  in
  let reader =
    Harness.client_at ~max_attempts:1 cluster ~server:3 (fun client ->
        ignore (Dirsvc.Client.lookup client (List.hd dirs) "row"))
  in
  C.crash_server cluster 3;
  advance cluster 500.0;
  Harness.on_client ~budget:120_000.0 cluster (fun client ->
      List.iter
        (fun cap ->
          retrying (fun () ->
              Dirsvc.Client.append_row client cap ~name:"missed" [ cap ]))
        all_dirs);
  (* Writers append and delete their own row of E until told to stop,
     riding out refusals and failovers. *)
  let stop = ref false in
  List.iter
    (fun w ->
      let writer = C.client cluster in
      let name = Printf.sprintf "w%d" w in
      ignore
        (Harness.start_on cluster writer (fun () ->
             while not !stop do
               try
                 Dirsvc.Client.append_row writer e ~name [ e ];
                 Dirsvc.Client.delete_row writer e ~name
               with Dirsvc.Wire.Dir_error _ | Rpc.Transport.Rpc_failure _ ->
                 Sim.Proc.sleep 50.0
             done)))
    [ 1; 2; 3 ];
  advance cluster 1_000.0;
  C.restart_server cluster 3;
  Alcotest.(check bool) "server 3 serving again" true
    (C.await_serving ~timeout:30_000.0 cluster ~count:3);
  let useq sid = Dirsvc.Group_server.useq (C.group_server cluster sid) in
  let reads =
    Harness.start_on cluster reader (fun () ->
        let outcomes =
          List.map
            (fun cap ->
              Harness.timed (fun () ->
                  match Dirsvc.Client.lookup reader cap "row" with
                  | Some _ -> Ok ()
                  | None -> Error "row missing"
                  | exception Dirsvc.Wire.Dir_error err ->
                      Error (Dirsvc.Wire.service_error_to_string err)))
            dirs
        in
        (outcomes, useq 3 < useq 1))
  in
  advance cluster 30_000.0;
  stop := true;
  match !reads with
  | None -> Alcotest.fail "reads did not complete"
  | Some (outcomes, behind) ->
      Alcotest.(check bool) "server 3 still behind after the reads" true behind;
      List.iter
        (fun (outcome, latency) ->
          match outcome with
          | Error why -> Alcotest.failf "read on server 3 failed: %s" why
          | Ok () when latency >= Dirsvc.Params.default.disk_write_ms ->
              Alcotest.failf "read on server 3 took %.1f ms" latency
          | Ok () -> ())
        outcomes

let suite =
  suite
  @ [
      Alcotest.test_case "rejoined replica reads skip its backlog" `Quick
        test_rejoin_reads_skip_backlog;
    ]

(* Eight directories get one acknowledged append each, and every server
   crashes 350 ms after the last ack: the group has been quiet long
   enough for the idle apply to be rewriting the directories' own
   blocks from the NVRAM log, but it has not finished. The commit block
   keeps the whole log until its next write, so each row not yet in its
   directory's blocks is replayed at boot. *)
let test_nvram_crash_during_apply () =
  let cluster = boot ~seed:41L C.Group_nvram in
  let caps =
    Harness.on_client cluster (fun client ->
        List.init 8 (fun _ ->
            retrying (fun () ->
                Dirsvc.Client.create_dir client ~columns:[ "owner" ])))
  in
  let client = C.client cluster in
  let cnode = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let appended = ref false in
  Sim.Proc.boot (C.engine cluster) cnode (fun () ->
      List.iter
        (fun cap ->
          retrying (fun () ->
              Dirsvc.Client.append_row client cap ~name:"acked" [ cap ]))
        caps;
      appended := true);
  let deadline = Sim.Engine.now (C.engine cluster) +. 30_000.0 in
  while (not !appended) && Sim.Engine.now (C.engine cluster) < deadline do
    advance cluster 0.5
  done;
  Alcotest.(check bool) "appends acknowledged" true !appended;
  advance cluster 350.0;
  List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ];
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  Harness.on_client cluster (fun client ->
      let rows =
        List.map
          (fun cap ->
            let listing = retrying (fun () -> Dirsvc.Client.list_dir client cap) in
            List.length listing.Dirsvc.Directory.entries)
          caps
      in
      Alcotest.(check (list int)) "every acknowledged row survives"
        (List.init 8 (fun _ -> 1))
        rows)

let suite =
  suite
  @ [
      Alcotest.test_case
        "nvram: full crash while the log is applied loses no acknowledged row"
        `Quick test_nvram_crash_during_apply;
    ]

(* Group commit on disk: an append to directory Y and the deletion of
   directory X sit in the commit block's log when the group goes quiet.
   The idle apply rewrites X first, and X's deletion writes the commit
   block; that write must still carry Y's append, which is not in Y's
   blocks yet. Every server crashes 250 ms after the acks, after that
   write and before Y's rewrite completes. *)
let test_delete_dir_during_apply () =
  let params = { Dirsvc.Params.default with batch_max = 4 } in
  let cluster = boot ~seed:42L ~params C.Group_disk in
  let x, y =
    Harness.on_client cluster (fun client ->
        let create () =
          retrying (fun () ->
              Dirsvc.Client.create_dir client ~columns:[ "owner" ])
        in
        let x = create () in
        (x, create ()))
  in
  let client = C.client cluster in
  let cnode = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let acked = ref false in
  Sim.Proc.boot (C.engine cluster) cnode (fun () ->
      retrying (fun () -> Dirsvc.Client.append_row client y ~name:"acked" [ y ]);
      retrying (fun () -> Dirsvc.Client.delete_dir client x);
      acked := true);
  let deadline = Sim.Engine.now (C.engine cluster) +. 30_000.0 in
  while (not !acked) && Sim.Engine.now (C.engine cluster) < deadline do
    advance cluster 0.5
  done;
  Alcotest.(check bool) "updates acknowledged" true !acked;
  advance cluster 250.0;
  List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ];
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  Harness.on_client cluster (fun client ->
      let listing = retrying (fun () -> Dirsvc.Client.list_dir client y) in
      Alcotest.(check (list string)) "acknowledged row survives" [ "acked" ]
        (List.map (fun (n, _, _) -> n) listing.Dirsvc.Directory.entries))

(* Group commit on disk: directory X's deletion sits in the commit
   block's log when appends to Y outgrow the 1 KB block. The overflowing
   flush rewrites X first, and X's deletion writes the commit block
   while the log still holds every record, the overflowing one
   included: that write must leave out the records that do not fit,
   not fail. *)
let test_delete_dir_met_by_overflow () =
  let params = { Dirsvc.Params.default with batch_max = 4 } in
  let cluster = boot ~seed:42L ~params C.Group_disk in
  let names = List.init 16 (fun i -> Printf.sprintf "%s-%02d" (String.make 40 'r') i) in
  let y =
    Harness.on_client cluster (fun client ->
        let create () =
          retrying (fun () ->
              Dirsvc.Client.create_dir client ~columns:[ "owner" ])
        in
        let x = create () in
        let y = create () in
        retrying (fun () -> Dirsvc.Client.delete_dir client x);
        List.iter
          (fun name ->
            retrying (fun () -> Dirsvc.Client.append_row client y ~name [ y ]))
          names;
        y)
  in
  let check what =
    Harness.on_client cluster (fun client ->
        let listing = retrying (fun () -> Dirsvc.Client.list_dir client y) in
        Alcotest.(check (list string)) what names
          (List.map (fun (n, _, _) -> n) listing.Dirsvc.Directory.entries))
  in
  check "every row appended";
  List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ];
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  check_converged_serving cluster;
  check "every row survives a full crash"

let suite =
  suite
  @ [
      Alcotest.test_case
        "group commit: a directory delete while the log is applied keeps \
         the other rows"
        `Quick test_delete_dir_during_apply;
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "delete of a logged row survives a full crash" `Quick
        test_logged_row_delete_crash;
      Alcotest.test_case
        "group commit: a directory deletion met by an overflowing flush"
        `Quick test_delete_dir_met_by_overflow;
    ]

(* Two faults in one ResetGroup. Server 1, the sequencer, crashes; the
   survivors reset, and the coordinator crashes as it sends its first
   Reset_commit, which is lost. The other survivor accepted the invite
   and waits for a commit that never comes. The wait rule must hand it
   back a failure within [2 * reset_window + fail_timeout] (plus one
   detector tick), it must not report serving meanwhile, and once both
   crashed servers are back all three serve: Skeen's rule waits for the
   survivor, which stayed up with the latest state. *)
let test_reset_coordinator_dies () =
  let cluster = boot ~seed:1L C.Group_disk in
  let net = C.net cluster in
  let config = Group.Types.default_config in
  (* The rule's bound (a reset window is 15 ms), plus one detector tick. *)
  let bound = (2.0 *. 15.0) +. config.fail_timeout +. config.heartbeat_period in
  let lost = ref None and resetting = ref false and overlaps = ref 0 in
  let own_broken = ref 0 and settled = ref None in
  Simnet.Network.set_fault_filter net
    (Some
       (fun packet ->
         match packet.Simnet.Packet.payload with
         | Group.Wire.Reset_commit _ when !lost = None ->
             lost := Some (packet.src, Sim.Engine.now (C.engine cluster));
             C.crash_server cluster packet.src;
             Simnet.Network.Drop
         | (Group.Wire.Reset_state _ | Group.Wire.Reset_invite _)
           when packet.src = 2 ->
             resetting := true;
             Simnet.Network.Deliver
         | _ -> Simnet.Network.Deliver));
  let trace = Sim.Trace.create () in
  Sim.Trace.set_sink trace
    (Some
       (fun e ->
         if e.Sim.Trace.subsystem = "grp" && e.Sim.Trace.node = 2 then
           match e.Sim.Trace.name with
           | "broken" -> incr own_broken
           | "view" -> resetting := false
           | "unsettled" when !settled = None ->
               settled := Some e.Sim.Trace.time
           | _ -> ()));
  Sim.Engine.set_trace (C.engine cluster) (Some trace);
  advance cluster 300.0;
  C.crash_server cluster 1;
  for _ = 1 to 400 do
    advance cluster 5.0;
    if !resetting && List.mem 2 (C.serving_servers cluster) then incr overlaps
  done;
  C.restart_server cluster 1;
  (match !lost with
  | Some (coord, _) -> C.restart_server cluster coord
  | None -> Alcotest.fail "no Reset_commit was sent");
  let all_back = C.await_serving ~timeout:20_000.0 cluster ~count:3 in
  Sim.Engine.set_trace (C.engine cluster) None;
  Alcotest.(check int) "server 2 entered Resetting from the invite" 0
    !own_broken;
  Alcotest.(check int) "server 2 not listed serving while Resetting" 0
    !overlaps;
  (match (!lost, !settled) with
  | Some (_, t_lost), Some t_settled ->
      Printf.printf "commit lost at %.1f ms; server 2 failed at %.1f ms\n"
        t_lost t_settled;
      if t_settled -. t_lost > bound then
        Alcotest.failf "server 2 waited %.1f ms for the lost commit (bound %.1f)"
          (t_settled -. t_lost) bound
  | _ -> Alcotest.fail "server 2 never gave up on the lost commit");
  Alcotest.(check bool) "all three serve again" true all_back;
  ignore
    (Harness.on_client ~budget:20_000.0 cluster (fun client ->
         Dirsvc.Client.create_dir client ~columns:[ "owner" ]))

let suite =
  suite
  @ [
      Alcotest.test_case "reset coordinator dies before its commit" `Quick
        test_reset_coordinator_dies;
    ]

(* A recovering server's commit-block writes keep the vector its last
   majority view left: a crash before it serves again must not leave it
   mourning every other server, which would shrink Skeen's last set (the
   recovery explorer found an acknowledged update lost that way). Server
   3 crashes while serving in {1,2,3}, misses an append and restarts;
   once its flag is set for the fetch, its vector still marks all three
   up, and only serving again rewrites it. *)
let test_recovering_vector_kept () =
  let cluster = boot ~seed:44L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        retrying (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  C.crash_server cluster 3;
  advance cluster 500.0;
  Harness.on_client cluster (fun client ->
      retrying (fun () -> Dirsvc.Client.append_row client cap ~name:"missed" [ cap ]));
  C.restart_server cluster 3;
  let block () = Storage.Commit_block.decode (Storage.Block_device.peek (C.device cluster 3) 0) in
  let rec until_flagged n =
    match block () with
    | Some cb when cb.Storage.Commit_block.recovering -> cb
    | _ when n = 0 -> Alcotest.fail "server 3 never set its recovering flag"
    | _ ->
        advance cluster 1.0;
        until_flagged (n - 1)
  in
  let flagged = until_flagged 10_000 in
  Alcotest.(check (array bool)) "vector while recovering" [| true; true; true |]
    flagged.config_vector;
  Alcotest.(check bool) "server 3 back" true (C.await_serving ~timeout:15_000.0 cluster ~count:3);
  (* Serving's own commit-block write clears the flag once it lands. *)
  advance cluster 200.0;
  match block () with
  | Some cb -> Alcotest.(check bool) "flag cleared" false cb.recovering
  | None -> Alcotest.fail "no commit block"

let suite =
  suite
  @ [
      Alcotest.test_case "a recovering server keeps its vector" `Quick test_recovering_vector_kept;
    ]
