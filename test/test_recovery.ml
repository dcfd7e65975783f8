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

let suite =
  suite
  @ [
      Alcotest.test_case "force_recover escape hatch" `Quick
        test_force_recover_escape_hatch;
      Alcotest.test_case "exactly-once across reboot" `Quick
        test_exactly_once_across_reboot;
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
  let one_shot =
    { Rpc.Transport.default_config with max_attempts = 1; trans_timeout = 300.0 }
  in
  let client_at_1 =
    let rec find tries =
      if tries = 0 then Alcotest.fail "no client cached server 1"
      else begin
        let client = C.client ~rpc_config:one_shot cluster in
        let probe = ref false in
        Sim.Proc.boot (C.engine cluster)
          (Rpc.Transport.node (Dirsvc.Client.transport client))
          (fun () ->
            (try ignore (Dirsvc.Client.lookup client cap "warm") with _ -> ());
            probe := true);
        advance cluster 500.0;
        ignore !probe;
        match
          Rpc.Transport.cached_servers
            (Dirsvc.Client.transport client)
            ~port:(C.port cluster)
        with
        | 1 :: _ -> client
        | _ -> find (tries - 1)
      end
    in
    find 12
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

(* Delete a row whose append is already on disk, crash every server at
   the delete's ack: the delete, logged in block 0, must survive. The
   setup runs inside [Harness.on_client]'s 60 s budget, so the idle persist has
   long since written the append to the directory's own blocks and
   emptied the commit-block log — this does not reach the window where
   a delete annihilates an append still in that log, a known defect
   (DESIGN.md §8, item 11). *)
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
  List.iter (fun i -> C.crash_server cluster i) [ 1; 2; 3 ];
  advance cluster 500.0;
  List.iter (fun i -> C.restart_server cluster i) [ 1; 2; 3 ];
  Alcotest.(check bool) "cluster recovers" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  advance cluster 1_000.0;
  Harness.on_client cluster (fun client ->
      let listing = retrying (fun () -> Dirsvc.Client.list_dir client cap) in
      Alcotest.(check (list string)) "acknowledged delete survives the crash"
        []
        (List.map (fun (n, _, _) -> n) listing.Dirsvc.Directory.entries))

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
