(* End-to-end tests of the directory service deployments: operation
   semantics over the wire, cross-server consistency, majority refusal,
   NVRAM behaviour, and the RPC baseline's known weaknesses. *)

module C = Dirsvc.Cluster

let boot ?(seed = 9L) ?params flavor =
  let cluster = C.create ~seed ?params flavor in
  Alcotest.(check bool) "cluster boots" true (C.await_ready cluster);
  cluster

(* Transient refusals (a reset settling after boot, a view change in
   progress) are retryable by design; real clients retry them. *)
let rec with_unavailable_retry ?(tries = 10) f =
  match f () with
  | v -> v
  | exception Dirsvc.Wire.Dir_error (Dirsvc.Wire.Unavailable _)
    when tries > 0 ->
      Sim.Proc.sleep 200.0;
      with_unavailable_retry ~tries:(tries - 1) f

let check_converged cluster =
  match Dirsvc.Consistency.check_convergence (C.store_snapshots cluster) with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Dirsvc.Consistency.divergence_to_string d)

let crud_cycle client =
  let cap = Dirsvc.Client.create_dir client ~columns:[ "owner"; "other" ] in
  Dirsvc.Client.append_row client cap ~name:"alpha" [ cap ];
  Dirsvc.Client.append_row client cap ~name:"beta" [ cap ];
  Dirsvc.Client.chmod_row client cap ~name:"alpha" ~masks:[ 1; 0 ];
  let listing = Dirsvc.Client.list_dir client cap in
  Alcotest.(check (list string)) "both rows listed" [ "alpha"; "beta" ]
    (List.map (fun (n, _, _) -> n) listing.Dirsvc.Directory.entries);
  (match Dirsvc.Client.lookup client cap "alpha" with
  | Some (_, mask) -> Alcotest.(check int) "chmod visible" 1 mask
  | None -> Alcotest.fail "alpha missing");
  Dirsvc.Client.delete_row client cap ~name:"alpha";
  Alcotest.(check bool) "alpha gone" true
    (Dirsvc.Client.lookup client cap "alpha" = None);
  (* lookup_set resolves several names at once. *)
  (match Dirsvc.Client.lookup_set client [ (cap, "beta"); (cap, "ghost") ] with
  | [ Some _; None ] -> ()
  | _ -> Alcotest.fail "lookup_set mismatch");
  Dirsvc.Client.delete_dir client cap;
  match Dirsvc.Client.list_dir client cap with
  | _ -> Alcotest.fail "deleted dir should not list"
  | exception Dirsvc.Wire.Dir_error (Dirsvc.Wire.Op_error Dirsvc.Directory.Not_found) ->
      ()

(* The client requests [crud_cycle] makes, as (op, status). *)
let crud_requests =
  [
    ("create_dir", "ok"); ("append_row", "ok"); ("append_row", "ok");
    ("chmod_row", "ok"); ("list", "ok"); ("lookup", "ok");
    ("delete_row", "ok"); ("lookup", "ok"); ("lookup", "ok");
    ("delete_dir", "ok"); ("list", "err");
  ]

let str_attr e name =
  match List.assoc_opt name e.Sim.Trace.attrs with
  | Some (Sim.Trace.Str s) -> s
  | _ -> Alcotest.failf "op event without string attribute %s" name

(* Besides the semantics, the request front end's contract: one
   "dirsvc"/"op" trace event per client request, carrying its outcome,
   and exactly one dirsvc.op_ms histogram per (op, server) that served —
   a replica labelled by its id, the NFS comparator by "nfs". *)
let test_crud flavor () =
  let cluster = boot flavor in
  let op_events = Harness.collect_op_events (C.engine cluster) in
  Harness.on_client cluster crud_cycle;
  check_converged cluster;
  let events = op_events () in
  Alcotest.(check (list (pair string string)))
    "one op event per request, with its status" crud_requests
    (List.map (fun e -> (str_attr e "op", str_attr e "status")) events);
  let server e =
    match (flavor, List.assoc_opt "server" e.Sim.Trace.attrs) with
    | C.Nfs_single, Some (Sim.Trace.Str "nfs") -> "nfs"
    | (C.Group_disk | C.Group_nvram | C.Rpc_pair), Some (Sim.Trace.Int id)
      when id >= 1 && id <= C.n_servers cluster ->
        string_of_int id
    | _ -> Alcotest.fail "op event names no server of this deployment"
  in
  let expected =
    List.sort_uniq compare
      (List.map
         (fun e ->
           Sim.Metrics.labelled "dirsvc.op_ms"
             ~labels:[ ("op", str_attr e "op"); ("server", server e) ])
         events)
  in
  Alcotest.(check (list string)) "dirsvc.op_ms keys" expected
    (Harness.op_ms_keys (C.metrics cluster))

let test_cross_client_visibility () =
  (* A write through one client/server is immediately visible through
     another client (whose port cache may point at a different server) —
     the paper's read path guarantee. *)
  let cluster = boot ~seed:10L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client cap ~name:"shared" [ cap ];
        cap)
  in
  (* Several fresh clients: jitter makes them cache different servers. *)
  for i = 1 to 5 do
    Harness.on_client cluster (fun client ->
        match Dirsvc.Client.lookup client cap "shared" with
        | Some _ -> ()
        | None -> Alcotest.failf "client %d missed the write" i)
  done;
  (* Delete, then read back through yet another client: must be gone. *)
  Harness.on_client cluster (fun client ->
      Dirsvc.Client.delete_row client cap ~name:"shared");
  Harness.on_client cluster (fun client ->
      Alcotest.(check bool) "delete visible everywhere" true
        (Dirsvc.Client.lookup client cap "shared" = None))

let test_majority_refusal_under_partition () =
  (* Paper §3.1's foo example: reads must be refused without a majority,
     or a client could list a directory it successfully deleted. *)
  let cluster = boot ~seed:11L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client cap ~name:"foo" [ cap ];
        cap)
  in
  (* Partition server 3 (and its Bullet machine) away, together with no
     clients; the majority side keeps working. *)
  Simnet.Network.set_partitions (C.net cluster)
    [ [ 1; 2; 21; 22; 101; 102; 103; 104; 105; 106; 107; 108 ]; [ 3; 23 ] ];
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 1_500.0);
  Harness.on_client cluster (fun client ->
      Dirsvc.Client.delete_row client cap ~name:"foo");
  (* Now the minority server: it must refuse both reads and writes. *)
  Alcotest.(check (list int)) "only {1,2} serving" [ 1; 2 ]
    (C.serving_servers cluster);
  (* Heal; server 3 rejoins and must see the delete. *)
  Simnet.Network.heal (C.net cluster);
  Alcotest.(check bool) "third server back" true
    (C.await_serving ~timeout:5_000.0 cluster ~count:3);
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 1_000.0);
  check_converged cluster;
  let store3 = List.assoc 3 (C.store_snapshots cluster) in
  match Dirsvc.Directory.lookup store3 ~cap ~name:"foo" ~column:0 with
  | Error Dirsvc.Directory.Not_found -> ()
  | Ok _ -> Alcotest.fail "minority server resurrected deleted row"
  | Error e -> Alcotest.failf "unexpected: %s" (Dirsvc.Directory.error_to_string e)

let test_writes_survive_two_crashes () =
  (* r = 2: a completed write survives the immediate crash of two of the
     three servers — and the survivor refuses service (no majority). *)
  let cluster = boot ~seed:12L C.Group_disk in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client cap ~name:"precious" [ cap ];
        cap)
  in
  C.crash_server cluster 1;
  C.crash_server cluster 2;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 2_000.0);
  (* Survivor is not serving... *)
  Alcotest.(check (list int)) "survivor refuses (minority)" []
    (C.serving_servers cluster);
  (* ...but it holds the write in its store. *)
  let store3 = List.assoc 3 (C.store_snapshots cluster) in
  (match Dirsvc.Directory.lookup store3 ~cap ~name:"precious" ~column:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "survivor lost a completed write");
  (* Clients get No_majority. *)
  Harness.on_client cluster (fun client ->
      match Dirsvc.Client.lookup client cap "precious" with
      | _ -> Alcotest.fail "request should be refused"
      | exception Dirsvc.Wire.Dir_error Dirsvc.Wire.No_majority -> ()
      | exception Rpc.Transport.Rpc_failure _ -> ())

let test_nvram_annihilation () =
  (* The /tmp effect: an append+delete pair that never leaves NVRAM must
     cost no disk writes at all. *)
  let cluster = boot ~seed:13L C.Group_nvram in
  Harness.on_client cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      Dirsvc.Client.append_row client cap ~name:"warm" [ cap ];
      Dirsvc.Client.delete_row client cap ~name:"warm";
      Sim.Proc.sleep 50.0;
      let writes_before =
        List.init 3 (fun i ->
            Storage.Block_device.writes_completed (C.device cluster (i + 1)))
      in
      for i = 1 to 5 do
        let name = Printf.sprintf "tmp%d" i in
        Dirsvc.Client.append_row client cap ~name [ cap ];
        Dirsvc.Client.delete_row client cap ~name
      done;
      let writes_after =
        List.init 3 (fun i ->
            Storage.Block_device.writes_completed (C.device cluster (i + 1)))
      in
      Alcotest.(check (list int)) "no disk writes for annihilated pairs"
        writes_before writes_after)

let test_nvram_flushes_when_full () =
  (* Overflowing the 24 KB log forces a flush; nothing is lost. *)
  let params = { Dirsvc.Params.default with nvram_capacity = 600 } in
  let cluster = boot ~seed:14L ~params C.Group_nvram in
  Harness.on_client cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      for i = 1 to 30 do
        Dirsvc.Client.append_row client cap ~name:(Printf.sprintf "r%d" i) [ cap ]
      done;
      let listing = Dirsvc.Client.list_dir client cap in
      Alcotest.(check int) "all rows present" 30
        (List.length listing.Dirsvc.Directory.entries));
  check_converged cluster

let test_nvram_oversized_update () =
  (* An update whose log record is larger than the whole 24 KB log
     cannot be logged even after a drain; it is made stable on disk in
     place instead — and survives a crash of every server. The pause
     lets the idle flush empty the log first, so no later flush writes
     the directory on the update's behalf. *)
  let cluster = boot C.Group_nvram in
  let name = String.make 30_000 'x' in
  let cap =
    Harness.on_client cluster (fun client ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Sim.Proc.sleep 1_000.0;
        Dirsvc.Client.append_row client cap ~name [ cap ];
        cap)
  in
  check_converged cluster;
  List.iter (C.crash_server cluster) [ 1; 2; 3 ];
  List.iter (C.restart_server cluster) [ 1; 2; 3 ];
  Alcotest.(check bool) "recovers" true (C.await_serving cluster ~count:3);
  Harness.on_client cluster (fun client ->
      Alcotest.(check bool) "row survived on disk" true
        (with_unavailable_retry (fun () -> Dirsvc.Client.lookup client cap name)
        <> None));
  check_converged cluster

let test_rpc_pair_lazy_replication_converges () =
  let cluster = boot ~seed:15L C.Rpc_pair in
  Harness.on_client cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      for i = 1 to 8 do
        Dirsvc.Client.append_row client cap ~name:(Printf.sprintf "r%d" i) [ cap ]
      done);
  (* Give the lazy replicator time to drain. *)
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 3_000.0);
  check_converged cluster

let test_rpc_pair_diverges_under_partition () =
  (* The paper's §2 admission: the duplicated RPC service cannot
     guarantee consistency across partitions. Demonstrate it. *)
  let cluster = boot ~seed:16L C.Rpc_pair in
  let cap =
    Harness.on_client cluster (fun client ->
        Dirsvc.Client.create_dir client ~columns:[ "owner" ])
  in
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 2_000.0);
  (* Cut the wire between the two servers; each keeps a client. *)
  Simnet.Network.set_partitions (C.net cluster)
    [ [ 1; 21; 102 ]; [ 2; 22; 103 ] ];
  (* A client on each side writes a different row to the same directory. *)
  let write_one name = fun client ->
    (* The client's port cache may point across the partition; retry
       until the transaction lands on the reachable server. *)
    let rec go tries =
      if tries = 0 then ()
      else
        match Dirsvc.Client.append_row client cap ~name [ cap ] with
        | () -> ()
        | exception _ ->
            Sim.Proc.sleep 50.0;
            go (tries - 1)
    in
    go 10
  in
  Harness.on_client cluster (write_one "left");
  Harness.on_client cluster (write_one "right");
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 3_000.0);
  match Dirsvc.Consistency.check_convergence (C.store_snapshots cluster) with
  | Error _ -> () (* divergence demonstrated *)
  | Ok () -> Alcotest.fail "expected divergence under partition"

let test_group_applied_log_replays () =
  let cluster = boot ~seed:17L C.Group_disk in
  Harness.on_client cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      for i = 1 to 6 do
        Dirsvc.Client.append_row client cap ~name:(Printf.sprintf "r%d" i) [ cap ]
      done;
      Dirsvc.Client.delete_row client cap ~name:"r3");
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 500.0);
  List.iter
    (fun sid ->
      let server = C.group_server cluster sid in
      match
        Dirsvc.Consistency.check_replay
          ~log:(Dirsvc.Group_server.applied_log server)
          (Dirsvc.Group_server.store_snapshot server)
      with
      | Ok () -> ()
      | Error detail -> Alcotest.failf "server %d replay: %s" sid detail)
    [ 1; 2; 3 ]

let random_ops_converge_property =
  QCheck.Test.make ~name:"random multi-client traffic converges (group)"
    ~count:6
    QCheck.(pair (int_bound 999) (list_of_size Gen.(5 -- 25) (int_bound 5)))
    (fun (seed, plan) ->
      let cluster = boot ~seed:(Int64.of_int (1000 + seed)) C.Group_disk in
      let cap =
        Harness.on_client cluster (fun client ->
            with_unavailable_retry (fun () ->
                Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
      in
      let clients = Array.init 3 (fun _ -> C.client cluster) in
      List.iteri
        (fun i choice ->
          let client = clients.(i mod 3) in
          let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
          Sim.Proc.boot (C.engine cluster) node (fun () ->
              Sim.Proc.sleep (float_of_int (i * 17));
              let name = Printf.sprintf "n%d" (choice mod 4) in
              try
                match choice mod 3 with
                | 0 -> Dirsvc.Client.append_row client cap ~name [ cap ]
                | 1 -> Dirsvc.Client.delete_row client cap ~name
                | _ -> ignore (Dirsvc.Client.lookup client cap name)
              with Dirsvc.Wire.Dir_error _ | Rpc.Transport.Rpc_failure _ -> ()))
        plan;
      C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 30_000.0);
      match Dirsvc.Consistency.check_convergence (C.store_snapshots cluster) with
      | Ok () -> true
      | Error _ -> false)

let suite =
  let tc = Alcotest.test_case in
  [
    tc "crud cycle (group)" `Quick (test_crud C.Group_disk);
    tc "crud cycle (group+nvram)" `Quick (test_crud C.Group_nvram);
    tc "crud cycle (rpc pair)" `Quick (test_crud C.Rpc_pair);
    tc "crud cycle (nfs)" `Quick (test_crud C.Nfs_single);
    tc "cross-client visibility" `Quick test_cross_client_visibility;
    tc "majority refusal under partition" `Quick
      test_majority_refusal_under_partition;
    tc "writes survive two crashes (r=2)" `Quick test_writes_survive_two_crashes;
    tc "nvram annihilation (no disk I/O)" `Quick test_nvram_annihilation;
    tc "nvram flushes when full" `Quick test_nvram_flushes_when_full;
    tc "nvram: update larger than the log" `Quick test_nvram_oversized_update;
    tc "rpc pair: lazy replication converges" `Quick
      test_rpc_pair_lazy_replication_converges;
    tc "rpc pair: diverges under partition" `Quick
      test_rpc_pair_diverges_under_partition;
    tc "applied log replays to live store" `Quick test_group_applied_log_replays;
    QCheck_alcotest.to_alcotest random_ops_converge_property;
  ]

(* The directory service runs unchanged over the BB dissemination
   method (the group substrate's other design point). *)
let test_crud_over_bb () =
  let params =
    { Dirsvc.Params.default with dissemination = Group.Types.Bb }
  in
  let cluster = boot ~seed:51L ~params C.Group_disk in
  Harness.on_client cluster crud_cycle;
  check_converged cluster

let suite =
  suite
  @ [
      Alcotest.test_case "crud cycle over BB dissemination" `Quick
        test_crud_over_bb;
    ]

(* The paper's deployment requirement made live: on redundant networks,
   losing one entire network segment is invisible to the service. *)
let test_rail_failure_invisible () =
  let cluster = C.create ~seed:52L ~rails:2 C.Group_disk in
  Alcotest.(check bool) "boots on 2 rails" true
    (C.await_serving cluster ~count:3);
  let cap =
    Harness.on_client cluster (fun client ->
        with_unavailable_retry (fun () ->
            Dirsvc.Client.create_dir client ~columns:[ "owner" ]))
  in
  (* Kill rail 0 entirely, mid-flight. *)
  Simnet.Network.fail_rail (C.net cluster) ~rail:0;
  Harness.on_client cluster (fun client ->
      (* No retry wrapper: the failure must be completely invisible. *)
      Dirsvc.Client.append_row client cap ~name:"over-rail-1" [ cap ];
      match Dirsvc.Client.lookup client cap "over-rail-1" with
      | Some _ -> ()
      | None -> Alcotest.fail "write lost");
  Alcotest.(check (list int)) "all three still serving" [ 1; 2; 3 ]
    (C.serving_servers cluster);
  check_converged cluster

let suite =
  suite
  @ [
      Alcotest.test_case "rail failure invisible to the service" `Quick
        test_rail_failure_invisible;
    ]

(* Group-commit batching (ISSUE 8): with batch_max > 1 the servers
   defer durability to one commit per ordered batch. Semantics must be
   indistinguishable from the unbatched deployments over both media. *)
let batched_params = { Dirsvc.Params.default with batch_max = 4 }

let test_batched_crud flavor () =
  let cluster = boot ~seed:12L ~params:batched_params flavor in
  Harness.on_client cluster crud_cycle;
  check_converged cluster

let suite =
  suite
  @ [
      Alcotest.test_case "batched group/disk CRUD" `Quick
        (test_batched_crud C.Group_disk);
      Alcotest.test_case "batched group/nvram CRUD" `Quick
        (test_batched_crud C.Group_nvram);
    ]
