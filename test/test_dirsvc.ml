(* End-to-end tests of the directory service deployments: operation
   semantics over the wire, cross-server consistency, majority refusal,
   NVRAM behaviour, the group server's per-directory read gate, and the
   RPC baseline's known weaknesses. *)

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

(* The /tmp effect on either medium: an append+delete pair whose append
   is still in the commit block's log costs no directory-block writes at
   all — one commit-device write logs the append, one more makes the
   cancel durable, and the log ends empty of tmp rows. Writes are
   counted at issue, per device and block. *)
let test_annihilation ~seed flavor ~batch_max () =
  let params = { Dirsvc.Params.default with batch_max } in
  let cluster = boot ~seed ~params flavor in
  let commit_devs =
    List.init 3 (fun i ->
        Storage.Block_device.name (C.commit_device cluster (i + 1)))
  in
  let commit_writes = Hashtbl.create 3 and other_writes = ref 0 in
  let trace = Sim.Trace.create ~capacity:16 () in
  Sim.Trace.set_sink trace
    (Some
       (fun e ->
         if e.Sim.Trace.subsystem = "storage" && e.Sim.Trace.name = "disk.write"
         then
           match
             ( List.assoc_opt "dev" e.Sim.Trace.attrs,
               List.assoc_opt "block" e.Sim.Trace.attrs )
           with
           | Some (Sim.Trace.Str dev), Some (Sim.Trace.Int 0)
             when List.mem dev commit_devs ->
               Hashtbl.replace commit_writes dev
                 (1 + Option.value ~default:0 (Hashtbl.find_opt commit_writes dev))
           | _ -> incr other_writes));
  Sim.Engine.set_trace (C.engine cluster) (Some trace);
  Harness.on_client cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      Dirsvc.Client.append_row client cap ~name:"warm" [ cap ];
      Dirsvc.Client.delete_row client cap ~name:"warm";
      Sim.Proc.sleep 50.0;
      Hashtbl.reset commit_writes;
      other_writes := 0;
      for i = 1 to 5 do
        let name = Printf.sprintf "tmp%d" i in
        Dirsvc.Client.append_row client cap ~name [ cap ];
        Dirsvc.Client.delete_row client cap ~name
      done;
      Alcotest.(check int) "no directory-block writes for annihilated pairs" 0
        !other_writes;
      Alcotest.(check (list int)) "two commit-device writes per pair"
        [ 10; 10; 10 ]
        (List.map
           (fun dev ->
             Option.value ~default:0 (Hashtbl.find_opt commit_writes dev))
           commit_devs);
      (* The ack leaves a lagging replica's block-0 disk write in flight;
         the board's writes have all completed by then. *)
      if flavor = C.Group_disk then Sim.Proc.sleep 50.0;
      List.iter
        (fun i ->
          let log =
            match
              Storage.Commit_block.decode
                (Storage.Block_device.peek (C.commit_device cluster i) 0)
            with
            | Some cb -> cb.Storage.Commit_block.log
            | None -> ""
          in
          Alcotest.(check (list int)) "no tmp row left in the commit log" []
            (List.filter_map
               (fun (useq, _, op) ->
                 match op with
                 | Dirsvc.Directory.Append_row _ -> Some useq
                 | _ -> None)
               (Dirsvc.Wire.decode_log_records log)))
        [ 1; 2; 3 ])

(* §3.1 at a realistic directory size: appending a row to a directory
   of 4 rows and 3 columns costs each replica exactly 2 disk writes,
   one Bullet create and one object-table write, although the
   directory's encoding is far larger than a quarter block. *)
let test_update_costs_two_disk_writes () =
  let cluster = boot ~seed:19L C.Group_disk in
  let disk_writes () =
    List.init 3 (fun i ->
        Storage.Block_device.writes_completed (C.device cluster (i + 1)))
  in
  Harness.on_client cluster (fun client ->
      let cap =
        Dirsvc.Client.create_dir client ~columns:[ "owner"; "group"; "other" ]
      in
      for i = 1 to 4 do
        Dirsvc.Client.append_row client cap ~name:(Printf.sprintf "row%d" i)
          [ cap; cap; cap ]
      done;
      (* Let the retired versions' tombstones reach disk first. *)
      Sim.Proc.sleep 1_000.0;
      let dir =
        Dirsvc.Directory.Store.find cap.Capability.obj
          (snd (List.hd (C.store_snapshots cluster)))
      in
      let size = String.length (Dirsvc.Directory.encode_dir dir) in
      Alcotest.(check bool)
        (Printf.sprintf "4-row directory (%d B) exceeds 192 B" size)
        true (size > 192);
      let before = disk_writes () in
      Dirsvc.Client.append_row client cap ~name:"row5" [ cap; cap; cap ];
      Sim.Proc.sleep 200.0;
      Alcotest.(check (list int)) "2 disk writes at each replica" [ 2; 2; 2 ]
        (List.map2 ( - ) (disk_writes ()) before))

let test_nvram_flushes_when_full () =
  (* Overflowing the board's log applies it to disk; nothing is lost. *)
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
     cannot be logged even in an empty log; it is made stable on disk in
     place instead — and survives a crash of every server. The pause
     lets the idle apply empty the log first, so no later apply writes
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

(* ---- The per-directory read gate ----------------------------------- *)

(* A read waits only for the buffered updates to the directories it
   names. Each case starts an update on one client and, [delay] ms later
   (ordered everywhere by then, but the 2 x 40 ms flush still under
   way), a read on another; both clients have located a server before.
   [race] returns the read's result, its latency and whether the update
   was still unacknowledged when the read returned. *)
let race ?(delay = 15.0) cluster ~writer ~reader ~write ~read =
  let write_done = Harness.start_on cluster writer (fun () -> write writer) in
  let read_done =
    Harness.start_on cluster reader (fun () ->
        Sim.Proc.sleep delay;
        let outcome = Harness.timed (fun () -> read reader) in
        (outcome, !write_done = None))
  in
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 5_000.0);
  match (!read_done, !write_done) with
  | Some ((v, latency), overlapped), Some () -> (v, latency, overlapped)
  | _ -> Alcotest.fail "race did not complete"

(* Directories D (row "d") and E (empty), and two clients that have
   located a server. *)
let gate_setup seed =
  let cluster = boot ~seed C.Group_disk in
  let writer = C.client cluster and reader = C.client cluster in
  let d, e =
    Harness.on_client ~client:writer cluster (fun client ->
        let d = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        let e = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client d ~name:"d" [ d ];
        (d, e))
  in
  Harness.on_client ~client:reader cluster (fun client ->
      ignore (Dirsvc.Client.lookup client d "d"));
  (cluster, writer, reader, d, e)

let disk_write_ms = Dirsvc.Params.default.disk_write_ms

(* (a) The replica answering a lookup of D is flushing an update to E:
   the lookup no longer waits for that flush. *)
let test_gate_other_dir_flush () =
  let cluster, writer, reader, d, e = gate_setup 61L in
  let found, latency, overlapped =
    race cluster ~writer ~reader
      ~write:(fun c -> Dirsvc.Client.append_row c e ~name:"e" [ e ])
      ~read:(fun c -> Dirsvc.Client.lookup c d "d")
  in
  Alcotest.(check bool) "D's row found" true (found <> None);
  Alcotest.(check bool) "returned while E's update was still flushing" true
    overlapped;
  if latency >= disk_write_ms then
    Alcotest.failf "lookup of D took %.1f ms behind E's flush" latency

(* (b) A lookup racing the flush of an update to the same directory
   still waits for it and sees the new row. *)
let test_gate_same_dir_flush () =
  let cluster, writer, reader, d, _ = gate_setup 62L in
  let found, latency, _ =
    race cluster ~writer ~reader
      ~write:(fun c -> Dirsvc.Client.append_row c d ~name:"x" [ d ])
      ~read:(fun c -> Dirsvc.Client.lookup c d "x")
  in
  Alcotest.(check bool) "new row visible" true (found <> None);
  Alcotest.(check bool) "waited for the flush" true (latency > disk_write_ms)

(* (c) A lookup set over D and E waits when only E has a buffered
   update. *)
let test_gate_lookup_set () =
  let cluster, writer, reader, d, e = gate_setup 63L in
  let found, latency, _ =
    race cluster ~writer ~reader
      ~write:(fun c -> Dirsvc.Client.append_row c e ~name:"e" [ e ])
      ~read:(fun c -> Dirsvc.Client.lookup_set c [ (d, "d"); (e, "e") ])
  in
  Alcotest.(check (list bool)) "both rows found" [ true; true ]
    (List.map Option.is_some found);
  Alcotest.(check bool) "waited for E's flush" true (latency > disk_write_ms)

(* (d) A read of a directory whose Create_dir is still buffered at the
   replica falls back to the full wait. Replica 2's disk is kept busy,
   so it lags: it is still flushing an update to E, with the Create_dir
   queued behind it, when the reader pinned to it asks for the new
   directory (whose capability came back from replica 1). *)
let test_gate_unknown_dir () =
  let cluster = boot ~seed:64L C.Group_disk in
  let d, e =
    Harness.on_client cluster (fun client ->
        let d = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        let e = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        (d, e))
  in
  let warm client = ignore (Dirsvc.Client.lookup client d "d") in
  let reader = Harness.client_at ~max_attempts:1 cluster ~server:2 warm in
  let creator = Harness.client_at ~max_attempts:1 cluster ~server:1 warm in
  let writer = C.client cluster in
  (* Four writes of the last (unused) block, rewriting its contents,
     queued on replica 2's disk ahead of the update to E. *)
  let disk2 = C.device cluster 2 in
  let last = Storage.Block_device.blocks disk2 - 1 in
  for _ = 1 to 4 do
    ignore
      (Harness.start_on cluster writer (fun () ->
           Storage.Block_device.write disk2 last
             (Storage.Block_device.peek disk2 last)))
  done;
  ignore
    (Harness.start_on cluster writer (fun () ->
         Dirsvc.Client.append_row writer e ~name:"e" [ e ]));
  let created =
    Harness.start_on cluster creator (fun () ->
        Sim.Proc.sleep 5.0;
        Dirsvc.Client.create_dir creator ~columns:[ "owner" ])
  in
  let listed =
    Harness.start_on cluster reader (fun () ->
        let rec cap () =
          match !created with
          | Some cap -> cap
          | None ->
              Sim.Proc.sleep 1.0;
              cap ()
        in
        let cap = cap () in
        let store2 = List.assoc 2 (C.store_snapshots cluster) in
        let buffered = not (Dirsvc.Directory.Store.mem cap.Capability.obj store2) in
        (buffered, Harness.timed (fun () -> Dirsvc.Client.list_dir reader cap)))
  in
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 5_000.0);
  match !listed with
  | None -> Alcotest.fail "read did not complete"
  | Some (buffered, (listing, latency)) ->
      Alcotest.(check bool) "create still buffered at replica 2" true buffered;
      Alcotest.(check int) "new directory found, empty" 0
        (List.length listing.Dirsvc.Directory.entries);
      Alcotest.(check bool) "waited for the create" true
        (latency > disk_write_ms)

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
    tc "nvram annihilation (no disk I/O)" `Quick
      (test_annihilation ~seed:13L C.Group_nvram ~batch_max:1);
    tc "update = 2 disk writes per replica (4x3 directory)" `Quick
      test_update_costs_two_disk_writes;
    tc "nvram flushes when full" `Quick test_nvram_flushes_when_full;
    tc "nvram: update larger than the log" `Quick test_nvram_oversized_update;
    tc "rpc pair: lazy replication converges" `Quick
      test_rpc_pair_lazy_replication_converges;
    tc "rpc pair: diverges under partition" `Quick
      test_rpc_pair_diverges_under_partition;
    tc "applied log replays to live store" `Quick test_group_applied_log_replays;
    tc "read gate: lookup skips another directory's flush" `Quick
      test_gate_other_dir_flush;
    tc "read gate: lookup waits for its directory's flush" `Quick
      test_gate_same_dir_flush;
    tc "read gate: lookup set waits for any directory it names" `Quick
      test_gate_lookup_set;
    tc "read gate: unknown directory falls back to the full wait" `Quick
      test_gate_unknown_dir;
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
      Alcotest.test_case "disk batch 4 annihilation (no directory-block I/O)"
        `Quick
        (test_annihilation ~seed:13L C.Group_disk ~batch_max:4);
    ]

(* A wait that cannot succeed polls 20 ms chunks while the clock is short
   of the deadline: 50 ms ends on the third boundary, 60 ms. *)
let test_await_serving_deadline () =
  let cluster = boot C.Group_disk in
  let engine = C.engine cluster in
  let start = Sim.Engine.now engine in
  Alcotest.(check bool) "one more server than exists" false
    (C.await_serving ~timeout:50.0 cluster ~count:(C.total_servers cluster + 1));
  Alcotest.(check (float 0.0)) "clock on the first boundary past the deadline"
    (start +. 20.0 +. 20.0 +. 20.0)
    (Sim.Engine.now engine)

let suite =
  suite
  @ [
      Alcotest.test_case "await_serving stops on the boundary past its deadline"
        `Quick test_await_serving_deadline;
    ]

(* A create past the object table is refused with [Table_full] before
   any replica applies it, so no replica fails persisting it: the run
   goes on and the replicas converge. Three slots hold directories 0..2;
   an RPC server mints ids from its half of the id space (server 1: 1,
   then 3), so the pair refuses its second create. *)
let test_table_full flavor ~created () =
  let params = { Dirsvc.Params.default with admin_slots = 3 } in
  let cluster = boot ~params flavor in
  let outcomes =
    Harness.on_client cluster (fun client ->
        let caps = ref [] in
        let outcomes =
          List.init 5 (fun _ ->
              match Dirsvc.Client.create_dir client ~columns:[ "owner" ] with
              | cap ->
                  caps := cap :: !caps;
                  "ok"
              | exception Dirsvc.Wire.Dir_error (Dirsvc.Wire.Op_error Dirsvc.Directory.Table_full)
                ->
                  "full")
        in
        let cap = List.hd (List.rev !caps) in
        Dirsvc.Client.append_row client cap ~name:"after" [ cap ];
        Alcotest.(check bool) "the row is there" true
          (Dirsvc.Client.lookup client cap "after" <> None);
        outcomes)
  in
  Alcotest.(check (list string)) "creates past the table are refused"
    (List.init 5 (fun i -> if i < created then "ok" else "full"))
    outcomes;
  (* Long enough for every background apply and lazy replication. *)
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 5_000.0);
  check_converged cluster

let suite =
  suite
  @ [
      Alcotest.test_case "object table full: group/disk refuses the create" `Quick
        (test_table_full C.Group_disk ~created:3);
      Alcotest.test_case "object table full: group/nvram refuses the create" `Quick
        (test_table_full C.Group_nvram ~created:3);
      Alcotest.test_case "object table full: rpc pair refuses the create" `Quick
        (test_table_full C.Rpc_pair ~created:1);
    ]

(* A column outside 0..3 names no read right. A lookup of one comes
   back [None] and a listing is refused as a bad request, on every
   server; neither may escape the server's worker and abort the run.
   The service answers normally afterwards. *)
let test_column_out_of_range ?params flavor () =
  let cluster = boot ?params flavor in
  Harness.on_client cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      Dirsvc.Client.append_row client cap ~name:"row" [ cap ];
      List.iter
        (fun column ->
          Alcotest.(check bool)
            (Printf.sprintf "lookup in column %d finds nothing" column)
            true
            (Dirsvc.Client.lookup client ~column cap "row" = None);
          match Dirsvc.Client.list_dir client ~column cap with
          | _ -> Alcotest.failf "column %d listed" column
          | exception
              Dirsvc.Wire.Dir_error
                (Dirsvc.Wire.Op_error (Dirsvc.Directory.Bad_request reason)) ->
              Alcotest.(check string) "refused" "no such column" reason)
        [ 4; -1 ];
      Alcotest.(check bool) "column 0 still answers" true
        (Dirsvc.Client.lookup client cap "row" <> None);
      Alcotest.(check int) "the listing still answers" 1
        (List.length (Dirsvc.Client.list_dir client cap).Dirsvc.Directory.entries))

(* A mask the on-disk format cannot hold (a 32-bit unsigned word) is
   refused by [Directory.apply] before any replica changes state, on an
   append and on a chmod; the row keeps its mask and a later update
   succeeds. *)
let test_mask_out_of_range ?params flavor () =
  let cluster = boot ?params flavor in
  Harness.on_client cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      Dirsvc.Client.append_row client cap ~name:"row" ~masks:[ 3 ] [ cap ];
      let refused what f =
        match f () with
        | () -> Alcotest.failf "%s accepted" what
        | exception
            Dirsvc.Wire.Dir_error
              (Dirsvc.Wire.Op_error (Dirsvc.Directory.Bad_request reason)) ->
            Alcotest.(check string) what "mask out of range" reason
      in
      List.iter
        (fun mask ->
          refused (Printf.sprintf "append with mask %d" mask) (fun () ->
              Dirsvc.Client.append_row client cap ~name:"bad" ~masks:[ mask ]
                [ cap ]);
          refused (Printf.sprintf "chmod to mask %d" mask) (fun () ->
              Dirsvc.Client.chmod_row client cap ~name:"row" ~masks:[ mask ]))
        [ -1; 1 lsl 33; 0xFFFF_FFFF + 1 ];
      Alcotest.(check bool) "no row appended" true
        (Dirsvc.Client.lookup client cap "bad" = None);
      Alcotest.(check (option int)) "the row keeps its mask" (Some 3)
        (Option.map snd (Dirsvc.Client.lookup client cap "row"));
      Dirsvc.Client.chmod_row client cap ~name:"row" ~masks:[ 0xFFFF_FFFF ];
      Alcotest.(check (option int)) "a later chmod applies" (Some 0xFFFF_FFFF)
        (Option.map snd (Dirsvc.Client.lookup client cap "row")));
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 5_000.0);
  check_converged cluster

let suite =
  suite
  @ List.concat_map
      (fun (label, params, flavor) ->
        [
          Alcotest.test_case
            (Printf.sprintf "column outside 0..3 is refused (%s)" label)
            `Quick
            (test_column_out_of_range ?params flavor);
          Alcotest.test_case
            (Printf.sprintf "mask outside 32 bits is refused (%s)" label)
            `Quick
            (test_mask_out_of_range ?params flavor);
        ])
      [
        ("group/disk", None, C.Group_disk);
        ("group/disk batch 4", Some batched_params, C.Group_disk);
        ("rpc pair", None, C.Rpc_pair);
        ("nfs", None, C.Nfs_single);
      ]
