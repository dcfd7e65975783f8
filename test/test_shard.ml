(* Sharded ("cluster of clusters") deployment tests: per-shard seed
   independence, the Wrong_shard bounce, port-cache staleness across a
   shard's view change, and cross-shard move termination after a
   coordinator crash. (shards = 1 is the default deployment, pinned by
   the golden-digest test in test_trace.ml.) *)

module C = Dirsvc.Cluster
module Router = Dirsvc.Shard_router

let boot ?(seed = 9L) ?params flavor =
  let cluster = C.create ~seed ?params flavor in
  Alcotest.(check bool) "cluster boots" true
    (C.await_serving cluster ~count:(C.total_servers cluster));
  cluster

(* Transient refusals during a view change are retryable by design. *)
let rec with_unavailable_retry ?(tries = 20) f =
  match f () with
  | v -> v
  | exception Dirsvc.Wire.Dir_error (Dirsvc.Wire.Unavailable _) when tries > 0
    ->
      Sim.Proc.sleep 200.0;
      with_unavailable_retry ~tries:(tries - 1) f

(* A placement name hashing to [shard] under [shards] groups. *)
let placement_for ~shards shard =
  let rec go i =
    let name = Printf.sprintf "p%d" i in
    if Router.shard_of_name ~shards name = shard then name else go (i + 1)
  in
  go 0

(* Per-shard network seeds come from [Sim.Rng.derive], whose streams are
   prefix-stable in the derived count: adding a shard must not perturb
   an existing shard's randomness. Boot 2- and 3-shard deployments from
   the same seed and compare every trace event that belongs to shard 0
   (nodes below the shard-1 id base) — the streams must be identical. *)
let test_shard_seed_independence () =
  let run shards =
    let params = { Dirsvc.Params.default with shards } in
    let cluster = C.create ~seed:4040L ~params C.Group_disk in
    let trace = Sim.Trace.create ~capacity:262_144 () in
    Sim.Engine.set_trace (C.engine cluster) (Some trace);
    C.run_until cluster 3_000.0;
    Alcotest.(check int) "trace ring did not overflow" 0
      (Sim.Trace.dropped trace);
    (* Storage events carry node -1; their shard shows only in the
       device name ("s<k>.disk<i>" in a multi-shard deployment). *)
    let shard0_device e =
      match List.assoc_opt "dev" e.Sim.Trace.attrs with
      | Some (Sim.Trace.Str dev) ->
          String.length dev >= 3 && String.sub dev 0 3 = "s0."
      | _ -> true
    in
    List.filter_map
      (fun e ->
        if e.Sim.Trace.node < 500 && shard0_device e then
          Some
            ( e.Sim.Trace.time,
              e.Sim.Trace.subsystem,
              e.Sim.Trace.node,
              e.Sim.Trace.name,
              e.Sim.Trace.attrs )
        else None)
      (Sim.Trace.events trace)
  in
  let two = run 2 and three = run 3 in
  Alcotest.(check int) "same shard-0 event count" (List.length two)
    (List.length three);
  Alcotest.(check bool) "shard-0 stream unperturbed by a third shard" true
    (two = three)

(* The shard-level NOTHERE: a request for a capability owned by another
   group bounces with Wrong_shard when sent raw, and the router follows
   the bounce transparently. *)
let test_wrong_shard_bounce () =
  let params = { Dirsvc.Params.default with shards = 2 } in
  let cluster = boot ~seed:21L ~params C.Group_disk in
  Harness.on_client cluster (fun client ->
      let router =
        match Dirsvc.Client.router client with
        | Some r -> r
        | None -> Alcotest.fail "sharded client has no router"
      in
      let placement = placement_for ~shards:2 1 in
      let cap =
        with_unavailable_retry (fun () ->
            Dirsvc.Client.create_dir ~placement client ~columns:[ "owner" ])
      in
      Alcotest.(check (option int)) "cap minted by shard 1" (Some 1)
        (Router.shard_of_cap router cap);
      (* Raw request to the wrong group: bounced, not served. *)
      (match
         Rpc.Transport.trans
           (Router.transport router ~shard:0)
           ~port:(Router.port router ~shard:0)
           (Dirsvc.Wire.Dir_request
              (Dirsvc.Wire.List_req { cap; column = 0 }))
       with
      | Dirsvc.Wire.Dir_reply (Dirsvc.Wire.Err_rep Dirsvc.Wire.Wrong_shard) ->
          ()
      | _ -> Alcotest.fail "expected a Wrong_shard bounce");
      (* The router sent to the wrong shard follows the bounce once. *)
      (match
         Router.call router ~shard:0
           (Dirsvc.Wire.List_req { cap; column = 0 })
       with
      | Dirsvc.Wire.Listing_rep _ -> ()
      | _ -> Alcotest.fail "router did not re-route the bounce");
      (* And the client routes by capability without being told. *)
      Dirsvc.Client.append_row client cap ~name:"row" [ cap ];
      Alcotest.(check bool) "row readable through the router" true
        (Dirsvc.Client.lookup client cap "row" <> None))

(* Port-cache staleness: each shard keeps its own locate cache, and a
   crash (view change) in the cached shard must not wedge the client —
   the NOTHERE/locate machinery re-routes to a surviving replica.
   Crashing each replica of the shard in turn guarantees the cached
   server is hit at least once, whichever one the cache picked. *)
let test_stale_port_cache () =
  let params = { Dirsvc.Params.default with shards = 2 } in
  let cluster = boot ~seed:22L ~params C.Group_disk in
  let op_events = Harness.collect_op_events (C.engine cluster) in
  Harness.on_client ~budget:120_000.0 cluster (fun client ->
      let placement = placement_for ~shards:2 1 in
      let cap =
        with_unavailable_retry (fun () ->
            Dirsvc.Client.create_dir ~placement client ~columns:[ "owner" ])
      in
      Dirsvc.Client.append_row client cap ~name:"row" [ cap ];
      for sid = 1 to 3 do
        C.crash_server_in cluster ~shard:1 sid;
        Sim.Proc.sleep 500.0;
        Alcotest.(check bool)
          (Printf.sprintf "lookup survives crash of shard-1 server %d" sid)
          true
          (with_unavailable_retry (fun () ->
               Dirsvc.Client.lookup client cap "row")
          <> None);
        C.restart_server_in cluster ~shard:1 sid;
        Sim.Proc.sleep 2_000.0
      done;
      (* The other shard's cache was never touched by those view
         changes; a fresh directory there works first try. *)
      let p0 = placement_for ~shards:2 0 in
      let cap0 =
        with_unavailable_retry (fun () ->
            Dirsvc.Client.create_dir ~placement:p0 client ~columns:[ "owner" ])
      in
      Dirsvc.Client.append_row client cap0 ~name:"other" [ cap0 ];
      Alcotest.(check bool) "shard 0 unaffected" true
        (Dirsvc.Client.lookup client cap0 "other" <> None));
  (* Every op histogram of a sharded deployment carries the shard of
     the server that served it: one key per (op, server, shard) seen in
     the op events, whose node ids are 500 * shard + server id. *)
  let key e =
    let attr name = List.assoc_opt name e.Sim.Trace.attrs in
    match (attr "op", attr "server") with
    | Some (Sim.Trace.Str op), Some (Sim.Trace.Int sid)
      when e.Sim.Trace.node mod 500 = sid ->
        Sim.Metrics.labelled "dirsvc.op_ms"
          ~labels:
            [
              ("op", op);
              ("server", string_of_int sid);
              ("shard", string_of_int (e.Sim.Trace.node / 500));
            ]
    | _ -> Alcotest.fail "malformed op event"
  in
  let keys = Harness.op_ms_keys (C.metrics cluster) in
  Alcotest.(check (list string)) "dirsvc.op_ms keys carry the shard"
    (List.sort_uniq compare (List.map key (op_events ())))
    keys;
  Alcotest.(check (list string)) "both shards served" [ "0"; "1" ]
    (List.sort_uniq compare
       (List.map
          (fun k -> List.assoc "shard" (Sim.Metrics.labels_of_key k))
          keys))

(* Calls [f] on every dirsvc trace event of [cluster] from now on. *)
let on_dirsvc_event cluster f =
  let trace = Sim.Trace.create () in
  Sim.Trace.set_sink trace
    (Some (fun e -> if e.Sim.Trace.subsystem = "dirsvc" then f e));
  Sim.Engine.set_trace (C.engine cluster) (Some trace)

let backbone cluster =
  match C.backbone cluster with
  | Some net -> net
  | None -> Alcotest.fail "two shards have no backbone"

(* A backbone fault filter: [request] decides the fate of every
   cross-shard request (with its command), [prepare_reply] that of every
   reply to an [Xprepare]. *)
let filter_backbone ?(request = fun _ _ -> Simnet.Network.Deliver)
    ?(prepare_reply = fun () -> Simnet.Network.Deliver) cluster =
  let prepares = Hashtbl.create 8 in
  Simnet.Network.set_fault_filter (backbone cluster)
    (Some
       (fun packet ->
         match packet.Simnet.Packet.payload with
         | Rpc.Wire.Request
             {
               xid;
               body = Dirsvc.Wire.Dir_request (Dirsvc.Wire.Xshard_req cmd);
               _;
             } ->
             (match cmd with
             | Dirsvc.Wire.Xprepare _ -> Hashtbl.replace prepares xid ()
             | _ -> ());
             request packet cmd
         | Rpc.Wire.Reply { xid; _ } when Hashtbl.mem prepares xid ->
             prepare_reply ()
         | _ -> Simnet.Network.Deliver))

(* Crashes the server coordinating the next move — the sender of its
   prepare — once the destination has staged it: before the decision.
   [on_event] sees every dirsvc event. Returns the coordinator's node. *)
let crash_coordinator_when_staged ?(on_event = ignore) cluster =
  let coordinator = ref None and crashed = ref false in
  filter_backbone cluster ~request:(fun packet cmd ->
      (match cmd with
      | Dirsvc.Wire.Xprepare _ when !coordinator = None ->
          coordinator := Some packet.Simnet.Packet.src
      | _ -> ());
      Simnet.Network.Deliver);
  on_dirsvc_event cluster (fun e ->
      (match (e.Sim.Trace.name, !coordinator) with
      | "xstaged", Some node when not !crashed ->
          crashed := true;
          C.crash_server_in cluster ~shard:(node / 500) (node mod 500)
      | _ -> ());
      on_event e);
  coordinator

(* [f ()], ignoring the failure of a client whose server died. *)
let survive f =
  try f () with Dirsvc.Wire.Dir_error _ | Rpc.Transport.Rpc_failure _ -> ()

(* Cross-shard move termination. First the happy path, then a crash of
   the coordinating source server after its decision (the commit
   point) as it forwards the commit: the move must stand. Then a crash
   of the coordinator before the decision: the destination's resolver
   re-sends the decision, the source commits it, and the row ends at
   the destination. *)
let test_coordinator_crash_recovery () =
  let params = { Dirsvc.Params.default with shards = 2 } in
  let cluster = boot ~seed:23L ~params C.Group_disk in
  let mover = C.client ~max_attempts:1 cluster in
  Harness.on_client ~budget:120_000.0 cluster (fun client ->
      let pa = placement_for ~shards:2 0 and pb = placement_for ~shards:2 1 in
      let dir_a =
        with_unavailable_retry (fun () ->
            Dirsvc.Client.create_dir ~placement:pa client ~columns:[ "owner" ])
      in
      let dir_b =
        with_unavailable_retry (fun () ->
            Dirsvc.Client.create_dir ~placement:pb client ~columns:[ "owner" ])
      in
      (* Happy path: the two-group commit moves the row. *)
      Dirsvc.Client.append_row client dir_a ~name:"ok" [ dir_a ];
      Dirsvc.Client.move_row client ~src:dir_a ~dst:dir_b ~name:"ok";
      Alcotest.(check bool) "moved row at destination" true
        (Dirsvc.Client.lookup client dir_b "ok" <> None);
      Alcotest.(check bool) "moved row gone from source" true
        (Dirsvc.Client.lookup client dir_a "ok" = None);
      (* Crash after the source decided: the commit point is passed,
         so the move must finish. *)
      Dirsvc.Client.append_row client dir_a ~name:"r" [ dir_a ];
      let origin = ref None in
      filter_backbone cluster ~request:(fun packet cmd ->
          match cmd with
          | Dirsvc.Wire.Xcommit _ when !origin = None ->
              let node = packet.Simnet.Packet.src in
              origin := Some node;
              C.crash_server_in cluster ~shard:0 (node mod 500);
              Simnet.Network.Drop
          | _ -> Simnet.Network.Deliver);
      survive (fun () ->
          Dirsvc.Client.move_row client ~src:dir_a ~dst:dir_b ~name:"r");
      Sim.Proc.sleep 8_000.0;
      Alcotest.(check bool) "resolver completed the move at destination" true
        (Dirsvc.Client.lookup client dir_b "r" <> None);
      Alcotest.(check bool) "committed source stayed deleted" true
        (Dirsvc.Client.lookup client dir_a "r" = None);
      Option.iter
        (fun node -> C.restart_server_in cluster ~shard:0 (node mod 500))
        !origin;
      Sim.Proc.sleep 8_000.0;
      (* Crash before the decision: the resolver re-sends it, and the
         source's order commits the move. *)
      Dirsvc.Client.append_row client dir_a ~name:"s" [ dir_a ];
      let coordinator = crash_coordinator_when_staged cluster in
      ignore
        (Harness.start_on cluster mover (fun () ->
             survive (fun () ->
                 Dirsvc.Client.move_row mover ~src:dir_a ~dst:dir_b
                   ~name:"s")));
      Sim.Proc.sleep 8_000.0;
      Alcotest.(check bool) "the re-sent decision moved the row" true
        (Dirsvc.Client.lookup client dir_b "s" <> None);
      Alcotest.(check bool) "and deleted it at the source" true
        (Dirsvc.Client.lookup client dir_a "s" = None);
      Option.iter
        (fun node -> C.restart_server_in cluster ~shard:0 (node mod 500))
        !coordinator;
      Sim.Proc.sleep 8_000.0;
      (* The transaction machinery is clean afterwards: another move
         succeeds end to end. *)
      Dirsvc.Client.move_row client ~src:dir_b ~dst:dir_a ~name:"s";
      Alcotest.(check bool) "subsequent move unaffected" true
        (Dirsvc.Client.lookup client dir_a "s" <> None))

(* The read gate for cross-shard commits: a buffered commit blocks the
   reads of the directory its prepare staged, and only those. Two
   lookups on the destination shard are issued as soon as a replica
   there orders the commit, while its flush runs: one of the moved
   row, which must wait for the flush and find the row, and one of
   another directory on that shard, which must not wait. *)
let test_xcommit_blocks_reads () =
  let params = { Dirsvc.Params.default with shards = 2 } in
  let cluster = boot ~seed:26L ~params C.Group_disk in
  let coordinator = C.client cluster in
  let reader = C.client cluster and other_reader = C.client cluster in
  let create client shard =
    with_unavailable_retry (fun () ->
        Dirsvc.Client.create_dir
          ~placement:(placement_for ~shards:2 shard)
          client ~columns:[ "owner" ])
  in
  let src, dst, other =
    Harness.on_client ~client:coordinator cluster (fun client ->
        let src = create client 0 in
        let dst = create client 1 in
        let other = create client 1 in
        Dirsvc.Client.append_row client src ~name:"moved" [ src ];
        Dirsvc.Client.append_row client other ~name:"still" [ other ];
        (src, dst, other))
  in
  List.iter
    (fun client ->
      Harness.on_client ~client cluster (fun client ->
          ignore (Dirsvc.Client.lookup client other "still")))
    [ reader; other_reader ];
  let committed = ref false in
  on_dirsvc_event cluster (fun e ->
      if e.Sim.Trace.name = "xcommitted" then committed := true);
  let moved =
    Harness.start_on cluster coordinator (fun () ->
        Dirsvc.Client.move_row coordinator ~src ~dst ~name:"moved")
  in
  let read_after_commit client dir name =
    Harness.start_on cluster client (fun () ->
        while not !committed do
          Sim.Proc.sleep 1.0
        done;
        let pending = !moved = None in
        let found, latency =
          Harness.timed (fun () -> Dirsvc.Client.lookup client dir name)
        in
        (found, latency, pending))
  in
  let read_dst = read_after_commit reader dst "moved" in
  let read_other = read_after_commit other_reader other "still" in
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 10_000.0);
  match (!read_dst, !read_other, !moved) with
  | Some (found, latency, pending), Some (found', latency', pending'), Some ()
    ->
      Alcotest.(check bool) "reads issued before the move completed" true
        (pending && pending');
      Alcotest.(check bool) "moved row found at the destination" true
        (found <> None);
      if latency <= Dirsvc.Params.default.disk_write_ms then
        Alcotest.failf
          "lookup of the destination took %.1f ms: it did not wait for the \
           commit"
          latency;
      Alcotest.(check bool) "unrelated row found" true (found' <> None);
      if latency' >= Dirsvc.Params.default.disk_write_ms then
        Alcotest.failf
          "lookup of an unrelated directory took %.1f ms: it waited for the \
           commit"
          latency'
  | _ -> Alcotest.fail "move or reads did not complete"

(* The shard of every "lookup" op served, sorted: a server's node id
   is 500 * shard + server id. *)
let lookup_shards events =
  List.filter_map
    (fun e ->
      match List.assoc_opt "op" e.Sim.Trace.attrs with
      | Some (Sim.Trace.Str "lookup") -> Some (e.Sim.Trace.node / 500)
      | _ -> None)
    events
  |> List.sort compare

let cap_found = Alcotest.(list (option (testable Capability.pp Capability.equal)))

(* Lookup set scatter/gather: names from two shards, interleaved and
   with misses, come back in request order from one lookup per shard
   touched. *)
let test_lookup_set_two_shards () =
  let params = { Dirsvc.Params.default with shards = 2 } in
  let cluster = boot ~seed:24L ~params C.Group_disk in
  let dir_a, dir_b =
    Harness.on_client cluster (fun client ->
        let create shard =
          with_unavailable_retry (fun () ->
              Dirsvc.Client.create_dir
                ~placement:(placement_for ~shards:2 shard)
                client ~columns:[ "owner" ])
        in
        let dir_a = create 0 in
        let dir_b = create 1 in
        Dirsvc.Client.append_row client dir_a ~name:"a1" [ dir_b ];
        Dirsvc.Client.append_row client dir_a ~name:"a2" [ dir_a ];
        Dirsvc.Client.append_row client dir_b ~name:"b1" [ dir_a ];
        (dir_a, dir_b))
  in
  let op_events = Harness.collect_op_events (C.engine cluster) in
  let found =
    Harness.on_client cluster (fun client ->
        Dirsvc.Client.lookup_set client
          [
            (dir_a, "a1"); (dir_b, "b1"); (dir_a, "ghost"); (dir_b, "ghost");
            (dir_a, "a2");
          ])
  in
  Alcotest.check cap_found "results in request order"
    [ Some dir_b; Some dir_a; None; None; Some dir_a ]
    (List.map (Option.map fst) found);
  Alcotest.(check (list int)) "one lookup per shard touched" [ 0; 1 ]
    (lookup_shards (op_events ()))

(* A lone group is a one-shard router: a lookup set is one request,
   and no cross-shard counter is registered. *)
let test_lookup_set_one_shard () =
  let cluster = boot ~seed:25L C.Group_disk in
  let dir =
    Harness.on_client cluster (fun client ->
        let dir =
          with_unavailable_retry (fun () ->
              Dirsvc.Client.create_dir client ~columns:[ "owner" ])
        in
        Dirsvc.Client.append_row client dir ~name:"x" [ dir ];
        Dirsvc.Client.append_row client dir ~name:"y" [ dir ];
        dir)
  in
  let op_events = Harness.collect_op_events (C.engine cluster) in
  let found =
    Harness.on_client cluster (fun client ->
        Dirsvc.Client.lookup_set client [ (dir, "x"); (dir, "z"); (dir, "y") ])
  in
  Alcotest.check cap_found "results in request order"
    [ Some dir; None; Some dir ]
    (List.map (Option.map fst) found);
  Alcotest.(check (list int)) "one lookup request" [ 0 ]
    (lookup_shards (op_events ()));
  Alcotest.(check bool) "no dirsvc.cross_shard counter" false
    (List.mem_assoc "dirsvc.cross_shard"
       (Sim.Metrics.counters (C.metrics cluster)))

let suite =
  let tc = Alcotest.test_case in
  [
    tc "adding a shard leaves other shards' streams intact" `Quick
      test_shard_seed_independence;
    tc "wrong-shard bounce and re-route" `Quick test_wrong_shard_bounce;
    tc "stale port cache after shard view change" `Quick test_stale_port_cache;
    tc "coordinator crash: resolver terminates the move" `Quick
      test_coordinator_crash_recovery;
    tc "buffered cross-shard commit makes every read of its directory wait"
      `Quick test_xcommit_blocks_reads;
    tc "lookup set scatters over two shards" `Quick test_lookup_set_two_shards;
    tc "lookup set on one shard is one request" `Quick
      test_lookup_set_one_shard;
  ]

(* [f ()], or the service error it raised. *)
let outcome f = try Ok (f ()) with Dirsvc.Wire.Dir_error e -> Error e

let service_error =
  Alcotest.testable
    (fun fmt e ->
      Format.pp_print_string fmt (Dirsvc.Wire.service_error_to_string e))
    ( = )

(* Two directories, one per shard of a fresh two-shard deployment, and
   a row [name] in the source. *)
let two_shard_dirs ~seed ~name =
  let params = { Dirsvc.Params.default with shards = 2 } in
  let cluster = boot ~seed ~params C.Group_disk in
  let src, dst =
    Harness.on_client cluster (fun client ->
        let create shard =
          with_unavailable_retry (fun () ->
              Dirsvc.Client.create_dir
                ~placement:(placement_for ~shards:2 shard)
                client ~columns:[ "owner" ])
        in
        let src = create 0 in
        let dst = create 1 in
        Dirsvc.Client.append_row client src ~name [ src ];
        (src, dst))
  in
  (cluster, src, dst)

let lookup_in cluster dir name =
  Harness.on_client cluster (fun client -> Dirsvc.Client.lookup client dir name)

let cap_opt = Alcotest.(option (testable Capability.pp Capability.equal))

(* Runs [f] once, at the first [name] event of [cluster]'s dirsvc
   trace. *)
let at_first_event cluster name f =
  let fired = ref false in
  on_dirsvc_event cluster (fun e ->
      if e.Sim.Trace.name = name && not !fired then begin
        fired := true;
        f ()
      end)

(* A second client appends the moved name at the destination while the
   move is staged there; the prepare's reply takes 100 ms longer. The
   staged append reserves the name, so the append is refused Busy
   (retried inside the router) until the move commits, then fails
   Already_exists: the move succeeds and the row is in exactly one
   directory, with the capability it had. *)
let test_reserved_destination_name () =
  let cluster, src, dst = two_shard_dirs ~seed:23L ~name:"m" in
  let other = C.client cluster in
  let appended = ref (ref None) in
  filter_backbone cluster ~prepare_reply:(fun () -> Simnet.Network.Delay 100.0);
  at_first_event cluster "xstaged" (fun () ->
      appended :=
        Harness.start_on cluster other (fun () ->
            outcome (fun () ->
                Dirsvc.Client.append_row other dst ~name:"m" [ dst ])));
  let moved =
    Harness.on_client cluster (fun client ->
        outcome (fun () -> Dirsvc.Client.move_row client ~src ~dst ~name:"m"))
  in
  Alcotest.(check (result unit service_error)) "move succeeded" (Ok ()) moved;
  Alcotest.(check (option (result unit service_error)))
    "competing append refused"
    (Some (Error (Dirsvc.Wire.Op_error Dirsvc.Directory.Already_exists)))
    !(!appended);
  Alcotest.check cap_opt "destination holds the moved row" (Some src)
    (Option.map fst (lookup_in cluster dst "m"));
  Alcotest.check cap_opt "source row deleted" None
    (Option.map fst (lookup_in cluster src "m"))

(* A second client deletes the row at the source while the move is
   staged at the destination; the prepare's reply takes 300 ms longer,
   time enough for the delete. The source's ordered decision finds the
   row gone and aborts: the move fails Not_found and the destination
   releases its staged append, so the deleted row never comes back. *)
let test_source_deleted_during_move () =
  let cluster, src, dst = two_shard_dirs ~seed:23L ~name:"d" in
  let other = C.client cluster in
  let deleted = ref (ref None) in
  filter_backbone cluster ~prepare_reply:(fun () -> Simnet.Network.Delay 300.0);
  at_first_event cluster "xstaged" (fun () ->
      deleted :=
        Harness.start_on cluster other (fun () ->
            outcome (fun () -> Dirsvc.Client.delete_row other src ~name:"d")));
  let moved =
    Harness.on_client cluster (fun client ->
        outcome (fun () -> Dirsvc.Client.move_row client ~src ~dst ~name:"d"))
  in
  Alcotest.(check (option (result unit service_error)))
    "competing delete succeeded" (Some (Ok ())) !(!deleted);
  Alcotest.(check (result unit service_error)) "move refused"
    (Error (Dirsvc.Wire.Op_error Dirsvc.Directory.Not_found)) moved;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 8_000.0);
  Alcotest.check cap_opt "row absent at the source" None
    (Option.map fst (lookup_in cluster src "d"));
  Alcotest.check cap_opt "row absent at the destination" None
    (Option.map fst (lookup_in cluster dst "d"))

let suite =
  suite
  @ [
      Alcotest.test_case "competing append waits for the reserved name"
        `Quick test_reserved_destination_name;
      Alcotest.test_case "row deleted at the source aborts the move" `Quick
        test_source_deleted_during_move;
    ]

(* The origin source server, which coordinates the move, crashes as it
   sends the forwarded commit, and the client with it, so nobody sends
   the decision again but the destination. Its resolver re-sends the
   decision, the source answers it from its decision table and forwards
   the commit again: one commit on each destination replica, the source
   row stays deleted. *)
let test_lost_forward () =
  let cluster, src, dst = two_shard_dirs ~seed:27L ~name:"f" in
  let coordinator = C.client cluster in
  let origin = ref None in
  filter_backbone cluster ~request:(fun packet cmd ->
      match cmd with
      | Dirsvc.Wire.Xcommit _ when !origin = None ->
          origin := Some packet.Simnet.Packet.src;
          C.crash_server_in cluster ~shard:0 (packet.src mod 500);
          Sim.Node.crash
            (Rpc.Transport.node (Dirsvc.Client.transport coordinator));
          Simnet.Network.Drop
      | _ -> Simnet.Network.Deliver);
  let commits = ref [] and resolved = ref 0 in
  on_dirsvc_event cluster (fun e ->
      match e.Sim.Trace.name with
      | "xcommitted" -> commits := e.Sim.Trace.node :: !commits
      | "xresolve_commit" -> incr resolved
      | _ -> ());
  ignore
    (Harness.start_on cluster coordinator (fun () ->
         Dirsvc.Client.move_row coordinator ~src ~dst ~name:"f"));
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 8_000.0);
  Sim.Engine.set_trace (C.engine cluster) None;
  (match !origin with
  | Some node when node < 500 -> ()
  | _ -> Alcotest.fail "no forwarded commit left a source server");
  Alcotest.(check int) "the destination's resolver committed once" 1
    !resolved;
  Alcotest.(check (list int)) "one commit on each destination replica"
    [ 501; 502; 503 ]
    (List.sort compare !commits);
  Alcotest.check cap_opt "destination holds the moved row" (Some src)
    (Option.map fst (lookup_in cluster dst "f"));
  Alcotest.check cap_opt "source row stayed deleted" None
    (Option.map fst (lookup_in cluster src "f"))

let suite =
  suite
  @ [
      Alcotest.test_case "lost forward: the destination's resolver commits"
        `Quick test_lost_forward;
    ]

(* The coordinator stalls after the prepare for longer than the
   destination's deadline and one resolver scan: every reply to the
   prepare is lost until the source has decided. The resolver re-sends
   the decision first, so the source commits the move then; the
   coordinator's late decision is the same one, answered from the
   decision table, and the row ends at the destination only. *)
let test_late_decide () =
  let cluster, src, dst = two_shard_dirs ~seed:28L ~name:"l" in
  let decided = ref 0 and resolved = ref 0 in
  filter_backbone cluster ~prepare_reply:(fun () ->
      if !decided = 0 then Simnet.Network.Drop else Simnet.Network.Deliver);
  on_dirsvc_event cluster (fun e ->
      match e.Sim.Trace.name with
      | "xdecided" -> incr decided
      | "xresolve_commit" -> incr resolved
      | _ -> ());
  let moved =
    Harness.on_client cluster (fun client ->
        outcome (fun () -> Dirsvc.Client.move_row client ~src ~dst ~name:"l"))
  in
  Alcotest.(check (result unit service_error))
    "late decision answered from the decision table" (Ok ()) moved;
  Alcotest.(check int) "the destination's resolver committed" 1 !resolved;
  Alcotest.(check int) "decided once on each source replica" 3 !decided;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 4_000.0);
  Alcotest.check cap_opt "row at the destination" (Some src)
    (Option.map fst (lookup_in cluster dst "l"));
  Alcotest.check cap_opt "nothing at the source" None
    (Option.map fst (lookup_in cluster src "l"))

let suite =
  suite
  @ [
      Alcotest.test_case "late decision after the presumed abort is refused"
        `Quick test_late_decide;
    ]

(* A move is acknowledged only once both halves are durable. Three
   appends ordered at the destination just before the move's decision
   (started as the destination stages the move, whose prepare reply
   takes 3 ms longer) keep its group thread flushing, so the forwarded
   commit is applied and flushed well after the source's delete. A full
   crash of the destination shard the instant the move returns, and a
   restart, must still find the row there. *)
let test_acked_move_survives_destination_crash () =
  let cluster, src, dst = two_shard_dirs ~seed:29L ~name:"a" in
  let others = List.init 3 (fun _ -> C.client cluster) in
  filter_backbone cluster ~prepare_reply:(fun () -> Simnet.Network.Delay 3.0);
  at_first_event cluster "xstaged" (fun () ->
      List.iteri
        (fun i other ->
          ignore
            (Harness.start_on cluster other (fun () ->
                 Dirsvc.Client.append_row other dst
                   ~name:(Printf.sprintf "b%d" i) [ dst ])))
        others);
  Harness.on_client cluster (fun client ->
      Dirsvc.Client.move_row client ~src ~dst ~name:"a";
      for sid = 1 to 3 do
        C.crash_server_in cluster ~shard:1 sid
      done;
      Sim.Proc.sleep 100.0;
      for sid = 1 to 3 do
        C.restart_server_in cluster ~shard:1 sid
      done);
  Alcotest.(check bool) "destination shard serves again" true
    (C.await_serving cluster ~count:(C.total_servers cluster));
  Alcotest.check cap_opt "destination holds the moved row" (Some src)
    (Option.map fst
       (Harness.on_client cluster (fun client ->
            with_unavailable_retry (fun () ->
                Dirsvc.Client.lookup client dst "a"))));
  Alcotest.check cap_opt "source row deleted" None
    (Option.map fst (lookup_in cluster src "a"))

let suite =
  suite
  @ [
      Alcotest.test_case "acknowledged move survives a destination crash"
        `Quick test_acked_move_survives_destination_crash;
    ]

(* A source replica that rejoined by state transfer must know the moves
   its shard decided. Source server 3 is down while a move commits;
   every forwarded commit is lost, so none lands, and the client dies
   as the source decides. Server 3 rejoins from a peer's state, then
   server 1 crashes and server 2 is cut from the backbone: when the
   destination's resolver re-sends the decision, only server 3 can
   answer. It must answer that the move committed, so the row ends at
   the destination, not in neither directory. *)
let test_rejoined_source_knows_decision () =
  let cluster, src, dst = two_shard_dirs ~seed:31L ~name:"s" in
  let advance ms =
    C.run_until cluster (Sim.Engine.now (C.engine cluster) +. ms)
  in
  C.crash_server_in cluster ~shard:0 3;
  advance 1_000.0;
  let coordinator = C.client cluster in
  let cut =
    ref (fun (packet : Simnet.Packet.t) ->
        match packet.payload with
        | Rpc.Wire.Request
            {
              body =
                Dirsvc.Wire.Dir_request
                  (Dirsvc.Wire.Xshard_req (Dirsvc.Wire.Xcommit _));
              _;
            } ->
            true
        | _ -> false)
  in
  Simnet.Network.set_fault_filter (backbone cluster)
    (Some
       (fun packet ->
         if !cut packet then Simnet.Network.Drop else Simnet.Network.Deliver));
  let decided = ref 0 and asked_3 = ref [] and resolved = ref 0 in
  on_dirsvc_event cluster (fun e ->
      match e.Sim.Trace.name with
      | "xdecided" ->
          incr decided;
          Sim.Node.crash
            (Rpc.Transport.node (Dirsvc.Client.transport coordinator))
      | "xaborted" when e.Sim.Trace.node = 3 ->
          asked_3 := e.Sim.Trace.time :: !asked_3
      | "xresolve_commit" -> incr resolved
      | _ -> ());
  let moved =
    Harness.start_on cluster coordinator (fun () ->
        outcome (fun () ->
            Dirsvc.Client.move_row coordinator ~src ~dst ~name:"s"))
  in
  advance 1_000.0;
  Alcotest.(check int) "the source decided on both live replicas" 2 !decided;
  Alcotest.(check bool) "the client died in the move" false
    (Sim.Node.is_alive
       (Rpc.Transport.node (Dirsvc.Client.transport coordinator)));
  Alcotest.(check bool) "the move never returned" true (!moved = None);
  C.restart_server_in cluster ~shard:0 3;
  Alcotest.(check bool) "server 3 rejoins" true
    (C.await_serving ~timeout:20_000.0 cluster ~count:(C.total_servers cluster));
  C.crash_server_in cluster ~shard:0 1;
  (cut :=
     fun packet ->
       packet.Simnet.Packet.src = 2 || packet.dst = Simnet.Packet.Unicast 2);
  advance 8_000.0;
  Sim.Engine.set_trace (C.engine cluster) None;
  Alcotest.(check (list (float 0.0))) "server 3 ordered no abort" []
    !asked_3;
  Alcotest.(check int) "the destination's resolver committed" 1 !resolved;
  Alcotest.check cap_opt "destination holds the moved row" (Some src)
    (Option.map fst
       (Harness.on_client cluster (fun client ->
            with_unavailable_retry (fun () ->
                Dirsvc.Client.lookup client dst "s"))));
  Alcotest.check cap_opt "source row stayed deleted" None
    (Option.map fst
       (Harness.on_client cluster (fun client ->
            with_unavailable_retry (fun () ->
                Dirsvc.Client.lookup client src "s"))))

let suite =
  suite
  @ [
      Alcotest.test_case "rejoined source replica knows the decided move"
        `Quick test_rejoined_source_knows_decision;
    ]

(* The client is not part of a move: it dies as the destination stages
   the move, and the source's coordinator still decides and commits it
   at once. No resolver steps in, and the moved name is free long
   before any deadline: another client's append to the destination and
   its lookup of the moved name each return within 300 ms. *)
let test_client_dies_mid_move () =
  let cluster, src, dst = two_shard_dirs ~seed:32L ~name:"c" in
  let mover = C.client cluster in
  let resolved = ref 0 in
  on_dirsvc_event cluster (fun e ->
      match e.Sim.Trace.name with
      | "xstaged" ->
          Sim.Node.crash (Rpc.Transport.node (Dirsvc.Client.transport mover))
      | "xresolve_commit" | "xresolve_abort" -> incr resolved
      | _ -> ());
  let moved =
    Harness.start_on cluster mover (fun () ->
        Dirsvc.Client.move_row mover ~src ~dst ~name:"c")
  in
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 1_000.0);
  Alcotest.(check bool) "the move never returned" true (!moved = None);
  let appended, append_ms, found, lookup_ms =
    Harness.on_client ~budget:1_000.0 cluster (fun client ->
        let appended, append_ms =
          Harness.timed (fun () ->
              outcome (fun () ->
                  Dirsvc.Client.append_row client dst ~name:"other" [ dst ]))
        in
        let found, lookup_ms =
          Harness.timed (fun () -> Dirsvc.Client.lookup client dst "c")
        in
        (appended, append_ms, found, lookup_ms))
  in
  Alcotest.(check (result unit service_error)) "append at the destination"
    (Ok ()) appended;
  if append_ms >= 300.0 then
    Alcotest.failf "the append took %.1f ms: the name stayed reserved"
      append_ms;
  if lookup_ms >= 300.0 then
    Alcotest.failf "the lookup took %.1f ms" lookup_ms;
  Alcotest.check cap_opt "destination holds the moved row" (Some src)
    (Option.map fst found);
  Alcotest.check cap_opt "source row deleted" None
    (Option.map fst (lookup_in cluster src "c"));
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 4_000.0);
  Sim.Engine.set_trace (C.engine cluster) None;
  Alcotest.(check int) "no resolver step" 0 !resolved

let suite =
  suite
  @ [
      Alcotest.test_case "a client that dies mid-move does not matter" `Quick
        test_client_dies_mid_move;
    ]

(* The coordinating source server dies after the destination staged
   the move, before it decides; its client gets no answer. The
   destination's resolver re-sends the decision, the source's order
   commits it, and the commit forwarded again completes the move. *)
let test_resent_decision_commits () =
  let cluster, src, dst = two_shard_dirs ~seed:33L ~name:"c" in
  let mover = C.client ~max_attempts:1 cluster in
  let decided = ref 0 and resolved = ref 0 and commits = ref [] in
  let coordinator =
    crash_coordinator_when_staged cluster ~on_event:(fun e ->
        match e.Sim.Trace.name with
        | "xdecided" -> incr decided
        | "xresolve_commit" -> incr resolved
        | "xcommitted" -> commits := e.Sim.Trace.node :: !commits
        | _ -> ())
  in
  let moved =
    Harness.start_on cluster mover (fun () ->
        match Dirsvc.Client.move_row mover ~src ~dst ~name:"c" with
        | () -> "ok"
        | exception Rpc.Transport.Rpc_failure _ -> "no reply"
        | exception Dirsvc.Wire.Dir_error e ->
            Dirsvc.Wire.service_error_to_string e)
  in
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 8_000.0);
  Sim.Engine.set_trace (C.engine cluster) None;
  (match !coordinator with
  | Some node when node < 500 -> ()
  | _ -> Alcotest.fail "no source server coordinated the move");
  Alcotest.(check (option string)) "the client got no answer"
    (Some "no reply") !moved;
  Alcotest.(check int) "the resolver's decision committed" 1 !resolved;
  Alcotest.(check int) "decided on both live source replicas" 2 !decided;
  Alcotest.(check (list int)) "one commit on each destination replica"
    [ 501; 502; 503 ]
    (List.sort compare !commits);
  Alcotest.check cap_opt "destination holds the moved row" (Some src)
    (Option.map fst (lookup_in cluster dst "c"));
  Alcotest.check cap_opt "source row deleted" None
    (Option.map fst (lookup_in cluster src "c"))

(* As above, but a second client changes the row's mask while the
   coordinator is dead. The re-sent decision finds the row changed, so
   the source aborts, the destination's resolver releases the name, and
   the row stays at the source with its new mask. *)
let test_resent_decision_aborts () =
  let cluster, src, dst = two_shard_dirs ~seed:34L ~name:"c" in
  let mover = C.client ~max_attempts:1 cluster and other = C.client cluster in
  let changed = ref (ref None) and resolved = ref 0 in
  let started = ref false in
  ignore
    (crash_coordinator_when_staged cluster ~on_event:(fun e ->
         match e.Sim.Trace.name with
         | "xstaged" when not !started ->
             started := true;
             changed :=
               Harness.start_on cluster other (fun () ->
                   outcome (fun () ->
                       with_unavailable_retry (fun () ->
                           Dirsvc.Client.chmod_row other src ~name:"c"
                             ~masks:[ 1 ])))
         | "xresolve_abort" -> incr resolved
         | _ -> ()));
  ignore
    (Harness.start_on cluster mover (fun () ->
         survive (fun () -> Dirsvc.Client.move_row mover ~src ~dst ~name:"c")));
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 8_000.0);
  Sim.Engine.set_trace (C.engine cluster) None;
  Alcotest.(check (option (result unit service_error)))
    "the row changed at the source" (Some (Ok ())) !(!changed);
  Alcotest.(check int) "the resolver released the name" 1 !resolved;
  Alcotest.(check (option (pair (testable Capability.pp Capability.equal) int)))
    "row still at the source, with its new mask" (Some (src, 1))
    (lookup_in cluster src "c");
  Alcotest.check cap_opt "nothing at the destination" None
    (Option.map fst (lookup_in cluster dst "c"));
  let appended, append_ms =
    Harness.on_client cluster (fun client ->
        Harness.timed (fun () ->
            outcome (fun () ->
                Dirsvc.Client.append_row client dst ~name:"c" [ dst ])))
  in
  Alcotest.(check (result unit service_error)) "the name is free again"
    (Ok ()) appended;
  if append_ms >= 300.0 then
    Alcotest.failf "the append took %.1f ms: the name stayed reserved" append_ms

(* An ambiguous prepare: the destination stages the move, but every
   reply to the prepare is lost, so the coordinator cannot tell whether
   it did. It answers Unavailable and sends nothing. The staged half
   outlives its deadline, the resolver re-sends the decision, and the
   source commits it. The backbone is slow to deliver commits
   (4 s), so an abort sent after the failed prepare would land between
   the source's commit and the destination's, and lose the row. *)
let test_ambiguous_prepare () =
  let cluster, src, dst = two_shard_dirs ~seed:35L ~name:"c" in
  let returned = ref false in
  filter_backbone cluster
    ~prepare_reply:(fun () ->
      if !returned then Simnet.Network.Deliver else Simnet.Network.Drop)
    ~request:(fun _ cmd ->
      match cmd with
      | Dirsvc.Wire.Xcommit _ -> Simnet.Network.Delay 4_000.0
      | _ -> Simnet.Network.Deliver);
  let moved =
    Harness.on_client ~budget:12_000.0 cluster (fun client ->
        let moved =
          outcome (fun () -> Dirsvc.Client.move_row client ~src ~dst ~name:"c")
        in
        returned := true;
        moved)
  in
  (match moved with
  | Error (Dirsvc.Wire.Unavailable _) -> ()
  | Ok () -> Alcotest.fail "the move reported success"
  | Error e ->
      Alcotest.failf "the move failed with %s"
        (Dirsvc.Wire.service_error_to_string e));
  let at_src = lookup_in cluster src "c" in
  let at_dst = lookup_in cluster dst "c" in
  Alcotest.(check int) "the row is in exactly one directory" 1
    (List.length (List.filter Option.is_some [ at_src; at_dst ]));
  Alcotest.check cap_opt "the re-sent decision moved it" (Some src)
    (Option.map fst at_dst)

let suite =
  suite
  @ [
      Alcotest.test_case "coordinator dies before deciding: the re-sent \
                          decision commits"
        `Quick test_resent_decision_commits;
      Alcotest.test_case "row changes while the coordinator is dead: the \
                          re-sent decision aborts"
        `Quick test_resent_decision_aborts;
      Alcotest.test_case "ambiguous prepare: Unavailable, the row in one \
                          directory"
        `Quick test_ambiguous_prepare;
    ]

(* ---- The resolver's wake-ups ---------------------------------------- *)

(* Resolver wake-ups counted by the engine's profiler while [f] runs. *)
let resolver_wakes cluster f =
  let engine = C.engine cluster in
  Sim.Engine.set_profiling engine true;
  let v = f () in
  let wakes =
    List.fold_left
      (fun n (b : Sim.Engine.bucket_report) ->
        if b.name = "dirsvc.xresolve" then n + b.events else n)
      0 (Sim.Engine.profile engine)
  in
  Sim.Engine.set_profiling engine false;
  (wakes, v)

let idle cluster ms () = C.run_until cluster (Sim.Engine.now (C.engine cluster) +. ms)

(* With nothing staged no server's resolver runs; a staged half wakes
   the destination's resolvers, which scan until it commits, and then
   they wait again (after at most one more scan). *)
let test_resolver_idle_without_staged () =
  let cluster, src, dst = two_shard_dirs ~seed:23L ~name:"r" in
  Alcotest.(check int) "idle: no wake-up" 0 (fst (resolver_wakes cluster (idle cluster 2_000.0)));
  filter_backbone cluster ~prepare_reply:(fun () -> Simnet.Network.Delay 300.0);
  let wakes, moved =
    resolver_wakes cluster (fun () ->
        Harness.on_client cluster (fun client ->
            outcome (fun () -> Dirsvc.Client.move_row client ~src ~dst ~name:"r")))
  in
  Alcotest.(check (result unit service_error)) "move succeeded" (Ok ()) moved;
  Alcotest.(check bool) "staged: the resolvers ran" true (wakes > 0);
  idle cluster 500.0 ();
  Alcotest.(check int) "committed: no wake-up" 0 (fst (resolver_wakes cluster (idle cluster 2_000.0)))

let suite =
  suite
  @ [
      Alcotest.test_case "the resolver sleeps while nothing is staged" `Quick
        test_resolver_idle_without_staged;
    ]
