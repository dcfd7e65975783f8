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

exception Coordinator_crash

(* Cross-shard move termination. First the happy path, then a
   coordinator crash after the source committed (the commit point):
   the destination's resolver must learn the outcome over the backbone
   and complete the move. Then a crash before any commit: both shards
   time out their staged halves and abort, leaving the row at the
   source. *)
let test_coordinator_crash_recovery () =
  let params = { Dirsvc.Params.default with shards = 2 } in
  let cluster = boot ~seed:23L ~params C.Group_disk in
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
      (* Crash after committing the source: dst is staged, src is the
         commit point — the resolver must finish the move. *)
      Dirsvc.Client.append_row client dir_a ~name:"r" [ dir_a ];
      (match
         Dirsvc.Client.move_row
           ~hook:(fun step ->
             if step = "committed_src" then raise Coordinator_crash)
           client ~src:dir_a ~dst:dir_b ~name:"r"
       with
      | () -> Alcotest.fail "hook should have crashed the coordinator"
      | exception Coordinator_crash -> ());
      Sim.Proc.sleep 8_000.0;
      Alcotest.(check bool) "resolver completed the move at destination" true
        (Dirsvc.Client.lookup client dir_b "r" <> None);
      Alcotest.(check bool) "committed source stayed deleted" true
        (Dirsvc.Client.lookup client dir_a "r" = None);
      (* Crash before any commit: presumed abort on both sides. *)
      Dirsvc.Client.append_row client dir_a ~name:"s" [ dir_a ];
      (match
         Dirsvc.Client.move_row
           ~hook:(fun step ->
             if step = "prepared_dst" then raise Coordinator_crash)
           client ~src:dir_a ~dst:dir_b ~name:"s"
       with
      | () -> Alcotest.fail "hook should have crashed the coordinator"
      | exception Coordinator_crash -> ());
      Sim.Proc.sleep 8_000.0;
      Alcotest.(check bool) "aborted move left the row at the source" true
        (Dirsvc.Client.lookup client dir_a "s" <> None);
      Alcotest.(check bool) "nothing materialised at the destination" true
        (Dirsvc.Client.lookup client dir_b "s" = None);
      (* The transaction machinery is clean afterwards: another move
         succeeds end to end. *)
      Dirsvc.Client.move_row client ~src:dir_a ~dst:dir_b ~name:"s";
      Alcotest.(check bool) "subsequent move unaffected" true
        (Dirsvc.Client.lookup client dir_b "s" <> None))

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
    tc "lookup set scatters over two shards" `Quick test_lookup_set_two_shards;
    tc "lookup set on one shard is one request" `Quick
      test_lookup_set_one_shard;
  ]
