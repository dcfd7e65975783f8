(* Tests for the simulated network: latency, partitions, multicast, NICs. *)

open Harness

type Simnet.Payload.t += Ping of int

let test_unicast_latency () =
  let w = make_world ~latency:{ base = 1.0; jitter = 0.0; local = 0.05 } () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic2 = Simnet.Network.attach w.net n2 in
  let sock2 = Simnet.Network.socket nic2 ~proto:"test" in
  let arrival = ref nan in
  Sim.Proc.boot w.engine n2 (fun () ->
      let _ = Sim.Mailbox.recv sock2 in
      arrival := Sim.Proc.now ());
  Sim.Proc.boot w.engine n1 (fun () ->
      Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1));
  Sim.Engine.run w.engine;
  Alcotest.(check (float 1e-9)) "one base latency" 1.0 !arrival

let test_self_send_is_local () =
  let w = make_world ~latency:{ base = 1.0; jitter = 0.0; local = 0.05 } () in
  let n1 = node ~id:1 "n1" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let sock = Simnet.Network.socket nic1 ~proto:"test" in
  let arrival = ref nan in
  Sim.Proc.boot w.engine n1 (fun () ->
      Simnet.Network.send w.net nic1 ~dst:1 ~proto:"test" (Ping 1);
      let _ = Sim.Mailbox.recv sock in
      arrival := Sim.Proc.now ());
  Sim.Engine.run w.engine;
  Alcotest.(check (float 1e-9)) "loopback latency" 0.05 !arrival

let collect_multicast w ~ids ~sender_id =
  let nodes = List.map (fun id -> node ~id (Printf.sprintf "n%d" id)) ids in
  let nics = List.map (fun n -> (Sim.Node.id n, Simnet.Network.attach w.net n)) nodes in
  let received = ref [] in
  List.iter2
    (fun n (id, nic) ->
      let sock = Simnet.Network.socket nic ~proto:"test" in
      Sim.Proc.boot w.engine n (fun () ->
          let _ = Sim.Mailbox.recv sock in
          received := id :: !received))
    nodes nics;
  let sender_nic = List.assoc sender_id nics in
  let sender = List.find (fun n -> Sim.Node.id n = sender_id) nodes in
  Sim.Proc.boot w.engine sender (fun () ->
      Simnet.Network.multicast w.net sender_nic ~proto:"test" (Ping 99));
  Sim.Engine.run w.engine;
  List.sort compare !received

let test_multicast_reaches_all () =
  let w = make_world () in
  Alcotest.(check (list int)) "all five nodes incl. sender" [ 1; 2; 3; 4; 5 ]
    (collect_multicast w ~ids:[ 1; 2; 3; 4; 5 ] ~sender_id:3)

let test_multicast_respects_partitions () =
  let w = make_world () in
  Simnet.Network.set_partitions w.net [ [ 1; 2 ]; [ 3; 4; 5 ] ];
  Alcotest.(check (list int)) "only sender's cell" [ 1; 2 ]
    (collect_multicast w ~ids:[ 1; 2; 3; 4; 5 ] ~sender_id:1)

let test_partition_blocks_unicast_and_heals () =
  let w = make_world () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic2 = Simnet.Network.attach w.net n2 in
  let sock2 = Simnet.Network.socket nic2 ~proto:"test" in
  let received = ref [] in
  Sim.Proc.boot w.engine n2 (fun () ->
      while true do
        match Sim.Mailbox.recv sock2 with
        | { payload = Ping i; _ } -> received := i :: !received
        | _ -> ()
      done);
  Simnet.Network.set_partitions w.net [ [ 1 ]; [ 2 ] ];
  Sim.Proc.boot w.engine n1 (fun () ->
      Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1));
  at w ~delay:10.0 (fun () -> Simnet.Network.heal w.net);
  at w ~delay:11.0 (fun () ->
      Sim.Proc.boot w.engine n1 (fun () ->
          Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 2)));
  Sim.Engine.run w.engine;
  Alcotest.(check (list int)) "only post-heal ping" [ 2 ] !received

let test_reachability_matrix () =
  let w = make_world () in
  Simnet.Network.set_partitions w.net [ [ 1; 2 ]; [ 3 ] ];
  let r = Simnet.Network.reachable w.net in
  Alcotest.(check bool) "1-2 same cell" true (r 1 2);
  Alcotest.(check bool) "1-3 split" false (r 1 3);
  Alcotest.(check bool) "self always" true (r 3 3);
  Alcotest.(check bool) "unlisted unreachable" false (r 1 9)

let test_crash_drops_in_flight () =
  let w = make_world ~latency:{ base = 5.0; jitter = 0.0; local = 0.05 } () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic2 = Simnet.Network.attach w.net n2 in
  let sock2 = Simnet.Network.socket nic2 ~proto:"test" in
  let received = ref 0 in
  Sim.Proc.boot w.engine n2 (fun () ->
      let _ = Sim.Mailbox.recv sock2 in
      incr received);
  Sim.Proc.boot w.engine n1 (fun () ->
      Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1));
  (* Crash the receiver while the packet is on the wire. *)
  at w ~delay:2.0 (fun () -> Sim.Node.crash n2);
  Sim.Engine.run w.engine;
  Alcotest.(check int) "packet dropped at dead NIC" 0 !received

let test_restart_needs_new_nic () =
  let w = make_world ~latency:{ base = 1.0; jitter = 0.0; local = 0.05 } () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let received = ref 0 in
  let start_receiver () =
    let nic2 = Simnet.Network.attach w.net n2 in
    let sock2 = Simnet.Network.socket nic2 ~proto:"test" in
    Sim.Proc.boot w.engine n2 (fun () ->
        while true do
          let _ = Sim.Mailbox.recv sock2 in
          incr received
        done)
  in
  start_receiver ();
  at w ~delay:5.0 (fun () ->
      Sim.Node.crash n2;
      Sim.Node.restart n2);
  (* Old NIC is stale: nothing arrives until the node re-attaches. *)
  at w ~delay:6.0 (fun () ->
      Sim.Proc.boot w.engine n1 (fun () ->
          Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1)));
  at w ~delay:10.0 (fun () -> start_receiver ());
  at w ~delay:11.0 (fun () ->
      Sim.Proc.boot w.engine n1 (fun () ->
          Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 2)));
  Sim.Engine.run w.engine;
  Alcotest.(check int) "only the post-reattach packet" 1 !received

let test_loss () =
  let w = make_world () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic2 = Simnet.Network.attach w.net n2 in
  let sock2 = Simnet.Network.socket nic2 ~proto:"test" in
  let received = ref 0 in
  Sim.Proc.boot w.engine n2 (fun () ->
      while true do
        let _ = Sim.Mailbox.recv sock2 in
        incr received
      done);
  Simnet.Network.set_loss w.net 0.5;
  Sim.Proc.boot w.engine n1 (fun () ->
      for _ = 1 to 200 do
        Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 0);
        Sim.Proc.sleep 1.0
      done);
  Sim.Engine.run w.engine;
  Alcotest.(check bool) "roughly half arrive" true
    (!received > 60 && !received < 140)

let test_fault_filter () =
  let w = make_world () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic2 = Simnet.Network.attach w.net n2 in
  let sock2 = Simnet.Network.socket nic2 ~proto:"test" in
  let received = ref [] in
  Sim.Proc.boot w.engine n2 (fun () ->
      while true do
        match Sim.Mailbox.recv sock2 with
        | { payload = Ping i; _ } -> received := i :: !received
        | _ -> ()
      done);
  Simnet.Network.set_fault_filter w.net
    (Some
       (function
       | { Simnet.Packet.payload = Ping 1; _ } -> Simnet.Network.Drop
       | { payload = Ping 2; _ } -> Simnet.Network.Delay 50.0
       | _ -> Simnet.Network.Deliver));
  Sim.Proc.boot w.engine n1 (fun () ->
      Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1);
      Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 2);
      Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 3));
  Sim.Engine.run w.engine;
  (* Newest first: Ping 3 arrives promptly, Ping 2 arrives ~50ms later,
     Ping 1 never. *)
  Alcotest.(check (list int)) "dropped, delayed, delivered" [ 2; 3 ] !received

let test_packet_metrics () =
  let w = make_world () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic2 = Simnet.Network.attach w.net n2 in
  let _sock2 = Simnet.Network.socket nic2 ~proto:"test" in
  Sim.Proc.boot w.engine n1 (fun () ->
      Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1);
      Simnet.Network.multicast w.net nic1 ~proto:"test" (Ping 2));
  Sim.Engine.run w.engine;
  Alcotest.(check int) "two wire packets" 2 (Sim.Metrics.count w.metrics "net.pkt");
  Alcotest.(check int) "one multicast" 1 (Sim.Metrics.count w.metrics "net.mcast")

(* The cached receiver array must reproduce the order the old
   sort-per-NIC-table-fold computed on every send: ascending node id,
   whatever order nodes attached in, and refreshed after a crash or a
   new attach. With zero jitter every receiver's packet lands at the
   same virtual time, so equal-timestamp tie-breaking (insertion order)
   exposes the fan-out order directly as the reception order. *)
let test_multicast_order_after_churn () =
  let w = make_world ~latency:{ base = 1.0; jitter = 0.0; local = 0.05 } () in
  let order = ref [] in
  let nodes = Hashtbl.create 8 in
  let join id =
    let n = node ~id (Printf.sprintf "n%d" id) in
    Hashtbl.replace nodes id n;
    let nic = Simnet.Network.attach w.net n in
    let sock = Simnet.Network.socket nic ~proto:"test" in
    Sim.Proc.boot w.engine n (fun () ->
        while true do
          let _ = Sim.Mailbox.recv sock in
          order := id :: !order
        done);
    nic
  in
  (* Scrambled attach order; fan-out must still be ascending by id. *)
  let nics = List.map (fun id -> (id, join id)) [ 4; 2; 5; 1; 3 ] in
  let sender = List.assoc 3 nics in
  let mcast () =
    Sim.Proc.boot w.engine (Hashtbl.find nodes 3) (fun () ->
        Simnet.Network.multicast w.net sender ~proto:"test" (Ping 0))
  in
  mcast ();
  (* Sender loopback is fast (0.05), the rest share one base latency, so
     each round reads: sender first, then ascending ids. *)
  at w ~delay:2.0 (fun () -> Sim.Node.crash (Hashtbl.find nodes 2));
  at w ~delay:3.0 (fun () -> mcast ());
  at w ~delay:5.0 (fun () -> ignore (join 6));
  at w ~delay:6.0 (fun () -> mcast ());
  run_until w 20.0;
  Alcotest.(check (list int)) "ascending ids, tracking churn"
    [ 3; 1; 2; 4; 5 (* full set *); 3; 1; 4; 5 (* node 2 crashed *); 3; 1; 4; 5; 6 (* node 6 joined *) ]
    (List.rev !order)

(* Same seed => same per-receiver jitter draws => identical arrival
   times, even across cache invalidations. Guards the RNG-draw-order
   contract the receiver cache relies on. *)
let test_multicast_same_seed_arrivals () =
  let run_once () =
    let w = make_world ~seed:99L () in
    let arrivals = ref [] in
    let nodes = Hashtbl.create 8 in
    let join id =
      let n = node ~id (Printf.sprintf "n%d" id) in
      Hashtbl.replace nodes id n;
      let nic = Simnet.Network.attach w.net n in
      let sock = Simnet.Network.socket nic ~proto:"test" in
      Sim.Proc.boot w.engine n (fun () ->
          while true do
            let _ = Sim.Mailbox.recv sock in
            arrivals := (id, Sim.Proc.now ()) :: !arrivals
          done);
      nic
    in
    let nics = List.map (fun id -> (id, join id)) [ 1; 2; 3; 4; 5 ] in
    let sender = List.assoc 1 nics in
    let mcast () =
      Sim.Proc.boot w.engine (Hashtbl.find nodes 1) (fun () ->
          Simnet.Network.multicast w.net sender ~proto:"test" (Ping 0))
    in
    mcast ();
    at w ~delay:2.0 (fun () -> Sim.Node.crash (Hashtbl.find nodes 4));
    at w ~delay:3.0 (fun () -> mcast ());
    run_until w 20.0;
    List.rev !arrivals
  in
  let first = run_once () in
  Alcotest.(check (list (pair int (float 0.0)))) "same seed, same arrivals"
    first (run_once ())

let suite =
  let tc = Alcotest.test_case in
  [
    tc "unicast latency" `Quick test_unicast_latency;
    tc "self send is local" `Quick test_self_send_is_local;
    tc "multicast reaches all" `Quick test_multicast_reaches_all;
    tc "multicast respects partitions" `Quick test_multicast_respects_partitions;
    tc "partition blocks unicast, heal restores" `Quick
      test_partition_blocks_unicast_and_heals;
    tc "reachability matrix" `Quick test_reachability_matrix;
    tc "crash drops in-flight packet" `Quick test_crash_drops_in_flight;
    tc "restart needs new nic" `Quick test_restart_needs_new_nic;
    tc "probabilistic loss" `Quick test_loss;
    tc "fault filter" `Quick test_fault_filter;
    tc "packet metrics" `Quick test_packet_metrics;
    tc "multicast order tracks churn" `Quick test_multicast_order_after_churn;
    tc "multicast same-seed arrivals" `Quick test_multicast_same_seed_arrivals;
  ]

(* Redundant rails: one healthy rail suffices (the paper's "multiple,
   redundant networks" deployment requirement). *)
let test_rails_survive_single_rail_failure () =
  (* A fresh 2-rail world, built directly. *)
  let engine = Sim.Engine.create ~seed:5L () in
  let net = Simnet.Network.create engine ~rails:2 () in
  let n1 = node ~id:1 "n1" and n2 = node ~id:2 "n2" in
  let nic1 = Simnet.Network.attach net n1 in
  let nic2 = Simnet.Network.attach net n2 in
  let sock2 = Simnet.Network.socket nic2 ~proto:"test" in
  let received = ref 0 in
  Sim.Proc.boot engine n2 (fun () ->
      while true do
        let _ = Sim.Mailbox.recv sock2 in
        incr received
      done);
  (* Rail 0 dies: traffic flows over rail 1. *)
  Simnet.Network.fail_rail net ~rail:0;
  Sim.Proc.boot engine n1 (fun () ->
      Simnet.Network.send net nic1 ~dst:2 ~proto:"test" (Ping 1));
  Sim.Engine.run ~until:50.0 engine;
  Alcotest.(check int) "delivered over the surviving rail" 1 !received;
  (* Rail 1 partitioned differently: connectivity is the union. *)
  Simnet.Network.restore_rail net ~rail:0;
  Simnet.Network.set_rail_partitions net ~rail:0 [ [ 1 ]; [ 2 ] ];
  Simnet.Network.set_rail_partitions net ~rail:1 [ [ 1; 2 ] ];
  Alcotest.(check bool) "union reachability" true
    (Simnet.Network.reachable net 1 2);
  (* Both rails cut between them: now truly partitioned. *)
  Simnet.Network.set_rail_partitions net ~rail:1 [ [ 1 ]; [ 2 ] ];
  Alcotest.(check bool) "both rails cut -> unreachable" false
    (Simnet.Network.reachable net 1 2)

let suite =
  suite
  @ [
      Alcotest.test_case "redundant rails survive single failure" `Quick
        test_rails_survive_single_rail_failure;
    ]

(* [listen]: the handler runs inside the delivery event itself — the
   packet arrives at exactly the base latency, and delivering it costs
   exactly one engine event (no fiber wakeup behind it). *)
let test_listen_runs_in_delivery_event () =
  let w = make_world ~latency:{ base = 1.0; jitter = 0.0; local = 0.05 } () in
  let nic1 = Simnet.Network.attach w.net (node ~id:1 "n1") in
  let nic2 = Simnet.Network.attach w.net (node ~id:2 "n2") in
  let arrival = ref nan and events_at_arrival = ref (-1) in
  Simnet.Network.listen nic2 ~proto:"test" (fun _ ->
      arrival := Sim.Engine.now w.engine;
      events_at_arrival := Sim.Engine.events_executed w.engine);
  Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1);
  Sim.Engine.run w.engine;
  Alcotest.(check (float 0.0)) "one base latency" 1.0 !arrival;
  Alcotest.(check int) "handled in the first event" 1 !events_at_arrival;
  Alcotest.(check int) "one event in all" 1 (Sim.Engine.events_executed w.engine)

(* A second [listen] on the same proto replaces the first handler: a
   protocol endpoint reincarnated on a live node (a group member that
   left and rejoins) takes over its predecessor's packets. *)
let test_listen_replaces_handler () =
  let w = make_world ~latency:{ base = 1.0; jitter = 0.0; local = 0.05 } () in
  let nic1 = Simnet.Network.attach w.net (node ~id:1 "n1") in
  let nic2 = Simnet.Network.attach w.net (node ~id:2 "n2") in
  let old_got = ref [] and new_got = ref [] in
  let record into (p : Simnet.Packet.t) =
    match p.payload with Ping n -> into := n :: !into | _ -> ()
  in
  Simnet.Network.listen nic2 ~proto:"test" (record old_got);
  Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 1);
  Sim.Engine.run w.engine;
  Simnet.Network.listen nic2 ~proto:"test" (record new_got);
  Simnet.Network.send w.net nic1 ~dst:2 ~proto:"test" (Ping 2);
  Simnet.Network.multicast w.net nic1 ~proto:"test" (Ping 3);
  Sim.Engine.run w.engine;
  Alcotest.(check (list int)) "old handler saw only the first" [ 1 ] !old_got;
  Alcotest.(check (list int)) "new handler gets the rest" [ 3; 2 ]
    !new_got

let suite =
  suite
  @ [
      Alcotest.test_case "listen runs in the delivery event" `Quick
        test_listen_runs_in_delivery_event;
      Alcotest.test_case "second listen replaces the handler" `Quick
        test_listen_replaces_handler;
    ]

(* ---- Delivery slots and pre-built packets --------------------------- *)

(* Send one fresh packet by unicast and one by multicast, from a helper
   so that nothing on this stack keeps them; the weak array sees them. *)
let send_fresh w nic weak =
  let unicast =
    Simnet.Network.packet nic ~dst:(Unicast 2) ~proto:"test" (Ping (Sim.Engine.fresh_id w.engine))
  and multicast =
    Simnet.Network.packet nic ~dst:Multicast ~proto:"test" (Ping (Sim.Engine.fresh_id w.engine))
  in
  Weak.set weak 0 (Some unicast);
  Weak.set weak 1 (Some multicast);
  Simnet.Network.send_packet w.net nic unicast;
  Simnet.Network.send_packet w.net nic multicast

(* A delivery slot empties itself when its event runs: once every
   delivery has run, the network holds neither packet (its slots stay
   for reuse). *)
let test_slot_keeps_no_packet () =
  let w = make_world () in
  let nics =
    List.map (fun id -> Simnet.Network.attach w.net (node ~id (Printf.sprintf "n%d" id))) [ 1; 2; 3 ]
  in
  let got = ref 0 in
  List.iter (fun nic -> Simnet.Network.listen nic ~proto:"test" (fun _ -> incr got)) nics;
  let weak = Weak.create 2 in
  send_fresh w (List.hd nics) weak;
  Gc.full_major ();
  Alcotest.(check bool) "in flight: held by their slots" true
    (Weak.check weak 0 && Weak.check weak 1);
  Sim.Engine.run w.engine;
  Alcotest.(check int) "one unicast and three multicast deliveries" 4 !got;
  Gc.full_major ();
  Alcotest.(check bool) "delivered unicast collectable" false (Weak.check weak 0);
  Alcotest.(check bool) "delivered multicast collectable" false (Weak.check weak 1);
  (* The network, slots included, is still live and in use. *)
  Simnet.Network.send w.net (List.hd nics) ~dst:3 ~proto:"test" (Ping 0);
  Sim.Engine.run w.engine;
  Alcotest.(check int) "a later delivery reuses a slot" 5 !got

(* A packet built once and sent again reaches its receiver each time,
   until its sender's node crashes: then it is never sent, through the
   old NIC, even after the node restarts. *)
let test_prebuilt_packet_dies_with_node () =
  let w = make_world () in
  let n1 = node ~id:1 "n1" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic2 = Simnet.Network.attach w.net (node ~id:2 "n2") in
  let got = ref 0 in
  Simnet.Network.listen nic2 ~proto:"test" (fun _ -> incr got);
  let packet = Simnet.Network.packet nic1 ~dst:(Unicast 2) ~proto:"test" (Ping 7) in
  let pkts () = Sim.Metrics.count w.metrics "net.pkt" in
  Simnet.Network.send_packet w.net nic1 packet;
  Simnet.Network.send_packet w.net nic1 packet;
  Sim.Engine.run w.engine;
  Alcotest.(check int) "sent twice, delivered twice" 2 !got;
  Sim.Node.crash n1;
  Simnet.Network.send_packet w.net nic1 packet;
  Sim.Node.restart n1;
  ignore (Simnet.Network.attach w.net n1);
  Simnet.Network.send_packet w.net nic1 packet;
  Sim.Engine.run w.engine;
  Alcotest.(check int) "nothing after the crash" 2 !got;
  Alcotest.(check int) "not on the wire either" 2 (pkts ())

let suite =
  suite
  @ [
      Alcotest.test_case "a delivery slot keeps no packet" `Quick test_slot_keeps_no_packet;
      Alcotest.test_case "a pre-built packet dies with its node" `Quick
        test_prebuilt_packet_dies_with_node;
    ]
