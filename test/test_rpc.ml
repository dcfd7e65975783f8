(* Tests for the Amoeba-style RPC layer: transactions, locate cache,
   NOTHERE bouncing, failover. *)

open Harness

type Simnet.Payload.t += Echo_req of string | Echo_rep of string | Work of float

let setup_world ?(seed = 2L) () = make_world ~seed ()

(* Build a node with an RPC transport attached. *)
let rpc_node w ~id name =
  let n = node ~id name in
  let nic = Simnet.Network.attach w.net n in
  let transport = Rpc.Transport.create w.net nic in
  (n, transport)

let echo_handler ~client:_ = function
  | Echo_req s -> Echo_rep ("echo:" ^ s)
  | _ -> Echo_rep "?"

let test_basic_trans () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 "server" in
  let client, ct = rpc_node w ~id:2 "client" in
  Rpc.Transport.serve st ~port:"echo" echo_handler;
  let reply =
    run_fiber w client (fun () ->
        Rpc.Transport.trans ct ~port:"echo" (Echo_req "hi"))
  in
  (match reply with
  | Echo_rep s -> Alcotest.(check string) "echoed" "echo:hi" s
  | _ -> Alcotest.fail "wrong reply payload");
  Alcotest.(check bool) "server cached" true
    (Rpc.Transport.cached_servers ct ~port:"echo" = [ 1 ])

let test_rpc_message_count () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 "server" in
  let client, ct = rpc_node w ~id:2 "client" in
  Rpc.Transport.serve st ~port:"echo" echo_handler;
  (* Warm the port cache so we count a bare transaction. *)
  let () =
    run_fiber w client (fun () ->
        ignore (Rpc.Transport.trans ct ~port:"echo" (Echo_req "warm")))
  in
  let before = Sim.Metrics.counters w.metrics in
  Sim.Proc.boot w.engine client (fun () ->
      ignore (Rpc.Transport.trans ct ~port:"echo" (Echo_req "counted")));
  Sim.Engine.run w.engine;
  let after = Sim.Metrics.counters w.metrics in
  let delta = Sim.Metrics.delta ~before ~after in
  (* The paper: an Amoeba RPC costs 3 messages (request, reply, ack). *)
  Alcotest.(check (option int)) "3 packets per RPC" (Some 3)
    (List.assoc_opt "net.pkt" delta)

let test_concurrent_clients () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 "server" in
  Rpc.Transport.serve st ~port:"echo" ~threads:4 echo_handler;
  let finished = ref 0 in
  for i = 2 to 6 do
    let client, ct = rpc_node w ~id:i (Printf.sprintf "client%d" i) in
    Sim.Proc.boot w.engine client (fun () ->
        for j = 1 to 10 do
          match
            Rpc.Transport.trans ct ~port:"echo"
              (Echo_req (Printf.sprintf "%d.%d" i j))
          with
          | Echo_rep _ -> incr finished
          | _ -> ()
        done)
  done;
  Sim.Engine.run w.engine;
  Alcotest.(check int) "all transactions served" 50 !finished

let test_no_server () =
  let w = setup_world () in
  let client, ct = rpc_node w ~id:2 "client" in
  let outcome =
    run_fiber w client (fun () ->
        match Rpc.Transport.trans ct ~port:"ghost" (Echo_req "x") with
        | _ -> "replied"
        | exception Rpc.Transport.Rpc_failure _ -> "failed")
  in
  Alcotest.(check string) "locate fails" "failed" outcome

let test_busy_server_bounces () =
  let w = setup_world () in
  let server, st = rpc_node w ~id:1 "server" in
  let cpu = Sim.Resource.create ~capacity:1 () in
  (* One worker thread that takes a long time per request. *)
  Rpc.Transport.serve st ~port:"slow" ~threads:1 (fun ~client:_ -> function
    | Work d ->
        Sim.Resource.use cpu d;
        Echo_rep "done"
    | _ -> Echo_rep "?");
  ignore server;
  let client, ct = rpc_node w ~id:2 "client" in
  let bounced = ref false in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         (match packet.Simnet.Packet.payload with
         | Rpc.Wire.Not_here _ -> bounced := true
         | _ -> ());
         Simnet.Network.Deliver));
  Sim.Proc.boot w.engine client (fun () ->
      (* First request occupies the single worker for 50ms. *)
      Sim.Proc.spawn (fun () ->
          ignore (Rpc.Transport.trans ct ~port:"slow" (Work 50.0)));
      Sim.Proc.sleep 10.0;
      (* Second request arrives while the worker is busy: NOTHERE. *)
      match Rpc.Transport.trans ct ~port:"slow" (Work 1.0) with
      | _ -> ()
      | exception Rpc.Transport.Rpc_failure _ -> ());
  Sim.Engine.run w.engine;
  Alcotest.(check bool) "NOTHERE was sent" true !bounced

let test_failover_to_second_server () =
  let w = setup_world () in
  let server1, st1 = rpc_node w ~id:1 "server1" in
  let _server2, st2 = rpc_node w ~id:2 "server2" in
  let serve_on st tag =
    Rpc.Transport.serve st ~port:"ha" (fun ~client:_ -> function
      | Echo_req s -> Echo_rep (tag ^ ":" ^ s)
      | _ -> Echo_rep "?")
  in
  serve_on st1 "s1";
  serve_on st2 "s2";
  let client, ct = rpc_node w ~id:3 "client" in
  let replies = ref [] in
  Sim.Proc.boot w.engine client (fun () ->
      (match Rpc.Transport.trans ct ~port:"ha" (Echo_req "a") with
      | Echo_rep s -> replies := s :: !replies
      | _ -> ());
      (* Kill both, then restart only server 2's service: client should
         still complete after a relocate. *)
      Sim.Node.crash server1;
      Sim.Proc.sleep 5.0;
      match Rpc.Transport.trans ct ~port:"ha" (Echo_req "b") with
      | Echo_rep s -> replies := s :: !replies
      | _ -> ());
  Sim.Engine.run w.engine;
  match List.rev !replies with
  | [ first; second ] ->
      Alcotest.(check bool) "first answered" true
        (first = "s1:a" || first = "s2:a");
      Alcotest.(check string) "second served by survivor" "s2:b" second
  | other ->
      Alcotest.failf "expected two replies, got %d" (List.length other)

let test_stop_serving () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 "server" in
  Rpc.Transport.serve st ~port:"echo" echo_handler;
  let client, ct = rpc_node w ~id:2 "client" in
  let outcome =
    run_fiber w client (fun () ->
        let first =
          match Rpc.Transport.trans ct ~port:"echo" (Echo_req "x") with
          | Echo_rep _ -> "ok"
          | _ -> "?"
        in
        Rpc.Transport.stop_serving st ~port:"echo";
        let second =
          match Rpc.Transport.trans ct ~port:"echo" (Echo_req "y") with
          | _ -> "ok"
          | exception Rpc.Transport.Rpc_failure _ -> "failed"
        in
        (first, second))
  in
  Alcotest.(check (pair string string)) "served then refused" ("ok", "failed")
    outcome

(* ---- Liveness enquiries ---------------------------------------------- *)

let period = Rpc.Transport.enquiry_period

(* The names of the [rpc] trace events [w] emits from now on. *)
let rpc_events w =
  let names = ref [] in
  let trace = Sim.Trace.create () in
  Sim.Trace.set_sink trace
    (Some
       (fun e ->
         if e.Sim.Trace.subsystem = "rpc" then names := e.Sim.Trace.name :: !names));
  Sim.Engine.set_trace w.engine (Some trace);
  fun () -> List.rev !names

(* Count Enquiry and Alive packets on the wire; [drop_alive] drops the
   first [n] Alive packets. *)
let count_probes ?(drop_alive = 0) w =
  let enquiries = ref 0 and alives = ref 0 in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         match packet.Simnet.Packet.payload with
         | Rpc.Wire.Enquiry _ ->
             incr enquiries;
             Simnet.Network.Deliver
         | Rpc.Wire.Alive _ ->
             incr alives;
             if !alives <= drop_alive then Simnet.Network.Drop
             else Simnet.Network.Deliver
         | _ -> Simnet.Network.Deliver));
  (enquiries, alives)

(* Serve "ha" on [st]: every request sleeps [!delay] ms, then is
   answered with [tag]; [runs] counts handler invocations. *)
let serve_work st tag ~delay ~runs =
  Rpc.Transport.serve st ~port:"ha" (fun ~client:_ _ ->
      incr runs;
      Sim.Proc.sleep !delay;
      Echo_rep tag)

let test_dead_server_abandoned () =
  let w = setup_world () in
  let n1, st1 = rpc_node w ~id:1 "server1" in
  let n2, st2 = rpc_node w ~id:2 "server2" in
  let delays = [| ref 0.0; ref 0.0 |] in
  serve_work st1 "s1" ~delay:delays.(0) ~runs:(ref 0);
  serve_work st2 "s2" ~delay:delays.(1) ~runs:(ref 0);
  let client, ct = rpc_node w ~id:3 "client" in
  let events = rpc_events w in
  let result =
    run_fiber w client (fun () ->
        ignore (Rpc.Transport.trans ct ~port:"ha" (Echo_req "x"));
        (* The server the client will use holds the request for 10 s
           and crashes 100 ms into it. *)
        let holder = List.hd (Rpc.Transport.cached_servers ct ~port:"ha") in
        delays.(holder - 1) := 10_000.0;
        let crashed_at = Sim.Proc.now () +. 100.0 in
        at w ~delay:100.0 (fun () -> Sim.Node.crash (if holder = 1 then n1 else n2));
        let reply = Rpc.Transport.trans ct ~port:"ha" (Echo_req "x") in
        (holder, reply, Sim.Proc.now () -. crashed_at))
  in
  let holder, reply, after_crash = result in
  (match reply with
  | Echo_rep tag ->
      Alcotest.(check string) "served by the survivor"
        (if holder = 1 then "s2" else "s1") tag
  | _ -> Alcotest.fail "wrong reply payload");
  Alcotest.(check bool)
    (Printf.sprintf "completed %.0f ms after the crash, within 3P" after_crash)
    true (after_crash <= 3.0 *. period);
  Alcotest.(check int) "one dead verdict" 1
    (List.length (List.filter (String.equal "trans.dead") (events ())));
  Alcotest.(check bool) "no timeout" false (List.mem "trans.timeout" (events ()))

(* There is no deadline: a server that keeps answering enquiries is
   waited for however long its handler takes. *)
let test_slow_live_server_kept () =
  List.iter
    (fun delay ->
      let w = setup_world () in
      let _server, st = rpc_node w ~id:1 "server" in
      let runs = ref 0 in
      serve_work st "s1" ~delay:(ref delay) ~runs;
      let client, ct = rpc_node w ~id:2 "client" in
      let enquiries, alives = count_probes w in
      let events = rpc_events w in
      let reply =
        run_fiber w client (fun () ->
            Rpc.Transport.trans ct ~port:"ha" (Echo_req "x"))
      in
      let label what = Printf.sprintf "%s (handler %.0f ms)" what delay in
      Alcotest.(check bool) (label "replied") true (reply = Echo_rep "s1");
      Alcotest.(check int) (label "handler ran once") 1 !runs;
      Alcotest.(check bool) (label "enquiries sent") true (!enquiries >= 10);
      Alcotest.(check int) (label "every enquiry answered") !enquiries !alives;
      Alcotest.(check (list string)) (label "one clean attempt")
        [ "locate"; "locate.done"; "trans"; "trans.done" ]
        (events ()))
    [ 3_000.0; 10_000.0 ]

let test_rebooted_server_silent () =
  let w = setup_world () in
  let server, st = rpc_node w ~id:1 "server" in
  let delay = ref 10_000.0 in
  serve_work st "old" ~delay ~runs:(ref 0);
  let client, ct = rpc_node w ~id:2 "client" in
  let rebooted_at = 100.0 in
  (* The server reboots while it holds the request, and its new
     incarnation serves again at once. *)
  at w ~delay:rebooted_at (fun () ->
      Sim.Node.crash server;
      Sim.Node.restart server;
      let st' = Rpc.Transport.create w.net (Simnet.Network.attach w.net server) in
      serve_work st' "new" ~delay:(ref 0.0) ~runs:(ref 0));
  let events = rpc_events w in
  let reply, finished =
    run_fiber w client (fun () ->
        let reply = Rpc.Transport.trans ct ~port:"ha" (Echo_req "x") in
        (reply, Sim.Proc.now ()))
  in
  Alcotest.(check bool) "served by the new incarnation" true (reply = Echo_rep "new");
  Alcotest.(check bool)
    (Printf.sprintf "failed over %.0f ms after the reboot, within 3P"
       (finished -. rebooted_at))
    true
    (finished -. rebooted_at <= 3.0 *. period);
  Alcotest.(check bool) "dead verdict" true (List.mem "trans.dead" (events ()))

let test_lost_alive_tolerated () =
  let w = setup_world () in
  let _server, st = rpc_node w ~id:1 "server" in
  let runs = ref 0 in
  serve_work st "s1" ~delay:(ref 3_000.0) ~runs;
  let client, ct = rpc_node w ~id:2 "client" in
  let _enquiries, alives = count_probes ~drop_alive:1 w in
  let events = rpc_events w in
  let reply =
    run_fiber w client (fun () ->
        Rpc.Transport.trans ct ~port:"ha" (Echo_req "x"))
  in
  Alcotest.(check bool) "replied" true (reply = Echo_rep "s1");
  Alcotest.(check bool) "an Alive was dropped" true (!alives > 1);
  Alcotest.(check int) "handler ran once" 1 !runs;
  Alcotest.(check bool) "not abandoned" false (List.mem "trans.dead" (events ()))

(* A caller parks on its own call. A server cut off after accepting a
   request is abandoned as dead and the request retried on the other
   one; the partition heals while the retry is outstanding, so the cut
   server's reply reaches the client late. That reply belongs to no
   pending call: it is dropped unacknowledged, and the caller, parked on
   the retry's call by then, resumes once, with the retry's reply. *)
let test_late_reply_dropped () =
  let w = setup_world () in
  let _, st1 = rpc_node w ~id:1 "server1" in
  let _, st2 = rpc_node w ~id:2 "server2" in
  let runs = [| ref 0; ref 0 |] in
  let serve_on st id =
    Rpc.Transport.serve st ~port:"ha" (fun ~client:_ -> function
      | Work d ->
          incr runs.(id - 1);
          Sim.Proc.sleep d;
          Echo_rep (Printf.sprintf "s%d" id)
      | _ -> Echo_rep "?")
  in
  serve_on st1 1;
  serve_on st2 2;
  let client, ct = rpc_node w ~id:3 "client" in
  let late_replies = ref 0 and acks_to_holder = ref 0 and holder = ref 0 in
  let returns = ref 0 in
  let events = rpc_events w in
  let reply, finished =
    run_fiber w client (fun () ->
        ignore (Rpc.Transport.trans ct ~port:"ha" (Work 0.0));
        holder := List.hd (Rpc.Transport.cached_servers ct ~port:"ha");
        let other = 3 - !holder in
        Simnet.Network.set_fault_filter w.net
          (Some
             (fun packet ->
               (match packet.Simnet.Packet.payload with
               | Rpc.Wire.Reply _ when packet.src = !holder -> incr late_replies
               | Rpc.Wire.Ack _ when packet.dst = Unicast !holder -> incr acks_to_holder
               | _ -> ());
               Simnet.Network.Deliver));
        let start = Sim.Proc.now () in
        (* Cut off the holder once it has the request; heal while the
           retry runs, before the holder's 1.5 s handler answers. *)
        at w ~delay:50.0 (fun () ->
            Simnet.Network.set_partitions w.net [ [ !holder ]; [ other; 3 ] ]);
        at w ~delay:900.0 (fun () -> Simnet.Network.heal w.net);
        let reply = Rpc.Transport.trans ct ~port:"ha" (Work 1_500.0) in
        incr returns;
        Sim.Proc.sleep 5_000.0;
        (reply, Sim.Proc.now () -. start -. 5_000.0))
  in
  Alcotest.(check bool) "the retry's reply" true
    (reply = Echo_rep (Printf.sprintf "s%d" (3 - !holder)));
  Alcotest.(check int) "the caller resumed once" 1 !returns;
  Alcotest.(check bool)
    (Printf.sprintf "after the retry's 1.5 s (%.0f ms)" finished)
    true
    (finished > 1_500.0 +. (2.0 *. period));
  Alcotest.(check (list int)) "each server ran the request once" [ 1; 1 ]
    [ !(runs.(0)) - (if !holder = 1 then 1 else 0);
      !(runs.(1)) - (if !holder = 2 then 1 else 0) ];
  Alcotest.(check int) "the cut server's late reply arrived" 1 !late_replies;
  Alcotest.(check int) "and was not acknowledged" 0 !acks_to_holder;
  Alcotest.(check (list string)) "a dead attempt, then the retry"
    [ "trans"; "trans.done"; "trans"; "trans.dead"; "trans"; "trans.done" ]
    (List.filter (fun e -> e <> "locate" && e <> "locate.done") (events ()))

(* A caller whose node crashes mid-call is never resumed: the reply
   cannot reach it, its call's enquiries go unanswered, and the dead
   verdict that ends the call finds only a stale waker. The enquiry
   stops with the call. *)
let test_crashed_caller_not_resumed () =
  let w = setup_world () in
  let _, st = rpc_node w ~id:1 "server" in
  let runs = ref 0 in
  serve_work st "s1" ~delay:(ref 300.0) ~runs;
  let client, ct = rpc_node w ~id:2 "client" in
  let resumed = ref false in
  Sim.Proc.boot w.engine client (fun () ->
      (match Rpc.Transport.trans ct ~port:"ha" (Echo_req "x") with
      | _ -> ()
      | exception _ -> ());
      resumed := true);
  at w ~delay:100.0 (fun () -> Sim.Node.crash client);
  run_until w 10_000.0;
  let events = Sim.Engine.events_executed w.engine in
  run_until w 20_000.0;
  Alcotest.(check int) "the server ran the request" 1 !runs;
  Alcotest.(check bool) "the caller never resumed" false !resumed;
  Alcotest.(check int) "the enquiry stopped" events
    (Sim.Engine.events_executed w.engine)

let suite =
  let tc = Alcotest.test_case in
  [
    tc "basic transaction" `Quick test_basic_trans;
    tc "3 messages per rpc" `Quick test_rpc_message_count;
    tc "concurrent clients" `Quick test_concurrent_clients;
    tc "no server -> failure" `Quick test_no_server;
    tc "busy server bounces NOTHERE" `Quick test_busy_server_bounces;
    tc "failover to second server" `Quick test_failover_to_second_server;
    tc "stop serving" `Quick test_stop_serving;
    tc "crashed server abandoned within 3 enquiry periods" `Quick
      test_dead_server_abandoned;
    tc "slow live server answers enquiries and is kept" `Quick
      test_slow_live_server_kept;
    tc "rebooted server's new incarnation stays silent" `Quick
      test_rebooted_server_silent;
    tc "one lost Alive does not abandon a live server" `Quick
      test_lost_alive_tolerated;
    tc "a late reply after a dead verdict is dropped" `Quick
      test_late_reply_dropped;
    tc "a caller whose node crashed is never resumed" `Quick
      test_crashed_caller_not_resumed;
  ]
