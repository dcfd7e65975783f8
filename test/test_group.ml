(* Tests for the totally-ordered group communication layer: ordering,
   resilience, failure detection, ResetGroup, join/leave, partitions. *)

open Harness

type Simnet.Payload.t += Note of string

let note_of = function
  | _, Group.Wire.App { payload = Note s; _ } -> Some s
  | _ -> None

(* A triplicated group: node 1 creates, nodes 2 and 3 join. Returns a
   function to fetch member i's endpoint once the sim has started. *)
let start_trio ?(config = Group.Types.default_config) w =
  let members = Hashtbl.create 3 in
  let nodes = Hashtbl.create 3 in
  let start id =
    let n = node ~id (Printf.sprintf "srv%d" id) in
    Hashtbl.replace nodes id n;
    let nic = Simnet.Network.attach w.net n in
    Sim.Proc.boot w.engine n (fun () ->
        let m =
          if id = 1 then
            Group.Member.create_group ~config w.net nic ~gname:"g"
          else begin
            Sim.Proc.sleep (2.0 +. float_of_int id);
            Group.Member.join_group ~config w.net nic ~gname:"g"
          end
        in
        Hashtbl.replace members id m)
  in
  List.iter start [ 1; 2; 3 ];
  let get id =
    match Hashtbl.find_opt members id with
    | Some m -> m
    | None -> Alcotest.failf "member %d not started" id
  in
  let node_of id = Hashtbl.find nodes id in
  (get, node_of)

let test_membership_convergence () =
  let w = make_world ~seed:11L () in
  let get, _ = start_trio w in
  run_until w 100.0;
  List.iter
    (fun id ->
      Alcotest.(check (list int))
        (Printf.sprintf "member %d sees full view" id)
        [ 1; 2; 3 ]
        (Group.Member.members (get id)))
    [ 1; 2; 3 ]

let test_total_order_concurrent_senders () =
  let w = make_world ~seed:12L () in
  let get, node_of = start_trio w in
  let logs = Hashtbl.create 3 in
  (* Every member records the app messages it delivers, in order. *)
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          let log = ref [] in
          Hashtbl.replace logs id log;
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match Group.Member.receive ~timeout:500.0 m with
                  | d -> (
                      match note_of d with
                      | Some s -> log := s :: !log
                      | None -> ())
                done
              with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()))
        [ 1; 2; 3 ]);
  (* Concurrent senders on all three members. *)
  at w ~delay:35.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              for i = 1 to 10 do
                Group.Member.send m (Note (Printf.sprintf "%d.%d" id i))
              done))
        [ 1; 2; 3 ]);
  run_until w 1200.0;
  let log_of id = List.rev !(Hashtbl.find logs id) in
  let l1 = log_of 1 and l2 = log_of 2 and l3 = log_of 3 in
  Alcotest.(check int) "all 30 messages delivered at 1" 30 (List.length l1);
  Alcotest.(check (list string)) "2 sees the same order" l1 l2;
  Alcotest.(check (list string)) "3 sees the same order" l1 l3;
  (* Per-sender FIFO must also hold. *)
  List.iter
    (fun sender ->
      let mine =
        List.filter
          (fun s ->
            String.length s >= 2 && s.[0] = Char.chr (Char.code '0' + sender))
          l1
      in
      let expected = List.init 10 (fun i -> Printf.sprintf "%d.%d" sender (i + 1)) in
      Alcotest.(check (list string))
        (Printf.sprintf "sender %d FIFO" sender)
        expected mine)
    [ 1; 2; 3 ]

let test_send_returns_resilient () =
  (* r = 2: once send returns, even two crashes leave the message
     available at the survivor. *)
  let w = make_world ~seed:13L () in
  let get, node_of = start_trio w in
  let survivor_log = ref [] in
  at w ~delay:30.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 3) (fun () ->
          let m = get 3 in
          try
            while true do
              match note_of (Group.Member.receive ~timeout:2000.0 m) with
              | Some s -> survivor_log := s :: !survivor_log
              | None -> ()
            done
          with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()));
  at w ~delay:35.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          let m = get 2 in
          Group.Member.send m (Note "precious");
          (* SendToGroup returned: crash both other members instantly. *)
          Sim.Node.crash (node_of 1);
          Sim.Node.crash (node_of 2)));
  run_until w 500.0;
  Alcotest.(check (list string)) "survivor holds the message" [ "precious" ]
    !survivor_log

let test_buffered_visibility_after_send () =
  (* The paper's read path: once a send returns (r=2), every member's
     GetInfoGroup already shows the message as buffered. *)
  let w = make_world ~seed:14L () in
  let get, node_of = start_trio w in
  let checked = ref 0 in
  at w ~delay:30.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 1) (fun () ->
          let m = get 1 in
          let before = (Group.Member.info m).highest_seen in
          Group.Member.send m (Note "w");
          List.iter
            (fun id ->
              let info = Group.Member.info (get id) in
              Alcotest.(check bool)
                (Printf.sprintf "member %d has it buffered" id)
                true
                (info.highest_seen > before);
              incr checked)
            [ 1; 2; 3 ]));
  run_until w 200.0;
  Alcotest.(check int) "all three checked" 3 !checked

let test_member_crash_detect_reset_continue () =
  let w = make_world ~seed:15L () in
  let get, node_of = start_trio w in
  let events = ref [] in
  let record fmt = Printf.ksprintf (fun s -> events := s :: !events) fmt in
  (* Group threads that reset on failure, paper Fig. 5 style. *)
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match Group.Member.receive ~timeout:3000.0 m with
                  | exception Group.Types.Group_failure _ ->
                      let size = Group.Member.reset m in
                      record "%d:reset->%d" id size
                  | _ -> ()
                done
              with Sim.Proc.Timeout -> ()))
        [ 1; 2 ]);
  at w ~delay:60.0 (fun () -> Sim.Node.crash (node_of 3));
  (* After recovery, member 2 can still send. *)
  at w ~delay:400.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          let m = get 2 in
          Group.Member.send m (Note "post-recovery");
          record "2:sent"));
  run_until w 800.0;
  let events = List.rev !events in
  Alcotest.(check bool) "someone reset to a 2-member view" true
    (List.exists (fun e -> e = "1:reset->2" || e = "2:reset->2") events);
  Alcotest.(check bool) "send works after reset" true
    (List.mem "2:sent" events);
  Alcotest.(check (list int)) "view is {1,2}" [ 1; 2 ]
    (Group.Member.members (get 1))

let test_sequencer_crash_recovery () =
  let w = make_world ~seed:16L () in
  let get, node_of = start_trio w in
  let delivered = ref [] in
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match Group.Member.receive ~timeout:3000.0 m with
                  | exception Group.Types.Group_failure _ ->
                      ignore (Group.Member.reset m)
                  | d -> (
                      match note_of d with
                      | Some s when id = 2 -> delivered := s :: !delivered
                      | _ -> ())
                done
              with Sim.Proc.Timeout -> ()))
        [ 2; 3 ]);
  (* Node 1 created the group, so it is the sequencer. Crash it. *)
  at w ~delay:60.0 (fun () -> Sim.Node.crash (node_of 1));
  at w ~delay:500.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 3) (fun () ->
          Group.Member.send (get 3) (Note "after-seq-crash")));
  run_until w 900.0;
  Alcotest.(check (list string)) "message flows under the new sequencer"
    [ "after-seq-crash" ] !delivered;
  Alcotest.(check (list int)) "view is {2,3}" [ 2; 3 ]
    (Group.Member.members (get 2))

let test_partition_minority_majority () =
  let w = make_world ~seed:17L () in
  let get, node_of = start_trio w in
  let sizes = Hashtbl.create 3 in
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match Group.Member.receive ~timeout:3000.0 m with
                  | exception Group.Types.Group_failure _ ->
                      Hashtbl.replace sizes id (Group.Member.reset m)
                  | _ -> ()
                done
              with Sim.Proc.Timeout -> ()))
        [ 1; 2; 3 ]);
  at w ~delay:60.0 (fun () ->
      Simnet.Network.set_partitions w.net [ [ 1; 2 ]; [ 3 ] ]);
  run_until w 800.0;
  Alcotest.(check (option int)) "majority side rebuilt with 2" (Some 2)
    (Hashtbl.find_opt sizes 1);
  Alcotest.(check (option int)) "minority side alone" (Some 1)
    (Hashtbl.find_opt sizes 3)

let test_loss_recovery_ordering () =
  (* 20% packet loss: retransmissions must still deliver everything, in
     order, everywhere. The failure detector is made loss-tolerant so the
     test exercises retransmission rather than view changes. *)
  let w = make_world ~seed:18L () in
  let config =
    {
      Group.Types.default_config with
      fail_timeout = 400.0;
      send_retries = 8;
    }
  in
  let get, node_of = start_trio ~config w in
  let logs = Hashtbl.create 3 in
  at w ~delay:30.0 (fun () -> Simnet.Network.set_loss w.net 0.2);
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          let log = ref [] in
          Hashtbl.replace logs id log;
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match note_of (Group.Member.receive ~timeout:3000.0 m) with
                  | Some s -> log := s :: !log
                  | None -> ()
                done
              with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()))
        [ 1; 2; 3 ]);
  at w ~delay:35.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          let m = get 2 in
          for i = 1 to 30 do
            try Group.Member.send m (Note (string_of_int i))
            with Group.Types.Group_failure _ -> ()
          done));
  run_until w 4000.0;
  let l1 = List.rev !(Hashtbl.find logs 1) in
  Alcotest.(check (list string)) "all 30 delivered in order at member 1"
    (List.init 30 (fun i -> string_of_int (i + 1)))
    l1;
  Alcotest.(check (list string)) "member 2 identical" l1
    (List.rev !(Hashtbl.find logs 2));
  Alcotest.(check (list string)) "member 3 identical" l1
    (List.rev !(Hashtbl.find logs 3))

let test_sequencer_graceful_leave () =
  let w = make_world ~seed:19L () in
  let get, node_of = start_trio w in
  let delivered = ref [] in
  at w ~delay:30.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 3) (fun () ->
          let m = get 3 in
          try
            while true do
              match note_of (Group.Member.receive ~timeout:3000.0 m) with
              | Some s -> delivered := s :: !delivered
              | None -> ()
            done
          with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()));
  at w ~delay:40.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 1) (fun () ->
          Group.Member.leave (get 1)));
  at w ~delay:100.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          Group.Member.send (get 2) (Note "under-new-sequencer")));
  run_until w 600.0;
  Alcotest.(check (list string)) "delivery continues" [ "under-new-sequencer" ]
    !delivered;
  Alcotest.(check (list int)) "view shrunk to {2,3}" [ 2; 3 ]
    (Group.Member.members (get 2));
  Alcotest.(check string) "leaver is out" "left"
    (Group.Types.status_to_string (Group.Member.info (get 1)).status)

let test_late_joiner_sees_suffix () =
  let w = make_world ~seed:20L () in
  let n1 = node ~id:1 "srv1" and n4 = node ~id:4 "late" in
  let nic1 = Simnet.Network.attach w.net n1 in
  let nic4 = Simnet.Network.attach w.net n4 in
  let m1 = ref None and late_log = ref [] in
  Sim.Proc.boot w.engine n1 (fun () ->
      let m = Group.Member.create_group w.net nic1 ~gname:"g" in
      m1 := Some m;
      (* Messages sent before the join must not reach the late joiner. *)
      Group.Member.send m (Note "early-1");
      Group.Member.send m (Note "early-2"));
  at w ~delay:50.0 (fun () ->
      Sim.Proc.boot w.engine n4 (fun () ->
          let m = Group.Member.join_group w.net nic4 ~gname:"g" in
          Sim.Proc.spawn (fun () ->
              try
                while true do
                  match note_of (Group.Member.receive ~timeout:3000.0 m) with
                  | Some s -> late_log := s :: !late_log
                  | None -> ()
                done
              with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ())));
  at w ~delay:100.0 (fun () ->
      Sim.Proc.boot w.engine n1 (fun () ->
          match !m1 with
          | Some m -> Group.Member.send m (Note "late-1")
          | None -> ()));
  run_until w 500.0;
  Alcotest.(check (list string)) "only post-join traffic" [ "late-1" ]
    (List.rev !late_log)

let test_send_message_cost () =
  (* SendToGroup with r = 2 in a trio, origin != sequencer:
     1 request + 1 multicast + 2 acks + 1 done = 5 messages (paper §3.1). *)
  let w = make_world ~seed:21L () in
  let quiet_config =
    { Group.Types.default_config with heartbeat_period = 10_000.0 }
  in
  let get, node_of = start_trio ~config:quiet_config w in
  let counted = ref [] in
  at w ~delay:30.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          (* Warm-up send so everything is steady. *)
          Group.Member.send (get 2) (Note "warm");
          Sim.Proc.sleep 20.0;
          let before = Sim.Metrics.counters w.metrics in
          Group.Member.send (get 2) (Note "counted");
          Sim.Proc.sleep 20.0;
          let after = Sim.Metrics.counters w.metrics in
          counted := Sim.Metrics.delta ~before ~after));
  run_until w 300.0;
  let total = match List.assoc_opt "net.pkt" !counted with Some n -> n | None -> 0 in
  Alcotest.(check int) "5 messages per resilient send" 5 total;
  Alcotest.(check (option int)) "one data multicast" (Some 1)
    (List.assoc_opt "grp.data" !counted);
  Alcotest.(check (option int)) "two acks" (Some 2)
    (List.assoc_opt "grp.ack" !counted)

let test_total_order_property =
  (* Random senders/counts: every member delivers the identical log. *)
  QCheck.Test.make ~name:"random traffic keeps identical total order"
    ~count:15
    QCheck.(pair (int_bound 1023) (list_of_size Gen.(1 -- 12) (int_bound 2)))
    (fun (seed, plan) ->
      QCheck.assume (plan <> []);
      let w = make_world ~seed:(Int64.of_int (seed + 1)) () in
      let get, node_of = start_trio w in
      let logs = Hashtbl.create 3 in
      at w ~delay:30.0 (fun () ->
          List.iter
            (fun id ->
              let log = ref [] in
              Hashtbl.replace logs id log;
              Sim.Proc.boot w.engine (node_of id) (fun () ->
                  let m = get id in
                  try
                    while true do
                      match note_of (Group.Member.receive ~timeout:3000.0 m) with
                      | Some s -> log := s :: !log
                      | None -> ()
                    done
                  with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()))
            [ 1; 2; 3 ]);
      at w ~delay:35.0 (fun () ->
          List.iteri
            (fun i sender_idx ->
              let sender = sender_idx + 1 in
              Sim.Proc.boot w.engine (node_of sender) (fun () ->
                  Sim.Proc.sleep (float_of_int i);
                  Group.Member.send (get sender)
                    (Note (Printf.sprintf "%d:%d" sender i))))
            plan);
      run_until w 3000.0;
      let l id = List.rev !(Hashtbl.find logs id) in
      let l1 = l 1 in
      List.length l1 = List.length plan && l 2 = l1 && l 3 = l1)

let suite =
  let tc = Alcotest.test_case in
  [
    tc "membership convergence" `Quick test_membership_convergence;
    tc "total order, concurrent senders" `Quick
      test_total_order_concurrent_senders;
    tc "send returns only when resilient" `Quick test_send_returns_resilient;
    tc "buffered visibility after send" `Quick
      test_buffered_visibility_after_send;
    tc "member crash -> reset -> continue" `Quick
      test_member_crash_detect_reset_continue;
    tc "sequencer crash recovery" `Quick test_sequencer_crash_recovery;
    tc "partition: minority vs majority" `Quick
      test_partition_minority_majority;
    tc "loss recovery keeps ordering" `Quick test_loss_recovery_ordering;
    tc "sequencer graceful leave" `Quick test_sequencer_graceful_leave;
    tc "late joiner sees only suffix" `Quick test_late_joiner_sees_suffix;
    tc "5 messages per send (r=2, trio)" `Quick test_send_message_cost;
    QCheck_alcotest.to_alcotest test_total_order_property;
  ]

(* Appended: regression tests for member reincarnation on one node. *)

let test_leave_then_rejoin_same_node () =
  (* Regression: the new member used to share the old member's socket,
     whose dead fiber stole packets (e.g. another node's join request).
     After leave + re-join on the same node, traffic must flow. *)
  let w = make_world ~seed:44L () in
  let get, node_of = start_trio w in
  let delivered = ref [] in
  let m2' = ref None in
  at w ~delay:40.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          Group.Member.leave (get 2);
          Sim.Proc.sleep 20.0;
          let nic =
            (* the node's NIC is shared; re-joining reuses it *)
            Simnet.Network.attach w.net (node_of 2)
          in
          let m = Group.Member.join_group w.net nic ~gname:"g" in
          m2' := Some m;
          try
            while true do
              match note_of (Group.Member.receive ~timeout:2000.0 m) with
              | Some s -> delivered := s :: !delivered
              | None -> ()
            done
          with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()));
  at w ~delay:200.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 1) (fun () ->
          Group.Member.send (get 1) (Note "after-rejoin")));
  run_until w 800.0;
  Alcotest.(check (list string)) "rejoined member receives" [ "after-rejoin" ]
    !delivered;
  match !m2' with
  | Some m ->
      Alcotest.(check (list int)) "full view restored" [ 1; 2; 3 ]
        (Group.Member.members m)
  | None -> Alcotest.fail "re-join never completed"

let test_rejoin_gets_fresh_base () =
  (* Regression: a re-joining member must be admitted at the current
     position, not handed a stale (deduplicated) grant from its earlier
     life — otherwise it replays history. *)
  let w = make_world ~seed:45L () in
  let get, node_of = start_trio w in
  let seen = ref [] in
  at w ~delay:40.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 1) (fun () ->
          Group.Member.send (get 1) (Note "old-1");
          Group.Member.send (get 1) (Note "old-2")));
  at w ~delay:80.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 3) (fun () ->
          Group.Member.leave (get 3);
          Sim.Proc.sleep 30.0;
          let nic = Simnet.Network.attach w.net (node_of 3) in
          let m = Group.Member.join_group w.net nic ~gname:"g" in
          try
            while true do
              match note_of (Group.Member.receive ~timeout:2000.0 m) with
              | Some s -> seen := s :: !seen
              | None -> ()
            done
          with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()));
  at w ~delay:300.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 1) (fun () ->
          Group.Member.send (get 1) (Note "new-1")));
  run_until w 900.0;
  Alcotest.(check (list string)) "only post-rejoin traffic, no replay"
    [ "new-1" ] (List.rev !seen)

let suite =
  suite
  @ [
      Alcotest.test_case "leave then rejoin on same node" `Quick
        test_leave_then_rejoin_same_node;
      Alcotest.test_case "rejoin gets fresh base (no history replay)" `Quick
        test_rejoin_gets_fresh_base;
    ]

(* BB dissemination: sender broadcasts the body; the sequencer orders it
   with a tiny Accept. Total order and resilience must be unchanged. *)
let bb_config = { Group.Types.default_config with dissemination = Group.Types.Bb }

let test_bb_total_order () =
  let w = make_world ~seed:46L () in
  let get, node_of = start_trio ~config:bb_config w in
  let logs = Hashtbl.create 3 in
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          let log = ref [] in
          Hashtbl.replace logs id log;
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match note_of (Group.Member.receive ~timeout:800.0 m) with
                  | Some s -> log := s :: !log
                  | None -> ()
                done
              with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()))
        [ 1; 2; 3 ]);
  at w ~delay:35.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              for i = 1 to 8 do
                Group.Member.send (get id) (Note (Printf.sprintf "%d.%d" id i))
              done))
        [ 1; 2; 3 ]);
  run_until w 1500.0;
  let l1 = List.rev !(Hashtbl.find logs 1) in
  Alcotest.(check int) "all 24 delivered" 24 (List.length l1);
  Alcotest.(check (list string)) "identical at 2" l1 (List.rev !(Hashtbl.find logs 2));
  Alcotest.(check (list string)) "identical at 3" l1 (List.rev !(Hashtbl.find logs 3))

let test_bb_send_resilient_and_lossy () =
  (* BB under 15% loss: bodies or accepts can vanish; the retransmission
     path (sequencer holds every ordered entry) must recover them. *)
  let w = make_world ~seed:47L () in
  let config =
    { bb_config with fail_timeout = 400.0; send_retries = 8 }
  in
  let get, node_of = start_trio ~config w in
  let log = ref [] in
  at w ~delay:30.0 (fun () -> Simnet.Network.set_loss w.net 0.15);
  at w ~delay:30.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 3) (fun () ->
          let m = get 3 in
          try
            while true do
              match note_of (Group.Member.receive ~timeout:3000.0 m) with
              | Some s -> log := s :: !log
              | None -> ()
            done
          with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()));
  at w ~delay:35.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          for i = 1 to 20 do
            try Group.Member.send (get 2) (Note (string_of_int i))
            with Group.Types.Group_failure _ -> ()
          done));
  run_until w 5000.0;
  Alcotest.(check (list string)) "all 20 delivered in order under loss"
    (List.init 20 (fun i -> string_of_int (i + 1)))
    (List.rev !log)

let suite =
  suite
  @ [
      Alcotest.test_case "BB method: total order" `Quick test_bb_total_order;
      Alcotest.test_case "BB method: resilient under loss" `Quick
        test_bb_send_resilient_and_lossy;
    ]

(* Sequencer-side batching: flat frames must roundtrip, and batched
   ordering must keep every protocol guarantee — total order, FIFO,
   loss recovery, and last-to-fail recovery — while flushing on either
   the size cap or the window timer. The protocol tests run at
   batch_max 4 and at 1, where every entry travels in a batch of one. *)

let batch_config batch_max =
  { Group.Types.default_config with batch_max; batch_window = 5.0 }

let entry_equal (a : Group.Wire.entry) (b : Group.Wire.entry) =
  match (a, b) with
  | ( App { origin = o1; uid = u1; payload = Note s1 },
      App { origin = o2; uid = u2; payload = Note s2 } ) ->
      o1 = o2 && u1 = u2 && s1 = s2
  | Join_member m1, Join_member m2 | Leave_member m1, Leave_member m2 ->
      m1 = m2
  | _ -> false

let batch_codec_property =
  QCheck.Test.make ~name:"flat batch frame codec roundtrip" ~count:300
    QCheck.(
      pair (int_bound 100_000)
        (list_of_size
           Gen.(1 -- 24)
           (triple (int_bound 2) (pair small_nat small_nat) printable_string)))
    (fun (base, raw) ->
      QCheck.assume (raw <> []);
      let entries =
        List.map
          (fun (tag, (a, b), s) ->
            match tag with
            | 0 -> Group.Wire.App { origin = a; uid = b; payload = Note s }
            | 1 -> Group.Wire.Join_member a
            | _ -> Group.Wire.Leave_member a)
          raw
      in
      (* A scratch vector one slot longer than the batch, overwritten
         once the frame is taken, as the sequencer reuses its own. *)
      let count = List.length entries in
      let scratch = Array.of_list (entries @ [ Group.Wire.Join_member 0 ]) in
      let batch = Group.Wire.encode_batch ~base ~count scratch in
      Array.fill scratch 0 (count + 1) (Group.Wire.Leave_member (-1));
      batch.Group.Wire.base = base
      && Array.length batch.Group.Wire.entries = count
      && List.for_all2 entry_equal entries (Array.to_list batch.Group.Wire.entries))

(* Shared receiver harness: app-message logs per member, oldest first. *)
let collect_logs w get node_of ids ~timeout =
  let logs = Hashtbl.create 3 in
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          let log = ref [] in
          Hashtbl.replace logs id log;
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match note_of (Group.Member.receive ~timeout m) with
                  | Some s -> log := s :: !log
                  | None -> ()
                done
              with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()))
        ids);
  fun id -> List.rev !(Hashtbl.find logs id)

let test_batched_total_order batch_max () =
  let w = make_world ~seed:48L () in
  let get, node_of = start_trio ~config:(batch_config batch_max) w in
  let log_of = collect_logs w get node_of [ 1; 2; 3 ] ~timeout:500.0 in
  at w ~delay:35.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              for i = 1 to 10 do
                Group.Member.send (get id) (Note (Printf.sprintf "%d.%d" id i))
              done))
        [ 1; 2; 3 ]);
  run_until w 1500.0;
  let l1 = log_of 1 in
  Alcotest.(check int) "all 30 delivered" 30 (List.length l1);
  Alcotest.(check (list string)) "identical at 2" l1 (log_of 2);
  Alcotest.(check (list string)) "identical at 3" l1 (log_of 3);
  List.iter
    (fun sender ->
      let mine =
        List.filter (fun s -> s.[0] = Char.chr (Char.code '0' + sender)) l1
      in
      Alcotest.(check (list string))
        (Printf.sprintf "sender %d FIFO through batches" sender)
        (List.init 10 (fun i -> Printf.sprintf "%d.%d" sender (i + 1)))
        mine)
    [ 1; 2; 3 ]

let test_batch_size_flush_cancels_timer () =
  (* batch_max concurrent sends fill the batch: it must flush on the
     size cap long before the (deliberately huge) window, and cancel
     the flush timer rather than leave a corpse to fire later. *)
  let w = make_world ~seed:49L () in
  let config =
    { Group.Types.default_config with batch_max = 3; batch_window = 10_000.0 }
  in
  let get, node_of = start_trio ~config w in
  let log_of = collect_logs w get node_of [ 3 ] ~timeout:400.0 in
  at w ~delay:35.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              Group.Member.send (get id) (Note (string_of_int id))))
        [ 1; 2; 3 ]);
  run_until w 600.0;
  Alcotest.(check int) "all 3 delivered long before the window" 3
    (List.length (log_of 3));
  Alcotest.(check bool) "flush timer cancelled" false
    (Group.Member.batch_timer_active (get 1))

let test_batch_window_flush () =
  (* A lone message must not wait for the size cap: the window timer
     flushes it after batch_window ms. Heartbeats are quieted so the
     early-fetch path (gossip + Retrans) cannot deliver it sooner. *)
  let w = make_world ~seed:50L () in
  let config =
    {
      Group.Types.default_config with
      batch_max = 100;
      batch_window = 40.0;
      heartbeat_period = 10_000.0;
    }
  in
  let get, node_of = start_trio ~config w in
  let delivered_at = ref None in
  at w ~delay:30.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 3) (fun () ->
          let m = get 3 in
          try
            while true do
              match note_of (Group.Member.receive ~timeout:800.0 m) with
              | Some _ -> delivered_at := Some (Sim.Proc.now ())
              | None -> ()
            done
          with Sim.Proc.Timeout | Group.Types.Group_failure _ -> ()));
  at w ~delay:35.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          Group.Member.send (get 2) (Note "lone")));
  run_until w 1200.0;
  match !delivered_at with
  | None -> Alcotest.fail "window flush never delivered the message"
  | Some t ->
      Alcotest.(check bool) "held for the batch window" true (t >= 74.0);
      Alcotest.(check bool) "flushed promptly after it" true (t < 200.0)

let test_batched_loss_retransmission batch_max () =
  (* 20% loss with batching: lost batch frames are recovered through
     Retrans, which the sequencer answers with covering batch frames.
     Everything must arrive exactly once, in order, everywhere. *)
  let w = make_world ~seed:53L () in
  let config =
    { (batch_config batch_max) with fail_timeout = 400.0; send_retries = 8 }
  in
  let get, node_of = start_trio ~config w in
  at w ~delay:30.0 (fun () -> Simnet.Network.set_loss w.net 0.2);
  let log_of = collect_logs w get node_of [ 1; 2; 3 ] ~timeout:3000.0 in
  at w ~delay:35.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          let m = get 2 in
          for i = 1 to 30 do
            try Group.Member.send m (Note (string_of_int i))
            with Group.Types.Group_failure _ -> ()
          done));
  run_until w 4000.0;
  let l1 = log_of 1 in
  Alcotest.(check (list string)) "all 30 delivered in order at member 1"
    (List.init 30 (fun i -> string_of_int (i + 1)))
    l1;
  Alcotest.(check (list string)) "member 2 identical" l1 (log_of 2);
  Alcotest.(check (list string)) "member 3 identical" l1 (log_of 3)

let test_batched_sequencer_crash_recovery batch_max () =
  (* Crash the sequencer mid-batch. Every send that RETURNED is held by
     r + 1 = 3 members, so the reset must preserve it — exactly once,
     in order. Entries still in the open batch may be lost (their
     senders never got Done) but must never be duplicated. *)
  let w = make_world ~seed:51L () in
  let get, node_of = start_trio ~config:(batch_config batch_max) w in
  let acked = ref [] in
  let log = ref [] in
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match Group.Member.receive ~timeout:3000.0 m with
                  | exception Group.Types.Group_failure _ ->
                      ignore (Group.Member.reset m)
                  | d -> (
                      match note_of d with
                      | Some s when id = 3 -> log := s :: !log
                      | _ -> ())
                done
              with Sim.Proc.Timeout -> ()))
        [ 2; 3 ]);
  at w ~delay:35.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          try
            for i = 1 to 15 do
              Group.Member.send (get 2) (Note (Printf.sprintf "m%d" i));
              acked := Printf.sprintf "m%d" i :: !acked
            done
          with Group.Types.Group_failure _ -> ()));
  at w ~delay:70.0 (fun () -> Sim.Node.crash (node_of 1));
  at w ~delay:600.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 2) (fun () ->
          try Group.Member.send (get 2) (Note "post-reset")
          with Group.Types.Group_failure _ -> ()));
  run_until w 1500.0;
  let acked = List.rev !acked in
  let seen = List.rev !log in
  Alcotest.(check int) "no duplicated deliveries" (List.length seen)
    (List.length (List.sort_uniq compare seen));
  let seen_m = List.filter (fun s -> s.[0] = 'm') seen in
  let rec is_prefix p l =
    match (p, l) with
    | [], _ -> true
    | x :: p', y :: l' -> x = y && is_prefix p' l'
    | _ :: _, [] -> false
  in
  Alcotest.(check bool) "crash lands mid-stream" true
    (List.length acked < 15);
  Alcotest.(check bool) "acked sends survive the reset in order" true
    (is_prefix acked seen_m);
  Alcotest.(check bool) "at most the open batch in flight" true
    (List.length seen_m <= List.length acked + batch_max);
  Alcotest.(check bool) "post-reset send delivered" true
    (List.mem "post-reset" seen)

let test_bb_batched_total_order batch_max () =
  (* BB + batching: bodies broadcast from senders, one Bb_accept_batch
     orders a whole run of them. *)
  let w = make_world ~seed:52L () in
  let config =
    { (batch_config batch_max) with dissemination = Group.Types.Bb }
  in
  let get, node_of = start_trio ~config w in
  let log_of = collect_logs w get node_of [ 1; 2; 3 ] ~timeout:800.0 in
  at w ~delay:35.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              for i = 1 to 8 do
                Group.Member.send (get id) (Note (Printf.sprintf "%d.%d" id i))
              done))
        [ 1; 2; 3 ]);
  run_until w 1500.0;
  let l1 = log_of 1 in
  Alcotest.(check int) "all 24 delivered" 24 (List.length l1);
  Alcotest.(check (list string)) "identical at 2" l1 (log_of 2);
  Alcotest.(check (list string)) "identical at 3" l1 (log_of 3)

(* One case per batch size; the batch_max = 4 case keeps the plain
   name. *)
let at_batch_sizes name test =
  List.map
    (fun batch_max ->
      let name =
        if batch_max = 4 then name else Printf.sprintf "%s, batch %d" name batch_max
      in
      Alcotest.test_case name `Quick (test batch_max))
    [ 4; 1 ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest batch_codec_property;
      Alcotest.test_case "batch size-cap flush cancels the timer" `Quick
        test_batch_size_flush_cancels_timer;
      Alcotest.test_case "batch window timer flushes a lone message" `Quick
        test_batch_window_flush;
    ]
  @ at_batch_sizes "batched total order, concurrent senders"
      test_batched_total_order
  @ at_batch_sizes "batched retransmission under loss"
      test_batched_loss_retransmission
  @ at_batch_sizes "sequencer crash mid-batch: no loss, no dup"
      test_batched_sequencer_crash_recovery
  @ at_batch_sizes "BB batched total order" test_bb_batched_total_order

(* A node that crashes inside its own failure-detector tick — here the
   sequencer, from a fault filter on the heartbeat that tick multicasts
   — must stop ticking: the crash hook cancels the detector's timer
   while it is firing. Afterwards only the two live members' detectors
   run (the group is broken and nobody resets it), one event per tick. *)
let test_crash_inside_detector_tick () =
  let w = make_world ~seed:27L () in
  let _, node_of = start_trio w in
  run_until w 100.0;
  let crashed = ref false in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         match packet.Simnet.Packet.payload with
         | Group.Wire.Heartbeat _ when packet.src = 1 && not !crashed ->
             crashed := true;
             Sim.Node.crash (node_of 1);
             Simnet.Network.Drop
         | _ -> Simnet.Network.Deliver));
  run_until w 1_000.0;
  Alcotest.(check bool) "sequencer crashed in its tick" true !crashed;
  let events0 = Sim.Engine.events_executed w.engine in
  run_until w 11_000.0;
  let ticks_per_detector =
    int_of_float (10_000.0 /. Group.Types.default_config.heartbeat_period)
  in
  Alcotest.(check int)
    "two live detectors tick, the crashed one does not"
    (2 * ticks_per_detector)
    (Sim.Engine.events_executed w.engine - events0)

let suite =
  suite
  @ [
      Alcotest.test_case "crash inside the detector tick stops it" `Quick
        test_crash_inside_detector_tick;
    ]

(* A late commit from an abandoned coordinator must not rewind a member.
   Four members; member 2 alone holds the last message "b" (the
   sequencer, 1, ordered it inside a partition with 2 and crashed).
   Members 3 and 4 reset; 4 coordinates view 2 without 2's state, so
   its base lacks "b", and its commit to 3 is held back. 3's wait rule
   fires and 3 coordinates view 3, syncing "b" from 2 too late for its
   window. The held commit is released the moment 3 delivers "b": were
   3 to install view 2 then, its delivered prefix would run past the
   view's base, and view 2's sequencer would reuse that seqno. Every
   installed view is checked at its "view" event: right after an
   install, [highest_seen] is the view's base. *)
let test_late_commit_does_not_rewind () =
  let w = make_world ~seed:31L () in
  let members = Hashtbl.create 4 and nodes = Hashtbl.create 4 and nics = Hashtbl.create 4 in
  List.iter
    (fun id ->
      let n = node ~id (Printf.sprintf "srv%d" id) in
      let nic = Simnet.Network.attach w.net n in
      Hashtbl.replace nodes id n;
      Hashtbl.replace nics id nic;
      Sim.Proc.boot w.engine n (fun () ->
          let m =
            if id = 1 then Group.Member.create_group w.net nic ~gname:"g"
            else begin
              Sim.Proc.sleep (2.0 +. float_of_int id);
              Group.Member.join_group w.net nic ~gname:"g"
            end
          in
          Hashtbl.replace members id m))
    [ 1; 2; 3; 4 ];
  let get = Hashtbl.find members in
  (* Member 3 resets on every failure, 4 on the first one only; 2
     never calls ResetGroup. *)
  let group_thread id ~once =
    Sim.Proc.boot w.engine (Hashtbl.find nodes id) (fun () ->
        let reset = ref false in
        try
          while not (once && !reset) do
            try ignore (Group.Member.receive ~timeout:3000.0 (get id))
            with Group.Types.Group_failure _ ->
              reset := true;
              ignore (Group.Member.reset (get id))
          done
        with Sim.Proc.Timeout -> ())
  in
  at w ~delay:30.0 (fun () ->
      group_thread 3 ~once:false;
      group_thread 4 ~once:true);
  at w ~delay:40.0 (fun () ->
      Sim.Proc.boot w.engine (Hashtbl.find nodes 2) (fun () ->
          Group.Member.send (get 2) (Note "a")));
  at w ~delay:60.0 (fun () ->
      Simnet.Network.set_partitions w.net [ [ 1; 2 ]; [ 3 ]; [ 4 ] ];
      Sim.Proc.boot w.engine (Hashtbl.find nodes 1) (fun () ->
          try Group.Member.send (get 1) (Note "b") with Group.Types.Group_failure _ -> ()));
  at w ~delay:62.0 (fun () ->
      Sim.Node.crash (Hashtbl.find nodes 1);
      Simnet.Network.heal w.net);
  let held = ref None and entries_delayed = ref false in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         match (packet.Simnet.Packet.payload, packet.dst) with
         | Group.Wire.Reset_state { view = 2; _ }, Unicast 4 when packet.src = 2 ->
             Simnet.Network.Drop
         | Group.Wire.Reset_entries _, Unicast 3 when packet.src = 2 && not !entries_delayed ->
             entries_delayed := true;
             Simnet.Network.Delay 30.0
         | (Group.Wire.Reset_commit { epoch = { view = 2; _ }; _ } as commit), Unicast 3
           when packet.src = 4 && !held = None ->
             held := Some commit;
             Simnet.Network.Drop
         | _ -> Simnet.Network.Deliver));
  let rewinds = ref [] and released = ref false in
  let trace = Sim.Trace.create () in
  Sim.Trace.set_sink trace
    (Some
       (fun e ->
         if e.Sim.Trace.subsystem = "grp" then
           match (e.name, List.assoc_opt "origin" e.attrs) with
           | "deliver", Some (Sim.Trace.Int 1) when e.node = 3 && not !released -> (
               released := true;
               match !held with
               | Some commit ->
                   at w ~delay:0.0 (fun () ->
                       Simnet.Network.send w.net (Hashtbl.find nics 4) ~dst:3
                         ~proto:(Group.Wire.proto "g") commit)
               | None -> ())
           | "view", _ ->
               let info = Group.Member.info (get e.node) in
               if info.next_deliver - 1 > info.highest_seen then
                 rewinds :=
                   Printf.sprintf "member %d delivered up to %d past view %s's base %d"
                     e.node (info.next_deliver - 1)
                     (match List.assoc_opt "view" e.attrs with
                     | Some (Sim.Trace.Int v) -> string_of_int v
                     | _ -> "?")
                     info.highest_seen
                   :: !rewinds
           | _ -> ()));
  Sim.Engine.set_trace w.engine (Some trace);
  run_until w 2_000.0;
  Alcotest.(check bool) "the view-2 commit to 3 was held back" true (!held <> None);
  Alcotest.(check bool) "3 delivered \"b\"" true !released;
  Alcotest.(check (list string)) "no member installs a view below its prefix" [] !rewinds;
  Alcotest.(check (list int)) "2, 3 and 4 end in one view" [ 2; 3; 4 ]
    (Group.Member.members (get 3))

let suite =
  suite
  @ [
      Alcotest.test_case "late commit from an abandoned coordinator" `Quick
        test_late_commit_does_not_rewind;
    ]

(* ---- Cached liveness packets ---------------------------------------- *)

(* Every Hb_ack member 2 sends, in order. The filter delivers all. *)
let record_hb_acks w =
  let acks = ref [] in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         (match packet.Simnet.Packet.payload with
         | Group.Wire.Hb_ack { have_upto; _ } when packet.src = 2 ->
             acks := (packet, have_upto) :: !acks
         | _ -> ());
         Simnet.Network.Deliver));
  acks

(* While nothing changes, member 2 sends one Hb_ack packet again and
   again; once an entry is delivered, the next Hb_ack carries the new
   [have_upto]. *)
let test_hb_ack_follows_delivery () =
  let w = make_world ~seed:32L () in
  let get, node_of = start_trio w in
  run_until w 100.0;
  let acks = record_hb_acks w in
  run_until w 200.0;
  let idle = !acks in
  Alcotest.(check bool) "several Hb_acks while idle" true (List.length idle >= 3);
  let first, upto = List.hd idle in
  Alcotest.(check bool) "one packet, sent again" true
    (List.for_all (fun (p, u) -> p == first && u = upto) idle);
  at w ~delay:0.0 (fun () ->
      Sim.Proc.boot w.engine (node_of 1) (fun () ->
          Group.Member.send (get 1) (Note "x")));
  run_until w 400.0;
  let delivered = (Group.Member.info (get 2)).next_deliver - 1 in
  Alcotest.(check bool) "member 2 delivered the entry" true (delivered > upto);
  match !acks with
  | (_, latest) :: _ ->
      Alcotest.(check int) "the latest Hb_ack carries the new have_upto"
        delivered latest
  | [] -> Alcotest.fail "no Hb_ack"

(* After a view change the sequencer's heartbeat carries the new epoch:
   the cached packet of the old view is never sent in the new one. *)
let test_heartbeat_follows_view () =
  let w = make_world ~seed:33L () in
  let get, node_of = start_trio w in
  let beats = ref [] in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         (match packet.Simnet.Packet.payload with
         | Group.Wire.Heartbeat { epoch; _ } when packet.src = 1 ->
             beats := (Sim.Engine.now w.engine, epoch) :: !beats
         | _ -> ());
         Simnet.Network.Deliver));
  at w ~delay:30.0 (fun () ->
      List.iter
        (fun id ->
          Sim.Proc.boot w.engine (node_of id) (fun () ->
              let m = get id in
              try
                while true do
                  match Group.Member.receive ~timeout:3000.0 m with
                  | exception Group.Types.Group_failure _ ->
                      ignore (Group.Member.reset m)
                  | _ -> ()
                done
              with Sim.Proc.Timeout -> ()))
        [ 1; 2 ]);
  run_until w 60.0;
  let old_epoch = (Group.Member.info (get 1)).epoch in
  at w ~delay:0.0 (fun () -> Sim.Node.crash (node_of 3));
  run_until w 800.0;
  let info = Group.Member.info (get 1) in
  Alcotest.(check (list int)) "view is {1,2}" [ 1; 2 ] info.members;
  Alcotest.(check bool) "a new view" true
    (Group.Types.epoch_compare info.epoch old_epoch > 0);
  let installed_by =
    match
      List.find_opt
        (fun (_, e) -> Group.Types.epoch_compare e info.epoch = 0)
        (List.rev !beats)
    with
    | Some (time, _) -> time
    | None -> Alcotest.fail "no heartbeat in the new view"
  in
  Alcotest.(check bool) "no old-view heartbeat after the new view's first" true
    (List.for_all
       (fun (time, e) ->
         time < installed_by || Group.Types.epoch_compare e info.epoch = 0)
       !beats)

(* A crashed sequencer sends nothing more, its cached heartbeat
   included, and after a restart its old heartbeat packet never
   reappears on the wire. *)
let test_crashed_node_sends_no_cached_packet () =
  let w = make_world ~seed:34L () in
  let _, node_of = start_trio w in
  run_until w 100.0;
  let crashed = ref false and cached = ref None and after_crash = ref 0 in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         (match packet.Simnet.Packet.payload with
         | Group.Wire.Heartbeat _ when packet.src = 1 && not !crashed ->
             cached := Some packet
         | _ -> ());
         if !crashed && packet.src = 1 then incr after_crash;
         (match !cached with
         | Some p when p == packet && !crashed -> Alcotest.fail "old heartbeat resent"
         | Some _ | None -> ());
         Simnet.Network.Deliver));
  run_until w 200.0;
  Alcotest.(check bool) "heartbeat seen" true (!cached <> None);
  crashed := true;
  Sim.Node.crash (node_of 1);
  run_until w 1_000.0;
  Alcotest.(check int) "no packet from the crashed node" 0 !after_crash;
  Sim.Node.restart (node_of 1);
  let nic = Simnet.Network.attach w.net (node_of 1) in
  Sim.Proc.boot w.engine (node_of 1) (fun () ->
      ignore (Group.Member.create_group w.net nic ~gname:"g"));
  run_until w 2_000.0;
  Alcotest.(check bool) "the restarted node sends again" true (!after_crash > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "Hb_ack follows delivery" `Quick test_hb_ack_follows_delivery;
      Alcotest.test_case "heartbeat follows the view" `Quick test_heartbeat_follows_view;
      Alcotest.test_case "crashed node sends no cached packet" `Quick
        test_crashed_node_sends_no_cached_packet;
    ]

(* r = 2 in a trio: a send is resilient once all three members hold it,
   and the sequencer then sends its origin one Done. Member 3's
   cumulative acks are held back by shrinking delays, so later acks
   overtake earlier ones and one ack releases several sends at once.
   Every Done is still sent once, in seqno order. *)
let test_done_once_in_seqno_order () =
  let w = make_world ~seed:31L () in
  let get, node_of = start_trio w in
  run_until w 100.0;
  let note_of_uid = Hashtbl.create 8 and dones = ref [] in
  let ack_delay = ref 60.0 and acks = ref [] in
  Simnet.Network.set_fault_filter w.net
    (Some
       (fun packet ->
         match packet.Simnet.Packet.payload with
         | Group.Wire.Bcast_req { uid; payload = Note s; _ } ->
             Hashtbl.replace note_of_uid (packet.src, uid) s;
             Simnet.Network.Deliver
         | Group.Wire.Done { uid; _ } ->
             (match packet.dst with
             | Unicast origin -> dones := Hashtbl.find note_of_uid (origin, uid) :: !dones
             | Multicast -> Alcotest.fail "multicast Done");
             Simnet.Network.Deliver
         | Group.Wire.Ack { have_upto; _ } when packet.src = 3 ->
             ack_delay := Float.max 0.0 (!ack_delay -. 15.0);
             acks := (have_upto, Sim.Engine.now w.engine +. !ack_delay) :: !acks;
             Simnet.Network.Delay !ack_delay
         | _ -> Simnet.Network.Deliver));
  let seqno_of = Hashtbl.create 8 in
  Sim.Proc.boot w.engine (node_of 1) (fun () ->
      let m = get 1 in
      try
        while true do
          match Group.Member.receive ~timeout:500.0 m with
          | seqno, Group.Wire.App { payload = Note s; _ } -> Hashtbl.replace seqno_of s seqno
          | _ -> ()
        done
      with Sim.Proc.Timeout -> ());
  List.iter
    (fun (id, i) ->
      Sim.Proc.boot w.engine (node_of id) (fun () ->
          Group.Member.send (get id) (Note (Printf.sprintf "%d.%d" id i))))
    [ (2, 1); (3, 1); (2, 2); (3, 2); (2, 3) ];
  run_until w 1_000.0;
  let arrivals = List.rev !acks in
  Alcotest.(check bool) "a later ack arrived before an earlier one" true
    (List.exists2
       (fun (_, a) (_, b) -> b < a)
       (List.filteri (fun i _ -> i < List.length arrivals - 1) arrivals)
       (List.tl arrivals));
  let dones = List.rev !dones in
  Alcotest.(check int) "one Done per send" 5 (List.length dones);
  Alcotest.(check int) "no Done twice" 5 (List.length (List.sort_uniq compare dones));
  let seqnos = List.map (Hashtbl.find seqno_of) dones in
  Alcotest.(check (list int)) "Dones in seqno order" (List.sort compare seqnos) seqnos

let suite =
  suite
  @ [
      Alcotest.test_case "r = 2, acks out of order: each Done once, in seqno order"
        `Quick test_done_once_in_seqno_order;
    ]
