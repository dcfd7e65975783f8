(* Crash-point sweep. A scripted client workload runs once to count its
   crash points: every block write issued on a disk or an NVRAM board,
   and every reply a client receives. It is then rerun on the same seed
   once per point k. At the k-th point the chosen servers and every
   client crash; the servers restart, and each replica's store must
   keep every acknowledged state: an acknowledged append's row is
   there, an acknowledged delete's row or directory is not. An op still
   in flight at the crash may land either way (DESIGN.md §6.5). An
   issued write completes even if its node crashes
   ([Storage.Block_device]), so crashing at a write's issue is the
   latest crash that write survives. The technique follows the
   crash-consistency checkers ALICE and CrashMonkey.

   Two more modes take their points from the group protocol: every
   packet a server sends on a group ("grp:*") from the script's start.
   [Crash_sender] crashes the sender just before its k-th packet and
   restarts it [restart_ms] later; [Drop_packet] loses the k-th packet.
   Clients survive there: they retry [Unavailable] and [No_majority],
   and count any other error as an op in flight. Such a run is checked
   once the script has finished and every server serves again, which
   must happen within [serve_ms] (liveness).

   Every run also checks four properties of the total order on each
   replica incarnation's applied updates ([Group_server.applied_log]):
   integrity, no (origin, uid) applied twice; total order, every two
   updates that two incarnations both applied in the same order;
   and, over the incarnations up at the end, uniform agreement, every
   acknowledged update in each log whose range covers its sequence
   number, and validity, every acknowledged update held.

   [suite] is the quick set that [dune runtest] runs; [slow_suite] is
   the wider sweep of [dune build @crash-slow]. *)

module C = Dirsvc.Cluster

type op =
  | Create of string  (** a directory, by its label in the script *)
  | Delete_dir of string
  | Append of string * string  (** directory label, row name *)
  | Delete of string * string

type step =
  | Op of op
  | Pause of float  (** simulated ms *)
  | Down of int  (** crash one server; not a crash point *)
  | Up of int  (** restart it *)

let op_to_string = function
  | Create d -> Printf.sprintf "create_dir %s" d
  | Delete_dir d -> Printf.sprintf "delete_dir %s" d
  | Append (d, r) -> Printf.sprintf "append_row %s/%s" d r
  | Delete (d, r) -> Printf.sprintf "delete_row %s/%s" d r

(* The directory or row an op changes, and whether it leaves it there. *)
let item = function
  | Create d | Delete_dir d -> (d, None)
  | Append (d, r) | Delete (d, r) -> (d, Some r)

let leaves_present = function
  | Create _ | Append _ -> true
  | Delete_dir _ | Delete _ -> false

type victims = All | Pair of int * int | Sequencer

type mode =
  | Writes  (** [victims] and every client crash at a write or an ack *)
  | Crash_sender  (** a server crashes before its k-th group packet *)
  | Drop_packet  (** the k-th group packet is lost *)

let mode_name = function
  | Writes -> "writes"
  | Crash_sender -> "crash-sender"
  | Drop_packet -> "drop"

type config = {
  name : string;
  flavor : C.flavor;
  batch_max : int;
  victims : victims;
  mode : mode;
  seed : int64;
  script : step list list;  (** one step list per concurrent client *)
}

type invoked = { client : int; op : op; mutable acked : bool }

(* One run of a configuration, crashing at point [crash_at] (0: never).
   Points count only while [armed]: from the script's start. *)
type run = {
  cluster : C.t;
  crash_at : int;
  mutable armed : bool;
  mutable points : int;
  mutable point : string; (* the crash point, described *)
  mutable crashed : int list; (* the servers crashed *)
  mutable history : invoked list; (* newest first *)
  caps : (string, Capability.t) Hashtbl.t;
  server_of_node : (int, int) Hashtbl.t;
  mutable sequencer : int; (* node id that ordered the latest batch *)
  mutable largest_batch : int;
  mutable clients : Sim.Node.t list;
  mutable finished : int;
  mutable incarnations : (int * Dirsvc.Group_server.t) list;
      (* every server process the run booted, newest first *)
}

let crash cfg r =
  let victims =
    match cfg.victims with
    | All -> List.init (C.n_servers r.cluster) (fun i -> i + 1)
    | Pair (a, b) -> [ a; b ]
    | Sequencer -> [ Hashtbl.find r.server_of_node r.sequencer ]
  in
  r.crashed <- victims;
  List.iter (C.crash_server r.cluster) victims;
  List.iter Sim.Node.crash r.clients;
  Sim.Engine.stop (C.engine r.cluster)

(* Count one point; true at the k-th, once [describe]d into [r.point]. *)
let reached r describe =
  r.armed && r.point = ""
  && begin
       r.points <- r.points + 1;
       r.points = r.crash_at
     end
  && begin
       r.point <- describe ();
       true
     end

let hit cfg r describe =
  if cfg.mode = Writes && reached r describe then crash cfg r

(* Restart a crashed server and note its new incarnation; a server that
   is up is left alone. *)
let restart r server =
  let before = C.group_server r.cluster server in
  C.restart_server r.cluster server;
  let after = C.group_server r.cluster server in
  if after != before then r.incarnations <- (server, after) :: r.incarnations

(* How long a sender crashed at its packet stays down. *)
let restart_ms = 500.0

(* The packet points: every group packet a server sends. The k-th is
   lost; under [Crash_sender] its sender crashes first. *)
let install_filter cfg r =
  let n = C.n_servers r.cluster in
  let engine = C.engine r.cluster in
  Simnet.Network.set_fault_filter (C.net r.cluster)
    (Some
       (fun packet ->
         let src = packet.Simnet.Packet.src in
         if
           src >= 1 && src <= n
           && String.starts_with ~prefix:"grp:" packet.proto
           && reached r (fun () ->
                  Printf.sprintf "t=%.3f ms %s of %s by server %d"
                    (Sim.Engine.now engine) (mode_name cfg.mode)
                    (Simnet.Payload.to_string packet.payload)
                    src)
         then begin
           if cfg.mode = Crash_sender then begin
             r.crashed <- [ src ];
             C.crash_server r.cluster src;
             Sim.Engine.schedule engine ~delay:restart_ms (fun () ->
                 restart r src)
           end;
           Simnet.Network.Drop
         end
         else Simnet.Network.Deliver))

let int_attr e key =
  match List.assoc_opt key e.Sim.Trace.attrs with
  | Some (Sim.Trace.Int n) -> n
  | _ -> -1

let str_attr e key =
  match List.assoc_opt key e.Sim.Trace.attrs with
  | Some (Sim.Trace.Str s) -> s
  | _ -> "?"

(* Counts the write points, and follows which node is the sequencer and
   which server runs on which node. *)
let install_sink cfg r =
  let trace = Sim.Trace.create ~capacity:16 () in
  Sim.Trace.set_sink trace
    (Some
       (fun e ->
         match (e.Sim.Trace.subsystem, e.Sim.Trace.name) with
         | "storage", "disk.write" ->
             hit cfg r (fun () ->
                 Printf.sprintf "t=%.3f ms storage/disk.write dev=%s block=%d"
                   e.Sim.Trace.time (str_attr e "dev") (int_attr e "block"))
         | "grp", "assign.batch" ->
             r.sequencer <- e.Sim.Trace.node;
             if r.armed then
               r.largest_batch <- max r.largest_batch (int_attr e "count")
         | "dirsvc", _ ->
             let sid = int_attr e "server" in
             if sid > 0 then
               Hashtbl.replace r.server_of_node e.Sim.Trace.node sid
         | _ -> ()));
  Sim.Engine.set_trace (C.engine r.cluster) (Some trace)

(* Raises [Not_found] when the directory's creation never returned. *)
let perform r client op =
  let cap d = Hashtbl.find r.caps d in
  match op with
  | Create d ->
      Hashtbl.replace r.caps d
        (Dirsvc.Client.create_dir client ~columns:[ "owner" ])
  | Delete_dir d -> Dirsvc.Client.delete_dir client (cap d)
  | Append (d, name) -> Dirsvc.Client.append_row client (cap d) ~name [ cap d ]
  | Delete (d, name) -> Dirsvc.Client.delete_row client (cap d) ~name

(* One op until it returns; false when it failed for good. Only a run
   that injects a packet fault tolerates errors: in the write-point
   mode the run stops at its crash, and a dry run injects nothing, so
   there any client error escapes the fiber and fails the case. *)
let rec attempt cfg r client op =
  if cfg.mode = Writes || r.crash_at = 0 then begin
    perform r client op;
    true
  end
  else
    match perform r client op with
    | () -> true
    | exception
        Dirsvc.Wire.Dir_error
          (Dirsvc.Wire.Unavailable _ | Dirsvc.Wire.No_majority) ->
        Sim.Proc.sleep 100.0;
        attempt cfg r client op
    | exception
        (Dirsvc.Wire.Dir_error _ | Rpc.Transport.Rpc_failure _ | Not_found) ->
        false

let start_client cfg r id steps =
  let client = C.client r.cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  r.clients <- node :: r.clients;
  Sim.Proc.boot (C.engine r.cluster) node (fun () ->
      List.iter
        (fun step ->
          if Sim.Node.is_alive node then
            match step with
            | Pause ms -> Sim.Proc.sleep ms
            | Down server -> C.crash_server r.cluster server
            | Up server -> restart r server
            | Op op ->
                let invoked = { client = id; op; acked = false } in
                r.history <- invoked :: r.history;
                if attempt cfg r client op then begin
                  invoked.acked <- true;
                  hit cfg r (fun () ->
                      Printf.sprintf "t=%.3f ms client%d ack of %s"
                        (Sim.Proc.now ()) id (op_to_string op))
                end)
        steps;
      r.finished <- r.finished + 1)

(* Boot [cfg]'s cluster and start its clients; points count from here. *)
let start cfg ~crash_at =
  let params = { Dirsvc.Params.default with batch_max = cfg.batch_max } in
  let r =
    {
      cluster = C.create ~seed:cfg.seed ~params cfg.flavor;
      crash_at;
      armed = false;
      points = 0;
      point = "";
      crashed = [];
      history = [];
      caps = Hashtbl.create 4;
      server_of_node = Hashtbl.create 4;
      sequencer = -1;
      largest_batch = 0;
      clients = [];
      finished = 0;
      incarnations = [];
    }
  in
  install_sink cfg r;
  if cfg.mode <> Writes then install_filter cfg r;
  if not (C.await_ready r.cluster) then Alcotest.fail "cluster does not boot";
  r.incarnations <-
    List.init (C.n_servers r.cluster) (fun i ->
        (i + 1, C.group_server r.cluster (i + 1)));
  r.armed <- true;
  List.iteri (fun i steps -> start_client cfg r (i + 1) steps) cfg.script;
  r

let ops_on r key =
  List.rev (List.filter (fun i -> item i.op = key) r.history)

(* The states an item may be found in: the one its last acknowledged op
   left, or the one any later op (all in flight) would leave. *)
let allowed r key =
  let rec go acked_state rest = function
    | [] -> acked_state :: rest
    | i :: more when i.acked -> go (leaves_present i.op) [] more
    | i :: more -> go acked_state (leaves_present i.op :: rest) more
  in
  go false [] (ops_on r key)

let describe_invoked i =
  Printf.sprintf "%s (client%d%s)" (op_to_string i.op) i.client
    (if i.acked then ", acked" else ", in flight")

(* Whether [store] holds the item, or None when nothing was acknowledged
   to check it against: its directory's creation never was, or a row's
   directory is gone (the directory's own check covers that). *)
let found r store (d, row) =
  match Hashtbl.find_opt r.caps d with
  | None -> None
  | Some cap -> (
      let dir =
        match Dirsvc.Directory.Store.find_opt cap.Capability.obj store with
        | Some dir when Capability.validate cap dir.Dirsvc.Directory.secret ->
            Some dir
        | Some _ | None -> None
      in
      match (dir, row) with
      | Some _, None -> Some true
      | Some dir, Some name ->
          Some
            (List.exists
               (fun (rw : Dirsvc.Directory.row) -> rw.name = name)
               dir.Dirsvc.Directory.rows)
      | None, None -> Some false
      | None, Some _ -> None)

(* Every violation a replica's store shows. *)
let check_all r =
  let keys = List.sort_uniq compare (List.map (fun i -> item i.op) r.history) in
  List.concat_map
    (fun (server, store) ->
      List.filter_map
        (fun ((d, row) as key) ->
          match found r store key with
          | Some present when not (List.mem present (allowed r key)) ->
              Some
                (Printf.sprintf "server %d: %s %s; ops: %s" server
                   (match row with
                   | None -> "directory " ^ d
                   | Some name -> Printf.sprintf "row %s/%s" d name)
                   (if present then "is back after an acknowledged delete"
                    else "is lost after an acknowledged create or append")
                   (String.concat "; "
                      (List.map describe_invoked (ops_on r key))))
          | Some _ | None -> None)
        keys)
    (C.store_snapshots r.cluster)

let key (a : Dirsvc.Group_server.applied) = (a.a_origin, a.a_uid)

let describe_key (origin, uid) = Printf.sprintf "(%d, %d)" origin uid

(* Integrity and total order over every incarnation's applied log. *)
let check_order r =
  Harness.check_order ~describe:describe_key
    (List.rev_map
       (fun (server, gs) ->
         (server, List.map key (Dirsvc.Group_server.applied_log gs)))
       r.incarnations)

(* Whether the applied [op] is the client's acknowledged op [i]. The
   script names each directory and row once, so the capability and the
   row name tell ops apart. *)
let acknowledges r i (op : Dirsvc.Directory.op) =
  i.acked
  &&
  match Hashtbl.find_opt r.caps (fst (item i.op)) with
  | None -> false
  | Some dir -> (
      match (i.op, op) with
      | Create _, Create_dir { secret; _ } -> Capability.validate dir secret
      | Delete_dir _, Delete_dir { cap } -> Capability.equal cap dir
      | Append (_, row), Append_row { cap; name; _ }
      | Delete (_, row), Delete_row { cap; name } ->
          name = row && Capability.equal cap dir
      | _ -> false)

(* The acknowledged updates, each with the update sequence number it
   was applied at, from whichever log holds it. *)
let acknowledged r =
  List.concat_map (fun (_, gs) -> Dirsvc.Group_server.applied_log gs) r.incarnations
  |> List.filter (fun (a : Dirsvc.Group_server.applied) ->
         List.exists (fun i -> acknowledges r i a.a_op) r.history)
  |> List.map (fun a -> (key a, a.Dirsvc.Group_server.a_useq))
  |> List.sort_uniq compare

(* Uniform agreement and validity, over the logs of the incarnations up
   at the end: the correct members. A crashed one may have applied an
   entry that it ordered or received and that never reached the others
   (a sequencer delivers before its multicast leaves), which recovery
   discards by adopting its donor's state. An incarnation's log holds
   the updates it applied after the state it started from (a boot's
   disk image or a state transfer), one per sequence number, so it
   covers (useq - length, useq]: every acknowledged update in that range
   must be in it (agreement), and none may lie past its useq (validity:
   it holds every acknowledged update, applied or in the state it
   started from). *)
let check_agreement r =
  let acked = acknowledged r in
  List.concat_map
    (fun server ->
      let gs = C.group_server r.cluster server in
      let log = List.map key (Dirsvc.Group_server.applied_log gs) in
      let upto = Dirsvc.Group_server.useq gs in
      let base = upto - List.length log in
      let after_base = List.filter (fun (_, u) -> u > base) acked in
      Harness.check_agreement ~describe:describe_key
        ~required:(List.filter_map (fun (k, u) -> if u <= upto then Some k else None) after_base)
        [ (server, log) ]
      @ List.map
          (fun (k, u) ->
            Printf.sprintf "server %d ends at useq %d without acknowledged %s (useq %d)"
              server upto (describe_key k) u)
          (List.filter (fun (_, u) -> u > upto) after_base))
    (List.init (C.n_servers r.cluster) (fun i -> i + 1))

let advance r ms =
  C.run_until r.cluster (Sim.Engine.now (C.engine r.cluster) +. ms)

(* How long every server may take to serve again once all are up. *)
let serve_ms = 20_000.0

let serve_and_check r =
  let n = C.n_servers r.cluster in
  if not (C.await_serving ~timeout:serve_ms r.cluster ~count:n) then
    [
      Printf.sprintf "not every server serves within %.0f s of all being up"
        (serve_ms /. 1000.0);
    ]
  else begin
    advance r 1_000.0;
    check_all r @ check_order r @ check_agreement r
  end

let recover_and_check r =
  advance r 500.0;
  List.iter (restart r) r.crashed;
  serve_and_check r

(* The script's own time limit, from its start. *)
let script_ms = 60_000.0

let running r = r.finished < List.length r.clients

let run_script r ~deadline =
  let engine = C.engine r.cluster in
  while running r && Sim.Engine.now engine < deadline do
    C.run_until r.cluster (Sim.Engine.now engine +. 10.0)
  done

(* Points after the script's last ack: the idle apply of the log and
   the Bullet server's background writes. *)
let settle_ms = 1_000.0

(* Sweep every point of [cfg]; returns the failure reports. *)
let sweep ~suite ~index cfg =
  let dry = start cfg ~crash_at:0 in
  let engine = C.engine dry.cluster in
  let started = Sim.Engine.now engine in
  run_script dry ~deadline:(started +. script_ms);
  if running dry then Alcotest.failf "%s: the script does not finish" cfg.name;
  let window_end = Sim.Engine.now engine +. settle_ms in
  C.run_until dry.cluster window_end;
  let points = dry.points in
  Printf.printf "%s: %d %s points, ordered batches of up to %d\n" cfg.name
    points (mode_name cfg.mode) dry.largest_batch;
  let report k r ~point problems =
    let in_flight = List.filter (fun i -> not i.acked) r.history in
    Printf.sprintf
      "%s, seed %Ld, k = %d of %d\n\
      \  point: %s\n\
      \  in flight: %s\n\
       %s\n\
      \  replay: dune exec test/test_main.exe -- test %s %d  (mode %s, k = %d)"
      cfg.name cfg.seed k points point
      (if in_flight = [] then "none"
       else String.concat ", " (List.map describe_invoked in_flight))
      (String.concat "\n" (List.map (fun p -> "  violation: " ^ p) problems))
      suite index (mode_name cfg.mode) k
  in
  let rerun k =
    let r = start cfg ~crash_at:k in
    C.run_until r.cluster window_end;
    let problems =
      if r.point = "" then [ "the rerun diverged" ]
      else if cfg.mode = Writes then recover_and_check r
      else begin
        run_script r ~deadline:(started +. script_ms);
        if running r then
          [
            Printf.sprintf "the script does not finish within %.0f s"
              (script_ms /. 1000.0);
          ]
        else begin
          List.iter (restart r) r.crashed;
          serve_and_check r
        end
      end
    in
    match problems with
    | [] -> []
    | problems ->
        let point = if r.point = "" then "never reached" else r.point in
        [ report k r ~point problems ]
  in
  (match check_all dry @ check_order dry @ check_agreement dry with
  | [] -> []
  | problems -> [ report 0 dry ~point:"none (no crash)" problems ])
  @ List.concat_map rerun (List.init points (fun k -> k + 1))

let case ~suite index cfg =
  Alcotest.test_case cfg.name `Quick (fun () ->
      match sweep ~suite ~index cfg with
      | [] -> ()
      | reports ->
          Alcotest.failf "%d crash point(s) violated:\n%s"
            (List.length reports)
            (String.concat "\n\n" reports))

(* One directory, then appends and deletes back to back. *)
let append_delete dir rows =
  Op (Create dir)
  :: List.concat_map
       (fun row -> [ Op (Append (dir, row)); Op (Delete (dir, row)) ])
       rows

let rows prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix (i + 1))

let media =
  [
    (C.Group_disk, 1); (C.Group_disk, 4); (C.Group_nvram, 1); (C.Group_nvram, 4);
  ]

let config ?(victims = All) ?(mode = Writes) (flavor, batch_max) what script =
  let name =
    Printf.sprintf "%s batch %d: %s%s"
      (match flavor with C.Group_nvram -> "Group_nvram" | _ -> "Group_disk")
      batch_max what
      (if mode = Writes then "" else Printf.sprintf " (%s)" (mode_name mode))
  in
  { name; flavor; batch_max; victims; mode; seed = 39L; script }

let quick =
  List.map
    (fun m -> config m "full crash" [ append_delete "d" (rows "r" 6) ])
    media

let slow =
  List.concat_map
    (fun m ->
      List.map
        (fun (a, b) ->
          config m ~victims:(Pair (a, b))
            (Printf.sprintf "servers %d+%d crash" a b)
            [ append_delete "d" (rows "r" 6) ])
        [ (1, 2); (1, 3); (2, 3) ])
    media
  @ List.concat_map
      (fun m ->
        [
          (* Four writers, so ordered batches carry several updates. *)
          config m ~victims:Sequencer "sequencer crash, four writers"
            (List.map
               (fun dir -> append_delete dir (rows dir 3))
               [ "a"; "b"; "c"; "d" ]);
          (* The pause lets the idle apply start before the deletion. *)
          config m "full crash, delete_dir while applying"
            [
              [
                Op (Create "x"); Op (Create "y"); Op (Append ("y", "y1"));
                Op (Append ("x", "x1")); Pause 170.0; Op (Delete_dir "x");
                Op (Append ("y", "y2"));
              ];
            ];
        ])
      [ (C.Group_disk, 4); (C.Group_nvram, 4) ]

(* Server 1 misses three updates, one a directory deletion, and is
   crashed again at every point of its rejoin: the fetch, the reinstall
   and the commit-block writes around them. Server 1, because it wins
   Skeen's tie-break: a replica that reboots with the recovering flag
   set must not donate. *)
let rejoin ?mode m =
  config ?mode m "full crash during server 1's rejoin"
    [
      [
        Op (Create "x"); Op (Create "y"); Op (Create "z");
        Op (Append ("x", "x1")); Pause 500.0; Down 1; Pause 500.0;
        Op (Append ("x", "x2")); Op (Delete_dir "y"); Op (Append ("z", "z1"));
        Up 1; Pause 3000.0;
      ];
    ]

(* The packet modes on the rejoin script: one medium in the quick set,
   the other three in the slow one. *)
let packet_modes media =
  List.concat_map
    (fun m -> [ rejoin ~mode:Crash_sender m; rejoin ~mode:Drop_packet m ])
    media

let suite =
  List.mapi (case ~suite:"crash")
    (quick @ List.map rejoin media @ packet_modes [ (C.Group_disk, 4) ])

let slow_suite =
  List.mapi (case ~suite:"crash-slow")
    (slow
    @ packet_modes [ (C.Group_disk, 1); (C.Group_nvram, 1); (C.Group_nvram, 4) ])
