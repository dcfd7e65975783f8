(* Shared helpers for the simulation test suites. *)

type world = {
  engine : Sim.Engine.t;
  net : Simnet.Network.t;
  metrics : Sim.Metrics.t;
}

let make_world ?(seed = 1L) ?latency () =
  let engine = Sim.Engine.create ~seed () in
  let net = Simnet.Network.create engine ?latency () in
  { engine; net; metrics = Sim.Engine.metrics engine }

let node ~id name = Sim.Node.create ~id ~name

(* Run [f] as a fiber on [node] and return its result after the
   simulation quiesces. Fails the test if the fiber never finished. *)
let run_fiber world node f =
  let result = ref None in
  Sim.Proc.boot world.engine node (fun () -> result := Some (f ()));
  Sim.Engine.run world.engine;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "fiber did not complete"

let at world ~delay f = Sim.Engine.schedule world.engine ~delay f

(* Run the engine for a bounded stretch of virtual time (needed once
   periodic fibers — heartbeats, failure detectors — keep the event heap
   non-empty forever). *)
let run_until world time = Sim.Engine.run ~until:time world.engine

(* Collect every "dirsvc"/"op" event [engine] emits from now on;
   the returned function lists them oldest first. A sink, so the trace
   ring's capacity never drops one. *)
let collect_op_events engine =
  let events = ref [] in
  let trace = Sim.Trace.create () in
  Sim.Trace.set_sink trace
    (Some
       (fun e ->
         if e.Sim.Trace.subsystem = "dirsvc" && e.Sim.Trace.name = "op" then
           events := e :: !events));
  Sim.Engine.set_trace engine (Some trace);
  fun () -> List.rev !events

(* The keys of every dirsvc.op_ms histogram, sorted. *)
let op_ms_keys metrics =
  List.filter_map
    (fun (key, _) ->
      if Sim.Metrics.base_key key = "dirsvc.op_ms" then Some key else None)
    (Sim.Metrics.histograms metrics)

(* Boot [f] on [client]'s machine without running the engine; the
   returned cell holds its result once the caller has run the clock far
   enough. *)
let start_on cluster client f =
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let result = ref None in
  Sim.Proc.boot (Dirsvc.Cluster.engine cluster) node (fun () ->
      result := Some (f ()));
  result

(* Run [f client] on a client fiber (a fresh client unless [client] is
   given) of [cluster], advancing the clock by exactly [budget]
   simulated ms; fail the test if the fiber has not completed by then. *)
let on_client ?(budget = 60_000.0) ?client cluster f =
  let module C = Dirsvc.Cluster in
  let client = match client with Some c -> c | None -> C.client cluster in
  let result = start_on cluster client (fun () -> f client) in
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. budget);
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "client fiber did not complete"

(* A client whose port cache leads with replica [server]: fresh clients
   run [probe] (its failures ignored) until one has located that
   replica first. With [~max_attempts:1] its requests then go to that
   replica only. *)
let client_at ?max_attempts ?(tries = 12) cluster ~server probe =
  let module C = Dirsvc.Cluster in
  let rec find tries =
    if tries = 0 then Alcotest.failf "no client cached server %d" server
    else begin
      let client = C.client ?max_attempts cluster in
      ignore (start_on cluster client (fun () -> try probe client with _ -> ()));
      C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 500.0);
      match
        Rpc.Transport.cached_servers
          (Dirsvc.Client.transport client)
          ~port:(C.port cluster)
      with
      | first :: _ when first = server -> client
      | _ -> find (tries - 1)
    end
  in
  find tries

(* [timed f] is [f ()] paired with the simulated ms it took. *)
let timed f =
  let started = Sim.Proc.now () in
  let v = f () in
  (v, Sim.Proc.now () -. started)

(* Check that server [server]'s object table names exactly the
   directories of [store], each at its in-core seqno. *)
let check_object_table cluster ~server store =
  let module C = Dirsvc.Cluster in
  let table =
    Storage.Object_table.attach (C.device cluster server) ~first_block:1
      ~slots:(C.params cluster).Dirsvc.Params.admin_slots
  in
  Alcotest.(check (list (pair int int)))
    "object table seqnos = in-core seqnos"
    (List.map
       (fun (dir_id, dir) -> (dir_id, dir.Dirsvc.Directory.seqno))
       (Dirsvc.Directory.Store.bindings store))
    (List.map
       (fun (dir_id, entry) -> (dir_id, entry.Storage.Object_table.seqno))
       (Storage.Object_table.scan table))

(* Broadcast properties over per-member logs: [(who, keys)], each list
   the keys that member delivered, in delivery order. [check_order] is
   integrity (no key twice in one log) and total order (every two keys
   that two logs share, in the same order). *)
let check_order ~describe logs =
  let twice (who, log) =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun k ->
        if Hashtbl.mem seen k then
          Some (Printf.sprintf "member %d delivered %s twice" who (describe k))
        else begin
          Hashtbl.add seen k ();
          None
        end)
      log
  in
  (* The first key of [lb] delivered out of [la]'s order, if any. *)
  let disorder (a, la) (b, lb) =
    let index = Hashtbl.create 16 in
    List.iteri (fun i k -> Hashtbl.replace index k i) la;
    let rec scan last = function
      | [] -> None
      | k :: rest -> (
          match (Hashtbl.find_opt index k, last) with
          | Some i, Some (j, k') when i < j ->
              Some
                (Printf.sprintf "members %d and %d delivered %s and %s in opposite orders" a
                   b (describe k') (describe k))
          | Some i, _ -> scan (Some (i, k)) rest
          | None, _ -> scan last rest)
    in
    scan None lb
  in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.filter_map (disorder a) rest @ pairs rest
  in
  List.concat_map twice logs @ pairs logs

(* Uniform agreement: every [required] key (one that some member
   delivered) is in every log. *)
let check_agreement ~describe ~required logs =
  List.concat_map
    (fun (who, log) ->
      List.filter_map
        (fun k ->
          if List.mem k log then None
          else Some (Printf.sprintf "member %d lacks %s" who (describe k)))
        required)
    logs
