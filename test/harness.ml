(* Shared helpers for the simulation test suites. *)

type world = {
  engine : Sim.Engine.t;
  net : Simnet.Network.t;
  metrics : Sim.Metrics.t;
}

let make_world ?(seed = 1L) ?latency () =
  let engine = Sim.Engine.create ~seed () in
  let metrics = Sim.Metrics.create () in
  let net = Simnet.Network.create engine ~metrics ?latency () in
  { engine; net; metrics }

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

(* Run [f client] on a fresh client fiber of [cluster], advancing the
   clock by exactly [budget] simulated ms; fail the test if the fiber
   has not completed by then. *)
let on_client ?(budget = 60_000.0) cluster f =
  let module C = Dirsvc.Cluster in
  let client = C.client cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let result = ref None in
  Sim.Proc.boot (C.engine cluster) node (fun () -> result := Some (f client));
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. budget);
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "client fiber did not complete"
