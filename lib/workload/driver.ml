let on_client ~quantum ~max_quanta cluster f =
  let engine = Dirsvc.Cluster.engine cluster in
  let client = Dirsvc.Cluster.client cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let result = Sim.Ivar.create () in
  Sim.Proc.boot engine node ~name:"workload" (fun () ->
      Sim.Ivar.fill result (f client));
  ignore (Sim.Drive.run_until_filled ~quantum ~max_quanta engine result);
  match Sim.Ivar.peek result with
  | Some v -> v
  | None -> failwith "Workload: client fiber never finished"

type tally = { mutable total : int; mutable errors : int; window : int array }

(* One op: its kind, or -1 after one of the two failures the client
   library documents. *)
let attempt tally op =
  match op () with
  | kind ->
      tally.total <- tally.total + 1;
      kind
  | exception (Dirsvc.Wire.Dir_error _ | Rpc.Transport.Rpc_failure _) ->
      tally.errors <- tally.errors + 1;
      -1

(* Each fiber finishes its setup before it reaches the gate; the last
   one to arrive picks the window, so a slow setup under contention
   cannot eat into it. The gate ivar doubles as the readiness signal:
   the engine stops the instant the last client arrives. *)
let closed_loop cluster ~warmup ~window ~clients ~kinds ~warm ~setup =
  let engine = Dirsvc.Cluster.engine cluster in
  let tally = { total = 0; errors = 0; window = Array.make kinds 0 } in
  let gate = Sim.Ivar.create () in
  let arrived = ref 0 in
  for i = 1 to clients do
    let client = Dirsvc.Cluster.client cluster in
    let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
    Sim.Proc.boot engine node ~name:"load-client" (fun () ->
        let op = setup i client in
        if warm then ignore (attempt tally op);
        incr arrived;
        if !arrived = clients then begin
          let now = Sim.Proc.now () in
          Sim.Ivar.fill gate (now +. warmup, now +. warmup +. window)
        end;
        let t_start, t_stop = Sim.Ivar.read gate in
        while Sim.Proc.now () < t_stop do
          let kind = attempt tally op in
          if kind < 0 then Sim.Proc.sleep 5.0
          else if Sim.Proc.now () >= t_start then
            tally.window.(kind) <- tally.window.(kind) + 1
        done)
  done;
  ignore (Sim.Drive.run_until_filled ~quantum:1_000.0 ~max_quanta:120 engine gate);
  match Sim.Ivar.peek gate with
  | Some (_, t_stop) ->
      Dirsvc.Cluster.run_until cluster (t_stop +. 500.0);
      tally
  | None -> failwith "Workload: clients never ready"
