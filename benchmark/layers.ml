(* Per-layer numbers, measured only from outside the program: the
   benchmark counts the trace events the layers already emit (through a
   sink installed with [Sim.Engine.set_trace]), reads the counters they
   already keep in [Sim.Metrics], and times its own calls into each
   layer's public functions. Nothing here adds a counter or an emit
   point to the program. *)

module Fbuf = Round.Fbuf

(* Client machines have node ids 100 .. 499 (Cluster's numbering);
   servers live at 500k + id. *)
let is_client node = node >= 100 && node < 500

type collector = {
  admin_slots : int;
  rpc_trans_ms : Fbuf.t;  (** client transactions, all attempts *)
  grp_send_ms : Fbuf.t;  (** SendToGroup until r+1 members hold it *)
  disk_write_ms : Fbuf.t;  (** queue wait + service *)
  dirsvc_op_ms : Fbuf.t;  (** every client-facing server op *)
  dirsvc_lookup_ms : Fbuf.t;
  dirsvc_update_ms : Fbuf.t;
  mutable locates : int;
  mutable trans : int;
  mutable bounces : int;
  mutable timeouts : int;
  mutable sends : int;
  mutable retrans : int;
  mutable views : int;
  mutable order_mcasts : int;  (** sequencer multicasts that order updates *)
  mutable ordered : int;  (** entries those multicasts ordered *)
  mutable cb_writes : int;  (** commit block *)
  mutable ot_writes : int;  (** object table *)
  mutable data_writes : int;  (** Bullet file data *)
}

let collector ~admin_slots =
  {
    admin_slots;
    rpc_trans_ms = Fbuf.create ();
    grp_send_ms = Fbuf.create ();
    disk_write_ms = Fbuf.create ();
    dirsvc_op_ms = Fbuf.create ();
    dirsvc_lookup_ms = Fbuf.create ();
    dirsvc_update_ms = Fbuf.create ();
    locates = 0;
    trans = 0;
    bounces = 0;
    timeouts = 0;
    sends = 0;
    retrans = 0;
    views = 0;
    order_mcasts = 0;
    ordered = 0;
    cb_writes = 0;
    ot_writes = 0;
    data_writes = 0;
  }

let attr (e : Sim.Trace.event) k =
  match List.assoc_opt k e.attrs with
  | Some (Sim.Trace.Float f) -> f
  | Some (Sim.Trace.Int i) -> float_of_int i
  | _ -> nan

let str_attr (e : Sim.Trace.event) k =
  match List.assoc_opt k e.attrs with Some (Sim.Trace.Str s) -> s | _ -> ""

let sink c (e : Sim.Trace.event) =
  match (e.subsystem, e.name) with
  | "rpc", "locate" when is_client e.node -> c.locates <- c.locates + 1
  | "rpc", "trans" when is_client e.node -> c.trans <- c.trans + 1
  | "rpc", "trans.bounce" when is_client e.node -> c.bounces <- c.bounces + 1
  | "rpc", "trans.timeout" when is_client e.node -> c.timeouts <- c.timeouts + 1
  | "rpc", "trans.done" when is_client e.node -> Fbuf.add c.rpc_trans_ms (attr e "latency_ms")
  | "grp", "send" -> c.sends <- c.sends + 1
  | "grp", "send.done" -> Fbuf.add c.grp_send_ms (attr e "wait_ms")
  | "grp", "assign" ->
      c.order_mcasts <- c.order_mcasts + 1;
      c.ordered <- c.ordered + 1
  | "grp", "assign.batch" ->
      c.order_mcasts <- c.order_mcasts + 1;
      c.ordered <- c.ordered + int_of_float (attr e "count")
  | "grp", "retrans" -> c.retrans <- c.retrans + 1
  | "grp", "view" -> c.views <- c.views + 1
  | "storage", "disk.write" ->
      Fbuf.add c.disk_write_ms (attr e "queue_ms" +. attr e "latency_ms");
      let block = int_of_float (attr e "block") in
      if block = 0 then c.cb_writes <- c.cb_writes + 1
      else if block <= c.admin_slots then c.ot_writes <- c.ot_writes + 1
      else c.data_writes <- c.data_writes + 1
  | "dirsvc", "op" -> (
      let ms = attr e "latency_ms" in
      Fbuf.add c.dirsvc_op_ms ms;
      match str_attr e "op" with
      | "lookup" | "list" -> Fbuf.add c.dirsvc_lookup_ms ms
      | _ -> Fbuf.add c.dirsvc_update_ms ms)
  | _ -> ()

(* ---- Probes: the bench timing its own calls into one layer ---- *)

let time_per_call ~iters f =
  let best = ref [] in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    f iters;
    best := ((Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters) :: !best
  done;
  Pct.median (Array.of_list !best)

let probe_schedule_run () =
  time_per_call ~iters:20_000 (fun n ->
      let e = Sim.Engine.create ~seed:1L () in
      for i = 1 to n do
        Sim.Engine.schedule e ~delay:(float_of_int (i land 63)) ignore
      done;
      Sim.Engine.run e)

let probe_net_send () =
  time_per_call ~iters:20_000 (fun n ->
      let e = Sim.Engine.create ~seed:1L () in
      let net = Simnet.Network.create e () in
      let a = Simnet.Network.attach net (Sim.Node.create ~id:1 ~name:"a") in
      let b = Simnet.Network.attach net (Sim.Node.create ~id:2 ~name:"b") in
      let box = Simnet.Network.socket b ~proto:"probe" in
      for _ = 1 to n do
        Simnet.Network.send net a ~dst:2 ~proto:"probe" (Simnet.Payload.Opaque "x")
      done;
      Sim.Engine.run e;
      ignore box)

let probe_encode_batch () =
  let entries =
    Array.init 8 (fun i ->
        Group.Wire.App { origin = 1; uid = i; payload = Simnet.Payload.Opaque "op" })
  in
  time_per_call ~iters:200_000 (fun n ->
      for i = 1 to n do
        ignore (Sys.opaque_identity (Group.Wire.encode_batch ~base:i ~count:8 entries))
      done)

let probe_dir () =
  let module D = Dirsvc.Directory in
  let secret = Capability.mint_secret 42L in
  let store, id =
    match D.apply D.empty ~seqno:1 (D.Create_dir { columns = [ "owner" ]; secret; hint = None }) with
    | Ok (s, D.Created id) -> (s, id)
    | _ -> failwith "probe: create_dir"
  in
  let cap = Capability.owner ~port:"dirsvc" ~obj:id secret in
  let store =
    List.fold_left
      (fun s r ->
        match D.apply s ~seqno:2 (D.Append_row { cap; name = Load.row_name r; caps = [ cap ]; masks = [] }) with
        | Ok (s, _) -> s
        | Error _ -> failwith "probe: append")
      store [ 1; 2; 3; 4 ]
  in
  let apply_ns =
    time_per_call ~iters:50_000 (fun n ->
        for i = 1 to n do
          match D.apply store ~seqno:i (D.Append_row { cap; name = "p"; caps = [ cap ]; masks = [] }) with
          | Ok (s, _) -> ignore (Sys.opaque_identity (D.apply s ~seqno:i (D.Delete_row { cap; name = "p" })))
          | Error _ -> failwith "probe: append"
        done)
  in
  let dir = D.Store.find id store in
  let encode_ns =
    time_per_call ~iters:100_000 (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (D.encode_dir dir))
        done)
  in
  (apply_ns, encode_ns)

(* ---- The per-layer table ---- *)

let p samples q = Pct.value_or_nan (Pct.get (Fbuf.to_array samples) q)

(* Means where a quantile would sit on a constant service time (a disk
   write that did not queue, a lookup that did not wait, or a whole
   number of queued 40 ms writes): a time that reads the same on every
   run says nothing. *)
let mean (b : Fbuf.t) =
  let a = Fbuf.to_array b in
  if a = [||] then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let sum_counters rounds pred =
  List.fold_left
    (fun acc (r : Round.result) ->
      List.fold_left (fun acc (k, v) -> if pred k then acc + v else acc) acc r.counters)
    0 rounds

let counter rounds key = sum_counters rounds (String.equal key)

(* Metric name, unit, value — in BENCHMARK.json's [per_layer] order. *)
let table c (rounds : Round.result list) =
  let ops = List.fold_left (fun a (r : Round.result) -> a + r.completed) 0 rounds in
  let events = List.fold_left (fun a (r : Round.result) -> a + r.events) 0 rounds in
  let wall = List.fold_left (fun a (r : Round.result) -> a +. r.window_wall_s) 0.0 rounds in
  let sim_s = List.fold_left (fun a (r : Round.result) -> a +. r.window_sim_ms) 0.0 rounds /. 1000.0 in
  let updates = c.dirsvc_update_ms.Fbuf.n in
  let grp_msgs =
    List.fold_left (fun a k -> a + counter rounds k)
      0 [ "grp.req"; "grp.data"; "grp.ack"; "grp.done"; "grp.accept"; "grp.body" ]
  in
  let apply_ns, encode_ns = probe_dir () in
  [
    ("sim.events_per_op", "events/op", ratio events ops);
    ("sim.wall_ns_per_event", "ns", wall *. 1e9 /. float_of_int (max 1 events));
    ("sim.probe.schedule_run_ns", "ns", probe_schedule_run ());
    ("net.pkts_per_op", "pkts/op", ratio (counter rounds "net.pkt") ops);
    ("net.mcast_per_op", "pkts/op", ratio (counter rounds "net.mcast") ops);
    ("net.pkts_per_op.rpc", "pkts/op", ratio (counter rounds "net.pkt.rpc") ops);
    ( "net.pkts_per_op.grp",
      "pkts/op",
      ratio (sum_counters rounds (String.starts_with ~prefix:"net.pkt.grp:")) ops );
    ("net.probe.send_ns", "ns", probe_net_send ());
    ("rpc.locates_per_op", "locates/op", ratio c.locates ops);
    ("rpc.bounces_per_op", "bounces/op", ratio c.bounces ops);
    ("rpc.timeouts_per_op", "timeouts/op", ratio c.timeouts ops);
    ("rpc.useful_frac", "ratio", ratio c.rpc_trans_ms.Fbuf.n c.trans);
    ("rpc.trans_ms.p50", "ms", p c.rpc_trans_ms 50.0);
    ("rpc.trans_ms.p99", "ms", p c.rpc_trans_ms 99.0);
    ("grp.msgs_per_update", "msgs/update", ratio grp_msgs c.sends);
    ("grp.send_ms.p50", "ms", p c.grp_send_ms 50.0);
    ("grp.send_ms.p99", "ms", p c.grp_send_ms 99.0);
    ("grp.updates_per_multicast", "updates/mcast", ratio c.ordered c.order_mcasts);
    ("grp.retrans_per_op", "retrans/op", ratio c.retrans ops);
    ("grp.view_installs", "count", float_of_int c.views);
    ("grp.hb_per_s", "1/s", float_of_int (counter rounds "grp.hb") /. sim_s);
    ("grp.probe.encode_batch_ns", "ns", probe_encode_batch ());
    ("disk.writes_per_update", "writes/update", ratio (c.cb_writes + c.ot_writes + c.data_writes) updates);
    ("disk.cb_writes_per_update", "writes/update", ratio c.cb_writes updates);
    ("disk.data_writes_per_update", "writes/update", ratio c.data_writes updates);
    ("disk.write_ms.mean", "ms", mean c.disk_write_ms);
    ("dirsvc.commits_per_update", "commits/update", ratio (counter rounds "dirsvc.commit") updates);
    ("dirsvc.op_ms.mean", "ms", mean c.dirsvc_op_ms);
    ("dirsvc.op_ms.p99", "ms", p c.dirsvc_op_ms 99.0);
    ("dirsvc.update_ms.p50", "ms", p c.dirsvc_update_ms 50.0);
    ("dirsvc.update_ms.p99", "ms", p c.dirsvc_update_ms 99.0);
    ("dirsvc.cross_shard_per_op", "moves/op", ratio (counter rounds "dirsvc.cross_shard") ops);
    ("dirsvc.probe.apply_ns", "ns", apply_ns);
    ("dirsvc.probe.encode_dir_ns", "ns", encode_ns);
  ]

(* Server-side lookup latency, including the wait for buffered updates:
   printed and written to the trace file, but not a BENCHMARK.json metric, as
   write_batched has no lookups. *)
let lookup_rows c =
  [
    ("dirsvc.lookup_ms.p50", "ms", p c.dirsvc_lookup_ms 50.0);
    ("dirsvc.lookup_ms.p99", "ms", p c.dirsvc_lookup_ms 99.0);
  ]
