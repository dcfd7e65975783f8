type t = {
  engine : Sim.Engine.t;
  name : string;
  blocks : int;
  block_size : int;
  read_ms : float;
  write_ms : float;
  data : bytes array;
  mutable busy_until : float;
  mutable writes_completed : int;
}

let create engine ?(name = "disk") ~blocks ~block_size ~read_ms
    ~write_ms () =
  if blocks <= 0 || block_size <= 0 then
    invalid_arg "Block_device.create: bad geometry";
  {
    engine;
    name;
    blocks;
    block_size;
    read_ms;
    write_ms;
    data = Array.init blocks (fun _ -> Bytes.create 0);
    busy_until = 0.0;
    writes_completed = 0;
  }

let name t = t.name

let blocks t = t.blocks

let block_size t = t.block_size

let check_index t i =
  if i < 0 || i >= t.blocks then
    invalid_arg (Printf.sprintf "%s: block %d out of range" t.name i)

(* Queue an operation behind the disk arm. [action] runs at completion
   time whether or not the issuing fiber is still alive. *)
let submit t ~latency action =
  let now = Sim.Engine.now t.engine in
  let start = max now t.busy_until in
  let finish = start +. latency in
  t.busy_until <- finish;
  Sim.Proc.suspend (fun waker ->
      Sim.Engine.schedule t.engine ~delay:(finish -. now) (fun () ->
          Sim.Engine.attribute t.engine Tick "disk";
          let v = action () in
          ignore (Sim.Proc.Waker.wake waker v)))

let count t key = Sim.Metrics.incr (Sim.Engine.metrics t.engine) key

(* [queue_ms] at emit time = how long the op will wait behind the arm. *)
(* Guarded: the attrs thunk is allocated even when tracing is off. *)
let emit_op t ~name ~block ~latency =
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine ~subsystem:"storage" ~node:(-1) ~name (fun () ->
        [
          ("dev", Sim.Trace.Str t.name);
          ("block", Sim.Trace.Int block);
          ( "queue_ms",
            Sim.Trace.Float (max 0.0 (t.busy_until -. Sim.Engine.now t.engine))
          );
          ("latency_ms", Sim.Trace.Float latency);
        ])

let observe_hist t key latency =
  Sim.Metrics.observe_hist (Sim.Engine.metrics t.engine) key
    ~labels:[ ("dev", t.name) ] latency

let read t i =
  check_index t i;
  count t "disk.read";
  emit_op t ~name:"disk.read" ~block:i ~latency:t.read_ms;
  let queued = max 0.0 (t.busy_until -. Sim.Engine.now t.engine) in
  observe_hist t "disk.read_ms" (queued +. t.read_ms);
  submit t ~latency:t.read_ms (fun () -> Bytes.copy t.data.(i))

let write t i data =
  check_index t i;
  if Bytes.length data > t.block_size then
    invalid_arg (Printf.sprintf "%s: write exceeds block size" t.name);
  count t "disk.write";
  emit_op t ~name:"disk.write" ~block:i ~latency:t.write_ms;
  let queued = max 0.0 (t.busy_until -. Sim.Engine.now t.engine) in
  observe_hist t "disk.write_ms" (queued +. t.write_ms);
  let committed = Bytes.copy data in
  submit t ~latency:t.write_ms (fun () ->
      t.writes_completed <- t.writes_completed + 1;
      t.data.(i) <- committed)

let peek t i =
  check_index t i;
  Bytes.copy t.data.(i)

let writes_completed t = t.writes_completed
