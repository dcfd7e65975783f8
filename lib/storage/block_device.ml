(* One kind of operation: its latency, and its counter and labelled
   histogram, resolved at the op's first use (building the labelled key
   on every op cost more than the rest of the op). Each kind resolves
   on its own, so a device that never reads registers no
   [disk.read_ms] histogram. *)
type op = {
  key : string;
  ms : float;
  metrics : (Sim.Metrics.handle * Sim.Metrics.Histogram.t) Lazy.t;
}

(* A submitted op, applied at its completion. *)
type pending = Read of int | Write of int * bytes

(* The arm finishes ops in the order they were submitted: each one's
   finish is [max now busy_until + ms], never before the previous one's,
   and the engine breaks a tie by seq. So one FIFO of ops, one FIFO of
   their waiters (each op's fiber parks right after submitting it, with
   no event in between) and one engine event pushed at each finish
   suffice: each firing completes the head op and wakes the head
   waiter. A write wakes its waiter with the bytes it wrote. *)
type t = {
  engine : Sim.Engine.t;
  name : string;
  blocks : int;
  block_size : int;
  read : op;
  write : op;
  data : bytes array;
  mutable busy_until : float;
  mutable writes_completed : int;
  ops : pending Queue.t;
  waiters : bytes Sim.Proc.Waker.t Queue.t;
  mutable complete : Sim.Engine.event; (* set once, by [create] *)
}

let op engine ~dev key ms =
  let metrics =
    lazy
      (let m = Sim.Engine.metrics engine in
       ( Sim.Metrics.counter m key,
         Sim.Metrics.histogram_handle m (key ^ "_ms") ~labels:[ ("dev", dev) ] ))
  in
  { key; ms; metrics }

(* Complete the oldest op, whether or not its fiber is still alive. *)
let complete t () =
  Sim.Engine.attribute t.engine Tick "disk";
  let v =
    match Queue.pop t.ops with
    | Read i -> Bytes.copy t.data.(i)
    | Write (i, data) ->
        t.writes_completed <- t.writes_completed + 1;
        t.data.(i) <- data;
        data
  in
  ignore (Sim.Proc.Waker.wake (Queue.pop t.waiters) v)

let create engine ?(name = "disk") ~blocks ~block_size ~read_ms
    ~write_ms () =
  if blocks <= 0 || block_size <= 0 then
    invalid_arg "Block_device.create: bad geometry";
  let t =
    {
      engine;
      name;
      blocks;
      block_size;
      read = op engine ~dev:name "disk.read" read_ms;
      write = op engine ~dev:name "disk.write" write_ms;
      data = Array.init blocks (fun _ -> Bytes.create 0);
      busy_until = 0.0;
      writes_completed = 0;
      ops = Queue.create ();
      waiters = Queue.create ();
      complete = Sim.Engine.event ignore;
    }
  in
  t.complete <- Sim.Engine.event (complete t);
  t

let name t = t.name

let blocks t = t.blocks

let block_size t = t.block_size

let check_index t i =
  if i < 0 || i >= t.blocks then
    invalid_arg (Printf.sprintf "%s: block %d out of range" t.name i)

(* Count [op] on block [i], record its latency (the wait behind the arm
   plus its own), queue [pending] behind the arm and park until it
   completes. *)
let submit t op i pending =
  let now = Sim.Engine.now t.engine in
  let queued = max 0.0 (t.busy_until -. now) in
  (* Guarded: the attrs thunk is allocated even when tracing is off. *)
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine ~subsystem:"storage" ~node:(-1) ~name:op.key (fun () ->
        [
          ("dev", Sim.Trace.Str t.name);
          ("block", Sim.Trace.Int i);
          ("queue_ms", Sim.Trace.Float queued);
          ("latency_ms", Sim.Trace.Float op.ms);
        ]);
  let ops, latency = Lazy.force op.metrics in
  Sim.Metrics.incr_handle ops;
  Sim.Metrics.Histogram.observe latency (queued +. op.ms);
  let finish = Float.max now t.busy_until +. op.ms in
  t.busy_until <- finish;
  Queue.push pending t.ops;
  Sim.Engine.schedule_event t.engine ~delay:(finish -. now) t.complete;
  Sim.Proc.wait t.waiters

let read t i =
  check_index t i;
  submit t t.read i (Read i)

let write t i data =
  check_index t i;
  if Bytes.length data > t.block_size then
    invalid_arg (Printf.sprintf "%s: write exceeds block size" t.name);
  (* [data] is the caller's fresh encoding, handed over: the block keeps
     it as is. *)
  ignore (submit t t.write i (Write (i, data)))

let peek t i =
  check_index t i;
  Bytes.copy t.data.(i)

let writes_completed t = t.writes_completed
