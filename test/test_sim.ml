(* Tests for the discrete-event engine and fiber layer. *)

let check_float = Alcotest.(check (float 1e-9))

let test_event_ordering () =
  let engine = Sim.Engine.create () in
  let order = ref [] in
  let record tag () = order := tag :: !order in
  Sim.Engine.schedule engine ~delay:5.0 (record "c");
  Sim.Engine.schedule engine ~delay:1.0 (record "a");
  Sim.Engine.schedule engine ~delay:1.0 (record "b");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "fires by time then insertion" [ "a"; "b"; "c" ]
    (List.rev !order);
  check_float "clock at last event" 5.0 (Sim.Engine.now engine)

let test_run_until () =
  let engine = Sim.Engine.create () in
  let fired = ref [] in
  Sim.Engine.schedule engine ~delay:1.0 (fun () -> fired := 1 :: !fired);
  Sim.Engine.schedule engine ~delay:10.0 (fun () -> fired := 10 :: !fired);
  Sim.Engine.run ~until:5.0 engine;
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !fired);
  check_float "clock stopped at limit" 5.0 (Sim.Engine.now engine);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "late event fires on resume" [ 1; 10 ]
    (List.rev !fired)

let test_sleep_sequence () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let trace = ref [] in
  Sim.Proc.boot engine node (fun () ->
      trace := (Sim.Proc.now (), "start") :: !trace;
      Sim.Proc.sleep 3.0;
      trace := (Sim.Proc.now (), "mid") :: !trace;
      Sim.Proc.sleep 2.0;
      trace := (Sim.Proc.now (), "end") :: !trace);
  Sim.Engine.run engine;
  let expect = [ (0.0, "start"); (3.0, "mid"); (5.0, "end") ] in
  Alcotest.(check (list (pair (float 1e-9) string))) "sleep advances clock"
    expect (List.rev !trace)

let test_spawn_and_yield () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let order = ref [] in
  Sim.Proc.boot engine node (fun () ->
      Sim.Proc.spawn (fun () -> order := "child" :: !order);
      order := "parent" :: !order;
      Sim.Proc.yield ();
      order := "parent-after-yield" :: !order);
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "spawn runs after parent blocks"
    [ "parent"; "child"; "parent-after-yield" ]
    (List.rev !order)

let test_crash_kills_fibers () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let progressed = ref false in
  Sim.Proc.boot engine node (fun () ->
      Sim.Proc.sleep 10.0;
      progressed := true);
  Sim.Engine.schedule engine ~delay:5.0 (fun () -> Sim.Node.crash node);
  Sim.Engine.run engine;
  Alcotest.(check bool) "sleeping fiber never resumes" false !progressed

let test_restart_does_not_revive_old_fibers () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let progressed = ref false in
  Sim.Proc.boot engine node (fun () ->
      Sim.Proc.sleep 10.0;
      progressed := true);
  Sim.Engine.schedule engine ~delay:5.0 (fun () ->
      Sim.Node.crash node;
      Sim.Node.restart node);
  Sim.Engine.run engine;
  Alcotest.(check bool) "old incarnation stays dead" false !progressed;
  Alcotest.(check int) "incarnation bumped" 1 (Sim.Node.incarnation node)

let test_mailbox_fifo () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let mbox = Sim.Mailbox.create () in
  let received = ref [] in
  Sim.Proc.boot engine node (fun () ->
      for _ = 1 to 3 do
        received := Sim.Mailbox.recv mbox :: !received
      done);
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      Sim.Mailbox.send mbox "x";
      Sim.Mailbox.send mbox "y";
      Sim.Mailbox.send mbox "z");
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "FIFO order" [ "x"; "y"; "z" ]
    (List.rev !received)

let test_mailbox_timeout () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let outcome = ref "" in
  let mbox : string Sim.Mailbox.t = Sim.Mailbox.create () in
  Sim.Proc.boot engine node (fun () ->
      (match Sim.Mailbox.recv ~timeout:5.0 mbox with
      | _ -> outcome := "got message"
      | exception Sim.Proc.Timeout -> outcome := "timeout");
      Alcotest.(check (float 1e-9)) "timed out at 5ms" 5.0 (Sim.Proc.now ()));
  Sim.Engine.run engine;
  Alcotest.(check string) "recv timed out" "timeout" !outcome

let test_mailbox_waiter_count () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let mbox : int Sim.Mailbox.t = Sim.Mailbox.create () in
  let observed = ref (-1) in
  for _ = 1 to 3 do
    Sim.Proc.boot engine node (fun () -> ignore (Sim.Mailbox.recv mbox))
  done;
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      observed := Sim.Mailbox.waiters mbox);
  Sim.Engine.schedule engine ~delay:2.0 (fun () ->
      Sim.Mailbox.send mbox 1;
      Sim.Mailbox.send mbox 2;
      Sim.Mailbox.send mbox 3);
  Sim.Engine.run engine;
  Alcotest.(check int) "three blocked receivers" 3 !observed

let test_message_not_lost_on_dead_waiter () =
  let engine = Sim.Engine.create () in
  let node1 = Sim.Node.create ~id:1 ~name:"n1" in
  let node2 = Sim.Node.create ~id:2 ~name:"n2" in
  let mbox : string Sim.Mailbox.t = Sim.Mailbox.create () in
  let winner = ref "" in
  Sim.Proc.boot engine node1 (fun () -> winner := Sim.Mailbox.recv mbox);
  Sim.Engine.schedule engine ~delay:1.0 (fun () -> Sim.Node.crash node1);
  Sim.Engine.schedule engine ~delay:2.0 (fun () ->
      Sim.Proc.boot engine node2 (fun () -> winner := Sim.Mailbox.recv mbox));
  Sim.Engine.schedule engine ~delay:3.0 (fun () -> Sim.Mailbox.send mbox "msg");
  Sim.Engine.run engine;
  Alcotest.(check string) "live waiter gets the message" "msg" !winner

let test_ivar_broadcast () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let ivar = Sim.Ivar.create () in
  let seen = ref 0 in
  for _ = 1 to 4 do
    Sim.Proc.boot engine node (fun () ->
        let v = Sim.Ivar.read ivar in
        seen := !seen + v)
  done;
  Sim.Engine.schedule engine ~delay:1.0 (fun () -> Sim.Ivar.fill ivar 10);
  Sim.Engine.run engine;
  Alcotest.(check int) "all readers woken once" 40 !seen;
  Alcotest.(check bool) "filled" true (Sim.Ivar.is_filled ivar)

let test_ivar_error_propagation () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let ivar : int Sim.Ivar.t = Sim.Ivar.create () in
  let outcome = ref "" in
  Sim.Proc.boot engine node (fun () ->
      match Sim.Ivar.read ivar with
      | _ -> outcome := "value"
      | exception Sim.Proc.Cancelled reason -> outcome := "cancelled: " ^ reason);
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      Sim.Ivar.fill_exn ivar (Sim.Proc.Cancelled "server down"));
  Sim.Engine.run engine;
  Alcotest.(check string) "error surfaced" "cancelled: server down" !outcome

(* Drive: an engine whose heap never drains (a tick every 0.03 ms),
   polled in chunks of 0.1 ms. Chunk boundaries are iterated sums, which
   differ from [start +. 0.1 *. k] in the last ulp: exact equality pins
   them. *)
let ticking_engine () =
  let engine = Sim.Engine.create () in
  let rec tick () = Sim.Engine.schedule engine ~delay:0.03 tick in
  tick ();
  engine

let boundary ~start ~quantum k =
  let b = ref start in
  for _ = 1 to k do
    b := !b +. quantum
  done;
  !b

let check_exact = Alcotest.(check (float 0.0))

let test_drive_fill_mid_chunk () =
  let engine = ticking_engine () in
  Sim.Engine.run ~until:1.5 engine;
  let ivar = Sim.Ivar.create () in
  (* 0.25 ms in: inside the third chunk, [1.7, 1.8]. *)
  Sim.Engine.schedule engine ~delay:0.25 (fun () -> Sim.Ivar.fill ivar ());
  Alcotest.(check bool) "filled" true
    (Sim.Drive.run_until_filled ~quantum:0.1 ~max_quanta:10 engine ivar);
  check_exact "clock on that chunk's boundary"
    (boundary ~start:1.5 ~quantum:0.1 3)
    (Sim.Engine.now engine)

let test_drive_no_fill () =
  let engine = ticking_engine () in
  let ivar : unit Sim.Ivar.t = Sim.Ivar.create () in
  Alcotest.(check bool) "not filled" false
    (Sim.Drive.run_until_filled ~quantum:0.1 ~max_quanta:10 engine ivar);
  check_exact "clock after max_quanta chunks"
    (boundary ~start:0.0 ~quantum:0.1 10)
    (Sim.Engine.now engine);
  Alcotest.(check bool) "not the multiplied sum" true
    (Sim.Engine.now engine <> 0.1 *. 10.0)

let test_drive_drained_heap () =
  let engine = Sim.Engine.create () in
  let ivar : unit Sim.Ivar.t = Sim.Ivar.create () in
  Sim.Engine.schedule engine ~delay:5.0 ignore;
  Alcotest.(check bool) "drained, not filled" false
    (Sim.Drive.run_until_filled ~quantum:10.0 ~max_quanta:1_000_000 engine ivar);
  check_float "clock at the last event" 5.0 (Sim.Engine.now engine);
  let filled = Sim.Ivar.create () in
  Sim.Engine.schedule engine ~delay:2.0 (fun () -> Sim.Ivar.fill filled ());
  Alcotest.(check bool) "filled by the last event" true
    (Sim.Drive.run_until_filled ~quantum:10.0 ~max_quanta:1_000_000 engine filled);
  check_float "clock at the fill, short of the boundary" 7.0
    (Sim.Engine.now engine)

let test_resource_serialises () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let cpu = Sim.Resource.create ~capacity:1 () in
  let finish_times = ref [] in
  for _ = 1 to 3 do
    Sim.Proc.boot engine node (fun () ->
        Sim.Resource.use cpu 10.0;
        finish_times := Sim.Proc.now () :: !finish_times)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list (float 1e-9))) "back-to-back completions"
    [ 10.0; 20.0; 30.0 ] (List.rev !finish_times)

let test_resource_release_on_exception () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let cpu = Sim.Resource.create ~capacity:1 () in
  let second_ran = ref false in
  Sim.Proc.boot engine node (fun () ->
      (try Sim.Resource.with_held cpu (fun () -> failwith "boom")
       with Failure _ -> ());
      Sim.Proc.sleep 1.0);
  Sim.Proc.boot engine node (fun () ->
      Sim.Resource.with_held cpu (fun () -> second_ran := true));
  Sim.Engine.run engine;
  Alcotest.(check bool) "resource was released" true !second_ran

(* [Proc.wait ~timeout] on a queue nobody serves raises [Timeout] at
   the deadline; woken before it, the fiber gets the value. *)
let test_wait_timeout_fires () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let outcome = ref "" in
  Sim.Proc.boot engine node (fun () ->
      match Sim.Proc.wait ~timeout:5.0 (Queue.create ()) with
      | () -> outcome := "woken"
      | exception Sim.Proc.Timeout ->
          outcome := "timeout at " ^ string_of_float (Sim.Proc.now ()));
  Sim.Engine.run engine;
  Alcotest.(check string) "timeout raised" "timeout at 5." !outcome

let test_wait_timeout_completes () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let outcome = ref 0 and waiting = Queue.create () in
  Sim.Proc.boot engine node (fun () -> outcome := Sim.Proc.wait ~timeout:5.0 waiting);
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      ignore (Sim.Proc.Waker.wake (Queue.pop waiting) 42));
  Sim.Engine.run engine;
  Alcotest.(check int) "value returned" 42 !outcome

let test_condvar_await () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let cv = Sim.Condvar.create () in
  let counter = ref 0 in
  let done_at = ref 0.0 in
  Sim.Proc.boot engine node (fun () ->
      Sim.Condvar.await cv (fun () -> !counter >= 3);
      done_at := Sim.Proc.now ());
  Sim.Proc.boot engine node (fun () ->
      for _ = 1 to 3 do
        Sim.Proc.sleep 2.0;
        incr counter;
        Sim.Condvar.broadcast cv
      done);
  Sim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "woke when predicate held" 6.0 !done_at

let test_determinism () =
  let run_once seed =
    let engine = Sim.Engine.create ~seed () in
    let rng = Sim.Engine.rng engine in
    let node = Sim.Node.create ~id:1 ~name:"n1" in
    let log = Buffer.create 64 in
    for i = 1 to 5 do
      Sim.Proc.boot engine node (fun () ->
          Sim.Proc.sleep (Sim.Rng.uniform rng ~lo:0.0 ~hi:10.0);
          Buffer.add_string log (Printf.sprintf "%d@%.6f;" i (Sim.Proc.now ())))
    done;
    Sim.Engine.run engine;
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same trace" (run_once 42L) (run_once 42L);
  Alcotest.(check bool) "different seed, different trace" true
    (run_once 42L <> run_once 43L)

let test_rng_statistics () =
  let rng = Sim.Rng.create 7L in
  let n = 10_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "uniform mean near 0.5" true (abs_float (mean -. 0.5) < 0.02);
  let bound = 17 in
  let hits = Array.make bound 0 in
  for _ = 1 to n do
    let v = Sim.Rng.int rng bound in
    hits.(v) <- hits.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "all buckets hit" true (c > 0))
    hits

let test_heap_property =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_int))
    (fun entries ->
      let heap = Sim.Heap.create () in
      List.iteri
        (fun seq (time, value) -> Sim.Heap.push heap ~time ~seq value)
        entries;
      let rec drain acc =
        match Sim.Heap.pop_min heap with
        | None -> List.rev acc
        | Some (time, seq, _) -> drain ((time, seq) :: acc)
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted)

let test_metrics_delta () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr m "a";
  let before = Sim.Metrics.counters m in
  Sim.Metrics.incr m "a";
  Sim.Metrics.incr ~by:3 m "b";
  let after = Sim.Metrics.counters m in
  Alcotest.(check (list (pair string int))) "delta"
    [ ("a", 1); ("b", 3) ]
    (Sim.Metrics.delta ~before ~after)

(* Regression: a counter that shrank (e.g. the registry was reset between
   snapshots) must report a negative delta, not silently vanish. *)
let test_metrics_delta_negative () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr ~by:5 m "a";
  Sim.Metrics.incr ~by:2 m "b";
  let before = Sim.Metrics.counters m in
  Sim.Metrics.reset m;
  Sim.Metrics.incr ~by:2 m "a";
  Sim.Metrics.incr ~by:2 m "b";
  let after = Sim.Metrics.counters m in
  Alcotest.(check (list (pair string int)))
    "shrunk counter is negative, unchanged one omitted"
    [ ("a", -3) ]
    (Sim.Metrics.delta ~before ~after)

let test_histogram_buckets () =
  let h = Sim.Metrics.Histogram.create ~bounds:[| 1.0; 2.0; 4.0; 8.0 |] () in
  List.iter
    (Sim.Metrics.Histogram.observe h)
    [ 0.5; 1.0; 1.5; 3.0; 6.0; 20.0 ];
  let show (lower, upper, count) =
    Printf.sprintf "%g..%g:%d" lower upper count
  in
  (* Upper bounds are inclusive: 1.0 lands in the first bucket; 20.0
     overflows past the last bound. *)
  Alcotest.(check (list string)) "bucket assignment"
    [ "0..1:2"; "1..2:1"; "2..4:1"; "4..8:1"; "8..inf:1" ]
    (List.map show (Sim.Metrics.Histogram.buckets h));
  Alcotest.(check int) "count" 6 (Sim.Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "min" 0.5 (Sim.Metrics.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 20.0 (Sim.Metrics.Histogram.max_value h)

let test_histogram_quantiles () =
  let h = Sim.Metrics.Histogram.create () in
  for i = 1 to 1000 do
    Sim.Metrics.Histogram.observe h (float_of_int i)
  done;
  let q p = Sim.Metrics.Histogram.quantile h p in
  (* Uniform integers over the default log buckets make the linear
     interpolation land exactly on the true quantile. *)
  Alcotest.(check (float 1e-6)) "p50" 500.0 (q 0.5);
  Alcotest.(check (float 1e-6)) "p99" 990.0 (q 0.99);
  Alcotest.(check (float 1e-6)) "p0 clamps to observed min" 1.0 (q 0.0);
  Alcotest.(check (float 1e-6)) "p100 clamps to observed max" 1000.0 (q 1.0);
  Alcotest.(check (float 1e-6)) "mean" 500.5 (Sim.Metrics.Histogram.mean h);
  Alcotest.(check bool) "empty histogram answers nan" true
    (Float.is_nan
       (Sim.Metrics.Histogram.quantile (Sim.Metrics.Histogram.create ()) 0.5))

let test_histogram_labelled () =
  let m = Sim.Metrics.create () in
  let observe labels v =
    Sim.Metrics.Histogram.observe (Sim.Metrics.histogram_handle m "op_ms" ~labels) v
  in
  observe [ ("server", "2"); ("op", "w") ] 4.0;
  observe [ ("op", "w"); ("server", "2") ] 6.0;
  (* Label order must not matter: both observations hit one histogram
     under the canonical key. *)
  match Sim.Metrics.histogram m "op_ms{op=w,server=2}" with
  | None -> Alcotest.fail "canonical key not found"
  | Some h ->
      Alcotest.(check int) "both observations landed" 2
        (Sim.Metrics.Histogram.count h);
      Alcotest.(check (list (pair string string))) "labels parse back"
        [ ("op", "w"); ("server", "2") ]
        (Sim.Metrics.labels_of_key "op_ms{op=w,server=2}")

(* Model test: interleaved pushes and pops against a sorted-list
   reference. The order-only qcheck test above never observes the heap
   in a partially drained state, which is exactly where a
   struct-of-arrays sift can go wrong. [Some t] pushes at time [t]
   (sequence numbers assigned in program order), [None] pops. *)
let test_heap_vs_reference_model =
  QCheck.Test.make ~name:"heap matches sorted-list reference" ~count:300
    (* Bounded op count: the reference model resorts on every push, so
       unbounded generated lists make the test quadratic in their size. *)
    QCheck.(list_of_size Gen.(int_range 0 120) (option (float_bound_inclusive 100.0)))
    (fun ops ->
      let heap = Sim.Heap.create () in
      let model = ref [] (* sorted by (time, seq) *) in
      let next_seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Some time ->
              let seq = !next_seq in
              incr next_seq;
              Sim.Heap.push heap ~time ~seq seq;
              model :=
                List.sort
                  (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
                  ((time, seq, seq) :: !model)
          | None -> (
              match (Sim.Heap.pop_min heap, !model) with
              | None, [] -> ()
              | Some got, expected :: rest ->
                  if got <> expected then ok := false;
                  model := rest
              | Some _, [] | None, _ :: _ -> ok := false));
          if Sim.Heap.length heap <> List.length !model then ok := false;
          match (Sim.Heap.peek_min heap, !model) with
          | None, [] -> ()
          | Some got, expected :: _ -> if got <> expected then ok := false
          | Some _, [] | None, _ :: _ -> ok := false)
        ops;
      !ok)

(* Regression: pop_min used to leave the popped entry behind in the
   backing array, keeping every popped value (often a closure over a
   fiber's continuation) reachable until that slot happened to be
   overwritten — a space leak in a long-lived event heap. The partial
   drain checks the guarantee at intermediate states too: a popped value
   must be collectable even while later entries still sit in the heap. *)
let test_heap_pop_releases_entries () =
  let heap = Sim.Heap.create () in
  let slots = 8 in
  let weak = Weak.create slots in
  for i = 0 to slots - 1 do
    let v = ref (i + 1000) in
    Weak.set weak i (Some v);
    Sim.Heap.push heap ~time:(float_of_int i) ~seq:i v
  done;
  let half = slots / 2 in
  for _ = 1 to half do
    ignore (Sim.Heap.pop_min heap)
  done;
  Gc.full_major ();
  for i = 0 to half - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "popped value %d collectable mid-drain" i)
      false (Weak.check weak i)
  done;
  for i = half to slots - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "unpopped value %d still held" i)
      true (Weak.check weak i)
  done;
  for _ = half + 1 to slots do
    ignore (Sim.Heap.pop_min heap)
  done;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to slots - 1 do
    if Weak.check weak i then incr live
  done;
  Alcotest.(check int) "all popped values collectable" 0 !live;
  (* The heap stays usable after draining. *)
  Sim.Heap.push heap ~time:1.0 ~seq:1 (ref 0);
  Alcotest.(check bool) "still usable" true (Sim.Heap.pop_min heap <> None)

(* Model test for the cancelable timer layer: every interleaving of
   schedule / cancel-before-run / cancel-from-a-firing-callback must
   fire exactly the timers a naive sorted-list simulation fires, in the
   same order, and the engine must count exactly those firings as
   events — a tombstoned timer is discarded, not executed. Each case is
   a list of timers scheduled together at t=0: (delay, action), where
   the action cancels the timer itself right after scheduling, cancels
   the k-th-next timer (mod n) at fire time, or nothing. *)
let test_timer_vs_model =
  let open QCheck in
  let action =
    Gen.oneof
      [
        Gen.return `Nothing;
        Gen.return `Cancel_now;
        Gen.map (fun k -> `Cancel_at_fire k) (Gen.int_range 0 10);
      ]
  in
  let case =
    Gen.list_size (Gen.int_range 0 40)
      (Gen.pair (Gen.float_bound_inclusive 50.0) action)
  in
  let print_case ops =
    String.concat ";"
      (List.map
         (fun (d, a) ->
           Printf.sprintf "(%g,%s)" d
             (match a with
             | `Nothing -> "-"
             | `Cancel_now -> "now"
             | `Cancel_at_fire k -> Printf.sprintf "@%d" k))
         ops)
  in
  Test.make ~name:"timers match sorted-list reference" ~count:300
    (make ~print:print_case case) (fun ops ->
      let n = List.length ops in
      let ops = Array.of_list ops in
      (* Reference: process (delay, seq) in sorted order over an armed
         set, applying fire-time cancels as they happen. *)
      let armed = Array.map (fun (_, a) -> a <> `Cancel_now) ops in
      let order =
        List.sort compare (List.init n (fun i -> (fst ops.(i), i)))
      in
      let expected = ref [] in
      List.iter
        (fun (_, i) ->
          if armed.(i) then begin
            armed.(i) <- false;
            expected := i :: !expected;
            match snd ops.(i) with
            | `Cancel_at_fire k -> armed.((i + k) mod n) <- false
            | `Nothing | `Cancel_now -> ()
          end)
        order;
      let expected = List.rev !expected in
      (* Real run. *)
      let engine = Sim.Engine.create () in
      let handles = Array.make (max n 1) None in
      let fired = ref [] in
      Array.iteri
        (fun i (delay, action) ->
          let tm =
            Sim.Timer.after engine ~delay (fun () ->
                fired := i :: !fired;
                match action with
                | `Cancel_at_fire k -> (
                    match handles.((i + k) mod n) with
                    | Some tm -> Sim.Timer.cancel tm
                    | None -> ())
                | `Nothing | `Cancel_now -> ())
          in
          handles.(i) <- Some tm;
          if action = `Cancel_now then Sim.Timer.cancel tm)
        ops;
      Sim.Engine.run engine;
      let fired = List.rev !fired in
      fired = expected
      (* Cancelled timers are discarded, not executed: only real
         firings count as engine events. *)
      && Sim.Engine.events_executed engine = List.length expected
      && Array.for_all
           (fun h ->
             match h with Some tm -> not (Sim.Timer.active tm) | None -> true)
           handles)

(* Regression for the timeout-guard conversion: when the guarded thing
   happens first, the timeout timer is cancelled at wake time and must
   never fire — the waiter must not see a spurious [Timeout] after
   already consuming its message, and the dead guard must not show up
   in the event count. *)
let test_cancelled_mailbox_timeout_never_wakes () =
  let run ~timeout =
    let engine = Sim.Engine.create () in
    let node = Sim.Node.create ~id:1 ~name:"n1" in
    let mbox : string Sim.Mailbox.t = Sim.Mailbox.create () in
    let outcome = ref "" in
    Sim.Proc.boot engine node (fun () ->
        (match Sim.Mailbox.recv ?timeout mbox with
        | msg -> outcome := "got " ^ msg
        | exception Sim.Proc.Timeout -> outcome := "timeout");
        (* Sleep past the guard's deadline: a leaked guard firing into
           the dead waker (or worse, the fiber) would surface here. *)
        Sim.Proc.sleep 20.0;
        outcome := !outcome ^ "; alive at " ^ string_of_float (Sim.Proc.now ()));
    Sim.Engine.schedule engine ~delay:1.0 (fun () -> Sim.Mailbox.send mbox "m");
    Sim.Engine.run engine;
    (!outcome, Sim.Engine.events_executed engine)
  in
  let with_guard, events_with = run ~timeout:(Some 5.0) in
  let without_guard, events_without = run ~timeout:None in
  Alcotest.(check string) "message wins, no spurious timeout"
    "got m; alive at 21." with_guard;
  Alcotest.(check string) "same outcome without a guard"
    "got m; alive at 21." without_guard;
  Alcotest.(check int) "cancelled guard costs zero events" events_without
    events_with

let test_cancelled_condvar_timeout_never_wakes () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let cv = Sim.Condvar.create () in
  let outcome = ref "" in
  Sim.Proc.boot engine node (fun () ->
      (match Sim.Condvar.wait ~timeout:5.0 cv with
      | () -> outcome := "signalled"
      | exception Sim.Proc.Timeout -> outcome := "timeout");
      Sim.Proc.sleep 20.0;
      outcome := !outcome ^ "; alive at " ^ string_of_float (Sim.Proc.now ()));
  Sim.Engine.schedule engine ~delay:1.0 (fun () -> Sim.Condvar.broadcast cv);
  Sim.Engine.run engine;
  Alcotest.(check string) "signal wins, no spurious timeout"
    "signalled; alive at 21." !outcome

let suite =
  let tc = Alcotest.test_case in
  [
    tc "event ordering" `Quick test_event_ordering;
    tc "run until" `Quick test_run_until;
    tc "sleep sequence" `Quick test_sleep_sequence;
    tc "spawn and yield" `Quick test_spawn_and_yield;
    tc "crash kills fibers" `Quick test_crash_kills_fibers;
    tc "restart does not revive fibers" `Quick test_restart_does_not_revive_old_fibers;
    tc "mailbox fifo" `Quick test_mailbox_fifo;
    tc "mailbox timeout" `Quick test_mailbox_timeout;
    tc "mailbox waiter count" `Quick test_mailbox_waiter_count;
    tc "message survives dead waiter" `Quick test_message_not_lost_on_dead_waiter;
    tc "ivar broadcast" `Quick test_ivar_broadcast;
    tc "ivar error" `Quick test_ivar_error_propagation;
    tc "drive: fill mid-chunk stops on its boundary" `Quick
      test_drive_fill_mid_chunk;
    tc "drive: no fill runs max_quanta chunks" `Quick test_drive_no_fill;
    tc "drive: drained heap returns at once" `Quick test_drive_drained_heap;
    tc "resource serialises" `Quick test_resource_serialises;
    tc "resource releases on exception" `Quick test_resource_release_on_exception;
    tc "wait timeout fires" `Quick test_wait_timeout_fires;
    tc "wait timeout completes" `Quick test_wait_timeout_completes;
    tc "condvar await" `Quick test_condvar_await;
    tc "determinism" `Quick test_determinism;
    tc "rng statistics" `Quick test_rng_statistics;
    QCheck_alcotest.to_alcotest test_heap_property;
    QCheck_alcotest.to_alcotest test_heap_vs_reference_model;
    QCheck_alcotest.to_alcotest test_timer_vs_model;
    tc "cancelled mailbox timeout never wakes" `Quick
      test_cancelled_mailbox_timeout_never_wakes;
    tc "cancelled condvar timeout never wakes" `Quick
      test_cancelled_condvar_timeout_never_wakes;
    tc "heap pop releases entries" `Quick test_heap_pop_releases_entries;
    tc "metrics delta" `Quick test_metrics_delta;
    tc "metrics delta negative" `Quick test_metrics_delta_negative;
    tc "histogram buckets" `Quick test_histogram_buckets;
    tc "histogram quantiles" `Quick test_histogram_quantiles;
    tc "histogram labelled keys" `Quick test_histogram_labelled;
  ]

(* The splitmix64 stream is part of the same-seed contract: every
   golden figure depends on it. Pin the first draws of one seed, and of
   a stream split from it, so a change to how the generator stores or
   steps its state cannot move them. *)
let test_rng_pinned_draws () =
  let rng = Sim.Rng.create 42L in
  let ints = List.init 3 (fun _ -> Sim.Rng.int rng 1_000_000) in
  Alcotest.(check (list int)) "int draws" [ 818853; 723072; 690964 ] ints;
  let floats = List.init 3 (fun _ -> Sim.Rng.float rng) in
  Alcotest.(check (list (float 0.0))) "float draws"
    [ 0.34419071652363753; 0.038030168540246212; 0.86822807654653233 ]
    floats;
  let child = Sim.Rng.split rng in
  Alcotest.(check int) "split stream int" 517450 (Sim.Rng.int child 1_000_000);
  Alcotest.(check (float 0.0)) "split stream float" 0.20779850800429078
    (Sim.Rng.float child);
  Alcotest.(check int) "parent after split" 3692262831746943977
    (Sim.Rng.int rng max_int);
  Alcotest.(check (list int64)) "derived seeds"
    [ -4767286540954276203L; 2949826092126892291L ]
    (Sim.Rng.derive ~base:42L 2)

let suite =
  suite
  @ [ Alcotest.test_case "rng pinned draws" `Quick test_rng_pinned_draws ]

(* Run [f] [ticks] times, every [period]: on one [Timer.every] that its
   last tick cancels, or on the chain it replaces, a one-shot [after]
   re-armed as the callback's last action. *)
let repeat engine ~periodic ~period ~ticks f =
  let fired = ref 0 in
  let tick () =
    incr fired;
    f ()
  in
  if periodic then begin
    let tm = ref None in
    tm :=
      Some
        (Sim.Timer.every engine ~period (fun () ->
             tick ();
             if !fired = ticks then Option.iter Sim.Timer.cancel !tm))
  end
  else
    let rec arm () =
      ignore
        (Sim.Timer.after engine ~delay:period (fun () ->
             tick ();
             if !fired < ticks then arm ()))
    in
    arm ()

(* The period is not a binary fraction, so the instants are the
   iterated sum ((p +. p) +. p) …, which can differ from [k *. p] in
   the last ulp. The runs are bounded, so a timer that keeps ticking
   fails instead of hanging. *)
let tick_times ~periodic ~period ~ticks =
  let engine = Sim.Engine.create () in
  let times = ref [] in
  repeat engine ~periodic ~period ~ticks (fun () ->
      times := Sim.Engine.now engine :: !times);
  Sim.Engine.run ~until:(period *. float_of_int (2 * ticks)) engine;
  List.rev !times

let test_every_instants () =
  let period = 0.1 and ticks = 50 in
  let rec iterated_sum now k =
    if k = 0 then []
    else
      let now = now +. period in
      now :: iterated_sum now (k - 1)
  in
  let expected = iterated_sum 0.0 ticks in
  let exact = Alcotest.(list (float 0.0)) in
  Alcotest.check exact "chained after: iterated sum" expected
    (tick_times ~periodic:false ~period ~ticks);
  Alcotest.check exact "every: the same instants" expected
    (tick_times ~periodic:true ~period ~ticks)

let suite =
  suite
  @ [
      Alcotest.test_case "every: chained-after instants" `Quick
        test_every_instants;
    ]

(* At an instant a periodic tick shares with other events, it runs
   where a chained [after] would: after the events scheduled before its
   re-arm (including those its own previous tick scheduled) and before
   those scheduled after. *)
let shared_instant_log ~periodic =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let record name () = log := (name, Sim.Engine.now engine) :: !log in
  Sim.Engine.schedule engine ~delay:30.0 (record "before");
  repeat engine ~periodic ~period:10.0 ~ticks:3 (fun () ->
      record "tick" ();
      (* Lands on the next tick's instant, scheduled ahead of its re-arm. *)
      Sim.Engine.schedule engine ~delay:10.0 (record "inner"));
  Sim.Engine.schedule engine ~delay:30.0 (record "after");
  Sim.Engine.run ~until:1_000.0 engine;
  List.rev !log

let test_every_shared_instant_order () =
  let expected =
    [
      ("tick", 10.0);
      ("inner", 20.0);
      ("tick", 20.0);
      ("before", 30.0);
      ("after", 30.0);
      ("inner", 30.0);
      ("tick", 30.0);
      ("inner", 40.0);
    ]
  in
  let log = Alcotest.(list (pair string (float 0.0))) in
  Alcotest.check log "chained after" expected (shared_instant_log ~periodic:false);
  Alcotest.check log "every: the same order" expected
    (shared_instant_log ~periodic:true)

let suite =
  suite
  @ [
      Alcotest.test_case "every: chained-after order at a shared instant"
        `Quick test_every_shared_instant_order;
    ]

(* Canceled from outside, a periodic timer is tombstoned like a one-shot
   one: the pending tick neither runs nor counts, but the clock still
   reaches its instant when the heap drains. *)
let test_every_cancel_outside () =
  let engine = Sim.Engine.create () in
  let ticks = ref 0 in
  let tm = Sim.Timer.every engine ~period:10.0 (fun () -> incr ticks) in
  Sim.Engine.schedule engine ~delay:25.0 (fun () -> Sim.Timer.cancel tm);
  Sim.Engine.run ~until:1_000.0 engine;
  Alcotest.(check int) "ticks before the cancel" 2 !ticks;
  Alcotest.(check bool) "inactive" false (Sim.Timer.active tm);
  Alcotest.(check int) "two ticks and the cancel" 3
    (Sim.Engine.events_executed engine);
  Alcotest.(check (float 0.0)) "clock on the tombstone" 30.0
    (Sim.Engine.now engine)

let suite =
  suite
  @ [
      Alcotest.test_case "every: a cancel from outside tombstones it" `Quick
        test_every_cancel_outside;
    ]

(* Canceled from inside its own callback, a periodic timer is not
   pushed again: no tick and no tombstone follow. *)
let test_every_cancel_inside () =
  let engine = Sim.Engine.create () in
  let ticks = ref 0 in
  let tm = ref None in
  tm :=
    Some
      (Sim.Timer.every engine ~period:10.0 (fun () ->
           incr ticks;
           Alcotest.(check bool) "active while ticking" true
             (Option.fold ~none:false ~some:Sim.Timer.active !tm);
           if !ticks = 3 then Option.iter Sim.Timer.cancel !tm));
  Sim.Engine.run ~until:1_000.0 engine;
  Alcotest.(check int) "three ticks" 3 !ticks;
  Alcotest.(check int) "three events" 3 (Sim.Engine.events_executed engine);
  Alcotest.(check (float 0.0)) "clock on the last tick, no tombstone" 30.0
    (Sim.Engine.now engine)

let suite =
  suite
  @ [
      Alcotest.test_case "every: a cancel from inside stops it" `Quick
        test_every_cancel_inside;
    ]

(* [has_waiter] asks what [waiters > 0] asks, without rebuilding the
   queue: a waiter whose node crashed does not count. *)
let test_has_waiter_after_crash () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let mbox : int Sim.Mailbox.t = Sim.Mailbox.create () in
  Alcotest.(check bool) "empty" false (Sim.Mailbox.has_waiter mbox);
  Sim.Proc.boot engine node (fun () -> ignore (Sim.Mailbox.recv mbox));
  Sim.Engine.run engine;
  Alcotest.(check bool) "blocked receiver" true (Sim.Mailbox.has_waiter mbox);
  Sim.Node.crash node;
  Alcotest.(check bool) "receiver's node crashed" false
    (Sim.Mailbox.has_waiter mbox);
  Alcotest.(check int) "waiters agrees" 0 (Sim.Mailbox.waiters mbox)

let suite =
  suite
  @ [
      Alcotest.test_case "mailbox has_waiter false after the waiter's crash"
        `Quick test_has_waiter_after_crash;
    ]

(* ---- The profiler ----------------------------------------------------- *)

(* Every executed event lands in exactly one bucket: named ones where
   they named themselves, the rest in the default buckets, a cancelled
   timer in its own with no event. The buckets' sums match the
   profiler's own totals, measured around [run], up to the few words a
   new bucket's table entry takes. *)
let test_profile_buckets_sum () =
  let engine = Sim.Engine.create () in
  Alcotest.(check bool) "off by default" false (Sim.Engine.profiling engine);
  Sim.Engine.attribute engine Deliver "ignored while off";
  Sim.Engine.set_profiling engine true;
  let kept = ref [] in
  for i = 1 to 1000 do
    Sim.Engine.schedule engine ~delay:(float_of_int i) (fun () ->
        Sim.Engine.attribute engine Deliver "alloc";
        kept := Array.make 10 i :: !kept)
  done;
  Sim.Engine.schedule engine ~delay:1.0 ignore;
  ignore (Sim.Timer.after engine ~delay:2.0 ignore);
  Sim.Timer.cancel (Sim.Timer.after engine ~delay:3.0 ignore);
  Sim.Engine.run engine;
  let buckets = Sim.Engine.profile engine in
  let find kind name =
    match
      List.find_opt
        (fun (b : Sim.Engine.bucket_report) -> b.kind = kind && b.name = name)
        buckets
    with
    | Some b -> b
    | None -> Alcotest.failf "no bucket %s" name
  in
  let alloc = find Deliver "alloc" in
  Alcotest.(check int) "named events" 1000 alloc.events;
  Alcotest.(check bool) "each allocated its array and cons" true
    (alloc.minor_words >= 1000.0 *. 14.0);
  Alcotest.(check int) "unnamed event" 1 (find Other "other").events;
  Alcotest.(check int) "unnamed timer" 1 (find Tick "other").events;
  Alcotest.(check int) "cancelled timer: no event" 0 (find Tick "(cancelled)").events;
  let events = List.fold_left (fun n (b : Sim.Engine.bucket_report) -> n + b.events) 0 buckets in
  let words =
    List.fold_left (fun w (b : Sim.Engine.bucket_report) -> w +. b.minor_words) 0.0 buckets
  in
  let inside_events, inside_words = Sim.Engine.profile_totals engine in
  Alcotest.(check int) "events add up" (Sim.Engine.events_executed engine) events;
  Alcotest.(check int) "the run's own count agrees" inside_events events;
  Alcotest.(check bool) "words add up to the run's within 1%" true
    (Float.abs (words -. inside_words) <= 0.01 *. inside_words);
  Alcotest.(check int) "kept alive" 1000 (List.length !kept)

let suite =
  suite
  @ [ Alcotest.test_case "profile buckets add up" `Quick test_profile_buckets_sum ]

(* ---- Waker rules ------------------------------------------------------ *)

(* Waking a fiber moves its wake count, so a waker from an earlier
   suspend is inert: it returns false and the fiber does not resume a
   second time. *)
let test_stale_waker_inert () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let waiting = Queue.create () and resumed = ref 0 in
  Sim.Proc.boot engine node (fun () ->
      for _ = 1 to 2 do
        Sim.Proc.wait waiting;
        incr resumed
      done);
  Sim.Engine.run engine;
  let first = Queue.pop waiting in
  Alcotest.(check bool) "first waker wakes" true (Sim.Proc.Waker.wake first ());
  Alcotest.(check bool) "and only once" false (Sim.Proc.Waker.wake first ());
  Sim.Engine.run engine;
  Alcotest.(check int) "resumed once" 1 !resumed;
  let second = Queue.pop waiting in
  Alcotest.(check bool) "second suspend's waker is fresh" true
    (Sim.Proc.Waker.is_viable second);
  Alcotest.(check bool) "the first stays inert" false (Sim.Proc.Waker.wake first ());
  Alcotest.(check bool) "nor can it raise" false
    (Sim.Proc.Waker.wake_exn first Sim.Proc.Timeout);
  Sim.Engine.run engine;
  Alcotest.(check int) "still once" 1 !resumed;
  ignore (Sim.Proc.Waker.wake second ());
  Sim.Engine.run engine;
  Alcotest.(check int) "the fresh waker resumes it" 2 !resumed

(* A timed wait satisfied before its deadline leaves its guard as a
   tombstone: no timeout event runs, and the clock still reaches the
   guard's instant when the heap drains. *)
let test_satisfied_timed_wait_tombstone () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let cv = Sim.Condvar.create () in
  let outcome = ref "" in
  Sim.Engine.set_profiling engine true;
  Sim.Proc.boot engine node (fun () ->
      match Sim.Condvar.wait ~timeout:50.0 cv with
      | () -> outcome := "signalled"
      | exception Sim.Proc.Timeout -> outcome := "timeout");
  Sim.Engine.schedule engine ~delay:1.0 (fun () -> Sim.Condvar.broadcast cv);
  Sim.Engine.run engine;
  Alcotest.(check string) "the broadcast wins" "signalled" !outcome;
  let bucket kind name =
    List.find_opt
      (fun (b : Sim.Engine.bucket_report) -> b.kind = kind && b.name = name)
      (Sim.Engine.profile engine)
  in
  Alcotest.(check bool) "no timeout event" true (bucket Tick "timeout" = None);
  (match bucket Tick "(cancelled)" with
  | Some b -> Alcotest.(check int) "a tombstone, no event" 0 b.events
  | None -> Alcotest.fail "no tombstone popped");
  (* Boot, broadcast, resume. *)
  Alcotest.(check int) "three events" 3 (Sim.Engine.events_executed engine);
  check_float "clock at the guard's instant" 50.0 (Sim.Engine.now engine)

(* A node that crashes after its fiber's wake but before the resume
   event runs never resumes that fiber; its next incarnation boots and
   waits as usual. *)
let test_crash_between_wake_and_resume () =
  let engine = Sim.Engine.create () in
  let node = Sim.Node.create ~id:1 ~name:"n1" in
  let waiting = Queue.create () and resumed = ref false in
  Sim.Proc.boot engine node (fun () ->
      Sim.Proc.wait waiting;
      resumed := true);
  Sim.Engine.run engine;
  let w = Queue.pop waiting in
  let woke = ref false and next = ref [] in
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      woke := Sim.Proc.Waker.wake w ();
      Sim.Node.crash node;
      Sim.Node.restart node;
      Sim.Proc.boot engine node (fun () ->
          let mbox = Sim.Mailbox.create () in
          Sim.Engine.schedule (Sim.Proc.engine ()) ~delay:2.0 (fun () ->
              Sim.Mailbox.send mbox "m");
          next := [ Sim.Mailbox.recv mbox ];
          Sim.Proc.sleep 1.0;
          next := string_of_float (Sim.Proc.now ()) :: !next));
  Sim.Engine.run engine;
  Alcotest.(check bool) "the wake was accepted" true !woke;
  Alcotest.(check bool) "the old fiber never resumed" false !resumed;
  Alcotest.(check bool) "its waker is dead" false (Sim.Proc.Waker.is_viable w);
  Alcotest.(check (list string)) "the next incarnation runs" [ "4."; "m" ] !next

(* A fiber's parker is built once and reads each wait's queue and
   timeout from the fiber: one fiber waits in turn on an [int] mailbox
   (a timed wait a send beats), a [string] ivar (untimed, past the
   first wait's deadline), a resource, a condition variable and a raw
   queue whose timeouts fire, and a last raw queue. Each wait returns
   the value it was woken with or raises [Timeout], at its instant; the
   wakers the timeouts leave behind are inert. A second fiber parked in
   a timed wait when its node crashes is resumed neither by a send nor
   by its guard. *)
let test_parker_reads_each_wait () =
  let engine = Sim.Engine.create () in
  let n1 = Sim.Node.create ~id:1 ~name:"n1" and n2 = Sim.Node.create ~id:2 ~name:"n2" in
  let mbox = Sim.Mailbox.create () and ivar = Sim.Ivar.create () in
  let res = Sim.Resource.create ~capacity:1 () and cv = Sim.Condvar.create () in
  let raw = Queue.create () and last = Queue.create () in
  let log = ref [] in
  let note s = log := Printf.sprintf "%g %s" (Sim.Proc.now ()) s :: !log in
  let timed f = match f () with () -> "woken" | exception Sim.Proc.Timeout -> "timeout" in
  Sim.Proc.boot engine n1 (fun () ->
      note (Printf.sprintf "mailbox %d" (Sim.Mailbox.recv ~timeout:5.0 mbox));
      note ("ivar " ^ Sim.Ivar.read ivar);
      Sim.Resource.with_held res (fun () -> note "resource");
      note ("condvar " ^ timed (fun () -> Sim.Condvar.wait ~timeout:3.0 cv));
      note ("raw " ^ timed (fun () -> ignore (Sim.Proc.wait ~timeout:2.0 raw : int)));
      note ("last " ^ Sim.Proc.wait last));
  Sim.Proc.boot engine n1 (fun () -> Sim.Resource.use res 30.0);
  let crashed = ref false and late = Sim.Mailbox.create () in
  Sim.Proc.boot engine n2 (fun () ->
      ignore (Sim.Mailbox.recv ~timeout:15.0 late : string);
      crashed := true);
  let at delay f = Sim.Engine.schedule engine ~delay f in
  at 1.0 (fun () -> Sim.Mailbox.send mbox 7);
  at 10.0 (fun () -> Sim.Node.crash n2);
  at 12.0 (fun () -> Sim.Mailbox.send late "m");
  at 20.0 (fun () -> Sim.Ivar.fill ivar "s");
  let stale = ref [] in
  at 40.0 (fun () ->
      Sim.Condvar.broadcast cv;
      stale := [ Sim.Proc.Waker.wake (Queue.pop raw) 9 ]);
  at 50.0 (fun () -> ignore (Sim.Proc.Waker.wake (Queue.pop last) "end"));
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "each wait ends as it was woken"
    [
      "1 mailbox 7";
      "20 ivar s";
      "30 resource";
      "33 condvar timeout";
      "35 raw timeout";
      "50 last end";
    ]
    (List.rev !log);
  Alcotest.(check (list bool)) "a timed-out waker is inert" [ false ] !stale;
  Alcotest.(check bool) "the crashed fiber never resumed" false !crashed;
  Alcotest.(check int) "its mailbox kept the message" 1 (Sim.Mailbox.length late)

let test_now_outside_fiber_raises () =
  let raised =
    match Sim.Proc.now () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "Proc.now outside a fiber raises" true raised;
  (* Also after a fiber ran and finished on this domain. *)
  let engine = Sim.Engine.create () in
  Sim.Proc.boot engine (Sim.Node.create ~id:1 ~name:"n1") (fun () ->
      ignore (Sim.Proc.now ()));
  Sim.Engine.run engine;
  Alcotest.(check bool) "and after a run" true
    (match Sim.Proc.engine () with _ -> false | exception Invalid_argument _ -> true)

(* Two engines on two domains, their fibers interleaving in wall-clock
   time: each fiber must always see its own node and its own engine's
   clock. *)
let test_pool_current_fiber_per_domain () =
  let simulate id =
    let engine = Sim.Engine.create ~seed:(Int64.of_int id) () in
    let bad = ref 0 and steps = ref 0 in
    for f = 1 to 4 do
      let node = Sim.Node.create ~id:((10 * id) + f) ~name:"n" in
      Sim.Proc.boot engine node (fun () ->
          for i = 1 to 2_000 do
            Sim.Proc.sleep (float_of_int ((i mod 3) + f));
            incr steps;
            if Sim.Proc.node () != node
               || Sim.Proc.engine () != engine
               || Sim.Proc.now () <> Sim.Engine.now engine
            then incr bad
          done)
    done;
    Sim.Engine.run engine;
    (!steps, !bad)
  in
  let results = Sim.Pool.with_pool ~jobs:2 (fun pool -> Sim.Pool.map pool simulate [ 1; 2 ]) in
  List.iter
    (fun (steps, bad) ->
      Alcotest.(check int) "every step ran" 8_000 steps;
      Alcotest.(check int) "each fiber saw itself" 0 bad)
    results

let suite =
  suite
  @ [
      Alcotest.test_case "waker: a stale waker is inert" `Quick test_stale_waker_inert;
      Alcotest.test_case "waker: a satisfied timed wait leaves a tombstone" `Quick
        test_satisfied_timed_wait_tombstone;
      Alcotest.test_case "waker: crash between wake and resume" `Quick
        test_crash_between_wake_and_resume;
      Alcotest.test_case "waker: one parker reads each wait" `Quick
        test_parker_reads_each_wait;
      Alcotest.test_case "proc: now outside a fiber raises" `Quick
        test_now_outside_fiber_raises;
      Alcotest.test_case "proc: one current fiber per pool domain" `Quick
        test_pool_current_fiber_per_domain;
    ]
