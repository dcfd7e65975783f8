(* Fast checks of the benchmark's own machinery: the offered load, the
   open-loop timing, the percentile rule and the compare verdicts. *)

open Dirbench

(* A deployment small enough to set up in a few milliseconds. *)
let tiny ?(batch_max = 1) () =
  {
    Spec.read_mostly with
    name = "tiny";
    batch_max;
    dirs = 4;
    rows = 1;
    read_frac = 0.5;
    window_s = 20.0;
    ladder = [];
    nominal = 10.0;
  }

let close a b = Float.abs (a -. b) < 1e-6

let dues (a : Load.arrival array) = Array.map (fun (x : Load.arrival) -> x.due) a

let test_arrivals_deterministic () =
  let w = tiny () in
  let a = Load.arrivals w ~rate:10.0 ~seed:5L and b = Load.arrivals w ~rate:10.0 ~seed:5L in
  Alcotest.(check bool) "same seed, same schedule" true (a = b);
  Alcotest.(check bool) "other seed, other schedule" false (a = Load.arrivals w ~rate:10.0 ~seed:6L);
  let n = float_of_int (Array.length a) in
  Alcotest.(check bool) "about rate * window arrivals" true (n > 120.0 && n < 280.0)

(* The program consumes its random streams differently with group
   commit on, yet the sessions start exactly when the bench's own
   schedule says. *)
let test_arrivals_independent_of_program () =
  let run batch_max = Round.run (tiny ~batch_max ()) ~rate:10.0 ~seed:9L in
  let eager = run 1 and batched = run 8 in
  let load_seed = List.nth (Sim.Rng.derive ~base:9L 2) 1 in
  let schedule = dues (Load.arrivals (tiny ()) ~rate:10.0 ~seed:load_seed) in
  Alcotest.(check bool) "differently simulated" false (eager.events = batched.events);
  List.iter
    (fun (r : Round.result) ->
      Alcotest.(check int) "every arrival started" (Array.length schedule) (Array.length r.started);
      Alcotest.(check bool) "at its due time" true (Array.for_all2 close schedule r.started))
    [ eager; batched ]

(* Cut the network for 2 s: the generator keeps issuing on schedule, and
   each request due inside the stall is charged the wait from its due
   time until the network came back. *)
let test_stall_inflates_later_arrivals () =
  let from_ms = 5_000.0 and until_ms = 7_000.0 in
  let at_start cluster =
    let engine = Dirsvc.Cluster.engine cluster and net = Dirsvc.Cluster.net cluster in
    Sim.Engine.schedule engine ~delay:from_ms (fun () -> Simnet.Network.set_loss net 1.0);
    Sim.Engine.schedule engine ~delay:until_ms (fun () -> Simnet.Network.set_loss net 0.0)
  in
  let r = Round.run ~at_start (tiny ()) ~rate:10.0 ~seed:3L in
  let stalled = List.filter (fun (due, _) -> due >= from_ms && due < until_ms) (Array.to_list r.by_due) in
  Alcotest.(check bool) "requests were due during the stall" true (List.length stalled >= 5);
  List.iter
    (fun (due, lat) ->
      if lat < until_ms -. due then
        Alcotest.failf "request due at %.1f ms finished %.1f ms later, before the stall ended" due lat)
    stalled;
  Alcotest.(check int) "no failures" 0 r.failed;
  Alcotest.(check (list string)) "checks pass" [] r.violations

let test_tracing_changes_nothing () =
  let w = tiny () in
  let c = Layers.collector ~admin_slots:256 in
  let plain = Round.run w ~rate:10.0 ~seed:4L and traced = Round.run ~trace:(Layers.sink c) w ~rate:10.0 ~seed:4L in
  Alcotest.(check bool) "same simulated outcome" true (Bench.same_simulation plain traced);
  Alcotest.(check bool) "group sends were seen" true (c.sends > 0)

let test_percentile_rule () =
  let a n = Array.init n (fun i -> float_of_int (n - i)) in
  let get n q = Pct.get (a n) q in
  (match get 1000 99.0 with
  | Some p ->
      Alcotest.(check (float 1e-9)) "p99 of 1..1000" 990.0 p.value;
      Alcotest.(check (float 1e-9)) "reported as p99" 99.0 p.pct
  | None -> Alcotest.fail "p99 of 1000 samples");
  (match get 500 99.0 with
  | Some p ->
      Alcotest.(check (float 1e-9)) "capped: 10 samples stay beyond" 490.0 p.value;
      Alcotest.(check (float 1e-9)) "reported as p98" 98.0 p.pct
  | None -> Alcotest.fail "p99 of 500 samples");
  Alcotest.(check bool) "10 samples support nothing" true (get 10 50.0 = None);
  (match get 11 99.0 with
  | Some p -> Alcotest.(check (float 1e-9)) "11 samples: the lowest" 1.0 p.value
  | None -> Alcotest.fail "11 samples");
  let q1, q3 = Pct.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "q1 as Python's statistics.quantiles" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3 as Python's statistics.quantiles" 8.25 q3

let test_compare_verdicts () =
  let m = { Compare.name = "p99_ms"; lower_better = true; bound = Some 0.1 } in
  let verdict a b =
    let _, _, _, v = Compare.judge m (Array.of_list a) (Array.of_list b) in
    Compare.verdict_to_string v
  in
  let steady = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  Alcotest.(check string) "same" "same" (verdict steady [ 102.0; 103.0; 101.0; 102.5; 101.5 ]);
  Alcotest.(check string) "worse" "worse" (verdict steady [ 120.0; 121.0; 119.0; 120.5; 119.5 ]);
  Alcotest.(check string) "better" "better" (verdict steady [ 80.0; 81.0; 79.0; 80.5; 79.5 ]);
  Alcotest.(check string) "too noisy" "unresolved" (verdict steady [ 60.0; 140.0; 100.0; 70.0; 130.0 ]);
  Alcotest.(check string) "noisy but every run worse" "worse"
    (verdict steady [ 150.0; 200.0; 170.0; 240.0; 300.0 ]);
  let higher = { m with lower_better = false } in
  let _, _, _, v = Compare.judge higher [| 10.0; 10.0 |] [| 12.0; 12.0 |] in
  Alcotest.(check string) "higher is better" "better" (Compare.verdict_to_string v)

let () =
  Alcotest.run "benchmark"
    [
      ( "load",
        [
          Alcotest.test_case "arrivals are deterministic per seed" `Quick test_arrivals_deterministic;
          Alcotest.test_case "arrivals ignore the program's randomness" `Quick
            test_arrivals_independent_of_program;
          Alcotest.test_case "a stall inflates later due arrivals" `Quick
            test_stall_inflates_later_arrivals;
          Alcotest.test_case "tracing leaves the simulation unchanged" `Quick
            test_tracing_changes_nothing;
        ] );
      ( "report",
        [
          Alcotest.test_case "percentile keeps 10 samples beyond" `Quick test_percentile_rule;
          Alcotest.test_case "compare verdicts" `Quick test_compare_verdicts;
        ] );
    ]
