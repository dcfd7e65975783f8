(* Tests for the measurement library: statistics, table rendering,
   analytic bounds, and smoke tests of the experiment harnesses. *)

let test_stats_summary () =
  let samples = [ 4.0; 8.0; 6.0; 2.0; 10.0 ] in
  let s = Workload.Stats.summarise samples in
  Alcotest.(check int) "n" 5 s.Workload.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 6.0 s.mean;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 10.0 s.max;
  Alcotest.(check (float 1e-9)) "median" 6.0 s.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 10.0) s.stddev

let test_stats_percentile () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 50.0
    (Workload.Stats.percentile 50.0 samples);
  Alcotest.(check (float 1e-9)) "p95" 95.0
    (Workload.Stats.percentile 95.0 samples);
  Alcotest.(check (float 1e-9)) "p100" 100.0
    (Workload.Stats.percentile 100.0 samples)

let test_stats_p99 () =
  let samples = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let s = Workload.Stats.summarise samples in
  Alcotest.(check (float 1e-9)) "p99 nearest-rank" 990.0 s.Workload.Stats.p99;
  Alcotest.(check (float 1e-9)) "percentile agrees" 990.0
    (Workload.Stats.percentile 99.0 samples);
  (* The sort must use Float.compare: with polymorphic compare a nan in
     the samples leaves the array effectively unsorted. Float.compare
     gives nan a defined place (before every other float), so the result
     stays deterministic: [nan; 1; ..; 99] and rank 50 lands on 49. *)
  let with_nan = nan :: List.init 99 (fun i -> float_of_int (i + 1)) in
  let p50 = Workload.Stats.percentile 50.0 with_nan in
  Alcotest.(check (float 1e-9)) "nan-tolerant sort" 49.0 p50

let test_stats_ci95 () =
  (* Hand-computed fixtures. [1;2;3;4;5]: sd = sqrt 2.5, t95(df=4) =
     2.776, so ci95 = 2.776 * sqrt 2.5 / sqrt 5 = 1.96292... *)
  let s = Workload.Stats.summarise [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-4)) "five samples" 1.9629 s.Workload.Stats.ci95;
  (* Two samples: sd = 7.0711, t95(df=1) = 12.706, ci95 = 12.706 * 5. *)
  Alcotest.(check (float 1e-2)) "two samples" 63.53
    (Workload.Stats.ci95 [ 10.0; 20.0 ]);
  (* Degenerate cases: no spread without at least two samples. *)
  Alcotest.(check (float 1e-9)) "single sample" 0.0
    (Workload.Stats.ci95 [ 42.0 ]);
  Alcotest.(check (float 1e-9)) "single-sample summary" 0.0
    (Workload.Stats.summarise [ 42.0 ]).Workload.Stats.ci95

let test_stats_t95_boundaries () =
  Alcotest.(check (float 1e-4)) "df=1" 12.706 (Workload.Stats.t95 ~df:1);
  Alcotest.(check (float 1e-4)) "df=30 (table edge)" 2.042
    (Workload.Stats.t95 ~df:30);
  Alcotest.(check (float 1e-4)) "df=31 falls back to normal" 1.96
    (Workload.Stats.t95 ~df:31);
  Alcotest.(check (float 1e-9)) "df=0 degenerate" 0.0
    (Workload.Stats.t95 ~df:0);
  (* Large n uses the 1.96 normal factor throughout. *)
  let samples = List.init 40 (fun i -> float_of_int i) in
  let n = float_of_int (List.length samples) in
  let expected = 1.96 *. Workload.Stats.stddev samples /. sqrt n in
  Alcotest.(check (float 1e-9)) "n=40 matches normal formula" expected
    (Workload.Stats.ci95 samples)

let test_stats_empty_raises () =
  Alcotest.check_raises "summarise []" (Invalid_argument "Stats.summarise: empty")
    (fun () -> ignore (Workload.Stats.summarise []))

let stats_mean_property =
  QCheck.Test.make ~name:"mean is within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.0))
    (fun samples ->
      let s = Workload.Stats.summarise samples in
      s.Workload.Stats.mean >= s.min -. 1e-9
      && s.Workload.Stats.mean <= s.max +. 1e-9
      && s.p50 >= s.min && s.p50 <= s.max)

let test_table_render () =
  let out =
    Workload.Tables.render
      ~header:[ "op"; "ms" ]
      [ [ "append"; "184" ]; [ "lookup"; "5" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "header present" true
    (List.exists (fun l -> l = "op      ms" || l = "op       ms") lines);
  Alcotest.(check bool) "rows present" true
    (List.exists
       (fun l ->
         String.length l >= 6 && String.sub l 0 6 = "lookup")
       lines)

let test_series_render () =
  let out =
    Workload.Tables.series ~title:"t" ~x_label:"clients" ~y_label:"ops"
      [ (1, 100.0); (2, 200.0) ]
  in
  Alcotest.(check bool) "bars scale" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    (* the 200.0 row's bar should be the longest (50 hashes) *)
    List.exists (fun l -> String.length l > 50 && String.contains l '#') lines)

let test_bounds () =
  Alcotest.(check (float 1e-6)) "3 servers at 3ms" 1000.0
    (Workload.Bounds.read_bound ~servers:3);
  Alcotest.(check (float 1e-6)) "2 servers" (2000.0 /. 3.0)
    (Workload.Bounds.read_bound ~servers:2);
  Alcotest.(check (float 1e-6)) "write bound from 184ms pairs" (1000.0 /. 184.0)
    (Workload.Bounds.write_bound ~pair_latency_ms:184.0)

let test_scenarios_fig7_smoke () =
  (* One small fig7 run: sane values and internal consistency. *)
  let cluster = Dirsvc.Cluster.create ~seed:71L Dirsvc.Cluster.Group_disk in
  let fig = Workload.Scenarios.run_fig7 ~repeats:4 cluster in
  let pair = fig.Workload.Scenarios.append_delete_ms.Workload.Stats.mean in
  let look = fig.Workload.Scenarios.lookup_ms.Workload.Stats.mean in
  Alcotest.(check bool) "pair latency in a plausible band" true
    (pair > 100.0 && pair < 300.0);
  Alcotest.(check bool) "lookup latency in a plausible band" true
    (look > 2.0 && look < 10.0);
  Alcotest.(check bool) "writes dwarf reads" true (pair > 10.0 *. look)

let test_throughput_scales_then_saturates () =
  let rate clients seed =
    let cluster = Dirsvc.Cluster.create ~seed Dirsvc.Cluster.Group_disk in
    (Workload.Throughput.lookups ~window:1_500.0 cluster ~clients)
      .Workload.Throughput.per_second
  in
  let r1 = rate 1 72L and r3 = rate 3 73L in
  Alcotest.(check bool) "3 clients beat 1" true (r3 > 1.5 *. r1);
  Alcotest.(check bool) "1 client near 1/latency" true (r1 > 150.0 && r1 < 260.0)

let test_mix_read_heavy () =
  let cluster = Dirsvc.Cluster.create ~seed:74L Dirsvc.Cluster.Group_nvram in
  let p = Workload.Mix.run ~window:1_500.0 cluster ~clients:3 in
  Alcotest.(check bool) "mostly reads" true
    (p.Workload.Mix.reads_per_second > 10.0 *. p.Workload.Mix.writes_per_second);
  Alcotest.(check bool) "some writes happened" true
    (p.Workload.Mix.writes_per_second > 0.0)

let suite =
  let tc = Alcotest.test_case in
  [
    tc "stats summary" `Quick test_stats_summary;
    tc "stats percentile" `Quick test_stats_percentile;
    tc "stats p99" `Quick test_stats_p99;
    tc "stats ci95 fixtures" `Quick test_stats_ci95;
    tc "stats t95 boundaries" `Quick test_stats_t95_boundaries;
    tc "stats empty raises" `Quick test_stats_empty_raises;
    QCheck_alcotest.to_alcotest stats_mean_property;
    tc "table render" `Quick test_table_render;
    tc "series render" `Quick test_series_render;
    tc "analytic bounds" `Quick test_bounds;
    tc "fig7 scenario smoke" `Quick test_scenarios_fig7_smoke;
    tc "throughput scales then saturates" `Quick
      test_throughput_scales_then_saturates;
    tc "mixed workload read-heavy" `Quick test_mix_read_heavy;
  ]
