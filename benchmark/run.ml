(* The benchmark command.

     run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--trace-out FILE] [--out FILE] [--quick]
     run.exe compare A.jsonl B.jsonl [--bench BENCHMARK.json]

   Without --workload every workload runs in turn. For each, the
   command prints a report with every metric by name and unit, then one
   JSON line {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics, or with --trace 1 the per-layer ones. It exits 1
   when any correctness check failed. See README.md. *)

open Dirbench

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n\
    \               [--out FILE] [--quick]\n\
    \       run.exe compare A.jsonl B.jsonl [--bench BENCHMARK.json]";
  exit 2

type opts = {
  mutable workloads : Spec.t list;
  mutable seed : int64;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable out : string option;
  mutable quick : bool;
}

let parse args =
  let o =
    {
      workloads = Spec.all;
      seed = 1L;
      seconds = 10.0;
      trace = false;
      trace_out = None;
      out = None;
      quick = false;
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: name :: rest -> (
        match Spec.find name with
        | Some w ->
            o.workloads <- [ w ];
            go rest
        | None ->
            Printf.eprintf "unknown workload %S (have: %s)\n" name
              (String.concat ", " (List.map (fun (w : Spec.t) -> w.name) Spec.all));
            exit 2)
    | "--seed" :: n :: rest ->
        o.seed <- Int64.of_string n;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- float_of_string s;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace-out" :: f :: rest ->
        o.trace_out <- Some f;
        go rest
    | "--out" :: f :: rest ->
        o.out <- Some f;
        go rest
    | "--quick" :: rest ->
        o.quick <- true;
        go rest
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  if o.trace_out <> None && not o.trace then begin
    prerr_endline "--trace-out needs --trace 1";
    exit 2
  end;
  o

(* --quick: a smoke run — one round at the nominal rate, on a tenth of
   the window (the fault workload keeps the window its crash needs). *)
let quick (w : Spec.t) =
  { w with window_s = (if w.faults then w.window_s else w.window_s /. 10.0); ladder = [] }

let json_metrics rows =
  Sim.Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Sim.Json.Obj [ ("value", Sim.Json.Float v); ("unit", Sim.Json.String unit) ]))
       rows)

let print_rows title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-30s %14.6g %s\n" name v unit) rows

let report (b : Bench.t) ~trace =
  let w = b.spec in
  Printf.printf "== %s (seed %Ld): %d rounds at %g sessions/s, %g s windows%s ==\n" w.name b.seed
    (List.length b.nominal) w.nominal w.window_s
    (if trace then ", traced" else "");
  List.iter
    (fun { Bench.verdict = v; held; rounds } ->
      Printf.printf "  ladder %6g/s  slo p99 %10.1f ms  failed %.4f  held in %d of %d rounds  %s\n"
        v.rate v.slo_p99_ms v.failed_frac held rounds
        (if v.pass then "pass" else "FAIL: " ^ v.why_not))
    b.ladder;
  List.iter
    (fun (label, f) ->
      match Bench.pct_of b f 50.0, Bench.pct_of b f 99.0 with
      | Some p50, Some p99 ->
          Printf.printf "  %-8s p50 %.2f ms, p%.2f %.2f ms (n = %d)\n" label p50.Pct.value p99.pct
            p99.value p99.n
      | _ -> Printf.printf "  %-8s too few samples\n" label)
    [
      ("all", Bench.all_lat);
      ("reads", fun (r : Round.result) -> r.read_lat);
      ("updates", fun (r : Round.result) -> r.update_lat);
    ];
  if trace then begin
    print_rows "per-layer:" (b.layers @ b.lookup_rows);
    Printf.printf "  trace overhead (traced wall / untraced wall): %.3f\n" b.trace_overhead
  end
  else print_rows "end-to-end:" (Bench.end_to_end b);
  print_rows "also:" (Bench.extras b);
  Printf.printf "  failures by cause (attempts / requests):";
  List.iter
    (fun (c, att, req) -> if att + req > 0 then Printf.printf " %s %d/%d" c att req)
    (Bench.failures_by_cause b);
  print_newline ();
  List.iter
    (fun (f : Round.fault) ->
      Printf.printf "  fault: server %d crashed at %.0f s, rejoined after %.1f ms, write outage %.1f ms\n"
        f.server (f.crash_at /. 1000.0) f.rejoin_ms f.outage_ms)
    (Bench.faults b);
  List.iter (Printf.printf "  VIOLATION %s\n") b.violations

let metric_rows (b : Bench.t) ~trace =
  if trace then b.layers @ [ ("bench.trace_overhead", "x", b.trace_overhead) ] else Bench.end_to_end b

let result_json (b : Bench.t) ~trace =
  [
    ("correct", Sim.Json.Bool (b.violations = []));
    ("attempted", Sim.Json.Int (Bench.attempted b));
    ("failed", Sim.Json.Int (Bench.failed b));
    ("metrics", json_metrics (metric_rows b ~trace));
  ]

(* The trace file: the set-up phases and faults of every traced round,
   the bench spans of the first, then the per-layer table. *)
let trace_lines (b : Bench.t) =
  let open Sim.Json in
  let tag (r : Round.result) fields =
    Obj ((("workload", String r.workload) :: ("seed", String (Int64.to_string r.seed)) :: fields))
  in
  let of_round (r : Round.result) =
    List.map
      (fun (phase, wall) -> tag r [ ("span", String ("setup." ^ phase)); ("wall_s", Float wall) ])
      r.setup_phases
    @ List.map
        (fun (f : Round.fault) ->
          tag r
            [
              ("span", String "fault");
              ("server", Int f.server);
              ("crash_ms", Float f.crash_at);
              ("rejoin_ms", Float f.rejoin_ms);
              ("outage_ms", Float f.outage_ms);
            ])
        r.faults
    @ List.map
        (function Obj fields -> tag r fields | j -> j)
        r.spans
  in
  List.concat_map of_round b.traced
  @ List.map
      (fun (name, unit, v) ->
        Obj
          [
            ("workload", String b.spec.name);
            ("layer_metric", String name);
            ("value", Float v);
            ("unit", String unit);
          ])
      (metric_rows b ~trace:true @ b.lookup_rows)

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun j ->
          output_string oc (Sim.Json.to_string j);
          output_char oc '\n')
        lines)

let append_record path (b : Bench.t) ~trace =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path (fun oc ->
      output_string oc
        (Sim.Json.to_string
           (Sim.Json.Obj
              (("workload", Sim.Json.String b.spec.name)
              :: ("seed", Sim.Json.String (Int64.to_string b.seed))
              :: ("trace", Sim.Json.Int (if trace then 1 else 0))
              :: result_json b ~trace)));
      output_char oc '\n')

let bench o =
  let log msg = prerr_endline msg in
  let results =
    List.map
      (fun w ->
        let w = if o.quick then quick w else w in
        let rounds = if o.quick then Some 1 else None in
        let b = Bench.run ~trace:o.trace ?rounds ~log w ~seed:o.seed ~seconds:o.seconds in
        report b ~trace:o.trace;
        Option.iter (fun path -> append_record path b ~trace:o.trace) o.out;
        print_endline (Sim.Json.to_string (Sim.Json.Obj (result_json b ~trace:o.trace)));
        b)
      o.workloads
  in
  Option.iter (fun path -> write_lines path (List.concat_map trace_lines results)) o.trace_out;
  if List.exists (fun (b : Bench.t) -> b.violations <> []) results then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: a :: b :: rest ->
      let bench =
        match rest with [] -> "BENCHMARK.json" | [ "--bench"; f ] -> f | _ -> usage ()
      in
      let verdicts = Compare.run ~bench a b in
      if List.exists (fun v -> v = Compare.Worse || v = Compare.Unresolved) verdicts then exit 1
  | args -> bench (parse args)
