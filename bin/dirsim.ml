(* dirsim: command-line driver for the fault-tolerant directory service
   simulation.

     dirsim fig7  [--seed N] [--repeats N] [--disk-ms MS]
     dirsim fig8  [--seed N] [--clients N] [--jobs N]
     dirsim fig9  [--seed N] [--clients N] [--jobs N]
     dirsim demo  [--flavor group|nvram|rpc|nfs]
     dirsim drill [--seed N]          # crash + recovery fault drill
     dirsim trace [--contains TEXT] [--until MS]   # annotated timeline

   All time is simulated; runs complete in well under a second of wall
   clock. *)

module C = Dirsvc.Cluster

let printf = Printf.printf

(* ---- shared options -------------------------------------------------- *)

let seed_arg =
  let doc = "Random seed (same seed, same run: the simulation is deterministic)." in
  Cmdliner.Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)

let flavor_arg =
  let flavor_conv =
    Cmdliner.Arg.enum
      [
        ("group", C.Group_disk);
        ("nvram", C.Group_nvram);
        ("rpc", C.Rpc_pair);
        ("nfs", C.Nfs_single);
      ]
  in
  let doc = "Service implementation: group, nvram, rpc or nfs." in
  Cmdliner.Arg.(
    value & opt flavor_conv C.Group_disk & info [ "flavor" ] ~docv:"FLAVOR" ~doc)

let disk_ms_arg =
  let doc = "Disk write latency in simulated milliseconds." in
  Cmdliner.Arg.(value & opt float 40.0 & info [ "disk-ms" ] ~docv:"MS" ~doc)

let repeats_arg =
  let doc = "Iterations per scenario." in
  Cmdliner.Arg.(value & opt int 12 & info [ "repeats" ] ~docv:"N" ~doc)

let clients_arg =
  let doc = "Maximum number of concurrent clients to sweep." in
  Cmdliner.Arg.(value & opt int 7 & info [ "clients" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Run sweep points on $(docv) domains. Output is byte-identical for \
     every value; 1 runs everything inline."
  in
  Cmdliner.Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc =
    "Write every trace event as JSONL to $(docv) ($(b,-) for stdout). Same \
     seed, byte-identical file."
  in
  Cmdliner.Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Print the metrics registry (counters, latency histograms) at exit." in
  Cmdliner.Arg.(value & flag & info [ "metrics" ] ~doc)

let params_with ~disk_ms =
  {
    Dirsvc.Params.default with
    disk_write_ms = disk_ms;
  }

(* ---- observability plumbing ------------------------------------------- *)

let open_trace_out = function
  | None -> None
  | Some "-" -> Some (stdout, false)
  | Some path -> (
      try Some (open_out path, true)
      with Sys_error msg ->
        Printf.eprintf "dirsim: cannot open trace output: %s\n" msg;
        exit 2)

let close_trace_out = function
  | None -> ()
  | Some (oc, close) -> if close then close_out oc else flush oc

(* Stream events as they happen instead of dumping the ring at the end:
   the file then holds the whole run even past the ring's capacity. *)
let install_trace ?also engine oc =
  let trace = Sim.Trace.create () in
  Sim.Trace.set_sink trace
    (Some
       (fun e ->
         output_string oc (Sim.Trace.event_to_jsonl e);
         output_char oc '\n';
         match also with None -> () | Some f -> f e));
  Sim.Engine.set_trace engine (Some trace)

let print_metrics m =
  printf "\n-- counters --\n";
  List.iter
    (fun (k, v) -> printf "  %-44s %d\n" k v)
    (Sim.Metrics.counters m);
  match Sim.Metrics.histograms m with
  | [] -> ()
  | hists ->
      printf "-- latency histograms (ms) --\n";
      List.iter
        (fun (k, h) ->
          let q = Sim.Metrics.Histogram.quantile h in
          printf "  %-44s n=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f\n"
            k
            (Sim.Metrics.Histogram.count h)
            (Sim.Metrics.Histogram.mean h)
            (q 0.5) (q 0.9) (q 0.99)
            (Sim.Metrics.Histogram.max_value h))
        hists

let attach_observability cluster out =
  match out with
  | None -> ()
  | Some (oc, _) -> install_trace (C.engine cluster) oc

let finish_observability cluster out show_metrics =
  close_trace_out out;
  if show_metrics then print_metrics (C.metrics cluster)

(* ---- fig7 ------------------------------------------------------------ *)

let run_fig7 seed repeats disk_ms trace_out show_metrics =
  let params = params_with ~disk_ms in
  printf "Fig. 7 single-client latencies (seed %d, disk %.0f ms):\n\n" seed disk_ms;
  let out = open_trace_out trace_out in
  let rows =
    List.map
      (fun (flavor, name) ->
        let cluster = C.create ~seed:(Int64.of_int seed) ~params flavor in
        attach_observability cluster out;
        let fig = Workload.Scenarios.run_fig7 ~repeats cluster in
        if show_metrics then begin
          printf "== %s ==" name;
          print_metrics (C.metrics cluster)
        end;
        [
          name;
          Printf.sprintf "%.0f" fig.Workload.Scenarios.append_delete_ms.Workload.Stats.mean;
          Printf.sprintf "%.0f" fig.Workload.Scenarios.tmp_file_ms.Workload.Stats.mean;
          Printf.sprintf "%.1f" fig.Workload.Scenarios.lookup_ms.Workload.Stats.mean;
        ])
      [
        (C.Group_disk, "group(3)");
        (C.Rpc_pair, "rpc(2)");
        (C.Nfs_single, "nfs(1)");
        (C.Group_nvram, "group+nvram(3)");
      ]
  in
  close_trace_out out;
  print_string
    (Workload.Tables.render
       ~header:[ "service"; "append-delete ms"; "tmp file ms"; "lookup ms" ]
       rows)

(* ---- fig8 / fig9 ------------------------------------------------------ *)

let sweep ~pool title seed max_clients measure flavor =
  let points =
    Workload.Throughput.sweep ~pool
      (fun () -> C.create ~seed:(Int64.of_int seed) flavor)
      measure
      (List.init max_clients (fun i -> i + 1))
  in
  print_string
    (Workload.Tables.series ~title ~x_label:"clients" ~y_label:"ops/s"
       (List.map
          (fun p ->
            (p.Workload.Throughput.clients, p.Workload.Throughput.per_second))
          points))

let run_fig8 seed clients jobs =
  printf "Fig. 8 lookup throughput (seed %d):\n\n" seed;
  Sim.Pool.with_pool ~jobs (fun pool ->
      sweep ~pool "group service (lookups/s)" seed clients
        (fun cluster ~clients -> Workload.Throughput.lookups cluster ~clients)
        C.Group_disk;
      sweep ~pool "rpc service (lookups/s)" (seed + 1) clients
        (fun cluster ~clients -> Workload.Throughput.lookups cluster ~clients)
        C.Rpc_pair)

let run_fig9 seed clients jobs =
  printf "Fig. 9 append-delete throughput (seed %d):\n\n" seed;
  Sim.Pool.with_pool ~jobs (fun pool ->
      sweep ~pool "group service (pairs/s)" seed clients
        (fun cluster ~clients ->
          Workload.Throughput.append_deletes cluster ~clients)
        C.Group_disk;
      sweep ~pool "group+nvram (pairs/s)" (seed + 1) clients
        (fun cluster ~clients ->
          Workload.Throughput.append_deletes cluster ~clients)
        C.Group_nvram)

(* ---- demo ------------------------------------------------------------ *)

let run_demo seed flavor trace_out show_metrics =
  let cluster = C.create ~seed:(Int64.of_int seed) flavor in
  let out = open_trace_out trace_out in
  attach_observability cluster out;
  ignore (C.await_ready cluster);
  printf "deployment up (%d server(s)); performing a CRUD cycle...\n"
    (C.n_servers cluster);
  let client = C.client cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  Sim.Proc.boot (C.engine cluster) node (fun () ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner"; "other" ] in
      printf "  created %s\n" (Format.asprintf "%a" Capability.pp cap);
      Dirsvc.Client.append_row client cap ~name:"hello" [ cap ];
      (match Dirsvc.Client.lookup client cap "hello" with
      | Some _ -> printf "  lookup(hello) -> found\n"
      | None -> printf "  lookup(hello) -> MISSING\n");
      Dirsvc.Client.delete_row client cap ~name:"hello";
      printf "  deleted row; directory has %d rows\n"
        (List.length (Dirsvc.Client.list_dir client cap).Dirsvc.Directory.entries));
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 30_000.0);
  (match Dirsvc.Consistency.check_convergence (C.store_snapshots cluster) with
  | Ok () -> printf "replicas converged.\n"
  | Error d -> printf "DIVERGED: %s\n" (Dirsvc.Consistency.divergence_to_string d));
  finish_observability cluster out show_metrics

(* ---- drill ------------------------------------------------------------ *)

let run_drill seed trace_out show_metrics =
  let cluster = C.create ~seed:(Int64.of_int seed) C.Group_disk in
  let out = open_trace_out trace_out in
  attach_observability cluster out;
  ignore (C.await_serving cluster ~count:3);
  printf "three servers serving; crashing server 1 (the group creator)...\n";
  C.crash_server cluster 1;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 1_000.0);
  printf "serving: [%s]\n"
    (String.concat ";" (List.map string_of_int (C.serving_servers cluster)));
  printf "crashing server 2 as well (no majority left)...\n";
  C.crash_server cluster 2;
  C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 1_000.0);
  printf "serving: [%s] (survivor refuses: majority required)\n"
    (String.concat ";" (List.map string_of_int (C.serving_servers cluster)));
  printf "restarting both...\n";
  C.restart_server cluster 1;
  C.restart_server cluster 2;
  if C.await_serving ~timeout:20_000.0 cluster ~count:3 then begin
    printf "all three recovered; checking convergence... ";
    match Dirsvc.Consistency.check_convergence (C.store_snapshots cluster) with
    | Ok () -> printf "ok\n"
    | Error d -> printf "DIVERGED: %s\n" (Dirsvc.Consistency.divergence_to_string d)
  end
  else printf "recovery did not complete in time\n";
  finish_observability cluster out show_metrics

(* ---- trace ------------------------------------------------------------ *)

(* Run a short scripted scenario with tracing on and print the annotated
   timeline: every packet on the wire (locates, RPC transactions, group
   requests/data/acks/dones, Bullet traffic) plus the servers' recovery
   milestones. The best way to see the paper's protocols actually
   happen. *)
let run_trace seed contains until trace_out =
  let cluster = C.create ~seed:(Int64.of_int seed) C.Group_disk in
  let engine = C.engine cluster in
  let matches line =
    match contains with
    | None -> true
    | Some needle ->
        let n = String.length needle and l = String.length line in
        let rec scan i =
          i + n <= l && (String.sub line i n = needle || scan (i + 1))
        in
        scan 0
  in
  let print_event e =
    let line = Sim.Trace.event_to_text e in
    if matches line then printf "%s\n" line
  in
  let out = open_trace_out trace_out in
  (match out with
  | Some (oc, _) -> install_trace ~also:print_event engine oc
  | None ->
      let trace = Sim.Trace.create () in
      Sim.Trace.set_sink trace (Some print_event);
      Sim.Engine.set_trace engine (Some trace));
  ignore (C.await_serving cluster ~count:3);
  let client = C.client cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  Sim.Proc.boot engine node (fun () ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      Dirsvc.Client.append_row client cap ~name:"traced" [ cap ];
      ignore (Dirsvc.Client.lookup client cap "traced");
      Dirsvc.Client.delete_row client cap ~name:"traced");
  C.run_until cluster until;
  close_trace_out out;
  printf "-- trace ends at t=%.1f ms --\n" (Sim.Engine.now engine)

(* ---- cmdliner wiring --------------------------------------------------- *)

open Cmdliner

let fig7_cmd =
  Cmd.v
    (Cmd.info "fig7" ~doc:"Reproduce Fig. 7 (single-client latencies).")
    Term.(
      const run_fig7 $ seed_arg $ repeats_arg $ disk_ms_arg $ trace_out_arg
      $ metrics_arg)

let fig8_cmd =
  Cmd.v
    (Cmd.info "fig8" ~doc:"Reproduce Fig. 8 (lookup throughput sweep).")
    Term.(const run_fig8 $ seed_arg $ clients_arg $ jobs_arg)

let fig9_cmd =
  Cmd.v
    (Cmd.info "fig9" ~doc:"Reproduce Fig. 9 (append-delete throughput sweep).")
    Term.(const run_fig9 $ seed_arg $ clients_arg $ jobs_arg)

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Boot a deployment and run a CRUD cycle.")
    Term.(const run_demo $ seed_arg $ flavor_arg $ trace_out_arg $ metrics_arg)

let trace_cmd =
  let contains =
    let doc = "Only print trace lines containing $(docv)." in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "contains" ] ~docv:"TEXT" ~doc)
  in
  let until =
    let doc = "Stop tracing at this simulated time (ms)." in
    Cmdliner.Arg.(value & opt float 2_000.0 & info [ "until" ] ~docv:"MS" ~doc)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print the annotated event timeline of a boot + one update cycle.")
    Term.(const run_trace $ seed_arg $ contains $ until $ trace_out_arg)

let drill_cmd =
  Cmd.v
    (Cmd.info "drill" ~doc:"Crash/recovery fault drill on the group service.")
    Term.(const run_drill $ seed_arg $ trace_out_arg $ metrics_arg)

let main_cmd =
  let doc =
    "deterministic simulation of the Amoeba fault-tolerant directory service \
     (Kaashoek, Tanenbaum & Verstoep, ICDCS 1993)"
  in
  Cmd.group (Cmd.info "dirsim" ~version:"1.0" ~doc)
    [ fig7_cmd; fig8_cmd; fig9_cmd; demo_cmd; drill_cmd; trace_cmd ]

let () = exit (Cmd.eval main_cmd)
