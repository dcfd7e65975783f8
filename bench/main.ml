(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4), the §3.1 message/disk cost analysis, and the design
   ablations called out in DESIGN.md — plus Bechamel microbenchmarks of
   the hot code paths (one Test.make per table/figure).

   Run everything:        dune exec bench/main.exe
   One experiment:        dune exec bench/main.exe -- fig7
   Machine-readable:      dune exec bench/main.exe -- fig7 --json [FILE]
                          (writes BENCH_<name>.json per experiment, prints
                          one aggregate JSON document on stdout)
   Parallel grid:         dune exec bench/main.exe -- --jobs 4
                          (fan the independent runs over 4 domains; all
                          output — text, per-experiment files, aggregate
                          JSON — is byte-identical for every --jobs value)
   Multi-seed sweeps:     dune exec bench/main.exe -- fig7 --seeds 5
                          (rerun each figure across 5 derived seeds and
                          report mean ± 95% CI)
   Available experiments: fig7 fig8 fig9 costs ablation-r ablation-size
                          ablation-disk ablation-method mix availability
                          micro *)

module C = Dirsvc.Cluster
module J = Sim.Json

(* Under --json, stdout must stay pure JSON: every human-readable line in
   this file flows through these two shadowed bindings. Under --jobs N,
   experiments run on worker domains, so the bindings route through a
   domain-local sink: a task that prints is wrapped in [captured], its
   output lands in a per-task buffer, and the coordinator replays the
   buffers in submission order — stdout never depends on which domain
   finished first. *)
let quiet = ref false

let sink_key : Buffer.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let print_string s =
  if not !quiet then
    match Domain.DLS.get sink_key with
    | Some buf -> Buffer.add_string buf s
    | None -> Stdlib.print_string s

let printf fmt = Printf.ksprintf print_string fmt

(* [captured f] runs [f] with prints redirected into a fresh buffer and
   returns (output, result). Nests: helping domains save and restore the
   sink around each task they pick up. *)
let captured f =
  let buf = Buffer.create 256 in
  let saved = Domain.DLS.get sink_key in
  Domain.DLS.set sink_key (Some buf);
  match f () with
  | v ->
      Domain.DLS.set sink_key saved;
      (Buffer.contents buf, v)
  | exception e ->
      Domain.DLS.set sink_key saved;
      raise e

(* ---- parallel fan-out ---------------------------------------------- *)

let jobs_level = ref 1

let seed_count = ref 1

let the_pool : Sim.Pool.t option ref = ref None

let pool () =
  match !the_pool with
  | Some p -> p
  | None ->
      let p = Sim.Pool.create ~jobs:!jobs_level in
      the_pool := Some p;
      p

let psubmit f = Sim.Pool.submit (pool ()) f

let pmap f items = Sim.Pool.map (pool ()) f items

(* Derived per-rerun seeds for [--seeds K]; [] when the mode is off. *)
let variance_seeds ~base =
  if !seed_count <= 1 then []
  else Workload.Scenarios.derive_seeds ~base !seed_count

let ci_cell (s : Workload.Stats.summary) =
  Printf.sprintf "%.1f ± %.1f" s.mean s.ci95

let ci_to_json (s : Workload.Stats.summary) =
  J.Obj
    [
      ("n", J.Int s.n);
      ("mean", J.Float s.mean);
      ("stddev", J.Float s.stddev);
      ("ci95", J.Float s.ci95);
    ]

let stats_mean samples = (Workload.Stats.summarise samples).Workload.Stats.mean

(* Latency-histogram summaries (p50/p90/p95/p99 straight from the bucket
   counts) recorded by a cluster's servers during a run, keyed by the
   canonical labelled metric name. *)
let histogram_summaries metrics =
  J.Obj
    (List.map
       (fun (key, h) -> (key, Sim.Metrics.Histogram.summary_to_json h))
       (Sim.Metrics.histograms metrics))

let series_to_json series =
  J.List
    (List.map
       (fun (clients, per_second) ->
         J.Obj
           [ ("clients", J.Int clients); ("per_second", J.Float per_second) ])
       series)

let flavors =
  [
    (C.Group_disk, "Group (3)");
    (C.Rpc_pair, "RPC (2)");
    (C.Nfs_single, "Sun NFS (1)");
    (C.Group_nvram, "Group+NVRAM (3)");
  ]

(* ---- Fig. 7: single-client latency table -------------------------- *)

let fig7_seed = 7L

(* Per-flavor runs are independent deployments: fan them out. *)
let fig7_run ~seed (flavor, name) =
  let cluster = C.create ~seed flavor in
  let fig = Workload.Scenarios.run_fig7 ~repeats:12 cluster in
  (name, fig, C.metrics cluster)

(* [--seeds K]: rerun the whole figure once per derived seed and report
   mean ± 95% CI of each cell across the runs. *)
let fig7_variance () =
  match variance_seeds ~base:fig7_seed with
  | [] -> None
  | seeds ->
      let grid =
        List.concat_map (fun seed -> List.map (fun fl -> (seed, fl)) flavors) seeds
      in
      let runs = pmap (fun (seed, fl) -> fig7_run ~seed fl) grid in
      let cells =
        List.map
          (fun (_, name) ->
            let figs =
              List.filter_map
                (fun (n, fig, _) -> if n = name then Some fig else None)
                runs
            in
            let scenario label pick =
              ( label,
                Workload.Stats.summarise
                  (List.map
                     (fun f -> (pick f).Workload.Stats.mean)
                     figs) )
            in
            ( name,
              [
                scenario "append_delete" (fun f ->
                    f.Workload.Scenarios.append_delete_ms);
                scenario "tmp_file" (fun f -> f.Workload.Scenarios.tmp_file_ms);
                scenario "lookup" (fun f -> f.Workload.Scenarios.lookup_ms);
              ] ))
          flavors
      in
      printf "\nseed variance across %d derived seeds (mean ± 95%% CI, ms):\n"
        (List.length seeds);
      print_string
        (Workload.Tables.render
           ~header:[ "service"; "append-delete"; "tmp file"; "lookup" ]
           (List.map
              (fun (name, scenarios) ->
                name :: List.map (fun (_, s) -> ci_cell s) scenarios)
              cells));
      Some
        (J.Obj
           (List.map
              (fun (name, scenarios) ->
                ( name,
                  J.Obj
                    (List.map (fun (label, s) -> (label, ci_to_json s)) scenarios)
                ))
              cells))

let fig7 () =
  printf "== Fig. 7: single-client latency (simulated msec) ==\n\n";
  let measured = pmap (fig7_run ~seed:fig7_seed) flavors in
  let row op paper pick =
    let cells =
      List.map
        (fun (_, fig, _) -> Printf.sprintf "%.0f" (pick fig).Workload.Stats.mean)
        measured
    in
    ([ op ] @ cells) @ [ paper ]
  in
  let rows =
    [
      row "Append-delete" "184/192/87/27" (fun f ->
          f.Workload.Scenarios.append_delete_ms);
      row "Tmp file" "215/277/111/52" (fun f -> f.Workload.Scenarios.tmp_file_ms);
      row "Directory lookup" "5/5/6/5" (fun f -> f.Workload.Scenarios.lookup_ms);
    ]
  in
  print_string
    (Workload.Tables.render
       ~header:([ "Operation" ] @ List.map snd flavors @ [ "paper (G/R/N/V)" ])
       rows);
  let base =
    [
      ( "flavors",
        J.List
          (List.map
             (fun (name, fig, metrics) ->
               J.Obj
                 [
                   ("service", J.String name);
                   ( "client_latency_ms",
                     J.Obj
                       [
                         ( "append_delete",
                           Workload.Stats.summary_to_json
                             fig.Workload.Scenarios.append_delete_ms );
                         ( "tmp_file",
                           Workload.Stats.summary_to_json
                             fig.Workload.Scenarios.tmp_file_ms );
                         ( "lookup",
                           Workload.Stats.summary_to_json
                             fig.Workload.Scenarios.lookup_ms );
                       ] );
                   (* Per-server latency histograms recorded inside the
                      servers themselves, e.g. "dirsvc.op_ms{op=append_row,
                      server=2}". *)
                   ("server_latency_ms", histogram_summaries metrics);
                 ])
             measured) );
    ]
  in
  match fig7_variance () with
  | None -> J.Obj base
  | Some v -> J.Obj (base @ [ ("seed_variance", v) ])

(* ---- Fig. 8: lookup throughput vs clients ------------------------- *)

(* Like the paper, each point averages several independent runs; the
   port-cache assignment makes single runs noisy. *)
let sweep_clients = [ 1; 2; 3; 4; 5; 6; 7 ]

let replicate_seeds seed = [ seed; Int64.add seed 37L; Int64.add seed 71L ]

(* The three per-flavor sweeps of Figs. 8 and 9, as one grid of
   independent (flavor, clients, seed) runs fanned out over the pool.
   Submission happens up front; the returned join re-assembles the
   per-flavor series in submission order, so the series — and every
   table printed from them — are identical at any --jobs level. *)
let grid_submit ~flavor_offsets ~base measure =
  let futures =
    List.map
      (fun (flavor, off) ->
        List.map
          (fun clients ->
            List.map
              (fun seed ->
                psubmit (fun () ->
                    let cluster = C.create ~seed flavor in
                    (measure cluster ~clients).Workload.Throughput.per_second))
              (replicate_seeds (Int64.add base off)))
          sweep_clients)
      flavor_offsets
  in
  fun () ->
    List.map
      (fun per_flavor ->
        List.map2
          (fun clients futs ->
            (clients, Workload.Stats.mean (List.map Sim.Pool.await futs)))
          sweep_clients per_flavor)
      futures

let print_series label series =
  print_string
    (Workload.Tables.series ~title:label ~x_label:"clients" ~y_label:"ops/s"
       series);
  printf "\n"

let saturation series = List.fold_left (fun acc (_, v) -> max acc v) 0.0 series

(* [--seeds K] for the throughput figures: rerun the whole grid once per
   derived base seed and summarise each flavor's saturation across the
   reruns. Returns the (label, json) pair to append, printing a table. *)
let sweep_variance ~flavor_offsets ~base ~labels measure =
  match variance_seeds ~base with
  | [] -> None
  | bases ->
      let joins =
        List.map (fun b -> grid_submit ~flavor_offsets ~base:b measure) bases
      in
      let per_run = List.map (fun join -> List.map saturation (join ())) joins in
      let cells =
        List.mapi
          (fun i label ->
            (label, Workload.Stats.summarise (List.map (fun run -> List.nth run i) per_run)))
          labels
      in
      printf "seed variance of saturation across %d derived seeds (mean ± 95%% CI):\n"
        (List.length bases);
      print_string
        (Workload.Tables.render
           ~header:[ "series"; "saturation ops/s" ]
           (List.map (fun (label, s) -> [ label; ci_cell s ]) cells));
      Some
        ( "seed_variance",
          J.Obj (List.map (fun (label, s) -> (label, ci_to_json s)) cells) )

let fig8_flavor_offsets =
  [ (C.Group_disk, 1L); (C.Group_nvram, 2L); (C.Rpc_pair, 3L) ]

let fig8 () =
  printf "\n== Fig. 8: lookup throughput vs number of clients ==\n\n";
  let measure cluster ~clients = Workload.Throughput.lookups cluster ~clients in
  let join = grid_submit ~flavor_offsets:fig8_flavor_offsets ~base:800L measure in
  let group, nvram, rpc =
    match join () with [ g; n; r ] -> (g, n, r) | _ -> assert false
  in
  print_series "Group service" group;
  print_series "Group service + NVRAM" nvram;
  print_series "RPC service" rpc;
  let params = Dirsvc.Params.default in
  printf "analytic upper bounds (paper: 1000 group / 666 RPC):\n";
  printf "  group: %.0f lookups/s   rpc: %.0f lookups/s\n"
    (Workload.Bounds.read_bound params ~servers:3)
    (Workload.Bounds.read_bound params ~servers:2);
  printf "measured saturation (paper: 652 group, 520 RPC):\n";
  printf "  group: %.0f   group+nvram: %.0f   rpc: %.0f\n" (saturation group)
    (saturation nvram) (saturation rpc);
  let variance =
    sweep_variance ~flavor_offsets:fig8_flavor_offsets ~base:800L
      ~labels:[ "group"; "group_nvram"; "rpc" ] measure
  in
  J.Obj
    ([
       ("group", series_to_json group);
       ("group_nvram", series_to_json nvram);
       ("rpc", series_to_json rpc);
       ( "analytic_bound",
         J.Obj
           [
             ("group", J.Float (Workload.Bounds.read_bound params ~servers:3));
             ("rpc", J.Float (Workload.Bounds.read_bound params ~servers:2));
           ] );
       ( "saturation",
         J.Obj
           [
             ("group", J.Float (saturation group));
             ("group_nvram", J.Float (saturation nvram));
             ("rpc", J.Float (saturation rpc));
           ] );
     ]
    @ Option.to_list variance)

(* ---- Fig. 9: append-delete throughput vs clients ------------------ *)

let fig9 () =
  printf "\n== Fig. 9: append-delete pairs/s vs number of clients ==\n\n";
  let measure cluster ~clients =
    Workload.Throughput.append_deletes cluster ~clients
  in
  let join = grid_submit ~flavor_offsets:fig8_flavor_offsets ~base:900L measure in
  let group, nvram, rpc =
    match join () with [ g; n; r ] -> (g, n, r) | _ -> assert false
  in
  print_series "Group service" group;
  print_series "Group service + NVRAM" nvram;
  print_series "RPC service" rpc;
  printf "paper's saturation: 5 group / 5 RPC / 45 NVRAM pairs/s\n";
  printf "measured saturation: group %.1f, rpc %.1f, nvram %.1f\n"
    (saturation group) (saturation rpc) (saturation nvram);
  printf
    "(append and delete are both writes, so write throughput is twice these)\n";
  let variance =
    sweep_variance ~flavor_offsets:fig8_flavor_offsets ~base:900L
      ~labels:[ "group"; "group_nvram"; "rpc" ] measure
  in
  J.Obj
    ([
       ("group", series_to_json group);
       ("group_nvram", series_to_json nvram);
       ("rpc", series_to_json rpc);
       ( "saturation",
         J.Obj
           [
             ("group", J.Float (saturation group));
             ("group_nvram", J.Float (saturation nvram));
             ("rpc", J.Float (saturation rpc));
           ] );
     ]
    @ Option.to_list variance)

(* ---- §3.1 cost analysis: messages and disk ops per update ---------- *)

let costs () =
  printf "\n== Cost analysis per update (paper §3.1) ==\n\n";
  let one_update flavor name =
    let cluster = C.create ~seed:19L flavor in
    (match flavor with
    | C.Group_disk | C.Group_nvram ->
        ignore (C.await_serving cluster ~count:(C.n_servers cluster))
    | C.Rpc_pair | C.Nfs_single -> C.run_until cluster 100.0);
    (* The paper's 5-message count is for an initiator that is not the
       sequencer (the common case); steer the measurement client to a
       server other than node 1, the group creator. *)
    let rec non_sequencer_client tries =
      let client = C.client cluster in
      if tries = 0 then client
      else begin
        let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
        let probed = ref false in
        Sim.Proc.boot (C.engine cluster) node (fun () ->
            (try ignore (Dirsvc.Client.list_dir client
                           (Capability.owner ~port:"dirsvc" ~obj:0 0L))
             with _ -> ());
            probed := true);
        C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 200.0);
        ignore !probed;
        match
          Rpc.Transport.cached_servers
            (Dirsvc.Client.transport client)
            ~port:(C.port cluster)
        with
        | head :: _ when head <> 1 -> client
        | _ -> non_sequencer_client (tries - 1)
      end
    in
    let client =
      match flavor with
      | C.Group_disk | C.Group_nvram -> non_sequencer_client 10
      | C.Rpc_pair | C.Nfs_single -> C.client cluster
    in
    let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
    let counters = ref [] in
    let disk_writes () =
      List.init (C.n_servers cluster) (fun i ->
          Storage.Block_device.writes_completed (C.device cluster (i + 1)))
      |> List.fold_left ( + ) 0
    in
    Sim.Proc.boot (C.engine cluster) node (fun () ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        Dirsvc.Client.append_row client cap ~name:"warm" [ cap ];
        Sim.Proc.sleep 100.0;
        let before = Sim.Metrics.counters (C.metrics cluster) in
        let writes_before = disk_writes () in
        Dirsvc.Client.append_row client cap ~name:"counted" [ cap ];
        Sim.Proc.sleep 100.0;
        let after = Sim.Metrics.counters (C.metrics cluster) in
        let writes_after = disk_writes () in
        counters :=
          ("disk.delta", writes_after - writes_before)
          :: Sim.Metrics.delta ~before ~after);
    C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 10_000.0);
    let get key =
      match List.assoc_opt key !counters with Some v -> v | None -> 0
    in
    printf "%s:\n" name;
    printf "  group messages: req=%d data=%d ack=%d done=%d (total %d)\n"
      (get "grp.req") (get "grp.data") (get "grp.ack") (get "grp.done")
      (get "grp.req" + get "grp.data" + get "grp.ack" + get "grp.done");
    printf "  total wire packets: %d\n" (get "net.pkt");
    printf "  disk writes across replicas: %d\n\n" (get "disk.delta");
    J.Obj
      [
        ("service", J.String name);
        ( "group_messages",
          J.Obj
            [
              ("req", J.Int (get "grp.req"));
              ("data", J.Int (get "grp.data"));
              ("ack", J.Int (get "grp.ack"));
              ("done", J.Int (get "grp.done"));
              ( "total",
                J.Int
                  (get "grp.req" + get "grp.data" + get "grp.ack"
                 + get "grp.done") );
            ] );
        ("wire_packets", J.Int (get "net.pkt"));
        ("disk_writes", J.Int (get "disk.delta"));
      ]
  in
  (* The four measurements print as they go, so each runs captured on
     the pool and the outputs replay in submission order. *)
  let futures =
    List.map
      (fun (flavor, label) ->
        psubmit (fun () -> captured (fun () -> one_update flavor label)))
      [
        ( C.Group_disk,
          "Group service (paper: 5 messages, 2 disk ops at each replica)" );
        ( C.Group_nvram,
          "Group service + NVRAM (paper: no disk ops in the critical path)" );
        (C.Rpc_pair, "RPC service (paper: 2 RPCs of 3 messages, 3 disk ops)");
        (C.Nfs_single, "Sun NFS (1 RPC, 1 disk op)");
      ]
  in
  J.List
    (List.map
       (fun fut ->
         let out, value = Sim.Pool.await fut in
         print_string out;
         value)
       futures)

(* ---- Ablations ----------------------------------------------------- *)

(* Raw SendToGroup latency of a three-member group at resilience r:
   how long the sender blocks before the message is held by r+1
   members. This is where the r trade-off is visible — the dir service
   buries it under disk time. *)
let raw_send_latency r =
  let engine = Sim.Engine.create ~seed:13L () in
  let net = Simnet.Network.create engine () in
  let config = { Group.Types.default_config with resilience = r } in
  let members = Hashtbl.create 3 in
  let nodes = Hashtbl.create 3 in
  List.iter
    (fun id ->
      let node = Sim.Node.create ~id ~name:(Printf.sprintf "m%d" id) in
      Hashtbl.replace nodes id node;
      let nic = Simnet.Network.attach net node in
      Sim.Proc.boot engine node (fun () ->
          let m =
            if id = 1 then Group.Member.create_group ~config net nic ~gname:"g"
            else begin
              Sim.Proc.sleep (float_of_int id);
              Group.Member.join_group ~config net nic ~gname:"g"
            end
          in
          Hashtbl.replace members id m))
    [ 1; 2; 3 ];
  let samples = ref [] in
  Sim.Engine.schedule engine ~delay:30.0 (fun () ->
      Sim.Proc.boot engine (Hashtbl.find nodes 2) (fun () ->
          let m = Hashtbl.find members 2 in
          for _ = 1 to 30 do
            let t0 = Sim.Proc.now () in
            Group.Member.send m (Simnet.Payload.Opaque "x");
            samples := (Sim.Proc.now () -. t0) :: !samples
          done));
  Sim.Engine.run ~until:2_000.0 engine;
  stats_mean !samples

let ablation_r () =
  printf "\n== Ablation: resilience degree r vs update latency ==\n";
  printf "(the paper's §1 trade-off: r buys fault tolerance with messages)\n\n";
  let rs = [ 0; 1; 2 ] in
  let pair_futures =
    List.map
      (fun r ->
        psubmit (fun () ->
            let params =
              { Dirsvc.Params.default with resilience_override = Some r }
            in
            let cluster = C.create ~seed:23L ~params C.Group_disk in
            stats_mean (Workload.Scenarios.append_delete ~repeats:10 cluster)))
      rs
  in
  let raw_futures = List.map (fun r -> psubmit (fun () -> raw_send_latency r)) rs in
  let measured = List.map2 (fun r fut -> (r, Sim.Pool.await fut)) rs pair_futures in
  let rows =
    List.map
      (fun (r, pair) ->
        [
          Printf.sprintf "r = %d" r;
          Printf.sprintf "%.1f" pair;
          (match r with
          | 0 -> "send returns on ordering"
          | 1 -> "survives 1 crash"
          | _ -> "survives 2 crashes (paper default)");
        ])
      measured
  in
  print_string
    (Workload.Tables.render
       ~header:[ "resilience"; "append-delete ms"; "guarantee" ]
       rows);
  printf "\nraw SendToGroup completion latency (no disk in the way):\n";
  let raw =
    List.map2
      (fun r fut ->
        let latency = Sim.Pool.await fut in
        printf "  r = %d: %.2f ms\n" r latency;
        (r, latency))
      rs raw_futures
  in
  printf
    "disk time dominates end-to-end latency at any r - the paper's very point.\n";
  J.List
    (List.map
       (fun (r, pair) ->
         J.Obj
           [
             ("resilience", J.Int r);
             ("append_delete_ms", J.Float pair);
             ( "raw_send_ms",
               match List.assoc_opt r raw with
               | Some v -> J.Float v
               | None -> J.Null );
           ])
       measured)

let ablation_size () =
  printf "\n== Ablation: group size (3 vs 5 replicas) ==\n";
  printf "(the paper: the protocol is unchanged for four or more replicas)\n\n";
  let measured =
    pmap
      (fun n ->
        let cluster = C.create ~seed:29L ~servers:n C.Group_disk in
        let pair =
          stats_mean (Workload.Scenarios.append_delete ~repeats:8 cluster)
        in
        let look = stats_mean (Workload.Scenarios.lookup ~repeats:20 cluster) in
        (n, pair, look))
      [ 3; 5 ]
  in
  let rows =
    List.map
      (fun (n, pair, look) ->
        [
          Printf.sprintf "%d replicas" n;
          Printf.sprintf "%.1f" pair;
          Printf.sprintf "%.2f" look;
        ])
      measured
  in
  print_string
    (Workload.Tables.render
       ~header:[ "group size"; "append-delete ms"; "lookup ms" ]
       rows);
  J.List
    (List.map
       (fun (n, pair, look) ->
         J.Obj
           [
             ("replicas", J.Int n);
             ("append_delete_ms", J.Float pair);
             ("lookup_ms", J.Float look);
           ])
       measured)

let ablation_disk () =
  printf "\n== Ablation: disk latency scaling ==\n";
  printf "(the paper §5: disk operations are the major bottleneck)\n\n";
  let measured =
    let futures =
      List.map
        (fun scale ->
          let params =
            Dirsvc.Params.with_disk_scale Dirsvc.Params.default scale
          in
          let run flavor =
            psubmit (fun () ->
                let cluster = C.create ~seed:31L ~params flavor in
                stats_mean (Workload.Scenarios.append_delete ~repeats:8 cluster))
          in
          (scale, run C.Group_disk, run C.Group_nvram))
        [ 0.25; 0.5; 1.0; 2.0 ]
    in
    List.map
      (fun (scale, disk_fut, nvram_fut) ->
        (scale, Sim.Pool.await disk_fut, Sim.Pool.await nvram_fut))
      futures
  in
  let rows =
    List.map
      (fun (scale, disk_pair, nvram_pair) ->
        [
          Printf.sprintf "%.2fx disk" scale;
          Printf.sprintf "%.1f" disk_pair;
          Printf.sprintf "%.1f" nvram_pair;
        ])
      measured
  in
  print_string
    (Workload.Tables.render
       ~header:[ "disk speed"; "group pair ms"; "nvram pair ms" ]
       rows);
  printf "the group service scales with the disk; the NVRAM service does not.\n";
  J.List
    (List.map
       (fun (scale, disk_pair, nvram_pair) ->
         J.Obj
           [
             ("disk_scale", J.Float scale);
             ("group_pair_ms", J.Float disk_pair);
             ("nvram_pair_ms", J.Float nvram_pair);
           ])
       measured)

(* ---- Ablation: PB vs BB dissemination ------------------------------ *)

(* The group substrate's two dissemination methods (Kaashoek & Tanenbaum
   ICDCS'91): PB forwards the full body through the sequencer; BB
   broadcasts the body from the sender and the sequencer emits only a
   tiny Accept. Count what the sequencer actually sends. *)
let ablation_method () =
  printf "\n== Ablation: PB vs BB dissemination ==\n\n";
  let run dissemination label =
    let engine = Sim.Engine.create ~seed:59L () in
    let metrics = Sim.Metrics.create () in
    let net = Simnet.Network.create engine ~metrics () in
    let config = { Group.Types.default_config with dissemination } in
    let members = Hashtbl.create 3 in
    let nodes = Hashtbl.create 3 in
    List.iter
      (fun id ->
        let node = Sim.Node.create ~id ~name:(Printf.sprintf "m%d" id) in
        Hashtbl.replace nodes id node;
        let nic = Simnet.Network.attach net node in
        Sim.Proc.boot engine node (fun () ->
            let m =
              if id = 1 then
                Group.Member.create_group ~metrics ~config net nic ~gname:"g"
              else begin
                Sim.Proc.sleep (float_of_int id);
                Group.Member.join_group ~metrics ~config net nic ~gname:"g"
              end
            in
            Hashtbl.replace members id m))
      [ 1; 2; 3 ];
    let samples = ref [] in
    let result = ref J.Null in
    Sim.Engine.schedule engine ~delay:30.0 (fun () ->
        Sim.Proc.boot engine (Hashtbl.find nodes 2) (fun () ->
            let m = Hashtbl.find members 2 in
            let before = Sim.Metrics.counters metrics in
            for _ = 1 to 25 do
              let t0 = Sim.Proc.now () in
              Group.Member.send m (Simnet.Payload.Opaque (String.make 1024 'x'));
              samples := (Sim.Proc.now () -. t0) :: !samples
            done;
            let after = Sim.Metrics.counters metrics in
            let delta = Sim.Metrics.delta ~before ~after in
            let get key =
              match List.assoc_opt key delta with Some v -> v | None -> 0
            in
            printf
              "  %-3s latency %.2f ms/send; sequencer forwards %d full bodies,                %d accepts; sender bodies %d\n"
              label
              (stats_mean !samples)
              (get "grp.data") (get "grp.accept") (get "grp.body");
            result :=
              J.Obj
                [
                  ("latency_ms_per_send", J.Float (stats_mean !samples));
                  ("sequencer_bodies", J.Int (get "grp.data"));
                  ("accepts", J.Int (get "grp.accept"));
                  ("sender_bodies", J.Int (get "grp.body"));
                ]));
    Sim.Engine.run ~until:2_000.0 engine;
    !result
  in
  let pb_fut = psubmit (fun () -> captured (fun () -> run Group.Types.Pb "PB:")) in
  let bb_fut = psubmit (fun () -> captured (fun () -> run Group.Types.Bb "BB:")) in
  let pb_out, pb = Sim.Pool.await pb_fut in
  print_string pb_out;
  let bb_out, bb = Sim.Pool.await bb_fut in
  print_string bb_out;
  printf
    "same ordering guarantees and latency; under BB the body crosses the\n\
     sequencer zero times - the win grows with message size.\n";
  J.Obj [ ("pb", pb); ("bb", bb) ]

(* ---- Availability: unavailability window around failures ----------- *)

(* Not a paper figure, but the paper's availability claim made concrete:
   how long are clients refused while the group absorbs a crash, and how
   long until a restarted replica is back in the view? *)
let availability () =
  printf "\n== Availability: service interruption around failures ==\n\n";
  let run victim label =
    let cluster = C.create ~seed:47L C.Group_disk in
    ignore (C.await_serving cluster ~count:3);
    let client = C.client cluster in
    let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
    let outage_start = ref nan and outage_end = ref nan in
    let cap_ref = ref None in
    Sim.Proc.boot (C.engine cluster) node (fun () ->
        let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
        cap_ref := Some cap;
        (* Probe with updates: writes must traverse the group, so they
           feel the view change (reads are served locally by any
           majority-side replica and sail straight through — itself a
           result worth noting). *)
        let serial = ref 0 in
        while Float.is_nan !outage_end && Sim.Proc.now () < 20_000.0 do
          incr serial;
          let name = Printf.sprintf "probe%d" !serial in
          (match
             Dirsvc.Client.append_row client cap ~name [ cap ];
             Dirsvc.Client.delete_row client cap ~name
           with
          | () ->
              if not (Float.is_nan !outage_start) then
                outage_end := Sim.Proc.now ()
          | exception _ ->
              if Float.is_nan !outage_start then
                outage_start := Sim.Proc.now ());
          Sim.Proc.sleep 10.0
        done);
    Sim.Engine.schedule (C.engine cluster) ~delay:500.0 (fun () ->
        C.crash_server cluster victim);
    C.run_until cluster 22_000.0;
    let t_restart = Sim.Engine.now (C.engine cluster) in
    C.restart_server cluster victim;
    ignore (C.await_serving ~timeout:20_000.0 cluster ~count:3);
    let rejoin = Sim.Engine.now (C.engine cluster) -. t_restart in
    (match (Float.is_nan !outage_start, Float.is_nan !outage_end) with
    | true, _ ->
        printf "  %-28s no client-visible outage; rejoin %.0f ms\n" label
          rejoin
    | false, false ->
        printf "  %-28s outage %.0f ms; rejoin %.0f ms\n" label
          (!outage_end -. !outage_start)
          rejoin
    | false, true ->
        printf "  %-28s outage did not end within the run\n" label);
    J.Obj
      [
        ("scenario", J.String label);
        ( "outage_ms",
          if Float.is_nan !outage_start then J.Float 0.0
          else if Float.is_nan !outage_end then J.Null
          else J.Float (!outage_end -. !outage_start) );
        ("rejoin_ms", J.Float rejoin);
      ]
  in
  let follower_fut =
    psubmit (fun () -> captured (fun () -> run 3 "follower server crash:"))
  in
  let sequencer_fut =
    psubmit (fun () -> captured (fun () -> run 1 "sequencer-hosting crash:"))
  in
  let follower_out, follower = Sim.Pool.await follower_fut in
  print_string follower_out;
  let sequencer_out, sequencer = Sim.Pool.await sequencer_fut in
  print_string sequencer_out;
  printf
    "(outage = first refused update to first completed update; crash at t=500;\n lookups are served locally by the survivors and see no outage)\n";
  J.List [ follower; sequencer ]

(* ---- Bechamel microbenchmarks: one Test.make per table/figure ------ *)

let micro () =
  printf "\n== Bechamel microbenchmarks (real time, hot paths) ==\n\n";
  let open Bechamel in
  let secret = Capability.mint_secret 1L in
  let dir_store, dir_cap =
    match
      Dirsvc.Directory.apply Dirsvc.Directory.empty ~seqno:1
        (Dirsvc.Directory.Create_dir
           { columns = [ "owner"; "other" ]; secret; hint = None })
    with
    | Ok (store, Dirsvc.Directory.Created id) ->
        (store, Capability.owner ~port:"dirsvc" ~obj:id secret)
    | _ -> assert false
  in
  let populated =
    List.fold_left
      (fun store i ->
        match
          Dirsvc.Directory.apply store ~seqno:(i + 2)
            (Dirsvc.Directory.Append_row
               {
                 cap = dir_cap;
                 name = Printf.sprintf "row%d" i;
                 caps = [ dir_cap ];
                 masks = [];
               })
        with
        | Ok (store, _) -> store
        | Error _ -> store)
      dir_store
      (List.init 20 Fun.id)
  in
  let dir = Dirsvc.Directory.Store.find 0 populated in
  let encoded = Dirsvc.Directory.encode_dir dir in
  let tests =
    [
      (* Fig. 7's inner loop: one update applied to the store. *)
      Test.make ~name:"fig7: Directory.apply append"
        (Staged.stage (fun () ->
             ignore
               (Dirsvc.Directory.apply populated ~seqno:99
                  (Dirsvc.Directory.Append_row
                     {
                       cap = dir_cap;
                       name = "bench";
                       caps = [ dir_cap ];
                       masks = [];
                     }))));
      (* Fig. 8's inner loop: a lookup against the cached directory. *)
      Test.make ~name:"fig8: Directory.lookup"
        (Staged.stage (fun () ->
             ignore
               (Dirsvc.Directory.lookup populated ~cap:dir_cap ~name:"row7"
                  ~column:0)));
      (* Fig. 9's commit path: encode/decode of the Bullet file image. *)
      Test.make ~name:"fig9: encode_dir (commit image)"
        (Staged.stage (fun () -> ignore (Dirsvc.Directory.encode_dir dir)));
      Test.make ~name:"fig9: decode_dir (recovery load)"
        (Staged.stage (fun () -> ignore (Dirsvc.Directory.decode_dir encoded)));
      (* The §3.1 analysis rests on per-request capability checks. *)
      Test.make ~name:"costs: capability validate"
        (Staged.stage (fun () -> ignore (Capability.validate dir_cap secret)));
      (* Recovery's decision procedure (Fig. 6). *)
      Test.make ~name:"recovery: Skeen.decide"
        (Staged.stage (fun () ->
             ignore
               (Dirsvc.Skeen.decide ~all:[ 1; 2; 3 ]
                  ~present:
                    [
                      {
                        Dirsvc.Skeen.server = 1;
                        mourned = Dirsvc.Skeen.Int_set.singleton 3;
                        useq = 10;
                        stayed_up = true;
                        serving = false;
                      };
                      {
                        Dirsvc.Skeen.server = 2;
                        mourned = Dirsvc.Skeen.Int_set.singleton 3;
                        useq = 11;
                        stayed_up = false;
                        serving = false;
                      };
                    ])));
    ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
  in
  let analyse raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let estimates =
    List.concat_map
      (fun test ->
        let results = analyse (benchmark test) in
        Hashtbl.fold
          (fun name result acc ->
            match Analyze.OLS.estimates result with
            | Some [ est ] ->
                printf "  %-36s %10.1f ns/op\n" name est;
                (name, J.Float est) :: acc
            | _ ->
                printf "  %-36s (no estimate)\n" name;
                (name, J.Null) :: acc)
          results [])
      tests
  in
  J.Obj estimates

(* ---- Driver --------------------------------------------------------- *)

(* The paper's measured workload: 98% of directory operations are reads
   (§2). Aggregate throughput under the realistic mix. *)
let mix_seed = 55L

let mix_run ~seed (flavor, name) =
  let cluster = C.create ~seed flavor in
  (name, Workload.Mix.run cluster ~clients:5 ~read_fraction:0.98)

(* [--seeds K]: rerun the mix once per derived seed and report mean ±
   95% CI of each service's aggregate ops/s. *)
let mix_variance () =
  match variance_seeds ~base:mix_seed with
  | [] -> None
  | seeds ->
      let grid =
        List.concat_map (fun seed -> List.map (fun fl -> (seed, fl)) flavors) seeds
      in
      let runs = pmap (fun (seed, fl) -> mix_run ~seed fl) grid in
      let cells =
        List.map
          (fun (_, name) ->
            ( name,
              Workload.Stats.summarise
                (List.filter_map
                   (fun (n, point) ->
                     if n = name then Some point.Workload.Mix.ops_per_second
                     else None)
                   runs) ))
          flavors
      in
      printf "\nseed variance across %d derived seeds (mean ± 95%% CI, ops/s):\n"
        (List.length seeds);
      print_string
        (Workload.Tables.render ~header:[ "service"; "ops/s" ]
           (List.map (fun (name, s) -> [ name; ci_cell s ]) cells));
      Some (J.Obj (List.map (fun (name, s) -> (name, ci_to_json s)) cells))

let mix () =
  printf "\n== Mixed workload: 98%% reads / 2%% updates (paper §2) ==\n\n";
  let measured = pmap (mix_run ~seed:mix_seed) flavors in
  let rows =
    List.map
      (fun (name, point) ->
        [
          name;
          Printf.sprintf "%.0f" point.Workload.Mix.ops_per_second;
          Printf.sprintf "%.0f" point.Workload.Mix.reads_per_second;
          Printf.sprintf "%.1f" point.Workload.Mix.writes_per_second;
        ])
      measured
  in
  print_string
    (Workload.Tables.render
       ~header:[ "service"; "ops/s"; "reads/s"; "writes/s" ]
       rows);
  let services =
    J.List
      (List.map
         (fun (name, point) ->
           J.Obj
             [
               ("service", J.String name);
               ("ops_per_second", J.Float point.Workload.Mix.ops_per_second);
               ("reads_per_second", J.Float point.Workload.Mix.reads_per_second);
               ("writes_per_second", J.Float point.Workload.Mix.writes_per_second);
             ])
         measured)
  in
  match mix_variance () with
  | None -> services
  | Some v -> J.Obj [ ("services", services); ("seed_variance", v) ]

(* ---- Speed: wall-clock throughput of the simulation core ----------- *)

(* Unlike every experiment above, this one measures {e real} time: how
   many engine events and wire packets the simulator grinds through per
   wall-clock second, and how much it allocates per simulated operation.
   Simulated-time results are identical across optimization PRs (the
   same-seed trace guarantee); this is the number that is allowed to
   move. [--quick] shrinks every scenario to a ~1 s smoke check. *)

let speed_quick = ref false

type speed_row = {
  scenario : string;
  wall_s : float;
  events : int; (* engine events executed *)
  packets : int; (* wire packets sent (net.pkt) *)
  ops : int; (* simulated operations completed *)
  minor_words : float; (* GC minor words allocated during the run *)
}

(* [run] builds its own deployment, drives it, and reports
   (events, packets, ops). Wall time and allocation are measured around
   the whole thing — deployment construction is part of the cost a
   larger experiment pays. *)
let measure_speed scenario run =
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let events, packets, ops = run () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  { scenario; wall_s; events; packets; ops; minor_words }

let cluster_totals cluster ops =
  ( Sim.Engine.events_executed (C.engine cluster),
    Sim.Metrics.count (C.metrics cluster) "net.pkt",
    ops )

let speed_scenarios quick =
  [
    (* Fig. 7's workload: one client, the three latency scenarios. *)
    ( "fig7_latency",
      fun () ->
        let repeats = if quick then 3 else 40 in
        let cluster = C.create ~seed:7L C.Group_disk in
        ignore (Workload.Scenarios.run_fig7 ~repeats cluster);
        cluster_totals cluster (3 * repeats) );
    (* Fig. 8's workload: 7 closed-loop lookup clients. *)
    ( "fig8_lookup",
      fun () ->
        let window = if quick then 500.0 else 10_000.0 in
        let cluster = C.create ~seed:801L C.Group_disk in
        let point = Workload.Throughput.lookups cluster ~clients:7 ~window in
        cluster_totals cluster point.Workload.Throughput.total_ops );
    (* Fig. 9's workload: 7 closed-loop append-delete clients — every
       update is a SendToGroup multicast, the protocol hot path. *)
    ( "fig9_append_delete",
      fun () ->
        let window = if quick then 1_000.0 else 30_000.0 in
        let cluster = C.create ~seed:901L C.Group_disk in
        let point =
          Workload.Throughput.append_deletes cluster ~clients:7 ~window
        in
        cluster_totals cluster point.Workload.Throughput.total_ops );
    (* Beyond the paper's 7 clients: 50 closed-loop update clients
       against a 5-replica group — the scale the ROADMAP points at. *)
    ( "scaled_50c_5s",
      fun () ->
        let clients = if quick then 12 else 50 in
        let window = if quick then 500.0 else 2_000.0 in
        let cluster = C.create ~seed:5001L ~servers:5 C.Group_disk in
        let point =
          Workload.Throughput.append_deletes cluster ~clients ~window
        in
        cluster_totals cluster point.Workload.Throughput.total_ops );
  ]

(* The full figure grid (fig7's flavor runs plus every (flavor, clients,
   seed) point of figs. 8 and 9) as a flat list of independent thunks —
   the workload whose wall clock the --jobs fan-out is meant to cut.
   [--quick] shrinks repeats and windows the same way the scenarios
   above do. *)
let grid_thunks quick =
  let repeats = if quick then 3 else 12 in
  let points = if quick then [ 3; 7 ] else sweep_clients in
  let fig7_runs =
    List.map
      (fun (flavor, _) () ->
        ignore
          (Workload.Scenarios.run_fig7 ~repeats (C.create ~seed:fig7_seed flavor)))
      flavors
  in
  let sweep_runs base measure =
    List.concat_map
      (fun (flavor, off) ->
        List.concat_map
          (fun clients ->
            List.map
              (fun seed () ->
                let cluster = C.create ~seed flavor in
                ignore (measure cluster ~clients))
              (replicate_seeds (Int64.add base off)))
          points)
      fig8_flavor_offsets
  in
  let lookup_window = if quick then 500.0 else 2_000.0 in
  let pair_window = if quick then 500.0 else 4_000.0 in
  fig7_runs
  @ sweep_runs 800L (fun cluster ~clients ->
        Workload.Throughput.lookups cluster ~clients ~window:lookup_window)
  @ sweep_runs 900L (fun cluster ~clients ->
        Workload.Throughput.append_deletes cluster ~clients ~window:pair_window)

(* Wall clock of the whole grid at 1/2/4 domains, each on a private
   pool. Runs after the shared pool has drained (the driver sequences
   the speed experiment behind every parallel one), so nothing else
   competes for the cores. *)
let measure_jobs_scaling quick =
  List.map
    (fun jobs ->
      let runs = grid_thunks quick in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      Sim.Pool.with_pool ~jobs (fun pool ->
          ignore (Sim.Pool.map pool (fun f -> f ()) runs));
      (jobs, Unix.gettimeofday () -. t0))
    [ 1; 2; 4 ]

(* Batch-efficiency: the scaled update scenario at several batch sizes.
   batch = 1 sends every update in a batch of one and commits it in
   place on its own (the paper's eager commit), so its commits/op is
   one flush per applied update; larger batches share a commit-block
   write per delivered burst. *)
let measure_batch quick batch =
  let clients = if quick then 12 else 50 in
  let window = if quick then 500.0 else 2_000.0 in
  let params = { Dirsvc.Params.default with batch_max = batch } in
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let cluster = C.create ~seed:5001L ~params ~servers:5 C.Group_disk in
  let point = Workload.Throughput.append_deletes cluster ~clients ~window in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  ( batch,
    wall_s,
    point.Workload.Throughput.total_ops,
    Sim.Engine.events_executed (C.engine cluster),
    Sim.Metrics.count (C.metrics cluster) "dirsvc.commit",
    minor_words )

let speed () =
  let quick = !speed_quick in
  printf "\n== Speed: wall-clock throughput of the simulation core ==\n";
  printf "(real seconds%s; simulated results are seed-identical)\n\n"
    (if quick then ", --quick" else "");
  let rows = List.map (fun (name, run) -> measure_speed name run) (speed_scenarios quick) in
  let table_rows =
    List.map
      (fun r ->
        [
          r.scenario;
          Printf.sprintf "%.3f" r.wall_s;
          Printf.sprintf "%.0f" (float_of_int r.events /. r.wall_s);
          Printf.sprintf "%.0f" (float_of_int r.packets /. r.wall_s);
          Printf.sprintf "%d" r.ops;
          (if r.ops = 0 then "-"
           else Printf.sprintf "%.0f" (r.minor_words /. float_of_int r.ops));
        ])
      rows
  in
  print_string
    (Workload.Tables.render
       ~header:
         [ "scenario"; "wall s"; "events/s"; "packets/s"; "ops"; "minor w/op" ]
       table_rows);
  let batch_points = if quick then [ 1; 4 ] else [ 1; 4; 8 ] in
  let batch_rows = List.map (measure_batch quick) batch_points in
  printf "\nbatch-efficiency: scaled update scenario, group commit on/off\n";
  print_string
    (Workload.Tables.render
       ~header:
         [ "batch"; "wall s"; "ops"; "events/op"; "commits/op"; "minor w/op" ]
       (List.map
          (fun (batch, wall_s, ops, events, commits, minor_words) ->
            [
              string_of_int batch;
              Printf.sprintf "%.3f" wall_s;
              string_of_int ops;
              (if ops = 0 then "-"
               else Printf.sprintf "%.1f" (float_of_int events /. float_of_int ops));
              (if ops = 0 then "-"
               else
                 Printf.sprintf "%.3f" (float_of_int commits /. float_of_int ops));
              (if ops = 0 then "-"
               else Printf.sprintf "%.0f" (minor_words /. float_of_int ops));
            ])
          batch_rows));
  let scaling = measure_jobs_scaling quick in
  let base_wall = match scaling with (1, w) :: _ -> w | _ -> nan in
  printf "\njobs-scaling: full figure grid wall clock (%d cores available)\n"
    (Domain.recommended_domain_count ());
  print_string
    (Workload.Tables.render
       ~header:[ "jobs"; "grid wall s"; "speedup" ]
       (List.map
          (fun (jobs, wall) ->
            [
              string_of_int jobs;
              Printf.sprintf "%.3f" wall;
              Printf.sprintf "%.2fx" (base_wall /. wall);
            ])
          scaling));
  J.Obj
    [
      ("quick", J.Bool quick);
      ("cores", J.Int (Domain.recommended_domain_count ()));
      ( "batch_efficiency",
        J.List
          (List.map
             (fun (batch, wall_s, ops, events, commits, minor_words) ->
               J.Obj
                 [
                   ("batch_max", J.Int batch);
                   ("wall_s", J.Float wall_s);
                   ("ops", J.Int ops);
                   ("events", J.Int events);
                   ( "events_per_op",
                     if ops = 0 then J.Null
                     else J.Float (float_of_int events /. float_of_int ops) );
                   ( "commits_per_op",
                     if ops = 0 then J.Null
                     else J.Float (float_of_int commits /. float_of_int ops) );
                   ("minor_words", J.Float minor_words);
                   ( "minor_words_per_op",
                     if ops = 0 then J.Null
                     else J.Float (minor_words /. float_of_int ops) );
                 ])
             batch_rows) );
      ( "jobs_scaling",
        J.List
          (List.map
             (fun (jobs, wall) ->
               J.Obj
                 [
                   ("jobs", J.Int jobs);
                   ("grid_wall_s", J.Float wall);
                   ("speedup", J.Float (base_wall /. wall));
                 ])
             scaling) );
      ( "scenarios",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("scenario", J.String r.scenario);
                   ("wall_s", J.Float r.wall_s);
                   ("events", J.Int r.events);
                   ( "events_per_sec",
                     J.Float (float_of_int r.events /. r.wall_s) );
                   ("packets", J.Int r.packets);
                   ( "packets_per_sec",
                     J.Float (float_of_int r.packets /. r.wall_s) );
                   ("ops", J.Int r.ops);
                   ("minor_words", J.Float r.minor_words);
                   ( "minor_words_per_op",
                     if r.ops = 0 then J.Null
                     else J.Float (r.minor_words /. float_of_int r.ops) );
                 ])
             rows) );
    ]

(* ---- Shards: throughput vs shard count (fixed replica budget) ------ *)

(* One measured run: an [m]-shard deployment spending the whole
   12-server budget (so more shards means smaller groups), driven by the
   update-heavy shard workload. [cross_period = 0] is the pure-update
   column; [cross_period = 8] mixes in a cross-shard move every 8th
   iteration per client. *)
let measure_shards ~m ~budget ~clients ~window ~cross_period seed =
  let params = { Dirsvc.Params.default with shards = m } in
  let cluster = C.create ~seed ~params ~servers:(budget / m) C.Group_disk in
  let point =
    Workload.Throughput.shard_updates cluster ~clients ~window ~cross_period
  in
  ( point.Workload.Throughput.per_second,
    point.Workload.Throughput.total_ops,
    point.Workload.Throughput.errors,
    Sim.Metrics.count (C.metrics cluster) "dirsvc.cross_shard",
    histogram_summaries (C.metrics cluster) )

let shards_experiment () =
  let quick = !speed_quick in
  let budget = 12 in
  let shard_counts = [ 1; 2; 4 ] in
  let clients = if quick then 8 else 24 in
  let window = if quick then 500.0 else 8_000.0 in
  printf "\n== Shards: update throughput vs shard count (%d-server budget) ==\n"
    budget;
  printf "(%d clients, %.0f ms window%s; mean of 3 seeds)\n\n" clients window
    (if quick then ", --quick" else "");
  let submit ~base ~cross_period =
    List.map
      (fun m ->
        ( m,
          List.map
            (fun seed ->
              psubmit (fun () ->
                  measure_shards ~m ~budget ~clients ~window ~cross_period seed))
            (replicate_seeds base) ))
      shard_counts
  in
  (* Both columns fan out over the pool before either joins. Updates
     serialize through each group's sequencer commit, so a window fits
     only a handful of iterations per client; the mix moves every 2nd
     (quick) / 4th iteration so the cross path actually runs. *)
  let cross_period = if quick then 2 else 4 in
  let upd_futs = submit ~base:4200L ~cross_period:0 in
  let cross_futs = submit ~base:4300L ~cross_period in
  let join futures =
    List.map
      (fun (m, futs) ->
        let results = List.map Sim.Pool.await futs in
        let mean f = stats_mean (List.map f results) in
        let per_second = mean (fun (ps, _, _, _, _) -> ps) in
        let ops = mean (fun (_, ops, _, _, _) -> float_of_int ops) in
        let errors = mean (fun (_, _, e, _, _) -> float_of_int e) in
        let cross = mean (fun (_, _, _, c, _) -> float_of_int c) in
        let hists =
          match results with (_, _, _, _, h) :: _ -> h | [] -> J.Null
        in
        (m, per_second, ops, errors, cross, hists))
      futures
  in
  let upd = join upd_futs in
  let cross = join cross_futs in
  let base_rate rows =
    match rows with (_, ps, _, _, _, _) :: _ -> ps | [] -> nan
  in
  let upd_base = base_rate upd and cross_base = base_rate cross in
  (* A --quick window can measure 0 ops/s at the slow end; don't print
     (or emit) nan/inf ratios off that. *)
  let speedup ps base =
    if base > 0.0 then Some (ps /. base) else None
  in
  let speedup_cell ps base =
    match speedup ps base with
    | Some s -> Printf.sprintf "%.2fx" s
    | None -> "-"
  in
  printf "update-only (append+delete pairs, cross_period = 0):\n";
  print_string
    (Workload.Tables.render
       ~header:[ "shards"; "servers/shard"; "updates/s"; "ops"; "speedup" ]
       (List.map
          (fun (m, ps, ops, _errors, _cross, _h) ->
            [
              string_of_int m;
              string_of_int (budget / m);
              Printf.sprintf "%.0f" ps;
              Printf.sprintf "%.0f" ops;
              speedup_cell ps upd_base;
            ])
          upd));
  printf "\ncross-shard mix (every %dth iteration moves a row):\n" cross_period;
  print_string
    (Workload.Tables.render
       ~header:
         [ "shards"; "updates/s"; "ops"; "speedup"; "x-commits"; "errors" ]
       (List.map
          (fun (m, ps, ops, errors, cross, _h) ->
            [
              string_of_int m;
              Printf.sprintf "%.0f" ps;
              Printf.sprintf "%.0f" ops;
              speedup_cell ps cross_base;
              Printf.sprintf "%.0f" cross;
              Printf.sprintf "%.0f" errors;
            ])
          cross));
  let column rows base =
    J.List
      (List.map
         (fun (m, ps, ops, errors, cross, hists) ->
           J.Obj
             [
               ("shards", J.Int m);
               ("servers_per_shard", J.Int (budget / m));
               ("per_second", J.Float ps);
               ("total_ops", J.Float ops);
               ("errors", J.Float errors);
               ("cross_shard_commits", J.Float cross);
               ( "speedup_vs_1",
                 match speedup ps base with
                 | Some s -> J.Float s
                 | None -> J.Null );
               ("op_histograms", hists);
             ])
         rows)
  in
  J.Obj
    [
      ("quick", J.Bool quick);
      ("budget_servers", J.Int budget);
      ("clients", J.Int clients);
      ("window_ms", J.Float window);
      ("seeds_per_point", J.Int 3);
      ("cross_period", J.Int cross_period);
      ("update_only", column upd upd_base);
      ("cross_mix", column cross cross_base);
    ]

let all_experiments =
  [
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("costs", costs);
    ("ablation-r", ablation_r);
    ("ablation-size", ablation_size);
    ("ablation-disk", ablation_disk);
    ("mix", mix);
    ("availability", availability);
    ("ablation-method", ablation_method);
    ("micro", micro);
    ("shards", shards_experiment);
    ("speed", speed);
  ]

(* --json [FILE]: machine-readable output. Each experiment's record is
   written to BENCH_<name>.json (dashes mapped to underscores), and one
   aggregate document is printed on stdout — and also written to FILE when
   given. A bare token after --json is taken as the FILE unless it names
   an experiment. *)
type json_mode = Text | Json of string option

(* The two real-time experiments must not share the machine with the
   simulated-time grid: they run on the coordinator after every parallel
   experiment has been joined. *)
let timing_experiments = [ "micro"; "speed" ]

let () =
  let int_flag flag value rest k =
    match int_of_string_opt value with
    | Some n when n >= 1 -> k n rest
    | _ ->
        Printf.eprintf "%s expects a positive integer, got %S\n" flag value;
        exit 2
  in
  let rec parse names mode = function
    | [] -> (List.rev names, mode)
    | "--quick" :: rest ->
        speed_quick := true;
        parse names mode rest
    | "--jobs" :: value :: rest ->
        int_flag "--jobs" value rest (fun n rest ->
            jobs_level := n;
            parse names mode rest)
    | "--seeds" :: value :: rest ->
        int_flag "--seeds" value rest (fun n rest ->
            seed_count := n;
            parse names mode rest)
    | "--json" :: rest -> (
        match rest with
        | path :: rest'
          when (not (List.mem_assoc path all_experiments))
               && String.length path > 0
               && path.[0] <> '-' ->
            parse names (Json (Some path)) rest'
        | _ -> parse names (Json None) rest)
    | name :: rest -> parse (name :: names) mode rest
  in
  let requested, mode = parse [] Text (List.tl (Array.to_list Sys.argv)) in
  let requested =
    if requested = [] then List.map fst all_experiments else requested
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name all_experiments) then begin
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst all_experiments));
        exit 1
      end)
    requested;
  (match mode with Json _ -> quiet := true | Text -> ());
  (* Stage: submit every parallel experiment (captured, so its prints
     replay in order), keep the real-time ones for the coordinator. With
     --jobs 1 submission runs everything inline in submission order, so
     the emitted bytes are identical at any jobs level. *)
  let staged =
    List.map
      (fun name ->
        let f = List.assoc name all_experiments in
        if List.mem name timing_experiments then (name, `Seq f)
        else (name, `Par (psubmit (fun () -> captured f))))
      requested
  in
  let drain () =
    List.iter
      (fun (_, stage) ->
        match stage with
        | `Par fut -> ( try ignore (Sim.Pool.await fut) with _ -> ())
        | `Seq _ -> ())
      staged
  in
  let results =
    List.map
      (fun (name, stage) ->
        let value =
          match stage with
          | `Par fut ->
              let out, value = Sim.Pool.await fut in
              print_string out;
              value
          | `Seq f ->
              drain ();
              f ()
        in
        (match mode with
        | Json _ ->
            let file =
              Printf.sprintf "BENCH_%s.json"
                (String.map (function '-' -> '_' | c -> c) name)
            in
            let oc = open_out file in
            output_string oc
              (J.to_string_pretty
                 (J.Obj [ ("experiment", J.String name); ("result", value) ]));
            output_char oc '\n';
            close_out oc
        | Text -> ());
        (name, value))
      staged
  in
  Sim.Pool.shutdown (pool ());
  match mode with
  | Text -> ()
  | Json target ->
      let doc = J.to_string_pretty (J.Obj results) in
      (match target with
      | Some path ->
          let oc = open_out path in
          output_string oc doc;
          output_char oc '\n';
          close_out oc
      | None -> ());
      Stdlib.print_string doc;
      Stdlib.print_newline ()
