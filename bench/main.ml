(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4), the §3.1 message/disk cost analysis, and the design
   ablations called out in DESIGN.md — plus Bechamel microbenchmarks of
   the hot code paths (one Test.make per table/figure) and the
   simulator's own speed and regression gates.

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
   Regression gates:      dune exec bench/main.exe -- gates
                          (exits 1 when a gate fails)
   Allocation profile:    dune exec bench/main.exe -- speed --profile
                          (every scenario's events and minor words split
                          by delivered payload, woken fiber and timer)
   Available experiments: fig7 fig8 fig9 costs ablation-r ablation-size
                          ablation-disk mix availability ablation-method
                          micro shards speed gates *)

module C = Dirsvc.Cluster
module J = Sim.Json

(* ---- experiments as records ---------------------------------------- *)

(* What an experiment hands the coordinator once its runs have joined.
   [failures] is non-empty only for a failed regression gate: each
   entry goes to stderr and the process exits 1. *)
type report = { text : string; json : J.t; failures : string list }

let report ?(failures = []) text json = { text; json; failures }

(* [start pool] submits the experiment's independent runs to [pool] up
   front and returns the join, which awaits them and renders the
   report. Measurements never print: the coordinator prints each report
   in submission order, so the output is identical at any --jobs level.
   A [timing] experiment measures real time, so the coordinator starts
   it only after every simulated-time experiment has joined. *)
type experiment = {
  name : string;
  timing : bool;
  start : Sim.Pool.t -> unit -> report;
}

let experiment ?(timing = false) name runs render =
  {
    name;
    timing;
    start =
      (fun pool ->
        let join = runs pool in
        fun () -> render (join ()));
  }

(* Submit [f item] for every item; the join awaits them in order. *)
let submit_all pool f items =
  let futures =
    List.map (fun item -> Sim.Pool.submit pool (fun () -> f item)) items
  in
  fun () -> List.map Sim.Pool.await futures

(* ---- columns: one declaration per table column and JSON field ------ *)

(* A column is declared once — text header and cell formatter, JSON key
   and converter — and one column list drives both the text table and
   the JSON objects. Either half may be absent: a prose-only column in
   the table, a raw count only in the JSON. *)
type 'row column = {
  cell : (string * ('row -> string)) option;
  field : (string * ('row -> J.t)) option;
}

let column header key get cell json =
  {
    cell = Some (header, fun row -> cell (get row));
    field = Some (key, fun row -> json (get row));
  }

let text_col header cell = { cell = Some (header, cell); field = None }

let json_col key json = { cell = None; field = Some (key, json) }

let float_col header key fmt get =
  column header key get (Printf.sprintf fmt) (fun v -> J.Float v)

let int_col ?(fmt : (int -> string, unit, string) format = "%d") header key
    get =
  column header key get (Printf.sprintf fmt) (fun v -> J.Int v)

(* A value that may be undefined (a per-op ratio over zero ops). *)
let opt_col header key fmt get =
  column header key get
    (function Some v -> Printf.sprintf fmt v | None -> "-")
    (function Some v -> J.Float v | None -> J.Null)

(* [c] for rows that hold its row type at [project row]. *)
let on project c =
  {
    cell = Option.map (fun (h, cell) -> (h, fun row -> cell (project row))) c.cell;
    field =
      Option.map (fun (k, json) -> (k, fun row -> json (project row))) c.field;
  }

let table columns rows =
  let cells = List.filter_map (fun c -> c.cell) columns in
  Workload.Tables.render ~header:(List.map fst cells)
    (List.map (fun row -> List.map (fun (_, cell) -> cell row) cells) rows)

let fields columns row =
  List.filter_map
    (fun c -> Option.map (fun (key, json) -> (key, json row)) c.field)
    columns

let objects columns rows =
  J.List (List.map (fun row -> J.Obj (fields columns row)) rows)

(* ---- seeds and --seeds variance ------------------------------------ *)

let jobs_level = ref 1

let seed_count = ref 1

(* Derived per-rerun seeds for [--seeds K]; [] when the mode is off. *)
let variance_seeds ~base =
  if !seed_count <= 1 then []
  else Sim.Rng.derive ~base !seed_count

(* A seeded figure's runs: its grid at [base] and, under [--seeds K],
   the whole grid again once per derived seed. *)
let seeded ~base grid pool =
  let main = grid pool ~seed:base in
  let reruns = List.map (fun seed -> grid pool ~seed) (variance_seeds ~base) in
  fun () -> (main (), List.map (fun join -> join ()) reruns)

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

(* [--seeds K]: mean ± 95% CI of each named scalar cell across the
   reruns. [cells run] gives one (row label, one value per column) pair
   per row. Returns the text section and the ["seed_variance"] field —
   nested [{row: {key: ci}}], or flat [{row: ci}] for a single column —
   or nothing when the mode is off. *)
let seed_variance ~title ~corner ~columns cells = function
  | [] -> ("", [])
  | runs ->
      let per_run = List.map cells runs in
      let rows =
        List.mapi
          (fun i (label, _) ->
            ( label,
              List.mapi
                (fun j _ ->
                  Workload.Stats.summarise
                    (List.map
                       (fun run -> List.nth (snd (List.nth run i)) j)
                       per_run))
                columns ))
          (List.hd per_run)
      in
      let cols =
        text_col corner fst
        :: List.mapi
             (fun j (header, key) ->
               column header key (fun (_, s) -> List.nth s j) ci_cell ci_to_json)
             columns
      in
      let json =
        J.Obj
          (List.map
             (fun ((label, summaries) as row) ->
               ( label,
                 match summaries with
                 | [ s ] -> ci_to_json s
                 | _ -> J.Obj (fields cols row) ))
             rows)
      in
      (title (List.length runs) ^ table cols rows, [ ("seed_variance", json) ])

(* ---- shared helpers -------------------------------------------------- *)

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

(* The figure's three scenarios, each declared once: its row in the
   table, the paper's values, its variance column and its JSON key. *)
type fig7_op = {
  label : string;
  paper : string;
  short : string;
  key : string;
  pick : Workload.Scenarios.fig7 -> Workload.Stats.summary;
}

let fig7_ops =
  [
    {
      label = "Append-delete";
      paper = "184/192/87/27";
      short = "append-delete";
      key = "append_delete";
      pick = (fun f -> f.Workload.Scenarios.append_delete_ms);
    };
    {
      label = "Tmp file";
      paper = "215/277/111/52";
      short = "tmp file";
      key = "tmp_file";
      pick = (fun f -> f.Workload.Scenarios.tmp_file_ms);
    };
    {
      label = "Directory lookup";
      paper = "5/5/6/5";
      short = "lookup";
      key = "lookup";
      pick = (fun f -> f.Workload.Scenarios.lookup_ms);
    };
  ]

(* Per-flavor runs are independent deployments: fan them out. *)
let fig7_grid ?(repeats = 12) pool ~seed =
  submit_all pool
    (fun (flavor, name) ->
      let cluster = C.create ~seed flavor in
      (name, Workload.Scenarios.run_fig7 ~repeats cluster, C.metrics cluster))
    flavors

let fig7 =
  let render (measured, reruns) =
    let columns =
      (text_col "Operation" (fun op -> op.label)
      :: List.map
           (fun (name, fig, _) ->
             text_col name (fun op ->
                 Printf.sprintf "%.0f" (op.pick fig).Workload.Stats.mean))
           measured)
      @ [ text_col "paper (G/R/N/V)" (fun op -> op.paper) ]
    in
    let variance_text, variance =
      seed_variance
        ~title:
          (Printf.sprintf
             "\nseed variance across %d derived seeds (mean ± 95%% CI, ms):\n")
        ~corner:"service"
        ~columns:(List.map (fun op -> (op.short, op.key)) fig7_ops)
        (List.map (fun (name, fig, _) ->
             (name, List.map (fun op -> (op.pick fig).Workload.Stats.mean) fig7_ops)))
        reruns
    in
    let service (name, fig, metrics) =
      J.Obj
        [
          ("service", J.String name);
          ( "client_latency_ms",
            J.Obj
              (List.map
                 (fun op -> (op.key, Workload.Stats.summary_to_json (op.pick fig)))
                 fig7_ops) );
          (* Per-server latency histograms recorded inside the servers
             themselves, e.g. "dirsvc.op_ms{op=append_row, server=2}". *)
          ("server_latency_ms", histogram_summaries metrics);
        ]
    in
    report
      ("== Fig. 7: single-client latency (simulated msec) ==\n\n"
      ^ table columns fig7_ops ^ variance_text)
      (J.Obj (("flavors", J.List (List.map service measured)) :: variance))
  in
  experiment "fig7"
    (seeded ~base:fig7_seed (fun pool ~seed -> fig7_grid pool ~seed))
    render

(* ---- Figs. 8 and 9: throughput vs clients ------------------------- *)

(* Like the paper, each point averages several independent runs; the
   port-cache assignment makes single runs noisy. *)
let sweep_clients = [ 1; 2; 3; 4; 5; 6; 7 ]

let replicate_seeds seed = [ seed; Int64.add seed 37L; Int64.add seed 71L ]

(* The three series of Figs. 8 and 9, each declared once: flavor, seed
   offset from the figure's base seed, title and JSON key. *)
let sweep_series =
  [
    (C.Group_disk, 1L, "Group service", "group");
    (C.Group_nvram, 2L, "Group service + NVRAM", "group_nvram");
    (C.Rpc_pair, 3L, "RPC service", "rpc");
  ]

(* One figure's three sweeps as one grid of independent (flavor,
   clients, seed) runs. Submission happens up front; the join
   re-assembles the per-flavor series in submission order, so the series
   — and every table rendered from them — are identical at any --jobs
   level. *)
let sweep_grid ?(points = sweep_clients) pool ~seed measure =
  let futures =
    List.map
      (fun (flavor, off, _, _) ->
        List.map
          (fun clients ->
            ( clients,
              submit_all pool
                (fun seed ->
                  (measure (C.create ~seed flavor) ~clients)
                    .Workload.Throughput.per_second)
                (replicate_seeds (Int64.add seed off)) ))
          points)
      sweep_series
  in
  fun () ->
    List.map
      (List.map (fun (clients, join) ->
           (clients, Workload.Stats.mean (join ()))))
      futures

let saturation series = List.fold_left (fun acc (_, v) -> max acc v) 0.0 series

(* [notes sat] is the figure's prose under the plots, [sat key] the
   saturation of one series; [extra] JSON fields go before
   ["saturation"]. *)
let render_sweep ~title ~notes ?(extra = []) (series, reruns) =
  let keyed values = List.map2 (fun (_, _, _, key) v -> (key, v)) sweep_series values in
  let saturations = keyed (List.map saturation series) in
  let variance_text, variance =
    seed_variance
      ~title:
        (Printf.sprintf
           "seed variance of saturation across %d derived seeds (mean ± 95%% \
            CI):\n")
      ~corner:"series"
      ~columns:[ ("saturation ops/s", "saturation") ]
      (fun run -> keyed (List.map (fun s -> [ saturation s ]) run))
      reruns
  in
  report
    (String.concat ""
       (title
       :: List.map2
            (fun (_, _, name, _) s ->
              Workload.Tables.series ~title:name ~x_label:"clients"
                ~y_label:"ops/s" s
              ^ "\n")
            sweep_series series)
    ^ notes (fun key -> List.assoc key saturations)
    ^ variance_text)
    (J.Obj
       (keyed (List.map series_to_json series)
       @ extra
       @ [
           ( "saturation",
             J.Obj (List.map (fun (key, s) -> (key, J.Float s)) saturations) );
         ]
       @ variance))

let fig8_seed = 800L

let fig8_grid ?points ?window pool ~seed =
  sweep_grid ?points pool ~seed (fun cluster ~clients ->
      Workload.Throughput.lookups ?window cluster ~clients)

let fig8 =
  let bound servers =
    Workload.Bounds.read_bound ~servers
  in
  experiment "fig8"
    (seeded ~base:fig8_seed (fun pool ~seed -> fig8_grid pool ~seed))
    (render_sweep
       ~title:"\n== Fig. 8: lookup throughput vs number of clients ==\n\n"
       ~notes:(fun sat ->
         Printf.sprintf
           "analytic upper bounds (paper: 1000 group / 666 RPC):\n\
           \  group: %.0f lookups/s   rpc: %.0f lookups/s\n\
            measured saturation (paper: 652 group, 520 RPC):\n\
           \  group: %.0f   group+nvram: %.0f   rpc: %.0f\n"
           (bound 3) (bound 2) (sat "group") (sat "group_nvram") (sat "rpc"))
       ~extra:
         [
           ( "analytic_bound",
             J.Obj [ ("group", J.Float (bound 3)); ("rpc", J.Float (bound 2)) ]
           );
         ])

let fig9_seed = 900L

let fig9_grid ?points ?window pool ~seed =
  sweep_grid ?points pool ~seed (fun cluster ~clients ->
      Workload.Throughput.append_deletes ?window cluster ~clients)

let fig9 =
  experiment "fig9"
    (seeded ~base:fig9_seed (fun pool ~seed -> fig9_grid pool ~seed))
    (render_sweep
       ~title:"\n== Fig. 9: append-delete pairs/s vs number of clients ==\n\n"
       ~notes:(fun sat ->
         Printf.sprintf
           "paper's saturation: 5 group / 5 RPC / 45 NVRAM pairs/s\n\
            measured saturation: group %.1f, rpc %.1f, nvram %.1f\n\
            (append and delete are both writes, so write throughput is \
            twice these)\n"
           (sat "group") (sat "rpc") (sat "group_nvram")))

(* ---- §3.1 cost analysis: messages and disk ops per update ---------- *)

let cost_services =
  [
    (C.Group_disk, "Group service (paper: 5 messages, 2 disk ops at each replica)");
    (C.Group_nvram, "Group service + NVRAM (paper: no disk ops in the critical path)");
    (C.Rpc_pair, "RPC service (paper: 2 RPCs of 3 messages, 3 disk ops)");
    (C.Nfs_single, "Sun NFS (1 RPC, 1 disk op)");
  ]

(* The group protocol's message kinds, counted as grp.<kind>. *)
let group_messages = [ "req"; "data"; "ack"; "done" ]

(* The counter deltas (plus "disk.delta", disk writes across replicas)
   across one counted update. *)
let one_update (flavor, label) =
  let cluster = C.create ~seed:19L flavor in
  ignore (C.await_ready cluster);
  (* The paper's 5-message count is for an initiator that is not the
     sequencer (the common case); steer the measurement client to a
     server other than node 1, the group creator. *)
  let rec non_sequencer_client tries =
    let client = C.client cluster in
    if tries = 0 then client
    else begin
      let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
      Sim.Proc.boot (C.engine cluster) node (fun () ->
          try
            ignore
              (Dirsvc.Client.list_dir client
                 (Capability.owner ~port:(C.port cluster) ~obj:0 0L))
          with _ -> ());
      C.run_until cluster (Sim.Engine.now (C.engine cluster) +. 200.0);
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
  (label, !counters)

let costs =
  let render measured =
    let text, json =
      List.split
        (List.map
           (fun (label, counters) ->
             let get key = Option.value ~default:0 (List.assoc_opt key counters) in
             let messages = List.map (fun m -> (m, get ("grp." ^ m))) group_messages in
             let total = List.fold_left (fun acc (_, n) -> acc + n) 0 messages in
             ( Printf.sprintf
                 "%s:\n\
                 \  group messages: %s (total %d)\n\
                 \  total wire packets: %d\n\
                 \  disk writes across replicas: %d\n\n"
                 label
                 (String.concat " "
                    (List.map (fun (m, n) -> Printf.sprintf "%s=%d" m n) messages))
                 total (get "net.pkt") (get "disk.delta"),
               J.Obj
                 [
                   ("service", J.String label);
                   ( "group_messages",
                     J.Obj
                       (List.map (fun (m, n) -> (m, J.Int n)) messages
                       @ [ ("total", J.Int total) ]) );
                   ("wire_packets", J.Int (get "net.pkt"));
                   ("disk_writes", J.Int (get "disk.delta"));
                 ] ))
           measured)
    in
    report
      (String.concat "" ("\n== Cost analysis per update (paper §3.1) ==\n\n" :: text))
      (J.List json)
  in
  experiment "costs" (fun pool -> submit_all pool one_update cost_services) render

(* ---- Ablations ----------------------------------------------------- *)

(* [count] SendToGroups of [payload] from member 2 of a fresh
   three-member group (member 1 creates it; 2 and 3 join). Returns the
   mean time the sender blocks per send, and the counter deltas across
   the sends. *)
let group_sends ~seed config ~count payload =
  let engine = Sim.Engine.create ~seed () in
  let metrics = Sim.Engine.metrics engine in
  let net = Simnet.Network.create engine () in
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
              Group.Member.create_group ~config net nic ~gname:"g"
            else begin
              Sim.Proc.sleep (float_of_int id);
              Group.Member.join_group ~config net nic ~gname:"g"
            end
          in
          Hashtbl.replace members id m))
    [ 1; 2; 3 ];
  let samples = ref [] in
  let delta = ref [] in
  Sim.Engine.schedule engine ~delay:30.0 (fun () ->
      Sim.Proc.boot engine (Hashtbl.find nodes 2) (fun () ->
          let m = Hashtbl.find members 2 in
          let before = Sim.Metrics.counters metrics in
          for _ = 1 to count do
            let t0 = Sim.Proc.now () in
            Group.Member.send m payload;
            samples := (Sim.Proc.now () -. t0) :: !samples
          done;
          delta :=
            Sim.Metrics.delta ~before ~after:(Sim.Metrics.counters metrics)));
  Sim.Engine.run ~until:2_000.0 engine;
  (stats_mean !samples, !delta)

(* Raw SendToGroup latency of a three-member group at resilience r:
   how long the sender blocks before the message is held by r+1
   members. This is where the r trade-off is visible — the dir service
   buries it under disk time. *)
let raw_send_latency r =
  fst
    (group_sends ~seed:13L
       { Group.Types.default_config with resilience = r }
       ~count:30 (Simnet.Payload.Opaque "x"))

let ablation_r =
  let rs = [ 0; 1; 2 ] in
  let runs pool =
    let pairs =
      submit_all pool
        (fun r ->
          let params =
            { Dirsvc.Params.default with resilience_override = Some r }
          in
          let cluster = C.create ~seed:23L ~params C.Group_disk in
          stats_mean (Workload.Scenarios.append_delete ~repeats:10 cluster))
        rs
    in
    let raws = submit_all pool raw_send_latency rs in
    fun () ->
      let pairs = pairs () in
      List.map2 (fun r (pair, raw) -> (r, pair, raw)) rs (List.combine pairs (raws ()))
  in
  let columns =
    [
      int_col ~fmt:"r = %d" "resilience" "resilience" (fun (r, _, _) -> r);
      float_col "append-delete ms" "append_delete_ms" "%.1f" (fun (_, pair, _) -> pair);
      text_col "guarantee" (fun (r, _, _) ->
          match r with
          | 0 -> "send returns on ordering"
          | 1 -> "survives 1 crash"
          | _ -> "survives 2 crashes (paper default)");
      json_col "raw_send_ms" (fun (_, _, raw) -> J.Float raw);
    ]
  in
  experiment "ablation-r" runs (fun rows ->
      report
        (String.concat ""
           ("\n== Ablation: resilience degree r vs update latency ==\n\
             (the paper's §1 trade-off: r buys fault tolerance with messages)\n\n"
           :: table columns rows
           :: "\nraw SendToGroup completion latency (no disk in the way):\n"
           :: List.map
                (fun (r, _, raw) -> Printf.sprintf "  r = %d: %.2f ms\n" r raw)
                rows
           @ [
               "disk time dominates end-to-end latency at any r - the paper's \
                very point.\n";
             ]))
        (objects columns rows))

let ablation_size =
  let columns =
    [
      int_col ~fmt:"%d replicas" "group size" "replicas" (fun (n, _, _) -> n);
      float_col "append-delete ms" "append_delete_ms" "%.1f" (fun (_, pair, _) -> pair);
      float_col "lookup ms" "lookup_ms" "%.2f" (fun (_, _, look) -> look);
    ]
  in
  experiment "ablation-size"
    (fun pool ->
      submit_all pool
        (fun n ->
          let cluster = C.create ~seed:29L ~servers:n C.Group_disk in
          let pair =
            stats_mean (Workload.Scenarios.append_delete ~repeats:8 cluster)
          in
          let look = stats_mean (Workload.Scenarios.lookup ~repeats:20 cluster) in
          (n, pair, look))
        [ 3; 5 ])
    (fun rows ->
      report
        ("\n== Ablation: group size (3 vs 5 replicas) ==\n\
          (the paper: the protocol is unchanged for four or more replicas)\n\n"
        ^ table columns rows)
        (objects columns rows))

let ablation_disk =
  let runs pool =
    let futures =
      List.map
        (fun scale ->
          let params =
            Dirsvc.Params.with_disk_scale Dirsvc.Params.default scale
          in
          let run flavor =
            Sim.Pool.submit pool (fun () ->
                let cluster = C.create ~seed:31L ~params flavor in
                stats_mean (Workload.Scenarios.append_delete ~repeats:8 cluster))
          in
          (scale, run C.Group_disk, run C.Group_nvram))
        [ 0.25; 0.5; 1.0; 2.0 ]
    in
    fun () ->
      List.map
        (fun (scale, disk, nvram) ->
          (scale, Sim.Pool.await disk, Sim.Pool.await nvram))
        futures
  in
  let columns =
    [
      float_col "disk speed" "disk_scale" "%.2fx disk" (fun (scale, _, _) -> scale);
      float_col "group pair ms" "group_pair_ms" "%.1f" (fun (_, disk, _) -> disk);
      float_col "nvram pair ms" "nvram_pair_ms" "%.1f" (fun (_, _, nvram) -> nvram);
    ]
  in
  experiment "ablation-disk" runs (fun rows ->
      report
        ("\n== Ablation: disk latency scaling ==\n\
          (the paper §5: disk operations are the major bottleneck)\n\n"
        ^ table columns rows
        ^ "the group service scales with the disk; the NVRAM service does \
           not.\n")
        (objects columns rows))

(* ---- Ablation: PB vs BB dissemination ------------------------------ *)

(* The group substrate's two dissemination methods (Kaashoek & Tanenbaum
   ICDCS'91): PB forwards the full body through the sequencer; BB
   broadcasts the body from the sender and the sequencer emits only a
   tiny Accept. Count what the sequencer actually sends. *)
let ablation_method =
  let methods = [ (Group.Types.Pb, "PB:", "pb"); (Group.Types.Bb, "BB:", "bb") ] in
  let run (dissemination, _, _) =
    group_sends ~seed:59L
      { Group.Types.default_config with dissemination }
      ~count:25
      (Simnet.Payload.Opaque (String.make 1024 'x'))
  in
  experiment "ablation-method"
    (fun pool -> submit_all pool run methods)
    (fun measured ->
      let rows =
        List.map2
          (fun (_, label, key) (latency, delta) ->
            let get key =
              Option.value ~default:0 (List.assoc_opt key delta)
            in
            ( Printf.sprintf
                "  %-3s latency %.2f ms/send; sequencer forwards %d full bodies,                %d accepts; sender bodies %d\n"
                label latency (get "grp.data") (get "grp.accept")
                (get "grp.body"),
              ( key,
                J.Obj
                  [
                    ("latency_ms_per_send", J.Float latency);
                    ("sequencer_bodies", J.Int (get "grp.data"));
                    ("accepts", J.Int (get "grp.accept"));
                    ("sender_bodies", J.Int (get "grp.body"));
                  ] ) ))
          methods measured
      in
      report
        (String.concat ""
           (("\n== Ablation: PB vs BB dissemination ==\n\n" :: List.map fst rows)
           @ [
               "same ordering guarantees and latency; under BB the body \
                crosses the\n\
                sequencer zero times - the win grows with message size.\n";
             ]))
        (J.Obj (List.map snd rows)))

(* ---- Availability: unavailability window around failures ----------- *)

(* Not a paper figure, but the paper's availability claim made concrete:
   how long are clients refused while the group absorbs a crash, how
   long does the probe client stall, and how long until a restarted
   replica is back in the view? The victim is a fixed server, or the
   one the probe client is talking to (the head of its port cache) when
   the crash comes. Returns the first refused and first later completed
   update times (nan when absent), the longest probe pair that ended
   after the crash, and the rejoin time. *)
let crash_at = 500.0

let outage_run (victim, label) =
  let cluster = C.create ~seed:47L C.Group_disk in
  ignore (C.await_serving cluster ~count:3);
  let client = C.client cluster in
  let transport = Dirsvc.Client.transport client in
  let node = Rpc.Transport.node transport in
  let outage_start = ref nan and outage_end = ref nan and stall = ref 0.0 in
  Sim.Proc.boot (C.engine cluster) node (fun () ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      (* Probe with updates: writes must traverse the group, so they
         feel the view change (reads are served locally by any
         majority-side replica and sail straight through — itself a
         result worth noting). *)
      let serial = ref 0 in
      while Float.is_nan !outage_end && Sim.Proc.now () < 20_000.0 do
        incr serial;
        let name = Printf.sprintf "probe%d" !serial in
        let started = Sim.Proc.now () in
        (match
           Dirsvc.Client.append_row client cap ~name [ cap ];
           Dirsvc.Client.delete_row client cap ~name
         with
        | () ->
            if not (Float.is_nan !outage_start) then
              outage_end := Sim.Proc.now ()
        | exception _ ->
            if Float.is_nan !outage_start then outage_start := Sim.Proc.now ());
        if Sim.Proc.now () > crash_at then
          stall := Float.max !stall (Sim.Proc.now () -. started);
        Sim.Proc.sleep 10.0
      done);
  let crashed = ref 0 in
  Sim.Engine.schedule (C.engine cluster) ~delay:crash_at (fun () ->
      crashed :=
        (match victim with
        | Some server -> server
        | None -> List.hd (Rpc.Transport.cached_servers transport ~port:(C.port cluster)));
      C.crash_server cluster !crashed);
  C.run_until cluster 22_000.0;
  let t_restart = Sim.Engine.now (C.engine cluster) in
  C.restart_server cluster !crashed;
  ignore (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  let rejoin = Sim.Engine.now (C.engine cluster) -. t_restart in
  (label, !crashed, !outage_start, !outage_end, !stall, rejoin)

let availability =
  let render measured =
    let rows =
      List.map
        (fun (label, server, start, stop, stall, rejoin) ->
          let label = Printf.sprintf "%s (server %d)" label server in
          ( (match (Float.is_nan start, Float.is_nan stop) with
            | true, _ ->
                Printf.sprintf
                  "  %-40s no refusals; stall %.0f ms; rejoin %.0f ms\n" label
                  stall rejoin
            | false, false ->
                Printf.sprintf
                  "  %-40s outage %.0f ms; stall %.0f ms; rejoin %.0f ms\n" label
                  (stop -. start) stall rejoin
            | false, true ->
                Printf.sprintf "  %-40s outage did not end within the run\n"
                  label),
            J.Obj
              [
                ("scenario", J.String label);
                ("server", J.Int server);
                ( "outage_ms",
                  if Float.is_nan start then J.Float 0.0
                  else if Float.is_nan stop then J.Null
                  else J.Float (stop -. start) );
                ("stall_ms", J.Float stall);
                ("rejoin_ms", J.Float rejoin);
              ] ))
        measured
    in
    report
      (String.concat ""
         (("\n== Availability: service interruption around failures ==\n\n"
          :: List.map fst rows)
         @ [
             "(outage = first refused update to first completed update; \
              stall = longest\n\
             \ probe pair (append + delete) ending after the crash at \
              t=500; lookups are\n\
             \ served locally by the survivors and see no outage)\n";
           ]))
      (J.List (List.map snd rows))
  in
  experiment "availability"
    (fun pool ->
      submit_all pool outage_run
        [
          (Some 3, "follower crash");
          (Some 1, "sequencer-hosting crash");
          (None, "probe client's server crash");
        ])
    render

(* ---- Bechamel microbenchmarks: one Test.make per table/figure ------ *)

let micro_estimates () =
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
  List.concat_map
    (fun test ->
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (name, Some est) :: acc
          | _ -> (name, None) :: acc)
        (analyse (benchmark test))
        [])
    tests

let micro =
  experiment ~timing:true "micro"
    (fun _ -> micro_estimates)
    (fun estimates ->
      report
        (String.concat ""
           ("\n== Bechamel microbenchmarks (real time, hot paths) ==\n\n"
           :: List.map
                (function
                  | name, Some est ->
                      Printf.sprintf "  %-36s %10.1f ns/op\n" name est
                  | name, None -> Printf.sprintf "  %-36s (no estimate)\n" name)
                estimates))
        (J.Obj
           (List.map
              (fun (name, est) ->
                (name, match est with Some e -> J.Float e | None -> J.Null))
              estimates)))

(* ---- Mixed workload ------------------------------------------------ *)

(* The paper's measured workload: 98% of directory operations are reads
   (§2). Aggregate throughput under the realistic mix. *)
let mix_seed = 55L

let mix_grid pool ~seed =
  submit_all pool
    (fun (flavor, name) ->
      let cluster = C.create ~seed flavor in
      (name, Workload.Mix.run cluster ~clients:5 ~read_fraction:0.98))
    flavors

let mix =
  let columns =
    [
      column "service" "service" fst Fun.id (fun s -> J.String s);
      float_col "ops/s" "ops_per_second" "%.0f" (fun (_, p) ->
          p.Workload.Mix.ops_per_second);
      float_col "reads/s" "reads_per_second" "%.0f" (fun (_, p) ->
          p.Workload.Mix.reads_per_second);
      float_col "writes/s" "writes_per_second" "%.1f" (fun (_, p) ->
          p.Workload.Mix.writes_per_second);
    ]
  in
  let render (measured, reruns) =
    let variance_text, variance =
      seed_variance
        ~title:
          (Printf.sprintf
             "\nseed variance across %d derived seeds (mean ± 95%% CI, ops/s):\n")
        ~corner:"service"
        ~columns:[ ("ops/s", "ops_per_second") ]
        (List.map (fun (name, p) -> (name, [ p.Workload.Mix.ops_per_second ])))
        reruns
    in
    let services = objects columns measured in
    report
      ("\n== Mixed workload: 98% reads / 2% updates (paper §2) ==\n\n"
      ^ table columns measured ^ variance_text)
      (match variance with
      | [] -> services
      | _ -> J.Obj (("services", services) :: variance))
  in
  experiment "mix" (seeded ~base:mix_seed mix_grid) render

(* ---- Speed: wall-clock throughput of the simulation core ----------- *)

(* Unlike every experiment above, this one measures {e real} time: how
   many engine events and wire packets the simulator grinds through per
   wall-clock second, and how much it allocates per simulated operation.
   Simulated-time results are identical across optimization PRs (the
   same-seed trace guarantee); this is the number that is allowed to
   move. [--quick] shrinks every scenario to a ~1 s smoke check.

   The regression gates ([gates] below) check these same runs: each
   gate sits next to the run it reads. *)

let speed_quick = ref false

(* [--profile]: charge every engine event of each speed scenario to a
   bucket (Sim.Engine's profiler) and print the split. *)
let speed_profile = ref false

(* Every speed scenario builds its deployment through this, so that
   [--profile] starts the profiler before the first event runs. *)
let profiled cluster =
  if !speed_profile then Sim.Engine.set_profiling (C.engine cluster) true;
  cluster

(* The profiler's buckets and its own totals, for one run. *)
type profile = {
  buckets : Sim.Engine.bucket_report list;
  inside_events : int; (* events executed inside Engine.run *)
  inside_words : float; (* minor words allocated inside Engine.run *)
}

(* One bucket per fiber or worker role: digits in a name (node ids,
   worker indices) become [N], and the buckets that then share a name
   merge. *)
let merge_buckets buckets =
  let digit = function '0' .. '9' -> true | _ -> false in
  let norm name =
    let b = Buffer.create (String.length name) in
    String.iteri
      (fun i c ->
        if not (digit c) then Buffer.add_char b c
        else if i = 0 || not (digit name.[i - 1]) then Buffer.add_char b 'N')
      name;
    Buffer.contents b
  in
  let merged = Hashtbl.create 64 in
  List.iter
    (fun (b : Sim.Engine.bucket_report) ->
      let key = (b.kind, norm b.name) in
      match Hashtbl.find_opt merged key with
      | Some (e, w) -> Hashtbl.replace merged key (e + b.events, w +. b.minor_words)
      | None -> Hashtbl.replace merged key (b.events, b.minor_words))
    buckets;
  Hashtbl.fold
    (fun (kind, name) (events, minor_words) acc ->
      { Sim.Engine.kind; name; events; minor_words } :: acc)
    merged []
  |> List.sort (fun (a : Sim.Engine.bucket_report) b ->
         match compare b.minor_words a.minor_words with
         | 0 -> compare (a.kind, a.name) (b.kind, b.name)
         | c -> c)

(* What one wall-clock run cost. *)
type cost = {
  wall_s : float;
  events : int; (* engine events executed *)
  packets : int; (* wire packets sent (net.pkt) *)
  commits : int; (* durable commits (dirsvc.commit) *)
  ops : int; (* simulated operations completed *)
  minor_words : float; (* GC minor words allocated during the run *)
  profile : profile option; (* under [--profile] *)
}

(* [run] builds its own deployment, drives it, and returns it with the
   number of operations it completed. Wall time and allocation are
   measured around the whole thing — deployment construction is part of
   the cost a larger experiment pays. *)
let measure_cost run =
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let cluster, ops = run () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let minor_words = Gc.minor_words () -. minor0 in
  let engine = C.engine cluster in
  {
    wall_s;
    events = Sim.Engine.events_executed engine;
    packets = Sim.Metrics.count (C.metrics cluster) "net.pkt";
    commits = Sim.Metrics.count (C.metrics cluster) "dirsvc.commit";
    ops;
    minor_words;
    profile =
      (if Sim.Engine.profiling engine then
         let inside_events, inside_words = Sim.Engine.profile_totals engine in
         Some
           {
             buckets = merge_buckets (Sim.Engine.profile engine);
             inside_events;
             inside_words;
           }
       else None);
  }

let per_op c n = if c.ops = 0 then None else Some (n /. float_of_int c.ops)

let throughput_run cluster point = (cluster, point.Workload.Throughput.total_ops)

(* Beyond the paper's 7 clients: 50 closed-loop update clients against a
   5-replica group — the scale the ROADMAP points at. *)
let scaled_run ?params quick =
  let clients = if quick then 12 else 50 in
  let window = if quick then 500.0 else 2_000.0 in
  let cluster = profiled (C.create ~seed:5001L ?params ~servers:5 C.Group_disk) in
  throughput_run cluster
    (Workload.Throughput.append_deletes cluster ~clients ~window)

(* [ceiling] bounds engine events per wire packet at --quick size (see
   [packet_gate]). *)
type scenario = { scenario : string; ceiling : float; run : bool -> C.t * int }

let speed_scenarios =
  [
    (* Fig. 7's workload: one client, the three latency scenarios. *)
    {
      scenario = "fig7_latency";
      ceiling = 4.2;
      run =
        (fun quick ->
          let repeats = if quick then 3 else 40 in
          let cluster = profiled (C.create ~seed:7L C.Group_disk) in
          ignore (Workload.Scenarios.run_fig7 ~repeats cluster);
          (cluster, 3 * repeats));
    };
    (* Fig. 8's workload: 7 closed-loop lookup clients. *)
    {
      scenario = "fig8_lookup";
      ceiling = 4.0;
      run =
        (fun quick ->
          let window = if quick then 500.0 else 10_000.0 in
          let cluster = profiled (C.create ~seed:801L C.Group_disk) in
          throughput_run cluster
            (Workload.Throughput.lookups cluster ~clients:7 ~window));
    };
    (* Fig. 9's workload: 7 closed-loop append-delete clients — every
       update is a SendToGroup multicast, the protocol hot path. *)
    {
      scenario = "fig9_append_delete";
      ceiling = 4.5;
      run =
        (fun quick ->
          let window = if quick then 1_000.0 else 30_000.0 in
          let cluster = profiled (C.create ~seed:901L C.Group_disk) in
          throughput_run cluster
            (Workload.Throughput.append_deletes cluster ~clients:7 ~window));
    };
    { scenario = "scaled_50c_5s"; ceiling = 4.6; run = (fun quick -> scaled_run quick) };
    (* The shards experiment's cross mix on 4 shards of 3 servers, at a
       light load like the benchmark's sharded_cross: 4 closed-loop
       update clients, every 4th iteration a cross-shard move. Four
       sequencer groups heartbeat side by side, mostly idle. *)
    {
      scenario = "shards4_cross";
      ceiling = 4.6;
      run =
        (fun quick ->
          let clients = 4 and window = if quick then 1_000.0 else 8_000.0 in
          let params = { Dirsvc.Params.default with shards = 4 } in
          let cluster =
            profiled (C.create ~seed:4300L ~params ~servers:3 C.Group_disk)
          in
          throughput_run cluster
            (Workload.Throughput.shard_updates cluster ~clients ~window
               ~cross_period:4));
    };
  ]

(* A gate's verdict line, and whether it passed. *)
let verdict ok line = (Printf.sprintf "%s %s\n" line (if ok then "ok" else "FAIL"), ok)

(* Events-per-packet gate. Engine events per wire packet is the cheapest
   proxy for "are we simulating work that never happens": delivery
   fan-out to NICs that discard the packet, timeout guards that fire
   dead, and polling drivers all inflate events without adding packets
   (see DESIGN.md on timers and event-count engineering). The scenarios
   are seed-fixed, so each ratio is exact for a given build; the
   ceilings sit ~50% above the current values so routine drift passes
   but a regression that reintroduces a per-receiver or per-guard event
   class (historically a 3-14x jump on the scaled scenario) fails
   loudly. A per-packet fiber wakeup is such a class: with the RPC and
   group dispatch fibers, fig7/fig9/scaled sat at 5.23/4.57/4.73. *)
let packet_gate () =
  List.map
    (fun s ->
      let c = measure_cost (fun () -> s.run true) in
      let ratio = float_of_int c.events /. float_of_int c.packets in
      verdict (ratio <= s.ceiling)
        (Printf.sprintf
           "%-20s %8d events %7d packets  %5.2f events/packet  (ceiling %4.1f)"
           s.scenario c.events c.packets ratio s.ceiling))
    speed_scenarios

(* Liveness and packet probes: exact per-round and per-send counts of
   the simulator's smallest recurring units of work, each on its own
   seed-fixed engine with nothing else running.

   - idle_round: one idle 3-member group over 10 simulated s after a
     1 s settle. A heartbeat round is three detector ticks, the
     sequencer's heartbeat (one multicast, three deliveries with its
     own loopback) and two Hb_acks: 8 events and 3 packets, exactly.
     Liveness rounds are most of the simulator's work in every
     triplicated deployment.
   - unicast / multicast_3: 10 000 sends between three NICs whose
     handlers do nothing, each run to completion, after 100 warm-up
     sends (which grow the heap and the delivery slots once). The
     payload is built once, so a send costs what the network adds. *)
type probe = {
  probe : string;
  units : float; (* rounds, sends, steps or updates measured *)
  per_events : float; (* engine events per unit *)
  per_packets : float; (* wire packets per unit *)
  per_writes : float; (* completed disk writes per unit *)
  per_words : float; (* minor words per unit *)
}

let no_writes () = 0

(* What [measured] costs on [engine], per unit: the engine events, wire
   packets, disk writes (counted by [writes]) and minor words it takes;
   [measured] returns the number of units it ran. *)
let measure_probe probe engine ?(writes = no_writes) measured =
  let packets () = Sim.Metrics.count (Sim.Engine.metrics engine) "net.pkt" in
  let events0 = Sim.Engine.events_executed engine
  and packets0 = packets ()
  and writes0 = writes () in
  let minor0 = Gc.minor_words () in
  let units = measured () in
  let words = Gc.minor_words () -. minor0 in
  let per count = float_of_int count /. units in
  {
    probe;
    units;
    per_events = per (Sim.Engine.events_executed engine - events0);
    per_packets = per (packets () - packets0);
    per_writes = per (writes () - writes0);
    per_words = words /. units;
  }

let idle_round_probe () =
  let engine = Sim.Engine.create ~seed:2707L () in
  let net = Simnet.Network.create engine () in
  List.iter
    (fun id ->
      let node = Sim.Node.create ~id ~name:(Printf.sprintf "idle%d" id) in
      let nic = Simnet.Network.attach net node in
      Sim.Proc.boot engine node (fun () ->
          if id = 1 then ignore (Group.Member.create_group net nic ~gname:"idle")
          else begin
            Sim.Proc.sleep (float_of_int id);
            ignore (Group.Member.join_group net nic ~gname:"idle")
          end))
    [ 1; 2; 3 ];
  Sim.Engine.run ~until:1_000.0 engine;
  let window = 10_000.0 in
  measure_probe "idle_round" engine (fun () ->
      Sim.Engine.run ~until:(1_000.0 +. window) engine;
      window /. Group.Types.default_config.heartbeat_period)

let send_probe ~multicast =
  let engine = Sim.Engine.create ~seed:2708L () in
  let net = Simnet.Network.create engine () in
  let nics =
    List.map
      (fun id ->
        let nic =
          Simnet.Network.attach net
            (Sim.Node.create ~id ~name:(Printf.sprintf "probe%d" id))
        in
        Simnet.Network.listen nic ~proto:"probe" ignore;
        nic)
      [ 1; 2; 3 ]
  in
  let src = List.hd nics and payload = Simnet.Payload.Opaque "probe" in
  let sends n =
    for _ = 1 to n do
      if multicast then Simnet.Network.multicast net src ~proto:"probe" payload
      else Simnet.Network.send net src ~dst:2 ~proto:"probe" payload;
      Sim.Engine.run engine
    done
  in
  sends 100;
  let n = 10_000 in
  measure_probe (if multicast then "multicast_3" else "unicast") engine (fun () ->
      sends n;
      float_of_int n)

(* One fiber repeating one blocking step, alone on its engine, each step
   taking 1 simulated ms; measured over 10 000 steps after 100 warm-up
   steps. A step is two events, its wake and its resume.
   - sleep: [Proc.sleep 1.0];
   - condvar_wake: a [Condvar.wait] that a periodic timer's broadcast
     ends (the timer itself allocates nothing per tick);
   - timed_wait: the same wait with a 10 ms timeout, which the
     broadcast beats: its guard timer (a closure and a heap entry)
     is armed and cancelled, and pops later as a tombstone, no event;
   - disk_write: one 64-byte [Block_device.write] of a 1 ms disk. The
     device keeps the bytes it is handed (see [Block_device.write]), so
     a step copies nothing: the probe hands it the same 64 bytes, which
     nothing mutates.
   [setup] returns the step and a count of the disk writes completed. *)
let fiber_probe probe setup =
  let engine = Sim.Engine.create ~seed:2709L () in
  let step, writes = setup engine in
  let steps = ref 0 in
  Sim.Proc.boot engine (Sim.Node.create ~id:1 ~name:"probe") (fun () ->
      while true do
        step ();
        incr steps
      done);
  Sim.Engine.run ~until:100.5 engine;
  let n = 10_000 and steps0 = !steps in
  measure_probe probe engine ~writes (fun () ->
      Sim.Engine.run ~until:(100.5 +. float_of_int n) engine;
      float_of_int (!steps - steps0))

(* One SendToGroup through the sequencer: member 2 of an otherwise idle
   trio (member 1 sequencing, r = 2) sends back to back, 2 000 sends
   after 100 warm-up ones. Traffic keeps the heartbeat off, so every
   packet is one of the send's §3.1 messages: the request, the ordered
   multicast, two acks and the done. The detector ticks make the events
   per send fractional. *)
let send_3_probe () =
  let engine = Sim.Engine.create ~seed:2710L () in
  let net = Simnet.Network.create engine () in
  let n = 2_000 and result = ref None in
  List.iter
    (fun id ->
      let node = Sim.Node.create ~id ~name:(Printf.sprintf "send%d" id) in
      let nic = Simnet.Network.attach net node in
      Sim.Proc.boot engine node (fun () ->
          if id = 1 then ignore (Group.Member.create_group net nic ~gname:"send")
          else begin
            Sim.Proc.sleep (float_of_int id);
            let m = Group.Member.join_group net nic ~gname:"send" in
            if id = 2 then begin
              Sim.Proc.sleep 100.0;
              let payload = Simnet.Payload.Opaque "send" in
              for _ = 1 to 100 do
                Group.Member.send m payload
              done;
              result :=
                Some
                  (measure_probe "send_3" engine (fun () ->
                       for _ = 1 to n do
                         Group.Member.send m payload
                       done;
                       float_of_int n))
            end
          end))
    [ 1; 2; 3 ];
  Sim.Engine.run ~until:60_000.0 engine;
  match !result with Some p -> p | None -> failwith "send_3 probe: the sends did not finish"

(* The paper's eager update (Fig. 5) end to end: one client of a
   3-replica Group_disk deployment (batch 1, so each update is committed
   in place) runs append + delete pairs on one directory back to back,
   200 pairs after 20 warm-up ones. The units are updates. §3.1 counts 5
   group messages and 2 disk writes per replica for each: the
   directory's new Bullet file and its object-table entry (the old
   file's tombstone rides free on the next create into its slot). Of
   the ~31 packets per update, ~21 are RPC (the client's, and each
   replica's Bullet create and delete) and ~10 group packets, 7 of
   them heartbeats and their acks, sent while the replicas write. *)
let eager_update_probe () =
  let cluster = C.create ~seed:2711L ~servers:3 C.Group_disk in
  let engine = C.engine cluster in
  let client = C.client cluster in
  let writes () =
    List.fold_left
      (fun n i -> n + Storage.Block_device.writes_completed (C.device cluster i))
      0
      (List.init (C.n_servers cluster) succ)
  in
  let n = 200 and result = Sim.Ivar.create () in
  if not (C.await_serving cluster ~count:(C.n_servers cluster)) then
    failwith "eager_update probe: the deployment never served";
  Sim.Proc.boot engine (Rpc.Transport.node (Dirsvc.Client.transport client)) (fun () ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      let pairs k =
        for _ = 1 to k do
          Dirsvc.Client.append_row client cap ~name:"row" [ cap ];
          Dirsvc.Client.delete_row client cap ~name:"row"
        done
      in
      pairs 20;
      Sim.Ivar.fill result
        (measure_probe "eager_update" engine ~writes (fun () ->
             pairs n;
             float_of_int (2 * n))));
  if not (Sim.Drive.run_until_filled ~max_quanta:600 engine result) then
    failwith "eager_update probe: the updates did not finish";
  Option.get (Sim.Ivar.peek result)

(* One bare RPC transaction: a client fiber calls a one-worker service
   on a second NIC back to back, 10 000 calls after 100 warm-up ones
   (which locate the server and fill the port cache). A call is the
   request, the reply and the ack (3 packets) and 5 events: their three
   deliveries, the worker's wake and the caller's. The handler returns
   the body it is given, so a call costs what the RPC layer adds to
   its packets. *)
let rpc_trans_probe () =
  let engine = Sim.Engine.create ~seed:2712L () in
  let net = Simnet.Network.create engine () in
  let transport id =
    let node = Sim.Node.create ~id ~name:(Printf.sprintf "rpc%d" id) in
    (node, Rpc.Transport.create net (Simnet.Network.attach net node))
  in
  let _, server = transport 1 and client_node, client = transport 2 in
  Rpc.Transport.serve server ~port:"probe" ~threads:1 (fun ~client:_ body -> body);
  let n = 10_000 and result = ref None in
  Sim.Proc.boot engine client_node (fun () ->
      let body = Simnet.Payload.Opaque "probe" in
      let calls k =
        for _ = 1 to k do
          ignore (Rpc.Transport.trans client ~port:"probe" body)
        done
      in
      calls 100;
      result :=
        Some
          (measure_probe "rpc_trans" engine (fun () ->
               calls n;
               float_of_int n)));
  Sim.Engine.run engine;
  match !result with Some p -> p | None -> failwith "rpc_trans probe: the calls did not finish"

(* One client lookup, Fig. 8's request, against an idle 3-replica
   Group_disk deployment: 2 000 lookups of one row back to back, after
   100 warm-up ones. One replica answers each from its store, with no
   group message: the RPC's 3 packets and 5 events, the replica's CPU
   step (2 events), and the idle group's heartbeat rounds in between. *)
let lookup_probe () =
  let cluster = C.create ~seed:2713L ~servers:3 C.Group_disk in
  let engine = C.engine cluster in
  let client = C.client cluster in
  let n = 2_000 and result = Sim.Ivar.create () in
  if not (C.await_serving cluster ~count:(C.n_servers cluster)) then
    failwith "lookup probe: the deployment never served";
  Sim.Proc.boot engine (Rpc.Transport.node (Dirsvc.Client.transport client)) (fun () ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      Dirsvc.Client.append_row client cap ~name:"row" [ cap ];
      let lookups k =
        for _ = 1 to k do
          ignore (Dirsvc.Client.lookup client cap "row")
        done
      in
      lookups 100;
      Sim.Ivar.fill result
        (measure_probe "lookup" engine (fun () ->
             lookups n;
             float_of_int n)));
  if not (Sim.Drive.run_until_filled ~max_quanta:600 engine result) then
    failwith "lookup probe: the lookups did not finish";
  Option.get (Sim.Ivar.peek result)

let measure_probes () =
  [
    idle_round_probe ();
    send_probe ~multicast:false;
    send_probe ~multicast:true;
    send_3_probe ();
    fiber_probe "sleep" (fun _ -> ((fun () -> Sim.Proc.sleep 1.0), no_writes));
    fiber_probe "condvar_wake" (fun engine ->
        let cv = Sim.Condvar.create () in
        ignore (Sim.Timer.every engine ~period:1.0 (fun () -> Sim.Condvar.broadcast cv));
        ((fun () -> Sim.Condvar.wait cv), no_writes));
    fiber_probe "timed_wait" (fun engine ->
        let cv = Sim.Condvar.create () in
        ignore (Sim.Timer.every engine ~period:1.0 (fun () -> Sim.Condvar.broadcast cv));
        ((fun () -> Sim.Condvar.wait ~timeout:10.0 cv), no_writes));
    fiber_probe "disk_write" (fun engine ->
        let disk =
          Storage.Block_device.create engine ~blocks:1 ~block_size:64 ~read_ms:1.0
            ~write_ms:1.0 ()
        in
        let data = Bytes.make 64 'x' in
        ( (fun () -> Storage.Block_device.write disk 0 data),
          fun () -> Storage.Block_device.writes_completed disk ));
    eager_update_probe ();
    rpc_trans_probe ();
    lookup_probe ();
  ]

(* Probe gates. The idle round must stay at exactly 8 events and 3
   packets, a send through the sequencer at exactly the 5 packets of
   §3.1 (its events vary with the detector's ticks, so they are not
   pinned), a fiber's step at exactly 2 events, and an eager update at
   exactly its packets and disk writes: 2 per replica (§3.1), plus
   about 0.1 of tombstones the Bullet flusher writes itself, for the
   creates that ran before the retirer's delete freed the slot they
   would have reused (with the flusher off, exactly 6.00). A bare RPC
   stays at exactly 5 events and 3 packets, and a lookup at exactly its
   events and packets, the idle group's heartbeats included. Every
   probe's disk writes are pinned, and its minor words stay under
   a ceiling ~1.5x above its current value, so a per-tick, per-packet,
   per-delivery, per-wait, per-update or per-lookup allocation coming
   back fails it. Each row: events (if pinned), packets, disk writes, words
   ceiling. *)
let probe_ceilings =
  [
    ("idle_round", (Some 8.0, 3.0, 0.0, 51.0)) (* 34 words today *);
    ("unicast", (Some 1.0, 1.0, 0.0, 21.0)) (* 14 *);
    ("multicast_3", (Some 3.0, 1.0, 0.0, 33.0)) (* 22 *);
    ("send_3", (None, 5.0, 0.0, 372.0)) (* 248 *);
    ("sleep", (Some 2.0, 0.0, 0.0, 14.0)) (* 9 *);
    ("condvar_wake", (Some 2.0, 0.0, 0.0, 21.0)) (* 14 *);
    ("timed_wait", (Some 2.0, 0.0, 0.0, 38.0)) (* 26 *);
    ("disk_write", (Some 2.0, 0.0, 1.0, 45.0)) (* 30 *);
    (* 12 379 packets and 2 439 disk writes over the 400 updates *)
    ("eager_update", (None, 12379.0 /. 400.0, 2439.0 /. 400.0, 2942.0)) (* 1961 *);
    ("rpc_trans", (Some 5.0, 3.0, 0.0, 168.0)) (* 112 *);
    (* 16 944 events and 7 104 packets over the 2 000 lookups *)
    ("lookup", (Some (16944.0 /. 2000.0), 7104.0 /. 2000.0, 0.0, 249.0)) (* 166 *);
  ]

let probe_gate () =
  List.map
    (fun p ->
      let events, packets, writes, ceiling = List.assoc p.probe probe_ceilings in
      verdict
        (Option.fold ~none:true ~some:(Float.equal p.per_events) events
        && p.per_packets = packets && p.per_writes = writes
        && p.per_words <= ceiling)
        (Printf.sprintf
           "probe gate: %-12s %.2f events (%s)  %.2f packets (= %.2f)  \
            %.2f disk writes (= %.2f)  %.1f minor words (ceiling %.0f)"
           p.probe p.per_events
           (Option.fold ~none:"not pinned" ~some:(Printf.sprintf "= %g") events)
           p.per_packets packets p.per_writes writes p.per_words ceiling))
    (measure_probes ())

(* Batch-efficiency: the scaled update scenario at several batch sizes.
   batch = 1 sends every update in a batch of one and commits it in
   place on its own (the paper's eager commit), so its commits/op is
   one flush per applied update; larger batches share a commit-block
   write per delivered burst. *)
let measure_batch quick batch =
  let params = { Dirsvc.Params.default with batch_max = batch } in
  measure_cost (fun () -> scaled_run ~params quick)

(* Group-commit gate: the full-size scaled run with sequencer batching
   on (batch_max = 8) must allocate at most 68k minor words per
   completed op, ~1.5x the current build's 45.5k. Batches of one sit at
   ~79.5k, above the ceiling, so losing the batching fails the gate, as
   does a per-packet or per-tick allocation coming back. The run must
   also average strictly under one durable commit per op (0.685 today;
   1.0 would mean group commit stopped grouping). The seed-fixed run
   makes both numbers exact for a given build. *)
let alloc_gate () =
  let c = measure_batch false 8 in
  let mw_op = c.minor_words /. float_of_int c.ops in
  let c_op = float_of_int c.commits /. float_of_int c.ops in
  [
    verdict
      (mw_op <= 68_000.0 && c_op < 1.0)
      (Printf.sprintf
         "alloc gate: batched scaled run  %d ops  %.0f minor words/op \
          (ceiling 68000)  %.3f commits/op (ceiling < 1.0)"
         c.ops mw_op c_op);
  ]

(* Wall clock of the figure grid — fig7's flavor runs plus every
   (flavor, clients, seed) point of Figs. 8 and 9, submitted by the
   figures' own grid functions — at 1/2/4 domains, each on a private
   pool. [--quick] shrinks repeats, client points and windows. Runs
   after the shared pool has drained (the driver sequences timing
   experiments behind every parallel one), so nothing else competes for
   the cores. *)
let measure_jobs_scaling quick =
  let repeats, points, window =
    if quick then (Some 3, Some [ 3; 7 ], Some 500.0) else (None, None, None)
  in
  let walls =
    List.map
      (fun jobs ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        Sim.Pool.with_pool ~jobs (fun pool ->
            let fig7 = fig7_grid ?repeats pool ~seed:fig7_seed in
            let fig8 = fig8_grid ?points ?window pool ~seed:fig8_seed in
            let fig9 = fig9_grid ?points ?window pool ~seed:fig9_seed in
            ignore (fig7 ());
            ignore (fig8 ());
            ignore (fig9 ()));
        (jobs, Unix.gettimeofday () -. t0))
      [ 1; 2; 4 ]
  in
  let base_wall = List.assoc 1 walls in
  List.map (fun (jobs, wall) -> (jobs, wall, base_wall /. wall)) walls

(* Parallel-sweep gate: the figure grid fanned over a [Sim.Pool] must
   actually go faster — jobs=4 wall clock at most 0.6x jobs=1. Catches a
   pool regression that serializes workers (a lock held across job
   execution, a coordinator that stops helping) which the determinism
   tests cannot see: output stays identical either way. Wall-clock
   speedup needs real cores, so the gate skips itself on machines with
   fewer than 4, printing why. *)
let parallel_gate () =
  let cores = Domain.recommended_domain_count () in
  if cores < 4 then
    [
      ( Printf.sprintf
          "parallel gate: skipped (%d core(s) available, need >= 4 for a \
           meaningful speedup measurement)\n"
          cores,
        true );
    ]
  else
    let walls = List.map (fun (jobs, wall, _) -> (jobs, wall)) (measure_jobs_scaling true) in
    let t1 = List.assoc 1 walls and t4 = List.assoc 4 walls in
    [
      verdict
        (t4 /. t1 <= 0.6)
        (Printf.sprintf
           "parallel gate: jobs=1 %.3f s  jobs=4 %.3f s  ratio %.2f  (ceiling \
            0.60)"
           t1 t4 (t4 /. t1));
    ]

(* ---- speed --profile: where a run's events and minor words go ------ *)

let kind_name = function
  | Sim.Engine.Deliver -> "deliver"
  | Wake -> "wake"
  | Tick -> "timer"
  | Other -> "other"

let bucket_columns ~ops total_words =
  [
    text_col "kind" (fun (b : Sim.Engine.bucket_report) -> kind_name b.kind);
    text_col "bucket" (fun (b : Sim.Engine.bucket_report) -> b.name);
    int_col "events" "events" (fun (b : Sim.Engine.bucket_report) -> b.events);
    float_col "minor words" "minor_words" "%.0f"
      (fun (b : Sim.Engine.bucket_report) -> b.minor_words);
    text_col "w/event" (fun (b : Sim.Engine.bucket_report) ->
        if b.events = 0 then "-"
        else Printf.sprintf "%.1f" (b.minor_words /. float_of_int b.events));
    text_col "w/op" (fun (b : Sim.Engine.bucket_report) ->
        if ops = 0 then "-"
        else Printf.sprintf "%.1f" (b.minor_words /. float_of_int ops));
    text_col "share" (fun (b : Sim.Engine.bucket_report) ->
        Printf.sprintf "%.1f%%" (100.0 *. b.minor_words /. total_words));
  ]

(* The buckets' sums against the profiler's independent totals: minor
   words inside Engine.run (every event, and the loop between them) and
   the whole run's (deployment and drivers included). *)
let profile_sums p =
  let events = List.fold_left (fun n (b : Sim.Engine.bucket_report) -> n + b.events) 0 p.buckets in
  let words =
    List.fold_left (fun w (b : Sim.Engine.bucket_report) -> w +. b.minor_words) 0.0 p.buckets
  in
  (events, words)

let render_profile (name, c, p) =
  let events, words = profile_sums p in
  Printf.sprintf "\nprofile: %s (%d ops)\n" name c.ops
  ^ table (bucket_columns ~ops:c.ops words) p.buckets
  ^ Printf.sprintf
      "buckets: %d events, %.0f minor words; inside Engine.run: %d events, \
       %.0f minor words (buckets %+.2f%%); whole run %.0f (outside \
       Engine.run: deployment and drivers %.0f)\n"
      events words p.inside_events p.inside_words
      (100.0 *. (words -. p.inside_words) /. p.inside_words)
      c.minor_words (c.minor_words -. p.inside_words)

let profile_json (name, c, p) =
  let events, words = profile_sums p in
  J.Obj
    [
      ("scenario", J.String name);
      ("ops", J.Int c.ops);
      ("bucket_events", J.Int events);
      ("bucket_minor_words", J.Float words);
      ("inside_events", J.Int p.inside_events);
      ("inside_minor_words", J.Float p.inside_words);
      ("run_minor_words", J.Float c.minor_words);
      ( "buckets",
        J.List
          (List.map
             (fun (b : Sim.Engine.bucket_report) ->
               J.Obj
                 [
                   ("kind", J.String (kind_name b.kind));
                   ("bucket", J.String b.name);
                   ("events", J.Int b.events);
                   ("minor_words", J.Float b.minor_words);
                 ])
             p.buckets) );
    ]

let speed =
  let wall = float_col "wall s" "wall_s" "%.3f" (fun c -> c.wall_s) in
  let ops = int_col "ops" "ops" (fun c -> c.ops) in
  let events = json_col "events" (fun c -> J.Int c.events) in
  let minor_words = json_col "minor_words" (fun c -> J.Float c.minor_words) in
  let minor_per_op =
    opt_col "minor w/op" "minor_words_per_op" "%.0f" (fun c ->
        per_op c c.minor_words)
  in
  let per_op_col header key fmt count =
    opt_col header key fmt (fun c -> per_op c (float_of_int (count c)))
  in
  let per_sec_col header key count =
    float_col header key "%.0f" (fun c -> float_of_int (count c) /. c.wall_s)
  in
  let scenario_columns =
    column "scenario" "scenario" fst Fun.id (fun s -> J.String s)
    :: List.map (on snd)
         [
           wall;
           events;
           per_sec_col "events/s" "events_per_sec" (fun c -> c.events);
           json_col "packets" (fun c -> J.Int c.packets);
           per_sec_col "packets/s" "packets_per_sec" (fun c -> c.packets);
           ops;
           minor_words;
           minor_per_op;
         ]
  in
  let batch_columns =
    int_col "batch" "batch_max" fst
    :: List.map (on snd)
         [
           wall;
           ops;
           events;
           per_op_col "events/op" "events_per_op" "%.1f" (fun c -> c.events);
           per_op_col "commits/op" "commits_per_op" "%.3f" (fun c -> c.commits);
           minor_words;
           minor_per_op;
         ]
  in
  let jobs_columns =
    [
      int_col "jobs" "jobs" (fun (jobs, _, _) -> jobs);
      float_col "grid wall s" "grid_wall_s" "%.3f" (fun (_, wall, _) -> wall);
      float_col "speedup" "speedup" "%.2fx" (fun (_, _, speedup) -> speedup);
    ]
  in
  let probe_columns =
    [
      column "probe" "probe" (fun p -> p.probe) Fun.id (fun s -> J.String s);
      float_col "units" "units" "%.0f" (fun p -> p.units);
      float_col "events/unit" "events" "%.2f" (fun p -> p.per_events);
      float_col "packets/unit" "packets" "%.2f" (fun p -> p.per_packets);
      float_col "disk writes/unit" "disk_writes" "%.2f" (fun p -> p.per_writes);
      float_col "minor w/unit" "minor_words" "%.1f" (fun p -> p.per_words);
    ]
  in
  let runs _ () =
    let quick = !speed_quick in
    let scenarios =
      List.map
        (fun s -> (s.scenario, measure_cost (fun () -> s.run quick)))
        speed_scenarios
    in
    let probes = measure_probes () in
    let batches =
      List.map
        (fun batch -> (batch, measure_batch quick batch))
        (if quick then [ 1; 4 ] else [ 1; 4; 8 ])
    in
    let scaling = measure_jobs_scaling quick in
    (quick, Domain.recommended_domain_count (), scenarios, probes, batches, scaling)
  in
  let render (quick, cores, scenarios, probes, batches, scaling) =
    let profiles =
      List.filter_map
        (fun (name, c) -> Option.map (fun p -> (name, c, p)) c.profile)
        scenarios
    in
    report
      (Printf.sprintf
         "\n== Speed: wall-clock throughput of the simulation core ==\n\
          (real seconds%s; simulated results are seed-identical)\n\n"
         (if quick then ", --quick" else "")
      ^ table scenario_columns scenarios
      ^ "\nprobes: one idle heartbeat round, one send to a no-op handler, one \
         SendToGroup through the sequencer, one fiber's blocking step, one \
         eager update, one bare RPC, one lookup\n"
      ^ table probe_columns probes
      ^ "\nbatch-efficiency: scaled update scenario, group commit on/off\n"
      ^ table batch_columns batches
      ^ Printf.sprintf
          "\njobs-scaling: full figure grid wall clock (%d cores available)\n"
          cores
      ^ table jobs_columns scaling
      ^ String.concat "" (List.map render_profile profiles))
      (J.Obj
         ([
            ("quick", J.Bool quick);
            ("cores", J.Int cores);
            ("batch_efficiency", objects batch_columns batches);
            ("jobs_scaling", objects jobs_columns scaling);
            ("probes", objects probe_columns probes);
            ("scenarios", objects scenario_columns scenarios);
          ]
         @
         if profiles = [] then []
         else [ ("profiles", J.List (List.map profile_json profiles)) ]))
  in
  experiment ~timing:true "speed" runs render

(* ---- Shards: throughput vs shard count (fixed replica budget) ------ *)

let shard_budget = 12

(* One measured run: an [m]-shard deployment spending the whole
   12-server budget (so more shards means smaller groups), driven by the
   update-heavy shard workload. [cross_period = 0] is the pure-update
   column; [cross_period = 8] mixes in a cross-shard move every 8th
   iteration per client. *)
let measure_shards ~m ~clients ~window ~cross_period seed =
  let params = { Dirsvc.Params.default with shards = m } in
  let cluster =
    C.create ~seed ~params ~servers:(shard_budget / m) C.Group_disk
  in
  let point =
    Workload.Throughput.shard_updates cluster ~clients ~window ~cross_period
  in
  ( point,
    Sim.Metrics.count (C.metrics cluster) "dirsvc.cross_shard",
    histogram_summaries (C.metrics cluster) )

(* Shard-scaling gate: splitting the namespace over four sequencer
   groups must actually buy ordering parallelism — the shard workload on
   a 4-shard deployment (3 servers each) must complete at least 2x the
   client iterations of the single 12-server group in the same window.
   Each run is seed-fixed, so the ratio is exact for a given build. *)
let shard_gate () =
  let ops m =
    let point, _, _ =
      measure_shards ~m ~clients:16 ~window:1_000.0 ~cross_period:0 4242L
    in
    point.Workload.Throughput.total_ops
  in
  let ops1 = ops 1 in
  let ops4 = ops 4 in
  let ratio = float_of_int ops4 /. float_of_int ops1 in
  [
    verdict (ratio >= 2.0)
      (Printf.sprintf
         "shard gate: shards=1 %d ops  shards=4 %d ops  speedup %.2fx  (floor \
          2.00x)"
         ops1 ops4 ratio);
  ]

let shards =
  let seeds_per_point = List.length (replicate_seeds 0L) in
  let runs pool =
    let quick = !speed_quick in
    let clients = if quick then 8 else 24 in
    let window = if quick then 500.0 else 8_000.0 in
    let submit ~base ~cross_period =
      let joins =
        List.map
          (fun m ->
            ( m,
              submit_all pool
                (measure_shards ~m ~clients ~window ~cross_period)
                (replicate_seeds base) ))
          [ 1; 2; 4 ]
      in
      fun () -> List.map (fun (m, join) -> (m, join ())) joins
    in
    (* Both columns fan out over the pool before either joins. Updates
       serialize through each group's sequencer commit, so a window
       fits only a handful of iterations per client; the mix moves
       every 2nd (quick) / 4th iteration so the cross path actually
       runs. *)
    let cross_period = if quick then 2 else 4 in
    let update_only = submit ~base:4200L ~cross_period:0 in
    let cross_mix = submit ~base:4300L ~cross_period in
    fun () ->
      ((quick, clients, window, cross_period), update_only (), cross_mix ())
  in
  (* A row is one shard count's runs; its cells are means over them. *)
  let mean f (_, results) = stats_mean (List.map f results) in
  let rate = mean (fun (p, _, _) -> p.Workload.Throughput.per_second) in
  let shards_col = int_col "shards" "shards" fst in
  let servers_col =
    int_col "servers/shard" "servers_per_shard" (fun (m, _) -> shard_budget / m)
  in
  let rate_col = float_col "updates/s" "per_second" "%.0f" rate in
  let total_col =
    float_col "ops" "total_ops" "%.0f"
      (mean (fun (p, _, _) -> float_of_int p.Workload.Throughput.total_ops))
  in
  let errors_col =
    float_col "errors" "errors" "%.0f"
      (mean (fun (p, _, _) -> float_of_int p.Workload.Throughput.errors))
  in
  let moves_col =
    float_col "x-commits" "cross_shard_commits" "%.0f"
      (mean (fun (_, moves, _) -> float_of_int moves))
  in
  (* A --quick window can measure 0 ops/s at the slow end; don't print
     (or emit) nan/inf ratios off that. *)
  let speedup_col rows =
    let base = match rows with row :: _ -> rate row | [] -> nan in
    opt_col "speedup" "speedup_vs_1" "%.2fx" (fun row ->
        if base > 0.0 then Some (rate row /. base) else None)
  in
  let to_json rows =
    objects
      [
        shards_col;
        servers_col;
        rate_col;
        total_col;
        errors_col;
        moves_col;
        speedup_col rows;
        json_col "op_histograms" (function
          | _, (_, _, hists) :: _ -> hists
          | _, [] -> J.Null);
      ]
      rows
  in
  let render ((quick, clients, window, cross_period), update_only, cross_mix) =
    report
      (Printf.sprintf
         "\n== Shards: update throughput vs shard count (%d-server budget) ==\n\
          (%d clients, %.0f ms window%s; mean of %d seeds)\n\n\
          update-only (append+delete pairs, cross_period = 0):\n"
         shard_budget clients window
         (if quick then ", --quick" else "")
         seeds_per_point
      ^ table
          [ shards_col; servers_col; rate_col; total_col; speedup_col update_only ]
          update_only
      ^ Printf.sprintf "\ncross-shard mix (every %dth iteration moves a row):\n"
          cross_period
      ^ table
          [
            shards_col; rate_col; total_col; speedup_col cross_mix; moves_col; errors_col;
          ]
          cross_mix)
      (J.Obj
         [
           ("quick", J.Bool quick);
           ("budget_servers", J.Int shard_budget);
           ("clients", J.Int clients);
           ("window_ms", J.Float window);
           ("seeds_per_point", J.Int seeds_per_point);
           ("cross_period", J.Int cross_period);
           ("update_only", to_json update_only);
           ("cross_mix", to_json cross_mix);
         ])
  in
  experiment "shards" runs render

(* ---- Regression gates ----------------------------------------------- *)

(* Every gate prints its verdict lines; a FAIL makes the process exit 1
   after the report, so [dune build @speed-smoke] and friends fail. *)
let gates =
  experiment ~timing:true "gates"
    (fun _ () ->
      List.concat_map (fun gate -> gate ())
        [ packet_gate; probe_gate; alloc_gate; shard_gate; parallel_gate ])
    (fun verdicts ->
      let failures =
        List.filter_map
          (fun (line, ok) -> if ok then None else Some ("gates: FAIL: " ^ line))
          verdicts
      in
      report ~failures
        (String.concat "" (List.map fst verdicts))
        (J.List
           (List.map
              (fun (line, ok) ->
                J.Obj [ ("verdict", J.String (String.trim line)); ("ok", J.Bool ok) ])
              verdicts)))

(* ---- Driver --------------------------------------------------------- *)

let all_experiments =
  [
    fig7;
    fig8;
    fig9;
    costs;
    ablation_r;
    ablation_size;
    ablation_disk;
    mix;
    availability;
    ablation_method;
    micro;
    shards;
    speed;
    gates;
  ]

let find name = List.find_opt (fun e -> e.name = name) all_experiments

(* --json [FILE]: machine-readable output. Each experiment's record is
   written to BENCH_<name>.json (dashes mapped to underscores), and one
   aggregate document is printed on stdout — and also written to FILE when
   given. A bare token after --json is taken as the FILE unless it names
   an experiment. *)
type json_mode = Text | Json of string option

let write_json path value =
  let oc = open_out path in
  output_string oc (J.to_string_pretty value);
  output_char oc '\n';
  close_out oc

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
    | "--profile" :: rest ->
        speed_profile := true;
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
          when find path = None
               && String.length path > 0
               && path.[0] <> '-' ->
            parse names (Json (Some path)) rest'
        | _ -> parse names (Json None) rest)
    | name :: rest -> parse (name :: names) mode rest
  in
  let requested, mode = parse [] Text (List.tl (Array.to_list Sys.argv)) in
  let requested =
    if requested = [] then all_experiments
    else
      List.map
        (fun name ->
          match find name with
          | Some e -> e
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat " "
                   (List.map (fun e -> e.name) all_experiments));
              exit 1)
        requested
  in
  let reports =
    Sim.Pool.with_pool ~jobs:!jobs_level (fun pool ->
        (* Stage: submit every simulated-time experiment's runs up front;
           keep the timing ones for the coordinator. With --jobs 1
           submission runs everything inline in submission order, so the
           emitted bytes are identical at any jobs level. *)
        let staged =
          List.map
            (fun e ->
              if e.timing then (e, None)
              else
                let join = e.start pool in
                (e, Some (lazy (join ()))))
            requested
        in
        let drain () =
          List.iter
            (function
              | _, Some r -> ( try ignore (Lazy.force r) with _ -> ())
              | _, None -> ())
            staged
        in
        List.map
          (fun (e, joined) ->
            let r =
              match joined with
              | Some r -> Lazy.force r
              | None ->
                  drain ();
                  e.start pool ()
            in
            (match mode with
            | Text -> print_string r.text
            | Json _ ->
                write_json
                  (Printf.sprintf "BENCH_%s.json"
                     (String.map (function '-' -> '_' | c -> c) e.name))
                  (J.Obj [ ("experiment", J.String e.name); ("result", r.json) ]));
            (e.name, r))
          staged)
  in
  (match mode with
  | Text -> ()
  | Json target ->
      let doc = J.Obj (List.map (fun (name, r) -> (name, r.json)) reports) in
      Option.iter (fun path -> write_json path doc) target;
      print_string (J.to_string_pretty doc);
      print_newline ());
  match List.concat_map (fun (_, r) -> r.failures) reports with
  | [] -> ()
  | failures ->
      List.iter prerr_string failures;
      exit 1
