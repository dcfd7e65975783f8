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
    Workload.Bounds.read_bound Dirsvc.Params.default ~servers
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
  let metrics = Sim.Metrics.create () in
  let net = Simnet.Network.create engine ~metrics () in
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
   how long are clients refused while the group absorbs a crash, and how
   long until a restarted replica is back in the view? Returns the first
   refused and first later completed update times (nan when absent) and
   the rejoin time. *)
let outage_run (victim, label) =
  let cluster = C.create ~seed:47L C.Group_disk in
  ignore (C.await_serving cluster ~count:3);
  let client = C.client cluster in
  let node = Rpc.Transport.node (Dirsvc.Client.transport client) in
  let outage_start = ref nan and outage_end = ref nan in
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
        (match
           Dirsvc.Client.append_row client cap ~name [ cap ];
           Dirsvc.Client.delete_row client cap ~name
         with
        | () ->
            if not (Float.is_nan !outage_start) then
              outage_end := Sim.Proc.now ()
        | exception _ ->
            if Float.is_nan !outage_start then outage_start := Sim.Proc.now ());
        Sim.Proc.sleep 10.0
      done);
  Sim.Engine.schedule (C.engine cluster) ~delay:500.0 (fun () ->
      C.crash_server cluster victim);
  C.run_until cluster 22_000.0;
  let t_restart = Sim.Engine.now (C.engine cluster) in
  C.restart_server cluster victim;
  ignore (C.await_serving ~timeout:20_000.0 cluster ~count:3);
  let rejoin = Sim.Engine.now (C.engine cluster) -. t_restart in
  (label, !outage_start, !outage_end, rejoin)

let availability =
  let render measured =
    let rows =
      List.map
        (fun (label, start, stop, rejoin) ->
          ( (match (Float.is_nan start, Float.is_nan stop) with
            | true, _ ->
                Printf.sprintf "  %-28s no client-visible outage; rejoin %.0f ms\n"
                  label rejoin
            | false, false ->
                Printf.sprintf "  %-28s outage %.0f ms; rejoin %.0f ms\n" label
                  (stop -. start) rejoin
            | false, true ->
                Printf.sprintf "  %-28s outage did not end within the run\n"
                  label),
            J.Obj
              [
                ("scenario", J.String label);
                ( "outage_ms",
                  if Float.is_nan start then J.Float 0.0
                  else if Float.is_nan stop then J.Null
                  else J.Float (stop -. start) );
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
              crash at t=500;\n\
             \ lookups are served locally by the survivors and see no \
              outage)\n";
           ]))
      (J.List (List.map snd rows))
  in
  experiment "availability"
    (fun pool ->
      submit_all pool outage_run
        [ (3, "follower server crash:"); (1, "sequencer-hosting crash:") ])
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

(* What one wall-clock run cost. *)
type cost = {
  wall_s : float;
  events : int; (* engine events executed *)
  packets : int; (* wire packets sent (net.pkt) *)
  commits : int; (* durable commits (dirsvc.commit) *)
  ops : int; (* simulated operations completed *)
  minor_words : float; (* GC minor words allocated during the run *)
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
  {
    wall_s;
    events = Sim.Engine.events_executed (C.engine cluster);
    packets = Sim.Metrics.count (C.metrics cluster) "net.pkt";
    commits = Sim.Metrics.count (C.metrics cluster) "dirsvc.commit";
    ops;
    minor_words;
  }

let per_op c n = if c.ops = 0 then None else Some (n /. float_of_int c.ops)

let throughput_run cluster point = (cluster, point.Workload.Throughput.total_ops)

(* Beyond the paper's 7 clients: 50 closed-loop update clients against a
   5-replica group — the scale the ROADMAP points at. *)
let scaled_run ?params quick =
  let clients = if quick then 12 else 50 in
  let window = if quick then 500.0 else 2_000.0 in
  let cluster = C.create ~seed:5001L ?params ~servers:5 C.Group_disk in
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
      ceiling = 8.0;
      run =
        (fun quick ->
          let repeats = if quick then 3 else 40 in
          let cluster = C.create ~seed:7L C.Group_disk in
          ignore (Workload.Scenarios.run_fig7 ~repeats cluster);
          (cluster, 3 * repeats));
    };
    (* Fig. 8's workload: 7 closed-loop lookup clients. *)
    {
      scenario = "fig8_lookup";
      ceiling = 6.0;
      run =
        (fun quick ->
          let window = if quick then 500.0 else 10_000.0 in
          let cluster = C.create ~seed:801L C.Group_disk in
          throughput_run cluster
            (Workload.Throughput.lookups cluster ~clients:7 ~window));
    };
    (* Fig. 9's workload: 7 closed-loop append-delete clients — every
       update is a SendToGroup multicast, the protocol hot path. *)
    {
      scenario = "fig9_append_delete";
      ceiling = 7.5;
      run =
        (fun quick ->
          let window = if quick then 1_000.0 else 30_000.0 in
          let cluster = C.create ~seed:901L C.Group_disk in
          throughput_run cluster
            (Workload.Throughput.append_deletes cluster ~clients:7 ~window));
    };
    { scenario = "scaled_50c_5s"; ceiling = 8.0; run = (fun quick -> scaled_run quick) };
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
   loudly. *)
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

(* Batch-efficiency: the scaled update scenario at several batch sizes.
   batch = 1 sends every update in a batch of one and commits it in
   place on its own (the paper's eager commit), so its commits/op is
   one flush per applied update; larger batches share a commit-block
   write per delivered burst. *)
let measure_batch quick batch =
  let params = { Dirsvc.Params.default with batch_max = batch } in
  measure_cost (fun () -> scaled_run ~params quick)

(* Group-commit gate: the full-size scaled run with sequencer batching
   on (batch_max = 8) must allocate at most 480k minor words per
   completed op — batches of one sit at ~687k, so this enforces the
   >= 30% reduction batching is for (the current build measures ~155k)
   — and must average strictly under one durable commit per op (~0.5
   today; 1.0 would mean group commit stopped grouping). The seed-fixed
   run makes both numbers exact for a given build. *)
let alloc_gate () =
  let c = measure_batch false 8 in
  let mw_op = c.minor_words /. float_of_int c.ops in
  let c_op = float_of_int c.commits /. float_of_int c.ops in
  [
    verdict
      (mw_op <= 480_000.0 && c_op < 1.0)
      (Printf.sprintf
         "alloc gate: batched scaled run  %d ops  %.0f minor words/op \
          (ceiling 480000)  %.3f commits/op (ceiling < 1.0)"
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
  let runs _ () =
    let quick = !speed_quick in
    let scenarios =
      List.map
        (fun s -> (s.scenario, measure_cost (fun () -> s.run quick)))
        speed_scenarios
    in
    let batches =
      List.map
        (fun batch -> (batch, measure_batch quick batch))
        (if quick then [ 1; 4 ] else [ 1; 4; 8 ])
    in
    let scaling = measure_jobs_scaling quick in
    (quick, Domain.recommended_domain_count (), scenarios, batches, scaling)
  in
  let render (quick, cores, scenarios, batches, scaling) =
    report
      (Printf.sprintf
         "\n== Speed: wall-clock throughput of the simulation core ==\n\
          (real seconds%s; simulated results are seed-identical)\n\n"
         (if quick then ", --quick" else "")
      ^ table scenario_columns scenarios
      ^ "\nbatch-efficiency: scaled update scenario, group commit on/off\n"
      ^ table batch_columns batches
      ^ Printf.sprintf
          "\njobs-scaling: full figure grid wall clock (%d cores available)\n"
          cores
      ^ table jobs_columns scaling)
      (J.Obj
         [
           ("quick", J.Bool quick);
           ("cores", J.Int cores);
           ("batch_efficiency", objects batch_columns batches);
           ("jobs_scaling", objects jobs_columns scaling);
           ("scenarios", objects scenario_columns scenarios);
         ])
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
        [ packet_gate; alloc_gate; shard_gate; parallel_gate ])
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
