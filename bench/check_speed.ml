(* Events-per-packet gate, run from [dune build @speed-smoke].

   Engine events per wire packet is the cheapest proxy for "are we
   simulating work that never happens": delivery fan-out to NICs that
   discard the packet, timeout guards that fire dead, and polling
   drivers all inflate events without adding packets. The scenarios are
   seed-fixed, so each ratio is exact for a given build; the ceilings
   sit ~50% above the current values so routine drift passes but a
   regression that reintroduces a per-receiver or per-guard event class
   (historically a 3-14x jump on the scaled scenario) fails loudly. *)

module C = Dirsvc.Cluster

let scenarios =
  [
    ( "fig7_latency",
      8.0,
      fun () ->
        let cluster = C.create ~seed:7L C.Group_disk in
        ignore (Workload.Scenarios.run_fig7 ~repeats:3 cluster);
        cluster );
    ( "fig8_lookup",
      6.0,
      fun () ->
        let cluster = C.create ~seed:801L C.Group_disk in
        ignore (Workload.Throughput.lookups cluster ~clients:7 ~window:500.0);
        cluster );
    ( "fig9_append_delete",
      7.5,
      fun () ->
        let cluster = C.create ~seed:901L C.Group_disk in
        ignore
          (Workload.Throughput.append_deletes cluster ~clients:7
             ~window:1_000.0);
        cluster );
    ( "scaled_50c_5s",
      8.0,
      fun () ->
        let cluster = C.create ~seed:5001L ~servers:5 C.Group_disk in
        ignore
          (Workload.Throughput.append_deletes cluster ~clients:12
             ~window:500.0);
        cluster );
  ]

(* Parallel-sweep gate: the same grid of scenario runs, fanned over a
   [Sim.Pool], must actually go faster — jobs=4 wall clock at most 0.6x
   jobs=1. Catches a pool regression that serializes workers (a lock
   held across job execution, a coordinator that stops helping) which
   the determinism tests cannot see: output stays identical either way.
   Wall-clock speedup needs real cores, so the gate skips itself on
   machines with fewer than 4 (and under DIRSIM_SKIP_PARALLEL_GATE=1
   for constrained or noisy CI runners), printing why. *)

let grid_thunks () =
  List.concat_map
    (fun (_, _, run) ->
      List.init 3 (fun _ () -> ignore (run ())))
    scenarios

let parallel_gate () =
  match Sys.getenv_opt "DIRSIM_SKIP_PARALLEL_GATE" with
  | Some _ ->
      Printf.printf
        "parallel gate: skipped (DIRSIM_SKIP_PARALLEL_GATE is set)\n"
  | None ->
      let cores = Domain.recommended_domain_count () in
      if cores < 4 then
        Printf.printf
          "parallel gate: skipped (%d core(s) available, need >= 4 for a \
           meaningful speedup measurement)\n"
          cores
      else begin
        let time jobs =
          Sim.Pool.with_pool ~jobs (fun pool ->
              Gc.full_major ();
              let t0 = Unix.gettimeofday () in
              ignore (Sim.Pool.map pool (fun f -> f ()) (grid_thunks ()));
              Unix.gettimeofday () -. t0)
        in
        let t1 = time 1 in
        let t4 = time 4 in
        let ratio = t4 /. t1 in
        let ok = ratio <= 0.6 in
        Printf.printf
          "parallel gate: jobs=1 %.3f s  jobs=4 %.3f s  ratio %.2f  (ceiling \
           0.60) %s\n"
          t1 t4 ratio
          (if ok then "ok" else "FAIL");
        if not ok then begin
          Printf.eprintf
            "check_speed: jobs=4 grid took %.2fx the jobs=1 wall clock (must \
             be <= 0.60x on %d cores).\n\
             The domain pool is not delivering parallelism — check for \
             serialization in Sim.Pool or shared mutable state.\n"
            ratio cores;
          exit 1
        end
      end

(* Group-commit gate: the scaled update scenario with sequencer batching
   on (batch_max = 8) must allocate at most 480k minor words per
   completed op — batches of one sit at ~687k, so this enforces
   the >= 30% reduction batching is for (the current build measures
   ~155k) — and must average strictly under one durable commit per op
   (~0.5 today; 1.0 would mean group commit stopped grouping). The
   seed-fixed run makes both numbers exact for a given build.
   DIRSIM_SKIP_ALLOC_GATE=1 skips it, for instrumented builds whose
   allocation profile is legitimately different. *)

let alloc_gate () =
  match Sys.getenv_opt "DIRSIM_SKIP_ALLOC_GATE" with
  | Some _ ->
      Printf.printf "alloc gate: skipped (DIRSIM_SKIP_ALLOC_GATE is set)\n"
  | None ->
      let params = { Dirsvc.Params.default with batch_max = 8 } in
      Gc.full_major ();
      let minor0 = Gc.minor_words () in
      let cluster = C.create ~seed:5001L ~params ~servers:5 C.Group_disk in
      let point =
        Workload.Throughput.append_deletes cluster ~clients:50 ~window:2_000.0
      in
      let minor = Gc.minor_words () -. minor0 in
      let ops = point.Workload.Throughput.total_ops in
      let commits = Sim.Metrics.count (C.metrics cluster) "dirsvc.commit" in
      let mw_op = minor /. float_of_int ops in
      let c_op = float_of_int commits /. float_of_int ops in
      let ok = mw_op <= 480_000.0 && c_op < 1.0 in
      Printf.printf
        "alloc gate: batched scaled run  %d ops  %.0f minor words/op (ceiling \
         480000)  %.3f commits/op (ceiling < 1.0) %s\n"
        ops mw_op c_op
        (if ok then "ok" else "FAIL");
      if not ok then begin
        Printf.eprintf
          "check_speed: batched group commit is not paying for itself — \
           either the per-op allocation regressed past 480k minor words or \
           durable commits are back to one per update.\n";
        exit 1
      end

(* Shard-scaling gate: splitting the namespace over four sequencer
   groups must actually buy ordering parallelism — the shard workload on
   a 4-shard deployment (3 servers each) must complete at least 2x the
   client iterations of the single 12-server group in the same window.
   Each run is seed-fixed, so the ratio is exact for a given build.
   DIRSIM_SKIP_SHARD_GATE=1 skips it, recorded honestly in the output. *)

let shard_gate () =
  match Sys.getenv_opt "DIRSIM_SKIP_SHARD_GATE" with
  | Some _ ->
      Printf.printf "shard gate: skipped (DIRSIM_SKIP_SHARD_GATE is set)\n"
  | None ->
      let run shards =
        let params = { Dirsvc.Params.default with shards } in
        let cluster =
          C.create ~seed:4242L ~params ~servers:(12 / shards) C.Group_disk
        in
        let point =
          Workload.Throughput.shard_updates cluster ~clients:16 ~window:1_000.0
        in
        point.Workload.Throughput.total_ops
      in
      let ops1 = run 1 in
      let ops4 = run 4 in
      let ratio = float_of_int ops4 /. float_of_int ops1 in
      let ok = ratio >= 2.0 in
      Printf.printf
        "shard gate: shards=1 %d ops  shards=4 %d ops  speedup %.2fx  (floor \
         2.00x) %s\n"
        ops1 ops4 ratio
        (if ok then "ok" else "FAIL");
      if not ok then begin
        Printf.eprintf
          "check_speed: four shards delivered %.2fx the single-group update \
           throughput (must be >= 2x).\n\
           The partition is not spreading ordering load — check the shard \
           router's placement hashing and the per-shard sequencers.\n"
          ratio;
        exit 1
      end

let () =
  let failed = ref [] in
  List.iter
    (fun (name, ceiling, run) ->
      let cluster = run () in
      let events = Sim.Engine.events_executed (C.engine cluster) in
      let packets = Sim.Metrics.count (C.metrics cluster) "net.pkt" in
      let ratio = float_of_int events /. float_of_int packets in
      let ok = ratio <= ceiling in
      Printf.printf "%-20s %8d events %7d packets  %5.2f events/packet  (ceiling %4.1f) %s\n"
        name events packets ratio ceiling
        (if ok then "ok" else "FAIL");
      if not ok then failed := name :: !failed)
    scenarios;
  (match !failed with
  | [] -> ()
  | names ->
      Printf.eprintf
        "check_speed: events-per-packet ceiling exceeded in: %s\n\
         Something is scheduling engine events that do no useful work — \
         see DESIGN.md on timers and event-count engineering.\n"
        (String.concat ", " (List.rev names));
      exit 1);
  alloc_gate ();
  shard_gate ();
  parallel_gate ()
