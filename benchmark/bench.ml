(* One workload, end to end: climb the rate ladder, pool the nominal
   rate's rounds, and turn them into the reported metrics.

   Round [j] of every rung runs on the [j]-th seed derived from the
   workload seed, so rungs share their random draws and a rung only
   differs from the next by its rate. A rung holds when the SLO holds in
   most of its rounds: two, and a third when those two disagree. Even
   well below its knee [write_batched] now and then falls into a locate
   storm for the rest of a round (a few rounds in a hundred at 32/s);
   one such round must not move the reported maximum rate. The ladder
   climbs until the first rung that does not hold; the nominal rung then
   gets more rounds until [seconds] of wall time have gone by (at least
   [min_rounds]). *)

(* One rung, or one round of it. *)
type verdict = {
  rate : float;
  slo_p99_ms : float;  (** pooled, failures counting as infinitely late *)
  failed_frac : float;
  pass : bool;
  why_not : string;  (** empty when [pass] *)
}

type rung = { verdict : verdict; held : int; rounds : int }

type t = {
  spec : Spec.t;
  seed : int64;
  nominal : Round.result list;
  traced : Round.result list;  (** traced twins of [nominal], in trace mode *)
  ladder : rung list;
  max_rate : float;
  setup_s : float list;  (** every round's set-up wall time *)
  layers : (string * string * float) list;  (** trace mode only *)
  lookup_rows : (string * string * float) list;  (** trace mode only *)
  trace_overhead : float;
  violations : string list;
}

let min_rounds = 3

let round_seed ~seed j = List.nth (Sim.Rng.derive ~base:seed (j + 1)) j

let pooled f rounds = Array.concat (List.map f rounds)

let sum f rounds = List.fold_left (fun a r -> a + f r) 0 rounds

let judge (w : Spec.t) rate (rounds : Round.result list) =
  let slo = Pct.value_or_nan (Pct.get (pooled (fun (r : Round.result) -> r.slo_lat) rounds) 99.0) in
  let attempted = sum (fun (r : Round.result) -> r.attempted) rounds in
  let failed = sum (fun (r : Round.result) -> r.failed) rounds in
  let failed_frac = if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted in
  let why_not =
    match
      List.find_map (fun (r : Round.result) -> r.aborted) rounds,
      List.exists (fun (r : Round.result) -> r.cut_short) rounds
    with
    | Some e, _ -> "aborted: " ^ e
    | None, true -> "cut short: SLO certainly broken"
    | None, false ->
        if not (slo <= w.slo_ms) then Printf.sprintf "p99 %.1f ms > %.0f ms" slo w.slo_ms
        else if failed_frac > 0.001 then Printf.sprintf "failed %.4f > 0.001" failed_frac
        else if (not w.faults) && List.exists (fun (r : Round.result) -> r.backlog_growing) rounds
        then
          "backlog growing"
        else ""
  in
  { rate; slo_p99_ms = slo; failed_frac; pass = why_not = ""; why_not }

let rung w rate round =
  let r0 = round 0 and r1 = round 1 in
  let rounds =
    if (judge w rate [ r0 ]).pass = (judge w rate [ r1 ]).pass then [ r0; r1 ]
    else [ r0; r1; round 2 ]
  in
  let verdicts = List.map (fun r -> judge w rate [ r ]) rounds in
  let held = List.length (List.filter (fun v -> v.pass) verdicts) in
  let pooled = judge w rate rounds in
  let pass = 2 * held > List.length rounds in
  let why_not =
    if pass then ""
    else (List.find (fun v -> not v.pass) verdicts).why_not
  in
  { verdict = { pooled with pass; why_not }; held; rounds = List.length rounds }

let violations_of rounds =
  List.concat_map
    (fun (r : Round.result) ->
      List.map (Printf.sprintf "%s rate %g seed %Ld: %s" r.workload r.rate r.seed) r.violations)
    rounds

(* The simulated outcome of a round, which tracing must not change. *)
let same_simulation (a : Round.result) (b : Round.result) =
  a.read_lat = b.read_lat && a.update_lat = b.update_lat && a.attempted = b.attempted
  && a.failed = b.failed && a.events = b.events && a.counters = b.counters

(* Requests completed per wall second of one round's window. Other
   processes on a shared machine only ever slow a round down, in bursts
   that cover anything from one round to a whole run; the fastest round
   is the speed of the simulator itself, where a median moves with the
   neighbours' load. *)
let round_speed (r : Round.result) = float_of_int r.completed /. r.window_wall_s

let fastest rounds = List.fold_left (fun a r -> Float.max a (round_speed r)) 0.0 rounds

let run ?(trace = false) ?rounds ?(log = ignore) (w : Spec.t) ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let nominal = ref [] and traced = ref [] and setups = ref [] in
  let collector = Layers.collector ~admin_slots:(Spec.params w).Dirsvc.Params.admin_slots in
  let run_round ?trace ?stop_when_broken rate j =
    let r = Round.run ?trace ?stop_when_broken ~index:j w ~rate ~seed:(round_seed ~seed j) in
    setups := r.setup_s :: !setups;
    log
      (Printf.sprintf "%s rate %g round %d: %d requests, %d failed%s, %.2fs wall" w.name rate j
         r.attempted r.failed
         (if r.cut_short then ", cut short" else
          match r.aborted with Some e -> ", aborted: " ^ e | None -> "")
         (r.window_wall_s +. r.setup_s));
    r
  in
  let nominal_round j =
    let r = run_round w.nominal j in
    nominal := !nominal @ [ r ];
    if trace then begin
      let t = run_round ~trace:(Layers.sink collector) w.nominal j in
      traced := !traced @ [ t ]
    end
  in
  (* The ladder (untraced runs only). *)
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let round j =
          if rate = w.nominal then begin
            nominal_round j;
            List.nth !nominal j
          end
          else run_round ~stop_when_broken:(rate > w.nominal) rate j
        in
        let r = rung w rate round in
        if r.verdict.pass then climb (r :: acc) rest else List.rev (r :: acc)
  in
  let ladder = if trace then [] else climb [] w.ladder in
  let enough () =
    match rounds with
    | Some k -> List.length !nominal >= k
    | None -> List.length !nominal >= (if trace then 1 else min_rounds) && elapsed () >= seconds
  in
  while not (enough ()) do
    nominal_round (List.length !nominal)
  done;
  let max_rate =
    match w.ladder with
    | [] -> if (judge w w.nominal !nominal).pass then w.nominal else 0.0
    | _ ->
        List.fold_left
          (fun best r -> if r.verdict.pass then r.verdict.rate else best)
          0.0 ladder
  in
  let divergences =
    if not trace then []
    else
      List.concat
        (List.map2
           (fun (a : Round.result) b ->
             if same_simulation a b then []
             else [ Printf.sprintf "%s seed %Ld: traced run diverged from untraced" w.name a.seed ])
           !nominal !traced)
  in
  let untraced_wall = List.fold_left (fun a (r : Round.result) -> a +. r.window_wall_s) 0.0 !nominal in
  let traced_wall = List.fold_left (fun a (r : Round.result) -> a +. r.window_wall_s) 0.0 !traced in
  {
    spec = w;
    seed;
    nominal = !nominal;
    traced = !traced;
    ladder;
    max_rate;
    setup_s = !setups;
    layers =
      (if trace then ("sim.ops_per_wall_s", "ops/s", fastest !nominal) :: Layers.table collector !traced
       else []);
    lookup_rows = (if trace then Layers.lookup_rows collector else []);
    trace_overhead = (if trace then traced_wall /. untraced_wall else nan);
    violations = violations_of !nominal @ violations_of !traced @ divergences;
  }

(* ---- Metrics ---- *)

let pct_of t f q = Pct.get (pooled f t.nominal) q

let all_lat (r : Round.result) = Array.append r.read_lat r.update_lat

(* End-to-end metrics: name, unit, value — BENCHMARK.json's order. *)
let end_to_end t =
  let v f q = Pct.value_or_nan (pct_of t f q) in
  let completed = sum (fun (r : Round.result) -> r.completed) t.nominal in
  let minor = List.fold_left (fun a (r : Round.result) -> a +. r.minor_words) 0.0 t.nominal in
  [
    ("p50_ms", "ms", v all_lat 50.0);
    ("p99_ms", "ms", v all_lat 99.0);
    ("update_p50_ms", "ms", v (fun (r : Round.result) -> r.update_lat) 50.0);
    ("max_rate_ops_s", "ops/s", t.max_rate);
    ("minor_words_per_op", "words/op", minor /. float_of_int (max 1 completed));
    ("setup_s", "s", Pct.median (Array.of_list t.setup_s));
  ]

let median_of l = if l = [] then nan else Pct.median (Array.of_list l)

let faults t = List.concat_map (fun (r : Round.result) -> r.faults) t.nominal

let attempted t = sum (fun (r : Round.result) -> r.attempted) t.nominal

let failed t = sum (fun (r : Round.result) -> r.failed) t.nominal

(* Reported alongside, outside BENCHMARK.json's metric list: some
   workload lacks each of them, or its spread is too wide to gate on. *)
let extras t =
  let v f q = Pct.value_or_nan (pct_of t f q) in
  [
    ("read_p50_ms", "ms", v (fun (r : Round.result) -> r.read_lat) 50.0);
    ("read_p99_ms", "ms", v (fun (r : Round.result) -> r.read_lat) 99.0);
    ("update_p99_ms", "ms", v (fun (r : Round.result) -> r.update_lat) 99.0);
    ("failed_frac", "ratio", float_of_int (failed t) /. float_of_int (max 1 (attempted t)));
    ("write_outage_ms", "ms", median_of (List.map (fun (f : Round.fault) -> f.outage_ms) (faults t)));
    ("rejoin_ms", "ms", median_of (List.map (fun (f : Round.fault) -> f.rejoin_ms) (faults t)));
    ("rounds", "count", float_of_int (List.length t.nominal));
    ("lost_acked_writes", "count", float_of_int (sum (fun (r : Round.result) -> r.lost_acked) t.nominal));
    ( "reused_request_ids",
      "count",
      float_of_int (sum (fun (r : Round.result) -> List.length r.reused_ids) t.nominal) );
  ]

let failures_by_cause t =
  List.map
    (fun c ->
      ( c,
        sum (fun (r : Round.result) -> List.assoc c r.attempt_failures) t.nominal,
        sum (fun (r : Round.result) -> List.assoc c r.final_failures) t.nominal ))
    Round.causes
