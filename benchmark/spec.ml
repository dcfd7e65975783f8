(* The four named workloads. Each is an open loop: sessions arrive as a
   Poisson process, independent of how fast the service answers, spread
   over [clients] simulated client machines. A session is one lookup, or
   an append+delete pair, or (sharded only) append -> cross-shard move ->
   delete. Rates count sessions per simulated second. *)

type slo_class = All | Updates

type t = {
  name : string;
  shards : int;
  batch_max : int;
  dirs : int;
  rows : int;  (** populated rows per directory, the lookup targets *)
  read_frac : float;  (** share of sessions that are one lookup *)
  move_frac : float;  (** share of update sessions that move across shards *)
  window_s : float;  (** simulated seconds of arrivals per round *)
  ladder : float list;
      (** sessions/s, ascending; [] = fixed rate. Each rung sits well
          inside or well outside the SLO for every seed, so the highest
          rung reached does not depend on the seed. *)
  nominal : float;
  slo_ms : float;  (** limit on the p99 of [slo_class] requests *)
  slo_class : slo_class;
  faults : bool;  (** crash schedule plus a closed-loop write probe *)
}

let clients = 16

(* The paper's section 2 mix on eager-commit Group_disk: the read path
   (locate, port cache, server CPU, reads waiting behind buffered
   updates) does the work. *)
let read_mostly =
  {
    name = "read_mostly";
    shards = 1;
    batch_max = 1;
    dirs = 200;
    rows = 4;
    read_frac = 0.98;
    move_frac = 0.0;
    window_s = 300.0;
    ladder = [ 10.0; 20.0; 30.0; 40.0; 70.0; 100.0 ];
    nominal = 30.0;
    slo_ms = 250.0;
    slo_class = All;
    faults = false;
  }

(* Only updates, with sequencer batching and group commit: ordering and
   the commit-block log do all the work, and there are no reads. *)
let write_batched =
  {
    name = "write_batched";
    shards = 1;
    batch_max = 8;
    dirs = 64;
    rows = 1;
    read_frac = 0.0;
    move_frac = 0.0;
    window_s = 60.0;
    ladder = [ 24.0; 32.0; 40.0; 256.0 ];
    nominal = 24.0;
    slo_ms = 100.0;
    slo_class = Updates;
    faults = false;
  }

(* Four groups behind the shard router, with cross-shard moves: the
   two-group commit, and the most simulator events per request. *)
let sharded_cross =
  {
    name = "sharded_cross";
    shards = 4;
    batch_max = 1;
    dirs = 128;
    rows = 4;
    read_frac = 0.8;
    move_frac = 0.25;
    window_s = 150.0;
    ladder = [ 5.0; 10.0; 15.0; 20.0; 40.0 ];
    nominal = 10.0;
    slo_ms = 1000.0;
    slo_class = All;
    faults = false;
  }

(* A fixed rate while one server per round crashes and restarts:
   failure detection, ResetGroup, recovery and rejoin from disk. *)
let failover =
  {
    name = "failover";
    shards = 1;
    batch_max = 1;
    dirs = 200;
    rows = 4;
    read_frac = 0.9;
    move_frac = 0.0;
    window_s = 240.0;
    ladder = [];
    nominal = 15.0;
    slo_ms = infinity;
    slo_class = All;
    faults = true;
  }

let all = [ read_mostly; write_batched; sharded_cross; failover ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let params w =
  { Dirsvc.Params.default with shards = w.shards; batch_max = w.batch_max }

(* Crash schedule of the fault workload, in simulated ms from the start
   of the window: a server crashes every 150 s starting at 120 s and
   restarts 60 s after its crash; only faults whose restart falls inside
   the window are kept. Round [index] starts the cycle 1, 2, 3, 1, ... at
   server [index mod 3 + 1], so successive rounds crash every server in
   turn, the sequencer among them. *)
let crash_period_ms = 150_000.0

let crash_first_ms = 120_000.0

let restart_after_ms = 60_000.0

let faults_in w ~index =
  if not w.faults then []
  else
    let window = w.window_s *. 1000.0 in
    let rec go i acc =
      let at = crash_first_ms +. (crash_period_ms *. float_of_int i) in
      if at +. restart_after_ms > window then List.rev acc
      else go (i + 1) ((((index + i) mod 3) + 1, at) :: acc)
    in
    go 0 []
