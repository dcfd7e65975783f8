(* One round: a fresh deployment, populated, driven by one open-loop
   arrival schedule for one window, drained, quiesced and checked.

   Every client request is timed from its due time in simulated ms. A
   request that fails is retried (after a short pause, with the locate
   cache dropped) until it succeeds or [deadline_ms] has passed since it
   was due, so requests due while no server can answer are counted in
   the latency tail rather than dropped; every failed attempt is counted
   by cause. An exception escaping the engine ends the round: the
   requests still outstanding and the arrivals not yet due count as
   failed with cause "aborted" and the round is flagged. *)

module C = Dirsvc.Cluster
module W = Dirsvc.Wire

let deadline_ms = 30_000.0

(* Retry pauses double from [retry_pause_ms] up to [retry_pause_cap_ms]:
   clients that hammered a saturated service every 100 ms would turn an
   overload into a locate storm of their own making. *)
let retry_pause_ms = 100.0

let retry_pause_cap_ms = 3_200.0

let retry_pause n = Float.min retry_pause_cap_ms (retry_pause_ms *. (2.0 ** float_of_int (n - 1)))

let probe_think_ms = 500.0

let drain_cap_ms = 120_000.0

let chunk_ms = 10_000.0

type cls = Read | Update

(* Growable float buffer. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* What the client history check expects of one row at the end. *)
type expect = { dir : int; row : string; present : bool }

type fault = {
  server : int;
  crash_at : float;  (** simulated ms from window start *)
  mutable rejoin_ms : float;  (** restart -> serving; nan if never *)
  mutable outage_ms : float;  (** crash -> first probe write issued after it completes *)
}

type result = {
  workload : string;
  rate : float;
  seed : int64;
  started : float array;  (** when each session started, ms into the window *)
  by_due : (float * float) array;
      (** (due, latency) per timed request, ms into the window; failed
          requests have infinite latency *)
  read_lat : float array;  (** ms from due, successful reads *)
  update_lat : float array;  (** ms from due, successful updates *)
  slo_lat : float array;  (** the SLO class, failures as infinity *)
  attempted : int;
  failed : int;
  attempt_failures : (string * int) list;  (** failed attempts by cause *)
  final_failures : (string * int) list;  (** failed requests by last cause *)
  aborted : string option;
  cut_short : bool;  (** stopped early: the SLO was already certainly broken *)
  backlog_growing : bool;
  violations : string list;
  lost_acked : int;  (** acknowledged row operations the final store lacks *)
  reused_ids : string list;  (** exactly-once reports explained by uid reuse *)
  faults : fault list;
  setup_s : float;  (** wall: create + await_serving + populate *)
  setup_phases : (string * float) list;
  window_wall_s : float;  (** wall: window + drain *)
  window_sim_ms : float;
  events : int;  (** engine events in window + drain *)
  completed : int;  (** requests completed successfully *)
  minor_words : float;  (** allocated in window + drain *)
  counters : (string * int) list;  (** metric counter deltas, window + drain *)
  spans : Sim.Json.t list;  (** bench spans, only in the first traced round *)
}

let cause_of = function
  | W.Dir_error W.No_majority -> "no_majority"
  | W.Dir_error (W.Unavailable "catch-up timeout") -> "catch_up_timeout"
  | W.Dir_error (W.Unavailable _) | W.Dir_error W.Wrong_shard -> "unavailable"
  | W.Dir_error (W.Op_error _) -> "op_error"
  | Rpc.Transport.Rpc_failure msg
    when String.ends_with ~suffix:"not located" msg ->
      "not_located"
  | Rpc.Transport.Rpc_failure _ -> "no_reply"
  | e -> raise e

(* "unfinished": still in flight when the drain cap passed or the
   round was cut short; "aborted": cut off by an exception escaping the
   engine. *)
let causes =
  [ "not_located"; "catch_up_timeout"; "no_majority"; "unavailable"; "no_reply";
    "op_error"; "unfinished"; "aborted" ]

let tally () = Hashtbl.create 8

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let tally_list tbl = List.map (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt tbl c))) causes

(* Drop every cached server location of this client, so the next
   attempt locates the service afresh instead of returning to a server
   that just refused or ignored it. *)
let forget_servers cluster client =
  match Dirsvc.Client.router client with
  | None -> Rpc.Transport.invalidate_cache (Dirsvc.Client.transport client) ~port:(C.port cluster)
  | Some r ->
      for k = 0 to C.shards cluster - 1 do
        Rpc.Transport.invalidate_cache
          (Dirsvc.Shard_router.transport r ~shard:k)
          ~port:(Dirsvc.Shard_router.port r ~shard:k)
      done

(* Mutable state of one round. *)
type st = {
  cluster : C.t;
  engine : Sim.Engine.t;
  mutable dirs : Capability.t array;
  reads : Fbuf.t;
  updates : Fbuf.t;
  slo : Fbuf.t;
  slo_class : Spec.slo_class;
  slo_ms : float;
  mutable late : int;  (** SLO-class requests over the limit or failed *)
  mutable per_due : (float * float) list;  (** (due, latency or infinity) *)
  mutable attempted : int;
  mutable failed : int;
  mutable completed : int;
  attempt_failures : (string, int) Hashtbl.t;
  final_failures : (string, int) Hashtbl.t;
  mutable in_flight : int;
  mutable expects : expect list;
  mutable violations : string list;
  mutable lost_acked : int;
  mutable reused_ids : string list;
  mutable spans : Sim.Json.t list;
  tracing : bool;
}

let violation st msg = st.violations <- msg :: st.violations

let record st ~cls ~due ~client lat ~attempts ~status =
  let ok = Float.is_finite lat in
  if ok then begin
    st.completed <- st.completed + 1;
    Fbuf.add (match cls with Read -> st.reads | Update -> st.updates) lat
  end;
  (match (st.slo_class, cls) with
  | Spec.All, _ | Spec.Updates, Update ->
      Fbuf.add st.slo lat;
      if not (lat <= st.slo_ms) then st.late <- st.late + 1
  | Spec.Updates, Read -> ());
  st.per_due <- (due, lat) :: st.per_due;
  if st.tracing then
    st.spans <-
      Sim.Json.Obj
        [
          ("span", Sim.Json.String "request");
          ("class", Sim.Json.String (match cls with Read -> "read" | Update -> "update"));
          ("client", Sim.Json.Int client);
          ("due_ms", Sim.Json.Float due);
          ("end_ms", Sim.Json.Float (if ok then due +. lat else nan));
          ("attempts", Sim.Json.Int attempts);
          ("status", Sim.Json.String status);
        ]
      :: st.spans

(* Run one client request [f] from inside its fiber, retrying until it
   succeeds or its deadline passes. [resolve] maps an operation error
   that an earlier, ambiguous attempt explains to a success: an append
   whose row is already there, a delete whose row is already gone. The
   earlier attempt may be the RPC layer's own resend after a timeout, so
   this applies to the first attempt too. Returns [Some (v, clean)] —
   [clean] when the first attempt succeeded outright — or [None] when
   the request failed for good. *)
let request st ?(timed = true) ~client_idx ~client ~cls ~due ?(resolve = fun _ -> None) f =
  st.attempted <- st.attempted + 1;
  let finish lat ~attempts ~status =
    if timed then record st ~cls ~due ~client:client_idx lat ~attempts ~status
  in
  let rec attempt n =
    match f () with
    | v ->
        finish (Sim.Proc.now () -. due) ~attempts:n ~status:"ok";
        Some (v, n = 1)
    | exception e when Option.is_some (resolve e) ->
        finish (Sim.Proc.now () -. due) ~attempts:n ~status:"ok";
        Option.map (fun v -> (v, false)) (resolve e)
    | exception ((W.Dir_error _ | Rpc.Transport.Rpc_failure _) as e) ->
        let cause = cause_of e in
        bump st.attempt_failures cause;
        let give_up =
          cause = "op_error" || Sim.Proc.now () -. due >= deadline_ms
        in
        if give_up then begin
          st.failed <- st.failed + 1;
          bump st.final_failures cause;
          finish infinity ~attempts:n ~status:cause;
          None
        end
        else begin
          if cause <> "not_located" then forget_servers st.cluster client;
          Sim.Proc.sleep (retry_pause n);
          attempt (n + 1)
        end
  in
  attempt 1

let already_exists = function
  | W.Dir_error (W.Op_error Dirsvc.Directory.Already_exists) -> Some ()
  | _ -> None

let not_found = function
  | W.Dir_error (W.Op_error Dirsvc.Directory.Not_found) -> Some ()
  | _ -> None

(* The body of one session's fiber. [due] is absolute simulated time.
   The second op of a pair is due when the first completes. *)
let run_session st ~client_idx ~client ~due (s : Load.session) =
  let req ~cls ~due ?resolve f = request st ~client_idx ~client ~cls ~due ?resolve f in
  let cap i = st.dirs.(i) in
  let seq ops =
    (* Run dependent update requests in order; each is due when the
       previous completed. Returns whether every one was clean. *)
    let rec go due clean = function
      | [] -> Some clean
      | (f, resolve) :: rest -> (
          match req ~cls:Update ~due ~resolve f with
          | Some ((), c) -> go (Sim.Proc.now ()) (clean && c) rest
          | None -> None)
    in
    go due true ops
  in
  match s with
  | Load.Lookup { dir; row } -> (
      match
        req ~cls:Read ~due (fun () ->
            Dirsvc.Client.lookup client (cap dir) (Load.row_name row))
      with
      | Some (Some _, _) | None -> ()
      | Some (None, _) ->
          violation st
            (Printf.sprintf "lookup of populated row %s in dir %d found nothing"
               (Load.row_name row) dir))
  | Load.Pair { dir; name } -> (
      let c = cap dir in
      match
        seq
          [
            ((fun () -> Dirsvc.Client.append_row client c ~name [ c ]), already_exists);
            ((fun () -> Dirsvc.Client.delete_row client c ~name), not_found);
          ]
      with
      | Some true -> st.expects <- { dir; row = name; present = false } :: st.expects
      | Some false | None -> ())
  | Load.Move { src; dst; name } -> (
      let s = cap src and d = cap dst in
      match
        seq
          [
            ((fun () -> Dirsvc.Client.append_row client s ~name [ s ]), already_exists);
            ((fun () -> Dirsvc.Client.move_row client ~src:s ~dst:d ~name), not_found);
            ((fun () -> Dirsvc.Client.delete_row client d ~name), not_found);
          ]
      with
      | Some true ->
          st.expects <-
            { dir = src; row = name; present = false }
            :: { dir = dst; row = name; present = false }
            :: st.expects
      | Some false | None -> ())

let boot_on client engine ~name f =
  Sim.Proc.boot engine (Rpc.Transport.node (Dirsvc.Client.transport client)) ~name f

(* Run the engine in chunks until [stop_early ()] or the absolute time
   [until]. Returns the exception that escaped the engine, if any. *)
let drive st ~until ~stop_early =
  let rec go () =
    let now = Sim.Engine.now st.engine in
    if now >= until || stop_early () then None
    else begin
      let target = Float.min until (now +. chunk_ms) in
      let w0 = Unix.gettimeofday () and e0 = Sim.Engine.events_executed st.engine in
      match Sim.Engine.run ~until:target st.engine with
      | () ->
          if st.tracing then
            st.spans <-
              Sim.Json.Obj
                [
                  ("span", Sim.Json.String "drive");
                  ("from_ms", Sim.Json.Float now);
                  ("to_ms", Sim.Json.Float target);
                  ("events", Sim.Json.Int (Sim.Engine.events_executed st.engine - e0));
                  ("wall_s", Sim.Json.Float (Unix.gettimeofday () -. w0));
                ]
              :: st.spans;
          go ()
      | exception e -> Some (Printexc.to_string e)
    end
  in
  go ()

(* Populate: every directory with [rows] rows, spread over the client
   machines. Setup requests retry like any other but are not counted. *)
let populate st (w : Spec.t) clients =
  let remaining = ref (Array.length clients) in
  let finished = Sim.Ivar.create () in
  let dirs = Array.make w.dirs None in
  Array.iteri
    (fun k client ->
      boot_on client st.engine ~name:"bench.populate" (fun () ->
          let rec retry ?(n = 1) f =
            match f () with
            | v -> v
            | exception (W.Dir_error _ | Rpc.Transport.Rpc_failure _) ->
                forget_servers st.cluster client;
                Sim.Proc.sleep (retry_pause n);
                retry ~n:(n + 1) f
          in
          let d = ref k in
          while !d < w.dirs do
            let cap =
              retry (fun () ->
                  Dirsvc.Client.create_dir ~placement:(Load.placement !d) client
                    ~columns:[ "owner" ])
            in
            for r = 1 to w.rows do
              retry (fun () ->
                  try Dirsvc.Client.append_row client cap ~name:(Load.row_name r) [ cap ]
                  with W.Dir_error (W.Op_error Dirsvc.Directory.Already_exists) -> ())
            done;
            dirs.(!d) <- Some cap;
            d := !d + Array.length clients
          done;
          decr remaining;
          if !remaining = 0 then Sim.Ivar.fill finished ()))
    clients;
  if not (Sim.Drive.run_until_filled ~quantum:1_000.0 ~max_quanta:3_600 st.engine finished)
  then failwith "populate did not finish";
  st.dirs <- Array.map (function Some c -> c | None -> assert false) dirs;
  for d = 0 to w.dirs - 1 do
    for r = 1 to w.rows do
      st.expects <- { dir = d; row = Load.row_name r; present = true } :: st.expects
    done
  done

(* Quiesce: run until, in every shard, the serving replicas have
   applied the same number of updates. A replica that rejoined after a
   crash serves while it still replays its backlog at disk speed, which
   can take minutes of simulated time after the load stops. *)
let settle_cap_ms = 600_000.0

let settle cluster =
  let engine = C.engine cluster in
  let settled () =
    List.for_all
      (fun shard ->
        match
          List.map
            (fun id -> Dirsvc.Group_server.useq (C.group_server_in cluster ~shard id))
            (C.serving_servers_in cluster ~shard)
        with
        | [] -> true
        | u :: rest -> List.for_all (( = ) u) rest)
      (List.init (C.shards cluster) Fun.id)
  in
  let cap = Sim.Engine.now engine +. settle_cap_ms in
  Sim.Engine.run ~until:(Sim.Engine.now engine +. 3_000.0) engine;
  while (not (settled ())) && Sim.Engine.now engine < cap do
    Sim.Engine.run ~until:(Sim.Engine.now engine +. 1_000.0) engine
  done

(* [Consistency.check_exactly_once] keys requests by (origin, uid), but
   a server's uid counter starts over when it reboots, so after a
   restart two different updates can share a key. A request was applied
   twice only when the same key carries the same operation twice. *)
let applied_twice log =
  let seen = Hashtbl.create 256 in
  List.find_map
    (fun (a : Dirsvc.Group_server.applied) ->
      let key = (a.a_origin, a.a_uid) in
      let ops = Option.value ~default:[] (Hashtbl.find_opt seen key) in
      if List.mem a.a_op ops then
        Some
          (Printf.sprintf "request %d.%d applied twice (second time at useq %d)" a.a_origin
             a.a_uid a.a_useq)
      else begin
        Hashtbl.replace seen key (a.a_op :: ops);
        None
      end)
    log

(* After the window: every shard's serving replicas hold the same store
   and applied no request twice, and the store reflects every row whose
   last client operation was acknowledged. *)
let check st (w : Spec.t) =
  let cluster = st.cluster in
  let stores =
    Array.init (C.shards cluster) (fun shard ->
        let serving = C.serving_servers_in cluster ~shard in
        let snaps =
          List.filter (fun (id, _) -> List.mem id serving) (C.store_snapshots_in cluster ~shard)
        in
        (match Dirsvc.Consistency.check_convergence snaps with
        | Ok () -> ()
        | Error d ->
            violation st
              (Printf.sprintf "shard %d: %s" shard (Dirsvc.Consistency.divergence_to_string d)));
        List.iter
          (fun id ->
            let log = Dirsvc.Group_server.applied_log (C.group_server_in cluster ~shard id) in
            match Dirsvc.Consistency.check_exactly_once log with
            | Ok () -> ()
            | Error e -> (
                match applied_twice log with
                | Some e -> violation st (Printf.sprintf "shard %d server %d: %s" shard id e)
                | None ->
                    (* Only request ids were reused, by a rebooted server
                       whose uid counter started over. *)
                    st.reused_ids <- e :: st.reused_ids))
          serving;
        match snaps with (_, s) :: _ -> Some s | [] -> None)
  in
  let lost = ref 0 in
  List.iter
    (fun e ->
      let cap = st.dirs.(e.dir) in
      let shard = if w.shards > 1 then Load.shard_of_dir w e.dir else 0 in
      match stores.(shard) with
      | None -> ()
      | Some store ->
          let present =
            Result.is_ok (Dirsvc.Directory.lookup store ~cap ~name:e.row ~column:0)
          in
          if present <> e.present then incr lost)
    st.expects;
  st.lost_acked <- !lost;
  if !lost > 0 then
    violation st (Printf.sprintf "%d acknowledged row operations not reflected in the final store" !lost);
  Array.iteri
    (fun shard s -> if s = None then violation st (Printf.sprintf "shard %d: no serving replica" shard))
    stores

(* Mean latency of the first and last quarter of the window's arrivals
   (failures are judged separately): a queue that keeps growing makes
   the last quarter wait far longer than the first. *)
let growing_backlog by_due window =
  let mean lo hi =
    let sum, n =
      Array.fold_left
        (fun (sum, n) (due, lat) ->
          if due >= lo && due < hi && Float.is_finite lat then (sum +. lat, n + 1) else (sum, n))
        (0.0, 0) by_due
    in
    sum /. float_of_int n
  in
  let first = mean 0.0 (window /. 4.0) and last = mean (0.75 *. window) window in
  Float.is_nan first || Float.is_nan last || last > (2.0 *. first) +. 100.0

(* The SLO is certainly broken once more than 1% of the requests the
   window can hold at most (three per session) were late, or more than
   0.1% of them failed; a rung past the knee stops there instead of
   simulating a collapse to the end. *)
let certainly_broken st ~arrivals =
  let most = 3 * arrivals in
  st.late > (most / 100) + Pct.beyond || st.failed > most / 1000

let run ?(trace : (Sim.Trace.event -> unit) option) ?(stop_when_broken = false) ?(index = 0)
    ?(at_start = ignore) (w : Spec.t) ~rate ~seed =
  let cluster_seed, load_seed =
    match Sim.Rng.derive ~base:seed 2 with [ a; b ] -> (a, b) | _ -> assert false
  in
  let arrivals = Load.arrivals w ~rate ~seed:load_seed in
  let wall0 = Unix.gettimeofday () in
  let cluster = C.create ~seed:cluster_seed ~params:(Spec.params w) C.Group_disk in
  let wall1 = Unix.gettimeofday () in
  if not (C.await_serving ~timeout:60_000.0 cluster ~count:(C.total_servers cluster)) then
    failwith "deployment never started serving";
  let wall2 = Unix.gettimeofday () in
  let engine = C.engine cluster in
  let st =
    {
      cluster;
      engine;
      dirs = [||];
      reads = Fbuf.create ();
      updates = Fbuf.create ();
      slo = Fbuf.create ();
      slo_class = w.slo_class;
      slo_ms = w.slo_ms;
      late = 0;
      per_due = [];
      attempted = 0;
      failed = 0;
      completed = 0;
      attempt_failures = tally ();
      final_failures = tally ();
      in_flight = 0;
      expects = [];
      violations = [];
      lost_acked = 0;
      reused_ids = [];
      spans = [];
      (* Bench spans of the first round only: enough to follow single
         requests, and a bounded amount kept in memory. *)
      tracing = trace <> None && index = 0;
    }
  in
  let clients = Array.init Spec.clients (fun _ -> C.client cluster) in
  populate st w clients;
  let wall3 = Unix.gettimeofday () in
  let setup_phases =
    [ ("create", wall1 -. wall0); ("await_serving", wall2 -. wall1); ("populate", wall3 -. wall2) ]
  in
  (* ---- the measured window ---- *)
  let metrics = C.metrics cluster in
  let counters0 = Sim.Metrics.counters metrics in
  let trace_buf =
    Option.map
      (fun sink ->
        let t = Sim.Trace.create ~capacity:1 () in
        Sim.Trace.set_sink t (Some sink);
        t)
      trace
  in
  Sim.Engine.set_trace engine trace_buf;
  let start = Sim.Engine.now engine in
  let window = w.window_s *. 1000.0 in
  let stop = start +. window in
  let events0 = Sim.Engine.events_executed engine in
  let minor0 = Gc.minor_words () in
  let wall_w0 = Unix.gettimeofday () in
  let next = ref 0 in
  let started = Fbuf.create () in
  let rec arrive () =
    let a = arrivals.(!next) in
    incr next;
    Fbuf.add started (Sim.Engine.now engine -. start);
    let client = clients.(a.Load.client) in
    st.in_flight <- st.in_flight + 1;
    boot_on client engine ~name:"bench.session" (fun () ->
        run_session st ~client_idx:a.Load.client ~client ~due:(start +. a.Load.due) a.Load.session;
        st.in_flight <- st.in_flight - 1);
    schedule_next ()
  and schedule_next () =
    if !next < Array.length arrivals then
      Sim.Engine.schedule engine
        ~delay:(start +. arrivals.(!next).Load.due -. Sim.Engine.now engine)
        arrive
  in
  schedule_next ();
  at_start cluster;
  (* Faults and the closed-loop write probe. *)
  let faults =
    List.map
      (fun (server, at) -> { server; crash_at = at; rejoin_ms = nan; outage_ms = nan })
      (Spec.faults_in w ~index)
  in
  let probe_writes = ref [] in
  if w.faults then begin
    List.iter
      (fun f ->
        Sim.Engine.schedule engine ~delay:f.crash_at (fun () -> C.crash_server cluster f.server);
        Sim.Engine.schedule engine ~delay:(f.crash_at +. Spec.restart_after_ms) (fun () ->
            C.restart_server cluster f.server;
            let restarted = Sim.Engine.now engine in
            let gs = C.group_server cluster f.server in
            Dirsvc.Group_server.set_serving_watch gs
              (Some
                 (fun () ->
                   if Float.is_nan f.rejoin_ms then
                     f.rejoin_ms <- Sim.Engine.now engine -. restarted))))
      faults;
    let probe = C.client cluster in
    let dir = 0 in
    boot_on probe engine ~name:"bench.probe" (fun () ->
        let serial = ref 0 in
        while Sim.Proc.now () < stop do
          incr serial;
          let name = Printf.sprintf "probe%d" !serial in
          let issued = Sim.Proc.now () in
          let c = st.dirs.(dir) in
          let ok =
            match
              request st ~timed:false ~client_idx:Spec.clients ~client:probe ~cls:Update
                ~due:issued ~resolve:already_exists (fun () ->
                  Dirsvc.Client.append_row probe c ~name [ c ])
            with
            | None -> false
            | Some ((), append_clean) -> (
                probe_writes := (issued, Sim.Proc.now ()) :: !probe_writes;
                match
                  request st ~timed:false ~client_idx:Spec.clients ~client:probe ~cls:Update
                    ~due:(Sim.Proc.now ()) ~resolve:not_found (fun () ->
                      Dirsvc.Client.delete_row probe c ~name)
                with
                | Some ((), delete_clean) -> append_clean && delete_clean
                | None -> false)
          in
          if ok then st.expects <- { dir; row = name; present = false } :: st.expects;
          Sim.Proc.sleep probe_think_ms
        done)
  end;
  let aborted =
    let broken () = stop_when_broken && certainly_broken st ~arrivals:(Array.length arrivals) in
    match drive st ~until:stop ~stop_early:broken with
    | Some _ as e -> e
    | None when broken () -> None
    | None ->
        drive st ~until:(stop +. drain_cap_ms) ~stop_early:(fun () -> st.in_flight = 0)
  in
  let cut_short = aborted = None && stop_when_broken && certainly_broken st ~arrivals:(Array.length arrivals) in
  let window_wall_s = Unix.gettimeofday () -. wall_w0 in
  let minor_words = Gc.minor_words () -. minor0 in
  let events = Sim.Engine.events_executed engine - events0 in
  let window_sim_ms = Sim.Engine.now engine -. start in
  Sim.Engine.set_trace engine None;
  let counters = Sim.Metrics.delta ~before:counters0 ~after:(Sim.Metrics.counters metrics) in
  (* Whatever never finished: in-flight sessions' current requests and,
     after an abort, every arrival not yet due. *)
  let unfinished = st.in_flight + (Array.length arrivals - !next) in
  if unfinished > 0 then begin
    let cause = if aborted <> None then "aborted" else "unfinished" in
    st.attempted <- st.attempted + (Array.length arrivals - !next);
    st.failed <- st.failed + unfinished;
    for _ = 1 to unfinished do
      bump st.final_failures cause;
      Fbuf.add st.slo infinity
    done
  end;
  (* An aborted engine cannot be run on, and a cut-short round is left
     mid-collapse: only completed rounds are checked. *)
  if aborted = None && not cut_short then begin
    ignore (C.await_serving ~timeout:60_000.0 cluster ~count:(C.total_servers cluster));
    settle cluster;
    check st w
  end;
  let by_due =
    Array.of_list (List.rev_map (fun (due, lat) -> (due -. start, lat)) st.per_due)
  in
  let probe_writes = List.rev !probe_writes in
  List.iter
    (fun f ->
      let crash = start +. f.crash_at in
      match List.find_opt (fun (issued, _) -> issued >= crash) probe_writes with
      | Some (_, completed) -> f.outage_ms <- completed -. crash
      | None -> ())
    faults;
  {
    workload = w.name;
    rate;
    seed;
    started = Fbuf.to_array started;
    by_due;
    read_lat = Fbuf.to_array st.reads;
    update_lat = Fbuf.to_array st.updates;
    slo_lat = Fbuf.to_array st.slo;
    attempted = st.attempted;
    failed = st.failed;
    attempt_failures = tally_list st.attempt_failures;
    final_failures = tally_list st.final_failures;
    aborted;
    cut_short;
    backlog_growing = growing_backlog by_due window;
    violations = List.rev st.violations;
    lost_acked = st.lost_acked;
    reused_ids = st.reused_ids;
    faults;
    setup_s = wall3 -. wall0;
    setup_phases;
    window_wall_s;
    window_sim_ms;
    events;
    completed = st.completed;
    minor_words;
    counters;
    spans = List.rev st.spans;
  }
