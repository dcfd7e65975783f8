type point = {
  clients : int;
  per_second : float;
  errors : int;
  total_ops : int;
}

(* [prepare cluster] runs once the deployment is ready, and may advance
   the clock with shared setup; it returns [per_client], where
   [per_client i client] is client [i]'s op. The op's first run
   (creating the client's directory, warming its port cache) happens
   before the gate: counted in [total_ops], never in the window. *)
let run_window cluster ~warmup ~window ~clients prepare =
  ignore (Dirsvc.Cluster.await_ready cluster);
  let per_client = prepare cluster in
  let tally =
    Driver.closed_loop cluster ~warmup ~window ~clients ~kinds:1 ~warm:true
      ~setup:(fun i client ->
        let op = per_client i client in
        fun () ->
          op ();
          0)
  in
  {
    clients;
    per_second = float_of_int tally.window.(0) /. (window /. 1000.0);
    errors = tally.errors;
    total_ops = tally.total;
  }

let lookups ?(warmup = 300.0) ?(window = 2_000.0) cluster ~clients =
  run_window cluster ~warmup ~window ~clients (fun cluster ->
      let cap =
        Driver.on_client ~quantum:1_000.0 ~max_quanta:100 cluster
          (fun client ->
            let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
            Dirsvc.Client.append_row client cap ~name:"target" [ cap ];
            cap)
      in
      fun _i client () ->
        match Dirsvc.Client.lookup client cap "target" with
        | Some _ | None -> ())

(* [create ()] once, on the first call that gets through it: a
   client's directories are made by its first op that succeeds in
   making them. *)
let lazily create =
  let made = ref None in
  fun () ->
    match !made with
    | Some v -> v
    | None ->
        let v = create () in
        made := Some v;
        v

let append_deletes ?(warmup = 500.0) ?(window = 4_000.0) cluster ~clients =
  run_window cluster ~warmup ~window ~clients (fun _cluster i client ->
      let dir =
        lazily (fun () -> Dirsvc.Client.create_dir client ~columns:[ "owner" ])
      in
      let name = Printf.sprintf "t%d" i in
      fun () ->
        let cap = dir () in
        Dirsvc.Client.append_row client cap ~name [ cap ];
        Dirsvc.Client.delete_row client cap ~name)

(* The shard sweep's workload: update-heavy, every client hammering its
   own directories, placed across the shards by the partition map (so
   with M groups the ordering work spreads over M sequencers). Each
   client owns two directories — placements "c<i>.a" and "c<i>.b" — and
   loops append+delete pairs on the first; every [cross_period]-th
   iteration instead moves the row to the second directory and deletes
   it there, which is a two-group commit whenever the two placements
   hash to different shards. [cross_period = 0] (the default) never
   moves. On a single-group cluster the placements are ignored and this
   degenerates to append_deletes with an occasional move. *)
let shard_updates ?(warmup = 500.0) ?(window = 4_000.0) ?(cross_period = 0)
    cluster ~clients =
  run_window cluster ~warmup ~window ~clients (fun _cluster i client ->
      let create suffix =
        Dirsvc.Client.create_dir
          ~placement:(Printf.sprintf "c%d.%s" i suffix)
          client ~columns:[ "owner" ]
      in
      let dirs =
        lazily (fun () ->
            let dir_a = create "a" in
            (dir_a, create "b"))
      in
      let name = Printf.sprintf "t%d" i in
      let k = ref 0 in
      fun () ->
        let dir_a, dir_b = dirs () in
        incr k;
        Dirsvc.Client.append_row client dir_a ~name [ dir_a ];
        if cross_period > 0 && !k mod cross_period = 0 then begin
          Dirsvc.Client.move_row client ~src:dir_a ~dst:dir_b ~name;
          Dirsvc.Client.delete_row client dir_b ~name
        end
        else Dirsvc.Client.delete_row client dir_a ~name)

(* Every point builds a fresh deployment, so points share nothing and
   can fan out over a domain pool; Pool.map joins in submission order,
   so the returned list (and anything printed from it) is identical for
   any pool size. *)
let sweep ?pool make_cluster measure points =
  let run clients =
    let cluster = make_cluster () in
    measure cluster ~clients
  in
  match pool with
  | None -> List.map run points
  | Some pool -> Sim.Pool.map pool run points
