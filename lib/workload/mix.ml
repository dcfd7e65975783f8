type point = {
  clients : int;
  ops_per_second : float;
  reads_per_second : float;
  writes_per_second : float;
  errors : int;
}

(* Transient refusals during setup (a view change settling) are
   retried. *)
let rec with_retry tries f =
  match f () with
  | v -> v
  | exception (Dirsvc.Wire.Dir_error _ | Rpc.Transport.Rpc_failure _)
    when tries > 0 ->
      Sim.Proc.sleep 200.0;
      with_retry (tries - 1) f

let run ?(warmup = 300.0) ?(window = 3_000.0) ?(read_fraction = 0.98) cluster
    ~clients =
  ignore (Dirsvc.Cluster.await_ready cluster);
  let rng = Sim.Rng.split (Sim.Engine.rng (Dirsvc.Cluster.engine cluster)) in
  (* Each client's setup: a private directory with a handful of rows.
     Its op is a lookup (kind 0) with probability [read_fraction], else
     an append+delete pair (kind 1). *)
  let setup i client =
    let cap =
      with_retry 10 (fun () ->
          Dirsvc.Client.create_dir client ~columns:[ "owner" ])
    in
    for j = 1 to 4 do
      with_retry 10 (fun () ->
          try
            Dirsvc.Client.append_row client cap
              ~name:(Printf.sprintf "f%d" j) [ cap ]
          with
          | Dirsvc.Wire.Dir_error
              (Dirsvc.Wire.Op_error Dirsvc.Directory.Already_exists)
          ->
            (* an earlier attempt's reply was lost; the row is there *)
            ())
    done;
    let serial = ref 0 in
    fun () ->
      if Sim.Rng.float rng < read_fraction then begin
        ignore (Dirsvc.Client.lookup client cap "f2");
        0
      end
      else begin
        incr serial;
        let name = Printf.sprintf "w%d.%d" i !serial in
        Dirsvc.Client.append_row client cap ~name [ cap ];
        Dirsvc.Client.delete_row client cap ~name;
        1
      end
  in
  let tally =
    Driver.closed_loop cluster ~warmup ~window ~clients ~kinds:2 ~warm:false
      ~setup
  in
  let seconds = window /. 1000.0 in
  let reads = tally.window.(0) and writes = tally.window.(1) in
  {
    clients;
    ops_per_second = float_of_int (reads + writes) /. seconds;
    reads_per_second = float_of_int reads /. seconds;
    writes_per_second = float_of_int writes /. seconds;
    errors = tally.errors;
  }
