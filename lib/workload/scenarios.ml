type fig7 = {
  append_delete_ms : Stats.summary;
  tmp_file_ms : Stats.summary;
  lookup_ms : Stats.summary;
}

(* Run [f client] on a fresh client machine once the deployment
   serves, and drive the simulation until it finishes. *)
let run_scenario cluster f =
  ignore (Dirsvc.Cluster.await_ready cluster);
  Driver.on_client ~quantum:10_000.0 ~max_quanta:1_000 cluster f

let timed f =
  let t0 = Sim.Proc.now () in
  f ();
  Sim.Proc.now () -. t0

let append_delete ?(repeats = 20) cluster =
  run_scenario cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      (* Warm up caches and the port cache. *)
      Dirsvc.Client.append_row client cap ~name:"warm" [ cap ];
      Dirsvc.Client.delete_row client cap ~name:"warm";
      List.init repeats (fun i ->
          let name = Printf.sprintf "tmp%d" i in
          timed (fun () ->
              Dirsvc.Client.append_row client cap ~name [ cap ];
              Dirsvc.Client.delete_row client cap ~name)))

(* The paper's file-service substitute for the NFS column: SunOS writes
   the 4-byte file through to the local disk; reads come from the
   buffer cache. We charge one RPC round trip plus the disk write. *)
let nfs_file_ops cluster =
  let device = Dirsvc.Cluster.device cluster 1 in
  let rpc_hop () = Sim.Proc.sleep 1.6 in
  let create _data =
    rpc_hop ();
    Storage.Block_device.write device 40 (Bytes.of_string "tmpf")
  in
  let read () = rpc_hop () in
  (create, read)

let tmp_file ?(repeats = 20) cluster =
  run_scenario cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      let use_bullet =
        match Dirsvc.Cluster.flavor cluster with
        | Dirsvc.Cluster.Nfs_single -> None
        | Dirsvc.Cluster.Group_disk | Dirsvc.Cluster.Group_nvram
        | Dirsvc.Cluster.Rpc_pair ->
            Some (Dirsvc.Cluster.bullet_port cluster 1)
      in
      let transport = Dirsvc.Client.transport client in
      let one i =
        let name = Printf.sprintf "cc%d.o" i in
        match use_bullet with
        | Some port ->
            timed (fun () ->
                (* First compiler pass writes the temporary... *)
                let file_cap = Storage.Bullet.create transport ~port "pass" in
                Dirsvc.Client.append_row client cap ~name [ file_cap ];
                (* ...second pass finds and reads it... *)
                (match Dirsvc.Client.lookup client cap name with
                | Some (found, _) ->
                    ignore (Storage.Bullet.read transport ~port found)
                | None -> failwith "tmp file vanished");
                (* ...and the name is removed. *)
                Dirsvc.Client.delete_row client cap ~name)
        | None ->
            let create, read = nfs_file_ops cluster in
            timed (fun () ->
                create "pass";
                Dirsvc.Client.append_row client cap ~name [ cap ];
                (match Dirsvc.Client.lookup client cap name with
                | Some _ -> read ()
                | None -> failwith "tmp file vanished");
                Dirsvc.Client.delete_row client cap ~name)
      in
      ignore (one (-1));
      (* warm-up *)
      List.init repeats one)

let lookup ?(repeats = 50) cluster =
  run_scenario cluster (fun client ->
      let cap = Dirsvc.Client.create_dir client ~columns:[ "owner" ] in
      Dirsvc.Client.append_row client cap ~name:"target" [ cap ];
      ignore (Dirsvc.Client.lookup client cap "target");
      List.init repeats (fun _ ->
          timed (fun () -> ignore (Dirsvc.Client.lookup client cap "target"))))

let run_fig7 ?repeats cluster =
  let append_delete_ms = Stats.summarise (append_delete ?repeats cluster) in
  let tmp_file_ms = Stats.summarise (tmp_file ?repeats cluster) in
  let lookup_ms = Stats.summarise (lookup ?repeats cluster) in
  { append_delete_ms; tmp_file_ms; lookup_ms }
