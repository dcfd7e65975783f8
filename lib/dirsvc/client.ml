(* A client is a shard router; a lone group is a one-shard router, so
   every deployment takes the same path. *)
type t = Shard_router.t

let transport t = Shard_router.transport t ~shard:0

let router t = Some t

(* The shard that minted [cap] (by its service port); shard 0 for a
   foreign port. A one-shard router answers without the port scan, so
   the common path allocates nothing. *)
let shard_of_cap t cap =
  if Shard_router.shards t = 1 then 0
  else
    match Shard_router.shard_of_cap t cap with Some k -> k | None -> 0

let call_cap t cap request =
  Shard_router.call t ~shard:(shard_of_cap t cap) request

let expect_ok = function
  | Wire.Ok_rep -> ()
  | _ -> raise (Wire.Dir_error (Wire.Unavailable "unexpected reply"))

let create_dir ?placement t ~columns =
  let shard =
    match placement with
    | None -> 0
    | Some name ->
        Shard_router.shard_of_name ~shards:(Shard_router.shards t) name
  in
  match
    Shard_router.call t ~shard
      (Wire.Write_op (Directory.Create_dir { columns; secret = 0L; hint = None }))
  with
  | Wire.Cap_rep cap -> cap
  | _ -> raise (Wire.Dir_error (Wire.Unavailable "unexpected reply"))

let delete_dir t cap =
  expect_ok (call_cap t cap (Wire.Write_op (Directory.Delete_dir { cap })))

let append_row t cap ~name ?(masks = []) caps =
  expect_ok
    (call_cap t cap (Wire.Write_op (Directory.Append_row { cap; name; caps; masks })))

let chmod_row t cap ~name ~masks =
  expect_ok
    (call_cap t cap (Wire.Write_op (Directory.Chmod_row { cap; name; masks })))

let delete_row t cap ~name =
  expect_ok (call_cap t cap (Wire.Write_op (Directory.Delete_row { cap; name })))

let replace_set t cap rows =
  expect_ok (call_cap t cap (Wire.Write_op (Directory.Replace_set { cap; rows })))

let list_dir t ?(column = 0) cap =
  match call_cap t cap (Wire.List_req { cap; column }) with
  | Wire.Listing_rep listing -> listing
  | _ -> raise (Wire.Dir_error (Wire.Unavailable "unexpected reply"))

let lookup_batch t ~shard ~column items =
  match Shard_router.call t ~shard (Wire.Lookup_req { items; column }) with
  | Wire.Lookup_rep results -> results
  | _ -> raise (Wire.Dir_error (Wire.Unavailable "unexpected reply"))

(* Whether every item routes to [shard]; allocates nothing. *)
let rec all_on t shard = function
  | [] -> true
  | (cap, _) :: rest -> shard_of_cap t cap = shard && all_on t shard rest

let lookup_set t ?(column = 0) items =
  let shard = match items with (cap, _) :: _ -> shard_of_cap t cap | [] -> 0 in
  if all_on t shard items then lookup_batch t ~shard ~column items
  else begin
    (* One request per shard touched, in shard order, results scattered
       back into request order. *)
    let out = Array.make (List.length items) None in
    let indexed = List.mapi (fun i item -> (i, item)) items in
    for shard = 0 to Shard_router.shards t - 1 do
      let mine =
        List.filter (fun (_, (cap, _)) -> shard_of_cap t cap = shard) indexed
      in
      if mine <> [] then
        List.iter2
          (fun (i, _) result -> out.(i) <- result)
          mine
          (lookup_batch t ~shard ~column (List.map snd mine))
    done;
    Array.to_list out
  end

let lookup t ?column cap name =
  match lookup_set t ?column [ (cap, name) ] with
  | [ result ] -> result
  | _ -> raise (Wire.Dir_error (Wire.Unavailable "unexpected reply"))

(* ---- Cross-shard move ------------------------------------------------ *)

let xcall t ~shard cmd =
  match Shard_router.call t ~shard (Wire.Xshard_req cmd) with
  | Wire.Ok_rep -> ()
  | _ -> raise (Wire.Dir_error (Wire.Unavailable "unexpected xshard reply"))

let move_row ?hook t ~src ~dst ~name =
  let checkpoint stage = match hook with None -> () | Some f -> f stage in
  let rowcap, mask =
    match lookup t src name with
    | Some (cap, mask) -> (cap, mask)
    | None -> raise (Wire.Dir_error (Wire.Op_error Directory.Not_found))
  in
  let src_shard = shard_of_cap t src and dst_shard = shard_of_cap t dst in
  if src_shard <> dst_shard then begin
    (* Two-group coordinator commit: prepare both halves through
       their shards' sequencers, then commit source (the delete)
       first — its commit record is the commit point — then
       destination. A coordinator that dies mid-protocol leaves the
       shards' resolvers to finish the transaction; [hook] raising
       at a checkpoint simulates exactly that crash, so no abort is
       sent on a hook exception. *)
    Shard_router.count_cross t;
    let txid = Shard_router.fresh_txid t in
    let src_port = Shard_router.port t ~shard:src_shard in
    let dst_port = Shard_router.port t ~shard:dst_shard in
    let abort_both () =
      (try xcall t ~shard:src_shard (Wire.Xabort { txid }) with _ -> ());
      try xcall t ~shard:dst_shard (Wire.Xabort { txid }) with _ -> ()
    in
    let prepare shard cmd =
      try xcall t ~shard cmd
      with (Wire.Dir_error _ | Rpc.Transport.Rpc_failure _) as e ->
        abort_both ();
        raise e
    in
    prepare src_shard
      (Wire.Xprepare
         {
           txid;
           op = Directory.Delete_row { cap = src; name };
           peer_port = dst_port;
           src = true;
         });
    checkpoint "prepared_src";
    prepare dst_shard
      (Wire.Xprepare
         {
           txid;
           op =
             Directory.Append_row
               { cap = dst; name; caps = [ rowcap ]; masks = [ mask ] };
           peer_port = src_port;
           src = false;
         });
    checkpoint "prepared_dst";
    xcall t ~shard:src_shard (Wire.Xcommit { txid });
    checkpoint "committed_src";
    xcall t ~shard:dst_shard (Wire.Xcommit { txid });
    checkpoint "committed_dst"
  end
  else begin
    (* Same group orders both halves; no coordination needed. *)
    append_row t dst ~name ~masks:[ mask ] [ rowcap ];
    delete_row t src ~name
  end
