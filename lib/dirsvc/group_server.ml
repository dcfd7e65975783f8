type log_record = { useq : int; dir_id : int; op : Directory.op }

let log_record_size r = 16 + Wire.op_size r.op

type nvram = log_record Storage.Nvram.t

let admin_port node_id = Printf.sprintf "dira@%d" node_id

type applied = {
  a_useq : int;
  a_origin : int;
  a_uid : int;
  a_op : Directory.op;
}

(* One half of a cross-shard move, prepared through this shard's total
   order and waiting for the coordinator's commit or abort. *)
type staged_xact = {
  x_op : Directory.op;
  x_peer_port : string;  (** the other shard's service port *)
  x_src : bool;  (** we hold the delete (source) side *)
  x_deadline : float;  (** when the resolver may act on abandonment *)
}

(* How a staged update record becomes stable — the one knob of the
   commit pipeline, chosen from [batch_max] at start. [Eager] is the
   paper's per-update commit (Fig. 5): every record is flushed on its
   own before its result is published — in place on disk (new Bullet
   file, then the object-table entry) or as one NVRAM append. [Logged]
   is group commit: a whole delivery burst shares one flush — one
   block-0 write carrying the records in the commit block's log, or one
   NVRAM append burst — and the per-directory blocks are rewritten in
   the background. *)
type durability = Eager | Logged

type t = {
  params : Params.t;
  durability : durability;
  metrics : Sim.Metrics.t option;
  net : Simnet.Network.t;
  node : Sim.Node.t;
  transport : Rpc.Transport.t;
  server_id : int;
  peers : (int * int) list; (* (server_id, node_id), all servers *)
  device : Storage.Block_device.t;
  image : Dir_image.t;
  gname : string;
  port : string;
  cpu : Sim.Resource.t;
  nvram : nvram option;
  (* Replicated state. *)
  mutable store : Directory.store;
  mutable useq : int;
  (* Group state. *)
  mutable group : Group.Member.t option;
  mutable gprocessed : int; (* group position applied *)
  mutable serving : bool;
  (* Called synchronously whenever [serving] flips to true — lets a
     driver (Cluster.await_serving) stop the engine at the transition
     instead of polling for it on a quantum. *)
  mutable serving_watch : (unit -> unit) option;
  mutable stayed_up : bool;
  applied : Sim.Condvar.t;
  (* The reply to each update this server initiated, keyed by its
     (origin, uid) and filed by the group thread at delivery. *)
  replies : (int * int, Wire.reply) Hashtbl.t;
  mutable next_uid : int;
  mutable next_secret : int;
  mutable last_update : float; (* for the NVRAM idle flush *)
  mutable op_log : applied list; (* newest first; see applied_log *)
  mutable forced_recovery : bool; (* administrator's escape hatch *)
  (* The commit pipeline. [pending] stages the records not yet flushed
     (one under [Eager], a delivery burst under [Logged]); in disk mode
     [dirty] names their directories. Under [Logged] the flushed records
     move to [glog] — the in-memory copy of the commit block's log —
     until the [dirty] directories' own blocks are rewritten in the
     background, which happens when the group goes quiet or the log
     outgrows block 0. *)
  mutable pending : log_record list; (* newest first *)
  mutable glog : log_record list; (* newest first *)
  dirty : (int, unit) Hashtbl.t;
  c_commit : Sim.Metrics.handle option;
  (* Sharded deployment only ([shard] = None is a lone group).
     [staged_x] / [xdecisions] are driven exclusively by
     ordered deliveries, so every replica of the shard converges;
     [xtransport] rides the backbone network for peer-shard
     termination queries. *)
  shard : int option;
  xtransport : Rpc.Transport.t option;
  staged_x : (int, staged_xact) Hashtbl.t;
  xdecisions : (int, bool) Hashtbl.t; (* txid -> committed? *)
}

let server_id t = t.server_id

let serving t = t.serving

let set_serving_watch t w = t.serving_watch <- w

let notify_serving t =
  match t.serving_watch with None -> () | Some f -> f ()

let useq t = t.useq

let store_snapshot t = t.store

let view t =
  match t.group with
  | Some g when t.serving -> Group.Member.members g
  | Some _ | None -> []

let n_servers t = List.length t.peers

let majority t = (n_servers t / 2) + 1

let majority_ok t =
  t.serving
  &&
  match t.group with
  | Some g -> List.length (Group.Member.members g) >= majority t
  | None -> false

let emit t ~name attrs =
  Sim.Engine.emit (Simnet.Network.engine t.net) ~subsystem:"dirsvc"
    ~node:(Sim.Node.id t.node) ~name attrs

let fresh_secret t =
  t.next_secret <- t.next_secret + 1;
  Capability.mint_secret
    (Int64.of_int ((Sim.Node.id t.node * 1_000_000_007) + t.next_secret))

let fresh_uid t =
  t.next_uid <- t.next_uid + 1;
  t.next_uid

let current_vector t =
  let up =
    match t.group with
    | Some g when t.serving ->
        let member_nodes = Group.Member.members g in
        fun sid -> List.exists (fun (s, n) -> s = sid && List.mem n member_nodes) t.peers
    | Some _ | None -> fun sid -> sid = t.server_id
  in
  Array.init (n_servers t) (fun i -> up (i + 1))

(* ---- Commit pipeline ---------------------------------------------- *)

let count_commit t =
  match t.c_commit with
  | Some h -> Sim.Metrics.incr_handle h
  | None -> ()

let encode_glog t =
  Wire.encode_log_records
    (List.rev_map (fun (r : log_record) -> (r.useq, r.dir_id, r.op)) t.glog)

(* The commit block carries the group-commit log; when the encoded log
   no longer fits beside the header in block 0, the log is applied to
   the per-directory blocks first (clearing it) — hence the mutual
   recursion with [persist_dir_to_disk], whose deletion branch writes
   the commit block in turn. That inner write always sees an empty log,
   so the recursion terminates after one level. *)
let rec write_commit_block t ~recovering =
  let log = encode_glog t in
  let log =
    if String.length log + 64 <= Storage.Block_device.block_size t.device then
      log
    else begin
      persist_dirty t;
      ""
    end
  in
  Storage.Commit_block.write t.device
    {
      Storage.Commit_block.config_vector = current_vector t;
      seqno = t.useq;
      recovering;
      log;
    }

(* Persist directory [dir_id]'s current state. A deletion must leave a
   trace of the update somewhere: the sequence number in the commit
   block (paper §3). *)
and persist_dir_to_disk t dir_id =
  Dir_image.persist t.image t.store dir_id ~deleted:(fun () ->
      write_commit_block t ~recovering:false)

(* Apply the group-commit log to the per-directory blocks: rewrite every
   dirty directory, then forget the log. The stale copy left in block 0
   is harmless — boot-time replay is idempotent (a record is skipped
   when the directory's own seqno already covers it), so the log needs
   no extra disk write to be truncated. *)
and persist_dirty t =
  t.glog <- [];
  let dirty = Hashtbl.fold (fun d () acc -> d :: acc) t.dirty [] in
  Hashtbl.reset t.dirty;
  List.iter (persist_dir_to_disk t) (List.sort compare dirty)

let persist_records t records =
  List.iter (persist_dir_to_disk t)
    (List.sort_uniq compare (List.map (fun r -> r.dir_id) records))

let nvram_flush t nv = persist_records t (Storage.Nvram.take_all nv)

(* Staging: no I/O beyond an NVRAM annihilation — [flush] makes the
   staged records stable. The /tmp effect reaches across the unflushed
   records, the NVRAM log and (disk mode) the unapplied commit-block
   log: a delete canceling an append that no per-directory block has
   seen yet removes both records. On disk that leaves the append in
   block 0 until the next block-0 write replaces the log — a window in
   which a full-cluster crash brings the row back (DESIGN.md §8,
   item 11). *)
let row_cancels ~cap ~name r =
  match r.op with
  | Directory.Append_row { cap = c; name = n; _ } ->
      c.Capability.obj = cap.Capability.obj && n = name
  | _ -> false

let stage t record =
  t.last_update <- Sim.Proc.now ();
  let cancels =
    match record.op with
    | Directory.Delete_row { cap; name } -> Some (row_cancels ~cap ~name)
    | _ -> None
  in
  match (t.nvram, cancels) with
  | None, Some matches
    when List.exists matches t.pending || List.exists matches t.glog ->
      t.pending <- List.filter (fun r -> not (matches r)) t.pending;
      t.glog <- List.filter (fun r -> not (matches r)) t.glog;
      let touches r = r.dir_id = record.dir_id in
      if not (List.exists touches t.pending || List.exists touches t.glog)
      then Hashtbl.remove t.dirty record.dir_id
  | None, _ ->
      t.pending <- record :: t.pending;
      Hashtbl.replace t.dirty record.dir_id ()
  | Some _, Some matches when List.exists matches t.pending ->
      t.pending <- List.filter (fun r -> not (matches r)) t.pending
  | Some nv, Some matches ->
      if Storage.Nvram.remove_if nv matches = [] then
        t.pending <- record :: t.pending
  | Some _, None -> t.pending <- record :: t.pending

(* One durable write makes every staged record stable: a single NVRAM
   append burst (a full log is applied to disk first; records too large
   for even an empty log are made stable in place, as [Eager] does on
   disk), or on disk the records' own directory blocks ([Eager]) or one
   block-0 write that carries them in the commit block's log
   ([Logged]). *)
let flush t =
  match t.pending with
  | [] -> ()
  | pending -> (
      t.pending <- [];
      count_commit t;
      match (t.nvram, t.durability) with
      | Some nv, _ ->
          let records = List.rev pending in
          if not (Storage.Nvram.append_all nv records) then begin
            nvram_flush t nv;
            if not (Storage.Nvram.append_all nv records) then
              persist_records t records
          end
      | None, Eager -> persist_dirty t
      | None, Logged ->
          t.glog <- pending @ t.glog;
          write_commit_block t ~recovering:false)

(* ---- Applying ordered updates -------------------------------------- *)

(* Apply one ordered update — a client's op, or the committed half of a
   cross-shard move — and stage its record, so a crashed replica replays
   either from its log like everything else. Under [Eager] the record is
   stable before this returns, hence before the caller publishes the
   result. *)
let execute_op t ~origin ~uid op =
  let useq' = t.useq + 1 in
  match Directory.apply t.store ~seqno:useq' op with
  | Ok (store', result) ->
      let dir_id =
        match result with
        | Directory.Created id -> id
        | Directory.Updated -> (
            match Directory.dir_id_of_op t.store op with
            | Some id -> id
            | None -> assert false)
      in
      t.useq <- useq';
      t.store <- store';
      t.op_log <-
        { a_useq = useq'; a_origin = origin; a_uid = uid; a_op = op }
        :: t.op_log;
      stage t { useq = useq'; dir_id; op };
      if t.durability = Eager then flush t;
      Ok result
  | Error e -> Error e

(* ---- Cross-shard transactions (ordered side) ------------------------ *)

let xstatus_of t txid =
  match Hashtbl.find_opt t.xdecisions txid with
  | Some true -> Wire.Xcommitted
  | Some false -> Wire.Xaborted
  | None -> if Hashtbl.mem t.staged_x txid then Wire.Xstaged else Wire.Xunknown

let emit_xact t ~name ~txid =
  emit t ~name (fun () ->
      [ ("server", Sim.Trace.Int t.server_id); ("txid", Sim.Trace.Int txid) ])

(* The reply for a transaction already decided, else [undecided ()]. *)
let decided_reply t txid ~undecided =
  match Hashtbl.find_opt t.xdecisions txid with
  | Some true -> Wire.Ok_rep
  | Some false -> Wire.Err_rep (Wire.Unavailable "transaction aborted")
  | None -> undecided ()

(* Every replica of the shard executes these in total order, so the
   staged / decided state is replicated without extra messages. The
   decision table never demotes a commit: a straggling best-effort
   abort from a coordinator that already committed is a no-op. *)
let execute_xact t ~origin ~uid xact =
  let reply =
    match xact with
    | Wire.Xprepare { txid; op; peer_port; src } ->
        decided_reply t txid ~undecided:(fun () ->
            if Hashtbl.mem t.staged_x txid then Wire.Ok_rep
            else (
              (* Dry-run validation against the current store; the op is
                 re-applied for real at commit, so a conflicting update
                 landing in between can still fail the commit. *)
              match Directory.apply t.store ~seqno:(t.useq + 1) op with
              | Ok _ ->
                  Hashtbl.replace t.staged_x txid
                    {
                      x_op = op;
                      x_peer_port = peer_port;
                      x_src = src;
                      x_deadline =
                        Sim.Proc.now () +. t.params.Params.xshard_timeout_ms;
                    };
                  emit_xact t ~name:"xstaged" ~txid;
                  Wire.Ok_rep
              | Error e -> Wire.Err_rep (Wire.Op_error e)))
    | Wire.Xcommit { txid } -> (
        match Hashtbl.find_opt t.staged_x txid with
        | Some staged ->
            Hashtbl.remove t.staged_x txid;
            Hashtbl.replace t.xdecisions txid true;
            emit_xact t ~name:"xcommitted" ~txid;
            Dir_front.write_reply ~port:t.port staged.x_op
              (execute_op t ~origin ~uid staged.x_op)
        | None ->
            decided_reply t txid ~undecided:(fun () ->
                Wire.Err_rep (Wire.Unavailable "no such staged transaction")))
    | Wire.Xabort { txid } ->
        Hashtbl.remove t.staged_x txid;
        (match Hashtbl.find_opt t.xdecisions txid with
        | Some true -> () (* commit is final *)
        | Some false | None ->
            Hashtbl.replace t.xdecisions txid false;
            emit_xact t ~name:"xaborted" ~txid);
        Wire.Ok_rep
    | Wire.Xstatus { txid } -> Wire.Xstatus_rep (xstatus_of t txid)
  in
  if origin = Sim.Node.id t.node then
    Hashtbl.replace t.replies (origin, uid) reply

let process_delivery t delivery =
  let seqno = Group.Types.delivery_seqno delivery in
  if seqno > t.gprocessed then begin
    (match delivery with
    | Group.Types.Msg { payload = Wire.Dir_op_msg { origin; uid; op }; _ } ->
        let outcome = execute_op t ~origin ~uid op in
        if origin = Sim.Node.id t.node then
          Hashtbl.replace t.replies (origin, uid)
            (Dir_front.write_reply ~port:t.port op outcome)
    | Group.Types.Msg { payload = Wire.Dir_xact_msg { origin; uid; xact }; _ }
      ->
        execute_xact t ~origin ~uid xact
    | Group.Types.Msg _ | Group.Types.Joined _ | Group.Types.Departed _ -> ());
    t.gprocessed <- seqno
  end

(* ---- Client-facing handlers ---------------------------------------- *)

let await_applied t pred =
  try
    Sim.Condvar.await ~timeout:4000.0 t.applied pred;
    true
  with Sim.Proc.Timeout -> false

(* Every client request is refused without a majority. *)
let with_group t f =
  if not (majority_ok t) then Wire.Err_rep Wire.No_majority
  else
    match t.group with
    | None -> Wire.Err_rep (Wire.Unavailable "no group")
    | Some g -> f g

let handle_read t serve =
  with_group t (fun g ->
      (* Fig. 5's read path: any buffered (sent but not yet applied)
         messages must be applied before we answer, otherwise a client
         could read past its own write performed via another server. *)
      let target = (Group.Member.info g).highest_seen in
      if not (await_applied t (fun () -> t.gprocessed >= target)) then
        Wire.Err_rep (Wire.Unavailable "catch-up timeout")
      else begin
        Sim.Resource.use t.cpu t.params.cpu_read_ms;
        serve t.store
      end)

(* Send one message through the total order, stamped with a fresh
   (origin, uid), and wait until the local group thread has executed it
   and filed its reply. *)
let send_and_await t g message =
  let origin = Sim.Node.id t.node in
  let uid = fresh_uid t in
  match Group.Member.send g (message ~origin ~uid) with
  | exception Group.Types.Group_failure reason ->
      Wire.Err_rep (Wire.Unavailable ("group: " ^ reason))
  | () ->
      let key = (origin, uid) in
      if not (await_applied t (fun () -> Hashtbl.mem t.replies key)) then
        Wire.Err_rep (Wire.Unavailable "execution timeout")
      else begin
        let reply = Hashtbl.find t.replies key in
        Hashtbl.remove t.replies key;
        reply
      end

let handle_write t op =
  with_group t (fun g ->
      (* The initiator generates the check field: every replica must
         mint the same capability (paper §3.1). *)
      let op =
        match op with
        | Directory.Create_dir { columns; hint; _ } ->
            Directory.Create_dir { columns; secret = fresh_secret t; hint }
        | other -> other
      in
      Sim.Resource.use t.cpu t.params.cpu_write_ms;
      send_and_await t g (fun ~origin ~uid ->
          Wire.Dir_op_msg { origin; uid; op }))

(* Prepare / commit / abort ride the shard's own total order exactly
   like a write; only the status query is answered from local state. *)
let handle_xshard t cmd =
  with_group t (fun g ->
      match cmd with
      | Wire.Xstatus { txid } -> Wire.Xstatus_rep (xstatus_of t txid)
      | _ ->
          Sim.Resource.use t.cpu t.params.cpu_write_ms;
          send_and_await t g (fun ~origin ~uid ->
              Wire.Dir_xact_msg { origin; uid; xact = cmd }))

(* The shard-level NOTHERE: a capability minted by another shard names
   that shard's port, so a port mismatch bounces the client to the
   owner. The servers of a lone group ([shard] = None) never check. *)
let wrong_shard t request =
  Option.is_some t.shard
  &&
  match Wire.cap_of_request request with
  | Some cap -> not (String.equal cap.Capability.port t.port)
  | None -> false

let client_handler t front =
  let serve =
    Dir_front.handler front ~write:(handle_write t) ~read:(handle_read t)
  in
  fun ~client body ->
    match body with
    | Wire.Dir_request request when wrong_shard t request ->
        Wire.Dir_reply (Wire.Err_rep Wire.Wrong_shard)
    | Wire.Dir_request (Wire.Xshard_req cmd) ->
        Wire.Dir_reply
          (Dir_front.timed front ~op:"xshard" (fun () -> handle_xshard t cmd))
    | body -> serve ~client body

(* ---- Admin (recovery) handlers -------------------------------------- *)

let read_commit_block t =
  try Storage.Commit_block.decode (Storage.Block_device.peek t.device 0)
  with Storage.Codec.Corrupt _ -> None

let my_mourned t =
  match read_commit_block t with
  | Some cb -> Skeen.mourned_of_vector cb.Storage.Commit_block.config_vector
  | None -> Skeen.Int_set.empty

let admin_handler t ~client:_ body =
  match body with
  | Wire.Exchange_req _ ->
      Wire.Exchange_rep
        {
          server = t.server_id;
          mourned = Skeen.Int_set.elements (my_mourned t);
          useq = t.useq;
          stayed_up = t.stayed_up;
          serving = majority_ok t;
        }
  | Wire.Fetch_state_req { required; have } ->
      (* Quiesce to the requester's join point before snapshotting, so
         store + watermark form a consistent cut. *)
      if not (await_applied t (fun () -> t.gprocessed >= required)) then
        Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "fetch quiesce timeout"))
      else begin
        (* Incremental transfer: only directories whose seqno differs
           from the requester's inventory travel; the donor's state is
           authoritative, so a mismatch in either direction resends. *)
        let inventory = Hashtbl.create 32 in
        List.iter
          (fun (dir_id, seqno, digest) ->
            Hashtbl.replace inventory dir_id (seqno, digest))
          have;
        let changed =
          Directory.Store.filter
            (fun dir_id dir ->
              match Hashtbl.find_opt inventory dir_id with
              | Some (seqno, digest) ->
                  seqno <> dir.Directory.seqno
                  || not (Int64.equal digest (Directory.digest dir))
              | None -> true)
            t.store
        in
        let deleted =
          List.filter_map
            (fun (dir_id, _, _) ->
              if Directory.Store.mem dir_id t.store then None else Some dir_id)
            have
        in
        Wire.Fetch_state_rep
          {
            changed = Wire.encode_store changed;
            deleted;
            useq = t.useq;
            watermark = t.gprocessed;
          }
      end
  | _ -> Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "bad admin request"))

(* ---- Boot-time state loading ---------------------------------------- *)

let load_disk_state t =
  let commit = read_commit_block t in
  let crashed_during_recovery =
    match commit with Some cb -> cb.Storage.Commit_block.recovering | None -> false
  in
  t.store <-
    Dir_image.load t.image ~lost:(fun dir_id ->
        emit t ~name:"lost_dir" (fun () ->
            [
              ("server", Sim.Trace.Int t.server_id);
              ("dir", Sim.Trace.Int dir_id);
            ]));
  let max_dir_seqno =
    Directory.Store.fold
      (fun _ dir acc -> max acc dir.Directory.seqno)
      t.store 0
  in
  let commit_seqno =
    match commit with Some cb -> cb.Storage.Commit_block.seqno | None -> 0
  in
  t.useq <- max commit_seqno max_dir_seqno;
  (* Replay one log record against the loaded image. Idempotent: a
     record is skipped when the directory's own seqno already covers it
     (deleted dirs leave no trace but the useq). Returns whether the
     record actually had to be applied. *)
  let replay_record (record : log_record) =
    let already_applied =
      match Directory.Store.find_opt record.dir_id t.store with
      | Some dir -> dir.Directory.seqno >= record.useq
      | None -> (
          match record.op with
          | Directory.Delete_dir _ -> t.useq >= record.useq
          | _ -> false)
    in
    if already_applied then false
    else
      match Directory.apply t.store ~seqno:record.useq record.op with
      | Ok (store', _) ->
          t.store <- store';
          t.useq <- max t.useq record.useq;
          true
      | Error _ -> false
  in
  (* Replay the NVRAM log (reliable medium: it survived the crash). *)
  (match t.nvram with
  | None -> ()
  | Some nv ->
      List.iter (fun r -> ignore (replay_record r)) (Storage.Nvram.peek_all nv));
  (* Replay the commit block's group-commit log: records made stable by
     a block-0 write whose per-directory blocks were never rewritten.
     Replayed records go back into [glog]/[dirty] so they stay covered
     by future block-0 writes until their directories are persisted. *)
  (match commit with
  | Some cb when cb.Storage.Commit_block.log <> "" ->
      List.iter
        (fun (useq, dir_id, op) ->
          let record = { useq; dir_id; op } in
          if replay_record record then begin
            t.glog <- record :: t.glog;
            Hashtbl.replace t.dirty dir_id ()
          end)
        (Wire.decode_log_records cb.Storage.Commit_block.log)
  | Some _ | None -> ());
  if crashed_during_recovery then begin
    (* Crash during recovery: our state may mix old and new directory
       versions. Zero the sequence number so nobody recovers from us
       (paper §3). *)
    emit t ~name:"untrusted_state" (fun () ->
        [ ("server", Sim.Trace.Int t.server_id) ]);
    t.useq <- 0
  end

(* ---- Recovery (Fig. 6) ---------------------------------------------- *)

let leave_group t =
  (match t.group with
  | Some g -> ( try Group.Member.leave g with Group.Types.Group_failure _ -> ())
  | None -> ());
  t.group <- None

let exchange_with_peers t member_nodes =
  let mine =
    {
      Skeen.server = t.server_id;
      mourned = my_mourned t;
      useq = t.useq;
      stayed_up = t.stayed_up;
      serving = false (* we are recovering *);
    }
  in
  let others =
    List.filter_map
      (fun (sid, node_id) ->
        if sid = t.server_id || not (List.mem node_id member_nodes) then None
        else
          match
            Rpc.Transport.trans t.transport ~port:(admin_port node_id)
              ~timeout:100.0
              (Wire.Exchange_req { server = t.server_id })
          with
          | Wire.Exchange_rep { server; mourned; useq; stayed_up; serving } ->
              Some
                {
                  Skeen.server;
                  mourned = Skeen.Int_set.of_list mourned;
                  useq;
                  stayed_up;
                  serving;
                }
          | _ | (exception Rpc.Transport.Rpc_failure _) -> None)
      t.peers
  in
  mine :: others

let fetch_state_from t ~donor_node ~join_base =
  let have =
    Directory.Store.fold
      (fun dir_id dir acc ->
        (dir_id, dir.Directory.seqno, Directory.digest dir) :: acc)
      t.store []
  in
  match
    Rpc.Transport.trans t.transport ~port:(admin_port donor_node)
      ~timeout:3000.0
      (Wire.Fetch_state_req { required = join_base; have })
  with
  | Wire.Fetch_state_rep { changed; deleted; useq; watermark } ->
      let changed = Wire.decode_store changed in
      let merged =
        Directory.Store.union (fun _ donor_dir _mine -> Some donor_dir) changed
          (List.fold_left
             (fun store dir_id -> Directory.Store.remove dir_id store)
             t.store deleted)
      in
      Some (merged, useq, watermark)
  | _ | (exception Rpc.Transport.Rpc_failure _) -> None

(* Rewrite our whole disk image from the fetched store. Recovery-time
   I/O; not on any client's critical path. *)
let reinstall_disk_state t =
  let old_files = Dir_image.take_files t.image in
  (* Clear slots that no longer exist. *)
  Directory.Store.iter
    (fun dir_id _ ->
      if not (Directory.Store.mem dir_id t.store) then
        Dir_image.clear_entry t.image dir_id)
    old_files;
  Directory.Store.iter
    (fun dir_id dir -> ignore (Dir_image.write t.image dir_id dir))
    t.store;
  Directory.Store.iter (fun _ cap -> Dir_image.delete_file t.image cap) old_files;
  match t.nvram with
  | None -> ()
  | Some nv -> ignore (Storage.Nvram.take_all nv)

let all_server_ids t = List.map fst t.peers

let rec run_recovery t ~attempt =
  leave_group t;
  (* Stagger retries so concurrent creators converge. *)
  Sim.Timer.sleep
    (10.0
    +. (float_of_int t.server_id *. 7.0)
    +. (float_of_int attempt *. 13.0));
  let config = Params.group_config t.params ~servers:(n_servers t) in
  let nic = Rpc.Transport.nic t.transport in
  let g =
    match
      Group.Member.join_group ?metrics:t.metrics ~config t.net nic
        ~gname:t.gname
    with
    | g -> g
    | exception Group.Types.Join_failed _ ->
        Group.Member.create_group ?metrics:t.metrics ~config t.net nic
          ~gname:t.gname
  in
  t.group <- Some g;
  let join_base = (Group.Member.info g).next_deliver - 1 in
  (* Wait for a majority to assemble (Fig. 6's waiting loop). *)
  let deadline = Sim.Proc.now () +. 500.0 in
  let rec wait_majority () =
    if List.length (Group.Member.members g) >= majority t then true
    else if Sim.Proc.now () > deadline then false
    else begin
      Sim.Timer.sleep 15.0;
      wait_majority ()
    end
  in
  if not (wait_majority ()) then run_recovery t ~attempt:(attempt + 1)
  else begin
    let rec attempt_exchange tries =
      let member_nodes = Group.Member.members g in
      let present = exchange_with_peers t member_nodes in
      let verdict = Skeen.decide ~all:(all_server_ids t) ~present in
      let verdict =
        (* Administrator override: accept the best reachable data even
           when the last-to-fail set is not covered. *)
        match verdict with
        | Skeen.Wait_for _ when t.forced_recovery ->
            let donor =
              List.fold_left
                (fun best p ->
                  match best with
                  | None -> Some p
                  | Some b ->
                      if
                        p.Skeen.useq > b.Skeen.useq
                        || (p.Skeen.useq = b.Skeen.useq
                            && p.Skeen.server < b.Skeen.server)
                      then Some p
                      else best)
                None present
            in
            (match donor with
            | Some d ->
                emit t ~name:"forced_recovery" (fun () ->
                    [
                      ("server", Sim.Trace.Int t.server_id);
                      ("donor", Sim.Trace.Int d.Skeen.server);
                    ]);
                Skeen.Recover
                  { donor = d.Skeen.server; last_set = Skeen.Int_set.empty }
            | None -> verdict)
        | _ -> verdict
      in
      match verdict with
      | Skeen.Recover { donor; _ } ->
          let ok =
            if donor = t.server_id then begin
              t.gprocessed <- max t.gprocessed join_base;
              true
            end
            else begin
              (* Always adopt the donor's state, even when our own
                 sequence number is equal or higher: a rebooted server
                 may carry an uncommitted suffix that must be
                 discarded. The transfer is incremental, so an
                 already-identical store costs almost nothing. *)
              let donor_node = List.assoc donor t.peers in
              (* Mark recovery in progress: a crash between here and the
                 final commit-block write leaves mixed state behind. *)
              write_commit_block t ~recovering:true;
              match fetch_state_from t ~donor_node ~join_base with
              | Some (store, useq, watermark) ->
                  t.store <- store;
                  t.useq <- useq;
                  t.gprocessed <- max watermark join_base;
                  t.op_log <- [];
                  reinstall_disk_state t;
                  true
              | None -> false
            end
          in
          if not ok then run_recovery t ~attempt:(attempt + 1)
          else begin
            t.serving <- true;
            notify_serving t;
            t.stayed_up <- true;
            t.forced_recovery <- false;
            write_commit_block t ~recovering:false;
            emit t ~name:"recovered" (fun () ->
                [
                  ("server", Sim.Trace.Int t.server_id);
                  ( "view",
                    Sim.Trace.Str
                      (String.concat ","
                         (List.map string_of_int (Group.Member.members g))) );
                  ("useq", Sim.Trace.Int t.useq);
                ])
          end
      | Skeen.Wait_for missing ->
          emit t ~name:"wait_last_set" (fun () ->
              [
                ("server", Sim.Trace.Int t.server_id);
                ( "missing",
                  Sim.Trace.Str
                    (String.concat ","
                       (List.map string_of_int
                          (Skeen.Int_set.elements missing))) );
              ]);
          if tries > 6 then run_recovery t ~attempt:(attempt + 1)
          else begin
            Sim.Timer.sleep 60.0;
            attempt_exchange (tries + 1)
          end
      | Skeen.No_majority -> run_recovery t ~attempt:(attempt + 1)
    in
    attempt_exchange 0
  end

(* ---- The group thread (Fig. 5 bottom + recovery trigger) ------------ *)

(* One step: drain the deliveries the group layer has ordered, apply
   them (staging a record for each), flush, then wake the waiting
   readers and writers. Under [Eager] every delivery is a burst of its
   own, so each writer wakes as soon as its own update is stable; under
   [Logged] a batched multicast lands as one burst sharing one flush.
   Quiet periods — no delivery within batch_persist_idle_ms while the
   commit-block log is non-empty — apply that log to the dirty
   directories' own blocks in the background. *)
let group_step t g =
  let settle () =
    flush t;
    Sim.Condvar.broadcast t.applied
  in
  let idle_work = Hashtbl.length t.dirty > 0 || t.glog <> [] in
  match
    let first =
      if idle_work then
        Group.Member.receive ~timeout:t.params.Params.batch_persist_idle_ms g
      else Group.Member.receive g
    in
    process_delivery t first;
    while t.durability = Logged && Group.Member.pending_deliveries g > 0 do
      process_delivery t (Group.Member.receive g)
    done
  with
  | () -> settle ()
  | exception Sim.Proc.Timeout -> persist_dirty t
  | exception Group.Types.Group_failure _ -> (
      (* Updates ordered before the failure are legitimate: make what we
         already applied stable, then rebuild the group; with a majority
         we continue, else we fall back to full recovery. *)
      settle ();
      match Group.Member.reset g with
      | size when size >= majority t -> write_commit_block t ~recovering:false
      | _ -> t.serving <- false
      | exception Group.Types.Group_failure _ -> t.serving <- false)

let group_thread t () =
  while true do
    if not t.serving then run_recovery t ~attempt:0
    else
      match t.group with
      | None -> t.serving <- false
      | Some g -> group_step t g
  done

let nvram_flusher t nv () =
  while true do
    Sim.Timer.sleep (t.params.nvram_flush_idle_ms /. 2.0) ;
    let idle = Sim.Proc.now () -. t.last_update > t.params.nvram_flush_idle_ms in
    let full = Storage.Nvram.fill_ratio nv > t.params.nvram_flush_ratio in
    if Storage.Nvram.length nv > 0 && (idle || full) then nvram_flush t nv
  done

(* ---- Cross-shard abandonment resolver -------------------------------- *)

(* The backbone status port of the shard whose client port is [port]:
   served by every member of that shard on the backbone network. *)
let xstatus_port port = "xs@" ^ port

let xstatus_handler t ~client:_ body =
  match body with
  | Wire.Dir_request (Wire.Xshard_req (Wire.Xstatus { txid })) ->
      if not (majority_ok t) then
        Wire.Dir_reply (Wire.Err_rep Wire.No_majority)
      else Wire.Dir_reply (Wire.Xstatus_rep (xstatus_of t txid))
  | _ -> Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "bad status request"))

(* Only the lowest-node member of the current view resolves — a single
   decision maker per shard keeps resolution traffic down; the decision
   itself still travels through the total order. *)
let is_xact_leader t =
  match t.group with
  | Some g when t.serving -> (
      match Group.Member.members g with
      | [] -> false
      | members -> List.fold_left min max_int members = Sim.Node.id t.node)
  | Some _ | None -> false

let decide_staged t txid ~commit =
  match t.group with
  | None -> ()
  | Some g ->
      let xact =
        if commit then Wire.Xcommit { txid } else Wire.Xabort { txid }
      in
      ignore
        (send_and_await t g (fun ~origin ~uid ->
             Wire.Dir_xact_msg { origin; uid; xact }))

(* A transaction abandoned past its deadline (coordinator crash).
   Presumed abort, with one asymmetry: the coordinator commits the
   source (delete) side first, so the source can self-abort — if it is
   still staged nobody committed anything — while the destination must
   ask the source how it ended over the backbone before acting. *)
let resolve_staged t txid staged =
  if staged.x_src then begin
    emit_xact t ~name:"xresolve_abort" ~txid;
    decide_staged t txid ~commit:false
  end
  else
    match t.xtransport with
    | None -> decide_staged t txid ~commit:false
    | Some xt -> (
        match
          Rpc.Transport.trans xt
            ~port:(xstatus_port staged.x_peer_port)
            ~timeout:500.0
            (Wire.Dir_request (Wire.Xshard_req (Wire.Xstatus { txid })))
        with
        | Wire.Dir_reply (Wire.Xstatus_rep Wire.Xcommitted) ->
            emit_xact t ~name:"xresolve_commit" ~txid;
            decide_staged t txid ~commit:true
        | Wire.Dir_reply (Wire.Xstatus_rep (Wire.Xaborted | Wire.Xunknown)) ->
            emit_xact t ~name:"xresolve_abort" ~txid;
            decide_staged t txid ~commit:false
        | Wire.Dir_reply (Wire.Xstatus_rep Wire.Xstaged) ->
            (* The source's own resolver will abort it at its deadline;
               ask again on the next scan. *)
            ()
        | _ | (exception Rpc.Transport.Rpc_failure _) -> ())

let xact_resolver t () =
  while true do
    Sim.Timer.sleep 250.0;
    if is_xact_leader t then begin
      let now = Sim.Proc.now () in
      let expired =
        Hashtbl.fold
          (fun txid staged acc ->
            if now > staged.x_deadline then (txid, staged) :: acc else acc)
          t.staged_x []
      in
      let expired =
        List.sort (fun (a, _) (b, _) -> compare (a : int) b) expired
      in
      List.iter
        (fun (txid, staged) ->
          if Hashtbl.mem t.staged_x txid then resolve_staged t txid staged)
        expired
    end
  done

let start ~params ?metrics ?nvram ?shard ?xnet net ~server_id ~peers ~node
    ~device ~bullet_port ~gname ~port () =
  let nic = Simnet.Network.attach net node in
  (* Server-to-server calls (Bullet commits, recovery fetches) must ride
     out disk backlogs without spurious retries. *)
  let rpc_config =
    { Rpc.Transport.default_config with trans_timeout = 3_000.0 }
  in
  let transport = Rpc.Transport.create ~config:rpc_config net nic in
  let xtransport =
    match xnet with
    | None -> None
    | Some xnet ->
        let xnic = Simnet.Network.attach xnet node in
        Some (Rpc.Transport.create ~config:rpc_config xnet xnic)
  in
  let t =
    {
      params;
      durability = (if params.Params.batch_max > 1 then Logged else Eager);
      metrics;
      net;
      node;
      transport;
      server_id;
      peers;
      device;
      image =
        Dir_image.attach transport ~bullet_port ~device
          ~slots:params.Params.admin_slots;
      gname;
      port;
      cpu = Sim.Resource.create ~name:"dir-cpu" ~capacity:1 ();
      nvram;
      store = Directory.empty;
      useq = 0;
      group = None;
      gprocessed = 0;
      serving = false;
      serving_watch = None;
      stayed_up = false;
      applied = Sim.Condvar.create ();
      replies = Hashtbl.create 32;
      next_uid = 0;
      next_secret = 0;
      last_update = 0.0;
      op_log = [];
      forced_recovery = false;
      pending = [];
      glog = [];
      dirty = Hashtbl.create 16;
      c_commit =
        Option.map (fun m -> Sim.Metrics.counter m "dirsvc.commit") metrics;
      shard;
      xtransport;
      staged_x = Hashtbl.create 8;
      xdecisions = Hashtbl.create 8;
    }
  in
  let front =
    Dir_front.create ~metrics ~shard net ~node (Dir_front.Replica server_id)
  in
  Rpc.Transport.serve transport ~port ~threads:params.Params.server_threads
    (client_handler t front);
  Rpc.Transport.serve transport ~port:(admin_port (Sim.Node.id node)) ~threads:2
    (admin_handler t);
  (match t.xtransport with
  | Some xt -> Rpc.Transport.serve xt ~port:(xstatus_port port) ~threads:2
      (xstatus_handler t)
  | None -> ());
  Sim.Proc.boot (Simnet.Network.engine net) node ~name:"dirsvc.boot" (fun () ->
      load_disk_state t;
      (match t.nvram with
      | Some nv -> Sim.Proc.spawn ~name:"dirsvc.nvflush" (nvram_flusher t nv)
      | None -> ());
      (if t.shard <> None then
         Sim.Proc.spawn ~name:"dirsvc.xresolve" (xact_resolver t));
      group_thread t ());
  t

let applied_log t = List.rev t.op_log

let force_recover t = t.forced_recovery <- true
