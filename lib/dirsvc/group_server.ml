(* One modification whose directory blocks are not rewritten yet, and
   its commit-block log encoding once a commit-block write has needed
   it ([""] before): a record is encoded once, however many writes of a
   lingering log carry it. *)
type log_record = {
  useq : int;
  dir_id : int;
  op : Directory.op;
  mutable encoded : string;
}

let admin_port node_id = Printf.sprintf "dira@%d" node_id

type applied = {
  a_useq : int;
  a_origin : int;
  a_uid : int;
  a_op : Directory.op;
}

(* The destination half of a cross-shard move, staged through this
   shard's total order and waiting for the source's decision. Until then
   it reserves its (directory, name). *)
type staged_xact = {
  x_prepare : Wire.prepare;
  x_deadline : float;  (** when the resolver re-sends its decision *)
}

type t = {
  params : Params.t;
  (* The commit pipeline's two knobs, fixed at start. [group_commit]
     ([batch_max] > 1) says when a flush happens: after a whole
     delivered burst, which shares it, instead of after each update
     before its result is published (the paper's Fig. 5). [in_place]
     says where it goes: the records' own directory blocks (new Bullet
     file, then the object-table entry), instead of one commit-block
     write carrying them in the commit block's log, the directory blocks
     being rewritten in the background. Only the paper's per-update
     commit on disk writes in place; on NVRAM the board is the log
     (§4.1). *)
  group_commit : bool;
  in_place : bool;
  net : Simnet.Network.t;
  node : Sim.Node.t;
  transport : Rpc.Transport.t;
  server_id : int;
  peers : (int * int) list; (* (server_id, node_id), all servers *)
  device : Storage.Block_device.t;
  commit_device : Storage.Block_device.t; (* [device], or the NVRAM board *)
  image : Dir_image.t;
  gname : string;
  port : string;
  cpu : Sim.Resource.t;
  (* Replicated state. *)
  mutable store : Directory.store;
  mutable useq : int;
  (* Group state. *)
  mutable group : Group.Member.t option;
  mutable gprocessed : int; (* group position applied *)
  (* Fig. 6's recovery, written only by [feed]: whether the server
     serves, its recovering flag and Skeen's [stayed_up]. *)
  mutable recovery : Recovery.state;
  (* The simulated ms the current recovery has spent backing off,
     waiting for a majority, exchanging, fetching and reinstalling. *)
  spent : float array;
  (* Called synchronously each time recovery ends in serving: how the
     benchmark times a restarted server's rejoin to the millisecond.
     Drivers that wait for serving poll [serving] instead. *)
  mutable serving_watch : (unit -> unit) option;
  applied : Sim.Condvar.t;
  (* The reply to each update this server initiated, keyed by its uid
     and filed by the group thread at delivery. *)
  replies : (int, Wire.reply) Hashtbl.t;
  mutable next_uid : int;
  mutable boot : int; (* this boot's number, durable in the commit block *)
  mutable next_secret : int;
  mutable op_log : applied list; (* newest first; see applied_log *)
  (* Every record whose directory blocks are not rewritten yet, newest
     first: the in-memory copy of the commit block's log, plus what the
     next flush adds to it. Unless [in_place], the directories are
     rewritten when the group goes quiet or the log outgrows the commit
     block. [stale]: a staged record or a cancel is not in the commit
     block yet. *)
  mutable log : log_record list;
  mutable stale : bool;
  c_commit : Sim.Metrics.handle;
  (* Sharded deployment only ([shard] = None is a lone group).
     [staged_x] / [xdecisions] are driven exclusively by
     ordered deliveries, so every replica of the shard converges;
     [xtransport] rides the backbone network for prepares, forwarded
     commits and re-sent decisions. [forwards] holds, per uid of a
     commit decision this server initiated, the destination's answer to
     the forwarded commit. *)
  shard : int option;
  xtransport : Rpc.Transport.t option;
  staged_x : (int, staged_xact) Hashtbl.t;
  staged_cv : Sim.Condvar.t; (* broadcast when a half is staged *)
  xdecisions : (int, bool) Hashtbl.t; (* txid -> committed? *)
  forwards : (int, Wire.reply Sim.Ivar.t) Hashtbl.t;
}

(* A replica whose group is between views does not serve. *)
let serving t =
  match t.group with
  | Some g -> Recovery.serving t.recovery && (Group.Member.info g).status = Group.Types.Normal
  | None -> false

let set_serving_watch t w = t.serving_watch <- w

let useq t = t.useq

let store_snapshot t = t.store

let n_servers t = List.length t.peers

let members t = match t.group with Some g -> Group.Member.members g | None -> []

(* The node ids of the view this server serves in; [] while it recovers. *)
let serving_view t = if Recovery.serving t.recovery then members t else []

let majority_ok t = List.length (serving_view t) > n_servers t / 2

let emit t ~name attrs =
  Sim.Engine.emit (Simnet.Network.engine t.net) ~subsystem:"dirsvc"
    ~node:(Sim.Node.id t.node) ~name attrs

let fresh_secret t =
  t.next_secret <- t.next_secret + 1;
  Capability.mint_secret
    (Int64.of_int ((Sim.Node.id t.node * 1_000_000_007) + t.next_secret))

(* Unique across reboots: the boot count leads, so a rebooted server's
   uids never repeat its earlier ones. *)
let fresh_uid t =
  t.next_uid <- t.next_uid + 1;
  (t.boot * 1_000_000_000) + t.next_uid

let read_commit_block t =
  try Storage.Commit_block.decode (Storage.Block_device.peek t.commit_device 0)
  with Storage.Codec.Corrupt _ -> None

(* The configuration vector on disk; all up on a fresh disk. *)
let disk_vector t =
  match read_commit_block t with
  | Some cb -> cb.Storage.Commit_block.config_vector
  | None -> Array.make (n_servers t) true

(* The members of the view this server serves in; while it recovers,
   the vector its last majority view left on disk, so that a crash
   before it serves again mourns no more servers than that view did. *)
let current_vector t =
  match serving_view t with
  | [] -> disk_vector t
  | view ->
      Array.init (n_servers t) (fun i ->
          List.exists (fun (s, n) -> s = i + 1 && List.mem n view) t.peers)

(* ---- Commit pipeline ---------------------------------------------- *)

let encoding r =
  if r.encoded = "" then
    r.encoded <- Wire.encode_log_record ~useq:r.useq ~dir_id:r.dir_id r.op;
  r.encoded

(* [records] (newest first) as the commit block's log: their cached
   encodings, oldest first. *)
let encode_log records = Wire.join_log_records (List.rev_map encoding records)

(* What [encode_log records] would take, from the cached lengths. *)
let log_size = function
  | [] -> 0
  | records -> List.fold_left (fun n r -> n + String.length (encoding r)) 4 records

let fits t records =
  log_size records + 64 <= Storage.Block_device.block_size t.commit_device

(* [records] encoded, less the newest ones that do not fit. The log fits
   in the commit block, except inside a flush that overflows: a
   deletion's write there leaves out the newest records, the flush's
   own, acknowledged to nobody yet. Everything older fit at the previous
   write. *)
let rec fitting t = function
  | [] -> ""
  | _ :: older as records ->
      if fits t records then encode_log records else fitting t older

let write_commit_block ?log t =
  Storage.Commit_block.write t.commit_device
    {
      Storage.Commit_block.config_vector = current_vector t;
      seqno = t.useq;
      recovering = t.recovery.recovering;
      boot = t.boot;
      log = (match log with Some log -> log | None -> fitting t t.log);
    }

(* One directory's stable copy: its new file and entry, or for a
   deletion its cleared entry and a commit-block write; then the file
   it replaced is retired. *)
let persist t dir =
  let replaced = Dir_image.persist t.image t.store dir in
  if not (Directory.Store.mem dir t.store) then write_commit_block t;
  Dir_image.retire t.image replaced

(* The one way a directory's stable copy is written: persist each of
   [dirs], then drop its records. A deletion leaves a trace of the
   update in the commit block's seqno (paper §3), and that write still
   carries the records of the directories not rewritten yet, its own
   included: replay re-creates directories in their logged order, and
   a Create_dir takes the lowest free id. The stale copy of the log left
   in the commit block is harmless — boot-time replay is idempotent (a
   record is skipped when the directory's own seqno already covers it),
   so the log needs no extra write to be truncated, and a crash during
   the rewrites loses nothing. *)
let rewrite t dirs =
  List.iter
    (fun dir ->
      persist t dir;
      t.log <- List.filter (fun r -> r.dir_id <> dir) t.log)
    dirs

let logged_dirs t = List.sort_uniq compare (List.map (fun r -> r.dir_id) t.log)

(* Rewrite every logged directory, in ascending id order. The eager
   commit's log is one record: its directory, with no list to sort or
   filter. *)
let apply_log t =
  match t.log with
  | [ r ] ->
      persist t r.dir_id;
      t.log <- []
  | _ -> rewrite t (logged_dirs t)

(* Staging does no I/O: [flush] makes the log's changes stable. The
   /tmp effect reaches across the whole log: a delete canceling an
   append that no per-directory block has seen yet removes both records.
   A cancel changes the log like a staged record does, so the burst's
   own commit-block write makes it durable before any writer is
   woken. *)
let row_cancels ~cap ~name r =
  match r.op with
  | Directory.Append_row { cap = c; name = n; _ } ->
      c.Capability.obj = cap.Capability.obj && n = name
  | _ -> false

let stage t record =
  let cancels =
    match record.op with
    | Directory.Delete_row { cap; name } -> row_cancels ~cap ~name
    | _ -> fun _ -> false
  in
  t.log <-
    (if List.exists cancels t.log then
       List.filter (fun r -> not (cancels r)) t.log
     else record :: t.log);
  t.stale <- true

(* One durable write makes the log's changes stable: the records' own
   directory blocks ([in_place]) or one commit-block write that carries
   the log. When the log would no longer fit beside the header, it is
   applied in place instead, and the commit block is written with the
   log emptied. *)
let flush t =
  if t.stale then begin
    t.stale <- false;
    Sim.Metrics.incr_handle t.c_commit;
    if t.in_place then apply_log t
    else if fits t t.log then write_commit_block ~log:(encode_log t.log) t
    else begin
      apply_log t;
      write_commit_block t
    end
  end

(* ---- Applying ordered updates -------------------------------------- *)

(* Apply one ordered update — a client's op, or the committed half of a
   cross-shard move — and stage its record, so a crashed replica replays
   either from its log like everything else. Without [group_commit] the
   record is stable before this returns its reply, hence before the
   reply is published. *)
let execute_op t ~origin ~uid op =
  let useq' = t.useq + 1 in
  let dir_id = Directory.dir_id_of_op t.store op in
  let applied =
    if Dir_image.admits t.image op dir_id then Directory.apply t.store ~seqno:useq' op
    else Error Directory.Table_full
  in
  Dir_front.write_reply ~port:t.port op
    (match applied with
    | Ok (store', result) ->
        t.useq <- useq';
        t.store <- store';
        t.op_log <-
          { a_useq = useq'; a_origin = origin; a_uid = uid; a_op = op }
          :: t.op_log;
        stage t { useq = useq'; dir_id; op; encoded = "" };
        if not t.group_commit then flush t;
        Ok result
    | Error e -> Error e)

(* ---- Cross-shard transactions (ordered side) ------------------------ *)

let emit_xact t ~name ~txid =
  emit t ~name (fun () ->
      [ ("server", Sim.Trace.Int t.server_id); ("txid", Sim.Trace.Int txid) ])

(* The reply for a transaction already decided, else [undecided ()]: an
   aborted move reads as its row not found. *)
let decided_reply t txid ~undecided =
  match Hashtbl.find_opt t.xdecisions txid with
  | Some true -> Wire.Ok_rep
  | Some false -> Wire.Err_rep (Wire.Op_error Directory.Not_found)
  | None -> undecided ()

(* The backbone service of the shard whose client port is [port]:
   served by every member of that shard on the backbone network. *)
let xshard_port port = "xs@" ^ port

(* One backbone request to the shard whose client port is [port]; no
   reply at all reads as [Unavailable]. *)
let xshard_call xt ~port cmd =
  match
    Rpc.Transport.trans xt ~port:(xshard_port port)
      (Wire.Dir_request (Wire.Xshard_req cmd))
  with
  | Wire.Dir_reply reply -> reply
  | _ | (exception Rpc.Transport.Rpc_failure _) ->
      Wire.Err_rep (Wire.Unavailable ("no answer from " ^ port))

(* On the server that initiated a commit decision: send the commit to
   the destination from a fiber of its own, so it is ordered and flushed
   there while this shard flushes the delete. [send_and_await] hands the
   destination's answer to the client. One attempt: if it fails, the
   destination's resolver re-sends the decision, which forwards again. *)
let forward_commit t ~origin ~uid ~txid ~peer_port =
  match t.xtransport with
  | Some xt when origin = Sim.Node.id t.node ->
      let answer = Sim.Ivar.create () in
      Hashtbl.replace t.forwards uid answer;
      Sim.Proc.spawn ~name:"dirsvc.xforward" (fun () ->
          Sim.Ivar.fill answer
            (xshard_call xt ~port:peer_port (Wire.Xcommit { txid })))
  | Some _ | None -> ()

(* Whether the source row still carries the capability and mask the
   coordinator's lookup returned, and the delete would succeed. *)
let row_unchanged t op (cap, mask) =
  match op with
  | Directory.Delete_row { cap = dir; name } -> (
      match Directory.lookup t.store ~cap:dir ~name ~column:0 with
      | Ok (cap', mask') ->
          mask' = mask && Capability.equal cap' cap
          && Result.is_ok (Directory.apply t.store ~seqno:(t.useq + 1) op)
      | Error _ -> false)
  | _ -> false

(* Whether [op] could make the staged append [staged] fail when it
   commits: an append of the reserved name, or the deletion of its
   directory. A Replace_set never creates a row, so it cannot. *)
let conflicts staged op =
  match (staged, op) with
  | ( Directory.Append_row { cap; name; _ },
      Directory.Append_row { cap = c; name = n; _ } ) ->
      cap.Capability.obj = c.Capability.obj && String.equal name n
  | Directory.Append_row { cap; _ }, Directory.Delete_dir { cap = c } ->
      cap.Capability.obj = c.Capability.obj
  | _ -> false

(* Stage a destination half; the resolver waits for this while nothing
   is staged. *)
let stage_x t (prepare : Wire.prepare) =
  Hashtbl.replace t.staged_x prepare.txid
    { x_prepare = prepare; x_deadline = Sim.Proc.now () +. Params.xshard_timeout_ms };
  Sim.Condvar.broadcast t.staged_cv

let conflicts_with_staged t op =
  Hashtbl.length t.staged_x > 0
  && Hashtbl.fold
       (fun _ staged acc -> acc || conflicts staged.x_prepare.op op)
       t.staged_x false

(* Every replica of the shard executes these in total order, so the
   staged / decided state is replicated without extra messages. Only a
   source orders [Xdecide] and only a destination [Xabort], once its
   source has answered an abort. The decision table never demotes a
   commit: a straggling abort after a commit is a no-op. *)
let execute_xact t ~origin ~uid xact =
  match xact with
  | Wire.Xprepare ({ txid; op; _ } as prepare) ->
      decided_reply t txid ~undecided:(fun () ->
          if Hashtbl.mem t.staged_x txid then Wire.Ok_rep
          else if conflicts_with_staged t op then Wire.Err_rep Wire.Busy
          else
            (* Dry-run validation against the current store; the
               reservation keeps it valid until the decision. *)
            match Directory.apply t.store ~seqno:(t.useq + 1) op with
            | Ok _ ->
                stage_x t prepare;
                emit_xact t ~name:"xstaged" ~txid;
                Wire.Ok_rep
            | Error e -> Wire.Err_rep (Wire.Op_error e))
  | Wire.Xdecide { txid; op; row; peer_port } ->
      (* The first decision stands; one sent again is answered from the
         table, and a commit is forwarded again. *)
      let first = not (Hashtbl.mem t.xdecisions txid) in
      if first then begin
        let commit = row_unchanged t op row in
        Hashtbl.replace t.xdecisions txid commit;
        emit_xact t ~txid ~name:(if commit then "xdecided" else "xaborted")
      end;
      if Hashtbl.find t.xdecisions txid then begin
        forward_commit t ~origin ~uid ~txid ~peer_port;
        if first then execute_op t ~origin ~uid op else Wire.Ok_rep
      end
      else Wire.Err_rep (Wire.Op_error Directory.Not_found)
  | Wire.Xcommit { txid } -> (
      match Hashtbl.find_opt t.staged_x txid with
      | Some staged ->
          Hashtbl.replace t.xdecisions txid true;
          emit_xact t ~name:"xcommitted" ~txid;
          (* Still staged while it flushes: the read gate names its
             directory from here. *)
          let reply = execute_op t ~origin ~uid staged.x_prepare.op in
          Hashtbl.remove t.staged_x txid;
          reply
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

(* The reply to an update this server initiated waits for its sender. *)
let file_reply t ~origin ~uid reply =
  if origin = Sim.Node.id t.node then Hashtbl.replace t.replies uid reply

let process_delivery t (seqno, entry) =
  if seqno > t.gprocessed then begin
    (match entry with
    | Group.Wire.App { origin; payload = Wire.Dir_op_msg { uid; op }; _ } ->
        file_reply t ~origin ~uid
          (if conflicts_with_staged t op then Wire.Err_rep Wire.Busy
           else execute_op t ~origin ~uid op)
    | Group.Wire.App { origin; payload = Wire.Dir_xact_msg { uid; xact }; _ } ->
        file_reply t ~origin ~uid (execute_xact t ~origin ~uid xact)
    | Group.Wire.App _ | Group.Wire.Join_member _ | Group.Wire.Leave_member _ -> ());
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

(* Whether the ordered entry at [seqno], not yet applied here, can
   change one of the directories [dirs] a read names. An entry not held
   yet might be anything. A directory update touches its own directory;
   a Create_dir touches none that exists yet (a read naming a directory
   missing from the store waits for everything, see [read_blocker]). A
   cross-shard decision touches the directory of its delete, and a
   cross-shard commit that of the append its prepare staged; one whose
   prepare is not applied yet might touch anything. The other
   transaction steps change no directory. *)
let blocks_read t g ~dirs seqno =
  match Group.Member.held g seqno with
  | None -> true
  | Some (Group.Wire.App { payload; _ }) -> (
      match payload with
      | Wire.Dir_op_msg { op = Directory.Create_dir _; _ } -> false
      | Wire.Dir_op_msg { op; _ }
      | Wire.Dir_xact_msg { xact = Wire.Xdecide { op; _ }; _ } ->
          List.mem (Directory.dir_id_of_op t.store op) dirs
      | Wire.Dir_xact_msg { xact = Wire.Xcommit { txid }; _ } -> (
          match Hashtbl.find_opt t.staged_x txid with
          | Some staged ->
              List.mem (Directory.dir_id_of_op t.store staged.x_prepare.op) dirs
          | None -> true)
      | _ -> false)
  | Some (Group.Wire.Join_member _ | Group.Wire.Leave_member _) -> false

(* Whether the store holds every directory of [dirs]. *)
let rec all_held store = function
  | [] -> true
  | dir :: rest -> Directory.Store.mem dir store && all_held store rest

(* The first ordered entry from [seqno] up to [target] that a read of
   [dirs] must see applied before it is answered, if any. *)
let rec first_blocker t g ~dirs ~target seqno =
  if seqno > target then None
  else if blocks_read t g ~dirs seqno then Some seqno
  else first_blocker t g ~dirs ~target (seqno + 1)

(* [first_blocker] over the entries not applied yet. A read naming a
   directory the store does not hold falls back to Fig. 5's full wait:
   every buffered entry blocks it. Top-level recursions: the read path
   allocates no closure to find that nothing blocks it. *)
let read_blocker t g ~dirs ~target =
  let next = t.gprocessed + 1 in
  if next > target then None
  else if not (all_held t.store dirs) then Some next
  else first_blocker t g ~dirs ~target next

(* Every client request is refused without a majority, as by
   [with_group], here without its closure. *)
let handle_read t ~dirs serve =
  if not (majority_ok t) then Wire.Err_rep Wire.No_majority
  else
    match t.group with
    | None -> Wire.Err_rep (Wire.Unavailable "no group")
    | Some g ->
        (* Fig. 5's read path, narrowed to the directories read: every
           update to [dirs] ordered before the read arrived (up to the
           highest seqno buffered then) must be applied first, otherwise
           a client could read past its own write performed via another
           server. Linearizability is local, so updates to other
           directories need not be waited for. *)
        let target = Group.Member.highest_seen g in
        let caught_up =
          match read_blocker t g ~dirs ~target with
          | None -> true
          | Some seqno ->
              let started = Sim.Proc.now () in
              let caught_up =
                await_applied t (fun () ->
                    Option.is_none (read_blocker t g ~dirs ~target))
              in
              emit t ~name:"read_wait" (fun () ->
                  [
                    ("server", Sim.Trace.Int t.server_id);
                    ( "dir",
                      Sim.Trace.Str
                        (String.concat "," (List.map string_of_int dirs)) );
                    ("seqno", Sim.Trace.Int seqno);
                    ("waited_ms", Sim.Trace.Float (Sim.Proc.now () -. started));
                  ]);
              caught_up
        in
        if not caught_up then Wire.Err_rep (Wire.Unavailable "catch-up timeout")
        else begin
          Sim.Resource.use t.cpu Params.cpu_read_ms;
          serve t.store
        end

(* Send one message through the total order, stamped with a fresh uid,
   and wait until the local group thread has executed it and filed its
   reply. *)
let send_and_await t g message =
  let uid = fresh_uid t in
  match Group.Member.send g (message uid) with
  | exception Group.Types.Group_failure reason ->
      Wire.Err_rep (Wire.Unavailable ("group: " ^ reason))
  | () ->
      if not (await_applied t (fun () -> Hashtbl.mem t.replies uid)) then
        Wire.Err_rep (Wire.Unavailable "execution timeout")
      else begin
        let reply = Hashtbl.find t.replies uid in
        Hashtbl.remove t.replies uid;
        match Hashtbl.find_opt t.forwards uid with
        | None -> reply
        | Some answer ->
            (* A move is acknowledged once both halves are durable. *)
            Hashtbl.remove t.forwards uid;
            Sim.Ivar.read answer
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
      Sim.Resource.use t.cpu Params.cpu_write_ms;
      send_and_await t g (fun uid -> Wire.Dir_op_msg { uid; op }))

let send_xact t g xact =
  Sim.Resource.use t.cpu Params.cpu_write_ms;
  send_and_await t g (fun uid -> Wire.Dir_xact_msg { uid; xact })

(* The source server that takes a client's [Xmove] runs the move: it
   looks the row up under the read gate, has the destination stage the
   append, then orders the decision, whose reply waits for the forwarded
   commit. Only that ordered decision ends the move. A refused decision
   releases the destination's reservation. A prepare refused outright
   staged nothing; one that fails any other way may have staged the
   append, so nothing is sent: an abort there could land after the
   destination's resolver had the source commit, and lose the row. *)
let handle_move t ~txid ~(src : Capability.t) ~(dst : Capability.t) ~name =
  match t.xtransport with
  | None -> Wire.Err_rep (Wire.Unavailable "no backbone")
  | Some xt ->
      handle_read t ~dirs:[ src.obj ] (fun store ->
          match Directory.lookup store ~cap:src ~name ~column:0 with
          | Error _ ->
              (* Gone: perhaps by this very move, sent again. *)
              decided_reply t txid ~undecided:(fun () ->
                  Wire.Err_rep (Wire.Op_error Directory.Not_found))
          | Ok (rowcap, mask) -> (
              let decide =
                Wire.Xdecide
                  {
                    txid;
                    op = Directory.Delete_row { cap = src; name };
                    row = (rowcap, mask);
                    peer_port = dst.port;
                  }
              in
              let append =
                Directory.Append_row
                  { cap = dst; name; caps = [ rowcap ]; masks = [ mask ] }
              in
              match
                xshard_call xt ~port:dst.port
                  (Wire.Xprepare
                     { txid; op = append; peer_port = t.port; decide })
              with
              | Wire.Ok_rep -> (
                  match with_group t (fun g -> send_xact t g decide) with
                  | Wire.Err_rep (Wire.Op_error _) as refused ->
                      ignore
                        (xshard_call xt ~port:dst.port (Wire.Xabort { txid }));
                      refused
                  | reply -> reply)
              | Wire.Err_rep (Wire.Op_error _ | Wire.Busy) as refused -> refused
              | _ -> Wire.Err_rep (Wire.Unavailable "prepare unanswered")))

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
    | Wire.Dir_request (Wire.Xmove { txid; src; dst; name }) ->
        let started = Dir_front.now front in
        Wire.Dir_reply
          (Dir_front.observe front ~op:"move" ~started
             (handle_move t ~txid ~src ~dst ~name))
    | body -> serve ~client body

(* ---- Admin (recovery) handlers -------------------------------------- *)

(* What this server contributes to Skeen's exchange; [serving] is
   false while it recovers. *)
let peer_state t =
  {
    Skeen.server = t.server_id;
    mourned = Skeen.mourned_of_vector (disk_vector t);
    useq = t.useq;
    stayed_up = t.recovery.stayed_up;
    serving = majority_ok t;
  }

let admin_handler t ~client:_ body =
  match body with
  | Wire.Exchange_req -> Wire.Exchange_rep (peer_state t)
  | Wire.Fetch_state_req { required; have } ->
      (* Quiesce to the requester's join point before snapshotting, so
         store + watermark form a consistent cut. *)
      if not (await_applied t (fun () -> t.gprocessed >= required)) then
        Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "fetch quiesce timeout"))
      else
        let changed, deleted = Wire.delta t.store ~have in
        Wire.Fetch_state_rep
          {
            changed;
            deleted;
            useq = t.useq;
            watermark = t.gprocessed;
            decisions = Hashtbl.fold (fun txid c acc -> (txid, c) :: acc) t.xdecisions [];
            staged =
              Hashtbl.fold (fun _ s acc -> s.x_prepare :: acc) t.staged_x [];
          }
  | _ -> Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "bad admin request"))

(* ---- Boot-time state loading ---------------------------------------- *)

let load_disk_state t =
  let block =
    Option.value (read_commit_block t)
      ~default:(Storage.Commit_block.make ~servers:(n_servers t))
  in
  (* Count this boot before anything can mint a uid. *)
  t.boot <- block.Storage.Commit_block.boot + 1;
  Storage.Commit_block.write t.commit_device { block with boot = t.boot };
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
  t.useq <- max block.seqno max_dir_seqno;
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
  (* Replay the commit block's log: records made stable by a
     commit-block write whose per-directory blocks were never rewritten.
     Replayed records go back into the log so they stay covered by future
     commit-block writes until their directories are persisted. *)
  List.iter
    (fun (useq, dir_id, op) ->
      let record = { useq; dir_id; op; encoded = "" } in
      if replay_record record then t.log <- record :: t.log)
    (Wire.decode_log_records block.log);
  if block.recovering then begin
    (* Crash during recovery: our state may mix old and new directory
       versions. Zero the sequence number so nobody recovers from us
       (paper §3). *)
    emit t ~name:"untrusted_state" (fun () ->
        [ ("server", Sim.Trace.Int t.server_id) ]);
    t.useq <- 0
  end

(* ---- Recovery (Fig. 6): carrying out [Recovery.step]'s actions ------ *)

(* The one writer of [t.recovery]. *)
let feed t input =
  let recovery, actions = Recovery.step t.recovery input in
  t.recovery <- recovery;
  actions

let join_or_create t =
  let config = Params.group_config t.params ~servers:(n_servers t) in
  let nic = Rpc.Transport.nic t.transport in
  let g =
    try Group.Member.join_group ~config t.net nic ~gname:t.gname
    with Group.Types.Join_failed _ -> Group.Member.create_group ~config t.net nic ~gname:t.gname
  in
  t.group <- Some g;
  Recovery.Joined { base = (Group.Member.info g).next_deliver - 1; members = List.length (members t) }

(* Every other member's state, or [Unanswered] if one gives none. *)
let exchange_with_peers t =
  let members = members t in
  let asked = List.filter (fun (sid, n) -> sid <> t.server_id && List.mem n members) t.peers in
  let ask (_, node_id) =
    match Rpc.Transport.trans t.transport ~port:(admin_port node_id) Wire.Exchange_req with
    | Wire.Exchange_rep peer -> Some peer
    | _ | (exception Rpc.Transport.Rpc_failure _) -> None
  in
  let answers = List.filter_map ask asked in
  if List.compare_lengths answers asked < 0 then Recovery.Unanswered
  else Recovery.Exchanged (peer_state t :: answers)

(* Adopt the donor's state: only the directories that differ from our
   inventory travel (an already-identical store costs almost nothing),
   and the cross-shard tables come whole, so a rejoined replica answers
   a re-sent decision for a move its shard decided. The decision table only
   grows, so its share of the transfer grows with every move the shard
   ever decided (DESIGN.md §9 item 6). [Fetched] carries the ids of the
   directories the transfer changed and deleted. *)
let fetch_state_from t ~donor ~join_base =
  match
    Rpc.Transport.trans t.transport ~port:(admin_port (List.assoc donor t.peers))
      (Wire.Fetch_state_req { required = join_base; have = Wire.inventory t.store })
  with
  | Wire.Fetch_state_rep { changed; deleted; useq; watermark; decisions; staged }
    ->
      let store, changed = Wire.install t.store ~changed ~deleted in
      t.store <- store;
      t.useq <- useq;
      t.gprocessed <- max watermark join_base;
      t.op_log <- [];
      Hashtbl.reset t.xdecisions;
      List.iter (fun (txid, c) -> Hashtbl.replace t.xdecisions txid c) decisions;
      Hashtbl.reset t.staged_x;
      List.iter (stage_x t) staged;
      Recovery.Fetched { changed; deleted }
  | _ | (exception Rpc.Transport.Rpc_failure _) -> Recovery.Fetch_failed

(* Make the stable copy match the adopted store. A directory's copy is
   stale only if the transfer changed or deleted it, or if its latest
   state lived only in the commit block's log, which the transfer
   supersedes, so the log is dropped first. The rewrites are the commit
   pipeline's own: a directory the transfer deleted writes the commit
   block like any deletion, with the recovering flag still set, so a
   crash before the recovery's [Serve] write (the donor's seqno, an
   empty log, the flag cleared) leaves a server nobody recovers from. *)
let reinstall_disk_state t ~changed ~deleted =
  let started = Sim.Proc.now () in
  let logged = logged_dirs t in
  t.log <- [];
  let rewritten = List.sort_uniq compare (changed @ deleted @ logged) in
  rewrite t rewritten;
  emit t ~name:"reinstalled" (fun () ->
      [
        ("server", Sim.Trace.Int t.server_id);
        ("changed", Sim.Trace.Int (List.length changed));
        ("deleted", Sim.Trace.Int (List.length deleted));
        ("logged", Sim.Trace.Int (List.length logged));
        ("rewritten", Sim.Trace.Int (List.length rewritten));
        ("ms", Sim.Trace.Float (Sim.Proc.now () -. started));
      ])

let trace_ids ids = Sim.Trace.Str (String.concat "," (List.map string_of_int ids))

(* Carry out one action; a blocking one returns the input it ends in. *)
let perform t = function
  | Recovery.Leave ->
      Option.iter (fun g -> try Group.Member.leave g with Group.Types.Group_failure _ -> ()) t.group;
      t.group <- None;
      None
  | Back_off ms -> Sim.Proc.sleep ms; Some Recovery.Backed_off
  | Join -> Some (join_or_create t)
  | Poll_in ms -> Sim.Proc.sleep ms; Some (Recovery.Polled (List.length (members t)))
  | Exchange after -> if after > 0.0 then Sim.Proc.sleep after; Some (exchange_with_peers t)
  | Forced donor ->
      emit t ~name:"forced_recovery" (fun () ->
          [ ("server", Sim.Trace.Int t.server_id); ("donor", Sim.Trace.Int donor) ]);
      None
  | Mark_recovering | Write_vector -> write_commit_block t; None
  | Fetch { donor; base } -> Some (fetch_state_from t ~donor ~join_base:base)
  | Reinstall { changed; deleted } -> reinstall_disk_state t ~changed ~deleted; Some Recovery.Reinstalled
  | Serve { base; attempt } ->
      t.gprocessed <- max t.gprocessed base;
      Option.iter (fun f -> f ()) t.serving_watch;
      write_commit_block t;
      emit t ~name:"recovered" (fun () ->
          [
            ("server", Sim.Trace.Int t.server_id);
            ("view", trace_ids (members t));
            ("useq", Sim.Trace.Int t.useq);
            ("attempt", Sim.Trace.Int attempt);
          ]
          @ List.mapi (fun i span -> (span ^ "_ms", Sim.Trace.Float t.spent.(i))) Recovery.spans);
      Array.fill t.spent 0 (Array.length t.spent) 0.0;
      None
  | Wait_last_set missing ->
      emit t ~name:"wait_last_set" (fun () ->
          [ ("server", Sim.Trace.Int t.server_id); ("missing", trace_ids (Skeen.Int_set.elements missing)) ]);
      None

(* ---- The group thread (Fig. 5 bottom + recovery trigger) ------------ *)

(* One step: drain the deliveries the group layer has ordered, apply
   them (staging a record for each), flush, then wake the waiting
   readers and writers. Without [group_commit] every delivery is a
   burst of its own, so each writer wakes as soon as its own update is
   stable; with it a batched multicast lands as one burst sharing one
   flush.
   Quiet periods — no delivery within batch_persist_idle_ms while the
   commit-block log is non-empty — apply that log to the directories'
   own blocks in the background. A group failure ends in the recovery
   actions it asks for. *)
let group_step t g =
  let settle () =
    flush t;
    Sim.Condvar.broadcast t.applied
  in
  match
    let first =
      if t.log <> [] then
        Group.Member.receive ~timeout:Params.batch_persist_idle_ms g
      else Group.Member.receive g
    in
    process_delivery t first;
    (* Keyed on [batch_max], not on the log: NVRAM at batch_max = 1
       still commits each delivery on its own, as the paper does. *)
    while t.group_commit && Group.Member.pending_deliveries g > 0 do
      process_delivery t (Group.Member.receive g)
    done
  with
  | () -> settle (); []
  | exception Sim.Proc.Timeout -> apply_log t; []
  | exception Group.Types.Group_failure _ -> (
      (* Updates ordered before the failure are legitimate: make what we
         already applied stable, then rebuild the group; with a majority
         we continue, else we fall back to full recovery. *)
      settle ();
      match Group.Member.reset g with
      | size -> feed t (Recovery.Reset size)
      | exception Group.Types.Group_failure _ -> feed t Recovery.Lost)

(* Serve while [t.recovery] does, else carry out its actions in order,
   feeding each blocking one's outcome back, and charge each action's
   time to its phase's slot of [spent]. *)
let group_thread t () =
  let rec run = function
    | action :: rest ->
        let started = Sim.Proc.now () in
        let next = perform t action in
        (match Recovery.slot t.recovery.phase with
        | Some i -> t.spent.(i) <- t.spent.(i) +. (Sim.Proc.now () -. started)
        | None -> ());
        run (match next with None -> rest | Some input -> rest @ feed t input)
    | [] -> (
        match t.group with
        | Some g when Recovery.serving t.recovery -> run (group_step t g)
        | Some _ | None -> run (feed t Recovery.Lost))
  in
  run (feed t Recovery.Lost)

(* ---- Cross-shard abandonment resolver -------------------------------- *)

(* The backbone face of the shard: prepares, decisions, forwarded
   commits and aborts from the peer shards, each ordered here. *)
let xshard_handler t ~client:_ body =
  Wire.Dir_reply
    (match body with
    | Wire.Dir_request (Wire.Xshard_req cmd) ->
        with_group t (fun g -> send_xact t g cmd)
    | _ -> Wire.Err_rep (Wire.Unavailable "bad xshard request"))

(* Only the lowest-node member of the current view resolves — a single
   decision maker per shard keeps resolution traffic down; the decision
   itself still travels through the total order. *)
let is_xact_leader t =
  match serving_view t with
  | [] -> false
  | view -> List.fold_left min max_int view = Sim.Node.id t.node

(* A staged half whose forwarded commit has not arrived by its deadline
   (its coordinator crashed, or the forward was lost): re-send the
   source's decision. A commit comes back [Ok_rep] once the source has
   forwarded it here again; an abort comes back [Op_error], and only
   then is the reservation released. Anything else is re-sent on the
   next scan. *)
let resolve_staged t xt txid staged =
  let { Wire.peer_port; decide; _ } = staged.x_prepare in
  match xshard_call xt ~port:peer_port decide with
  | Wire.Ok_rep -> emit_xact t ~txid ~name:"xresolve_commit"
  | Wire.Err_rep (Wire.Op_error _) -> (
      match t.group with
      | None -> ()
      | Some g ->
          emit_xact t ~txid ~name:"xresolve_abort";
          ignore (send_xact t g (Wire.Xabort { txid })))
  | _ -> ()

(* The resolver scans on a 250 ms grid counted from its start, but only
   while something is staged: with the table empty it waits on
   [staged_cv] and costs no event. Woken by a stage, it sleeps to the
   next grid point, so every scan falls on the instant a resolver that
   never stopped would have scanned at. (The sleep's end, [now +.
   (next -. now)], is [next] exactly: the difference is exact once
   [now] is at least 250 ms, by Sterbenz's lemma.) *)
let xact_resolver t xt () =
  let next = ref (Sim.Proc.now ()) in
  while true do
    Sim.Condvar.await t.staged_cv (fun () -> Hashtbl.length t.staged_x > 0);
    let now = Sim.Proc.now () in
    while !next <= now do
      next := !next +. 250.0
    done;
    Sim.Proc.sleep (!next -. now);
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
          if Hashtbl.mem t.staged_x txid then resolve_staged t xt txid staged)
        expired
    end
  done

let start ~params ?nvram ?shard ?xnet net ~server_id ~peers ~node ~device
    ~bullet_port ~gname ~port () =
  let nic = Simnet.Network.attach net node in
  let transport = Rpc.Transport.create net nic in
  let xtransport =
    match xnet with
    | None -> None
    | Some xnet ->
        let xnic = Simnet.Network.attach xnet node in
        Some (Rpc.Transport.create xnet xnic)
  in
  let t =
    {
      params;
      group_commit = params.Params.batch_max > 1;
      in_place = params.Params.batch_max = 1 && Option.is_none nvram;
      net;
      node;
      transport;
      server_id;
      peers;
      device;
      commit_device = Option.value nvram ~default:device;
      image =
        Dir_image.attach transport ~bullet_port ~device
          ~slots:params.Params.admin_slots;
      gname;
      port;
      cpu = Sim.Resource.create ~capacity:1 ();
      store = Directory.empty;
      useq = 0;
      group = None;
      gprocessed = 0;
      recovery = Recovery.init ~me:server_id ~all:(List.map fst peers);
      spent = Array.make (List.length Recovery.spans) 0.0;
      serving_watch = None;
      applied = Sim.Condvar.create ();
      replies = Hashtbl.create 32;
      next_uid = 0;
      boot = 0;
      next_secret = 0;
      op_log = [];
      log = [];
      stale = false;
      c_commit =
        Sim.Metrics.counter
          (Sim.Engine.metrics (Simnet.Network.engine net))
          "dirsvc.commit";
      shard;
      xtransport;
      staged_x = Hashtbl.create 8;
      staged_cv = Sim.Condvar.create ();
      xdecisions = Hashtbl.create 8;
      forwards = Hashtbl.create 8;
    }
  in
  let front = Dir_front.create ~shard net ~node (Dir_front.Replica server_id) in
  Rpc.Transport.serve transport ~port ~threads:Params.server_threads
    (client_handler t front);
  Rpc.Transport.serve transport ~port:(admin_port (Sim.Node.id node)) ~threads:2
    (admin_handler t);
  (match t.xtransport with
  | Some xt ->
      Rpc.Transport.serve xt ~port:(xshard_port port) ~threads:2
        (xshard_handler t)
  | None -> ());
  Sim.Proc.boot (Simnet.Network.engine net) node ~name:"dirsvc.boot" (fun () ->
      load_disk_state t;
      (match t.xtransport with
      | Some xt -> Sim.Proc.spawn ~name:"dirsvc.xresolve" (xact_resolver t xt)
      | None -> ());
      group_thread t ());
  t

let applied_log t = List.rev t.op_log

let force_recover t = ignore (feed t Recovery.Force)
