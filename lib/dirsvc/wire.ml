type service_error =
  | Op_error of Directory.error
  | No_majority
  | Unavailable of string
  | Wrong_shard
  | Busy

let service_error_to_string = function
  | Op_error e -> Directory.error_to_string e
  | No_majority -> "no majority of directory servers"
  | Unavailable reason -> "temporarily unavailable: " ^ reason
  | Wrong_shard -> "capability belongs to another shard"
  | Busy -> "name reserved by a cross-shard move"

exception Dir_error of service_error

(* Cross-shard move: the source shard runs it, and only the source's
   ordered decision ends it. The client sends one [Xmove] to the
   source. The server that takes it looks the row up, has the
   destination stage the append over the backbone ([Xprepare]), then
   orders [Xdecide]: ordered there, it checks that the row still
   carries the looked-up capability and mask, records the decision and,
   on commit, deletes the row like any update and forwards [Xcommit] to
   the destination, so both halves reach disk in parallel. The staged
   half keeps its [decide]: a destination whose half outlives its
   deadline re-sends that decision to the source ([peer_port]), whose
   total order decides each move once, whoever sends it. Every record
   runs through its own shard's sequencer, so the staged and decided
   state is totally ordered and replicated within the shard. *)
type prepare = {
  txid : int;
  op : Directory.op;
  peer_port : string;
  decide : xshard_cmd;
}

and xshard_cmd =
  | Xprepare of prepare
  | Xdecide of {
      txid : int;
      op : Directory.op;
      row : Capability.t * int;
      peer_port : string;
    }
  | Xcommit of { txid : int }
  | Xabort of { txid : int }

type request =
  | Write_op of Directory.op
  | List_req of { cap : Capability.t; column : int }
  | Lookup_req of { items : (Capability.t * string) list; column : int }
  | Xmove of {
      txid : int;
      src : Capability.t;
      dst : Capability.t;
      name : string;
    }
  | Xshard_req of xshard_cmd

type reply =
  | Cap_rep of Capability.t
  | Ok_rep
  | Listing_rep of Directory.listing
  | Lookup_rep of (Capability.t * int) option list
  | Err_rep of service_error

let cap_of_request = function
  | Write_op op -> (
      match op with
      | Directory.Create_dir _ -> None
      | Directory.Delete_dir { cap }
      | Directory.Append_row { cap; _ }
      | Directory.Chmod_row { cap; _ }
      | Directory.Delete_row { cap; _ }
      | Directory.Replace_set { cap; _ } ->
          Some cap)
  | List_req { cap; _ } | Xmove { src = cap; _ } -> Some cap
  | Lookup_req { items = (cap, _) :: _; _ } -> Some cap
  | Lookup_req { items = []; _ } | Xshard_req _ -> None

type Simnet.Payload.t +=
  | Dir_request of request
  | Dir_reply of reply
  | Dir_op_msg of { uid : int; op : Directory.op }
  | Dir_xact_msg of { uid : int; xact : xshard_cmd }
  | Exchange_req
  | Exchange_rep of Skeen.peer_state
  | Fetch_state_req of {
      required : int;
      have : (int * int * int64) list;
          (** requester's (dir id, seqno, content digest) inventory *)
    }
  | Fetch_state_rep of {
      changed : string;  (** encoded store of dirs to install/overwrite *)
      deleted : int list;  (** requester's dirs that no longer exist *)
      useq : int;
      watermark : int;
      decisions : (int * bool) list;
      staged : prepare list;
    }
  | Intend_req of { op : Directory.op }
  | Intend_ok
  | Intend_busy

let encode_store store =
  Storage.Codec.Writer.encode (fun w ->
      Storage.Codec.Writer.list w
        (fun w (dir_id, dir) ->
          Storage.Codec.Writer.u32 w dir_id;
          Storage.Codec.Writer.string w (Directory.encode_dir dir))
        (Directory.Store.bindings store))

(* The (dir id, dir) entries [encode_store] wrote, in id order. *)
let decode_entries data =
  let r = Storage.Codec.Reader.of_bytes (Bytes.of_string data) in
  Storage.Codec.Reader.list r (fun r ->
      let dir_id = Storage.Codec.Reader.u32 r in
      (dir_id, Directory.decode_dir (Storage.Codec.Reader.string r)))

(* Incremental state transfer: the donor's state is authoritative. *)
let inventory store =
  Directory.Store.fold
    (fun dir_id dir acc ->
      (dir_id, dir.Directory.seqno, Directory.digest dir) :: acc)
    store []

let delta store ~have =
  let mine =
    List.fold_left
      (fun m (dir_id, seqno, digest) -> Directory.Store.add dir_id (seqno, digest) m)
      Directory.Store.empty have
  in
  let differs dir_id dir =
    Directory.Store.find_opt dir_id mine
    <> Some (dir.Directory.seqno, Directory.digest dir)
  in
  ( encode_store (Directory.Store.filter differs store),
    List.filter_map
      (fun (dir_id, _, _) ->
        if Directory.Store.mem dir_id store then None else Some dir_id)
      have )

let install store ~changed ~deleted =
  let changed = decode_entries changed in
  ( List.fold_left
      (fun store (dir_id, dir) -> Directory.Store.add dir_id dir store)
      (List.fold_left (Fun.flip Directory.Store.remove) store deleted)
      changed,
    List.map fst changed )

(* Byte codec for operations: the group-commit log in the commit block
   stores encoded ops so a crashed server can replay modifications whose
   per-directory blocks were never written. Tags are stable on-disk
   format; decode raises {!Storage.Codec.Corrupt} on garbage. *)

let encode_op w (op : Directory.op) =
  let module W = Storage.Codec.Writer in
  match op with
  | Directory.Create_dir { columns; secret; hint } ->
      W.u8 w 0;
      W.list w W.string columns;
      W.i64 w secret;
      W.bool w (hint <> None);
      W.u32 w (match hint with Some id -> id | None -> 0)
  | Directory.Delete_dir { cap } ->
      W.u8 w 1;
      Storage.Cap_codec.write w cap
  | Directory.Append_row { cap; name; caps; masks } ->
      W.u8 w 2;
      Storage.Cap_codec.write w cap;
      W.string w name;
      W.list w Storage.Cap_codec.write caps;
      W.list w W.u32 masks
  | Directory.Chmod_row { cap; name; masks } ->
      W.u8 w 3;
      Storage.Cap_codec.write w cap;
      W.string w name;
      W.list w W.u32 masks
  | Directory.Delete_row { cap; name } ->
      W.u8 w 4;
      Storage.Cap_codec.write w cap;
      W.string w name
  | Directory.Replace_set { cap; rows } ->
      W.u8 w 5;
      Storage.Cap_codec.write w cap;
      W.list w
        (fun w (name, caps) ->
          W.string w name;
          W.list w Storage.Cap_codec.write caps)
        rows

let decode_op r : Directory.op =
  let module R = Storage.Codec.Reader in
  match R.u8 r with
  | 0 ->
      let columns = R.list r R.string in
      let secret = R.i64 r in
      let has_hint = R.bool r in
      let id = R.u32 r in
      Directory.Create_dir
        { columns; secret; hint = (if has_hint then Some id else None) }
  | 1 -> Directory.Delete_dir { cap = Storage.Cap_codec.read r }
  | 2 ->
      let cap = Storage.Cap_codec.read r in
      let name = R.string r in
      let caps = R.list r Storage.Cap_codec.read in
      let masks = R.list r R.u32 in
      Directory.Append_row { cap; name; caps; masks }
  | 3 ->
      let cap = Storage.Cap_codec.read r in
      let name = R.string r in
      let masks = R.list r R.u32 in
      Directory.Chmod_row { cap; name; masks }
  | 4 ->
      let cap = Storage.Cap_codec.read r in
      let name = R.string r in
      Directory.Delete_row { cap; name }
  | 5 ->
      let cap = Storage.Cap_codec.read r in
      let rows =
        R.list r (fun r ->
            let name = R.string r in
            let caps = R.list r Storage.Cap_codec.read in
            (name, caps))
      in
      Directory.Replace_set { cap; rows }
  | n -> raise (Storage.Codec.Corrupt (Printf.sprintf "op: bad tag %d" n))

(* The commit-block log itself: a count, then (useq, dir id, op)
   records, oldest first. *)
let encode_log_record ~useq ~dir_id op =
  Storage.Codec.Writer.encode (fun w ->
      Storage.Codec.Writer.u32 w useq;
      Storage.Codec.Writer.u32 w dir_id;
      encode_op w op)

let join_log_records = function
  | [] -> ""
  | records ->
      Storage.Codec.Writer.encode (fun w ->
          Storage.Codec.Writer.list w Storage.Codec.Writer.raw records)

let decode_log_records data =
  if data = "" then []
  else
    let r = Storage.Codec.Reader.of_bytes (Bytes.of_string data) in
    Storage.Codec.Reader.list r (fun r ->
        let useq = Storage.Codec.Reader.u32 r in
        let dir_id = Storage.Codec.Reader.u32 r in
        let op = decode_op r in
        (useq, dir_id, op))

let op_size (op : Directory.op) =
  let cap_size = 32 in
  match op with
  | Directory.Create_dir { columns; _ } ->
      16 + List.fold_left (fun a c -> a + String.length c) 0 columns
  | Directory.Delete_dir _ -> 8 + cap_size
  | Directory.Append_row { name; caps; _ } ->
      8 + cap_size + String.length name + (List.length caps * (cap_size + 4))
  | Directory.Chmod_row { name; masks; _ } ->
      8 + cap_size + String.length name + (List.length masks * 4)
  | Directory.Delete_row { name; _ } -> 8 + cap_size + String.length name
  | Directory.Replace_set { rows; _ } ->
      8 + cap_size
      + List.fold_left
          (fun a (name, caps) ->
            a + String.length name + (List.length caps * cap_size))
          0 rows

let () =
  Simnet.Payload.register_printer ~name:"dirsvc" (function
    | Dir_request (Write_op _) -> Some "dir.write"
    | Dir_request (List_req _) -> Some "dir.list"
    | Dir_request (Lookup_req _) -> Some "dir.lookup"
    | Dir_request (Xmove { txid; _ }) ->
        Some (Printf.sprintf "dir.xmove %d" txid)
    | Dir_request (Xshard_req (Xprepare { txid; _ })) ->
        Some (Printf.sprintf "dir.xprepare %d" txid)
    | Dir_request (Xshard_req (Xdecide { txid; _ })) ->
        Some (Printf.sprintf "dir.xdecide %d" txid)
    | Dir_request (Xshard_req (Xcommit { txid })) ->
        Some (Printf.sprintf "dir.xcommit %d" txid)
    | Dir_request (Xshard_req (Xabort { txid })) ->
        Some (Printf.sprintf "dir.xabort %d" txid)
    | Dir_reply _ -> Some "dir.reply"
    | Dir_op_msg { uid; _ } -> Some (Printf.sprintf "dir.op %d" uid)
    | Dir_xact_msg { uid; _ } -> Some (Printf.sprintf "dir.xact %d" uid)
    | Exchange_req -> Some "dir.exchange?"
    | Exchange_rep { Skeen.server; useq; _ } ->
        Some (Printf.sprintf "dir.exchange s%d useq=%d" server useq)
    | Fetch_state_req { required; have } ->
        Some (Printf.sprintf "dir.fetch? >=%d (have %d)" required (List.length have))
    | Fetch_state_rep { useq; _ } -> Some (Printf.sprintf "dir.fetch useq=%d" useq)
    | Intend_req _ -> Some "dir.intend"
    | Intend_ok -> Some "dir.intend-ok"
    | Intend_busy -> Some "dir.intend-busy"
    | _ -> None)
