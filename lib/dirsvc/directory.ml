type dir_id = int

let column_right i =
  if i < 0 || i > 3 then invalid_arg "Directory.column_right";
  1 lsl i

let right_modify = 0x10

let right_delete = 0x20

let all_columns_mask = 0x0F

type row = { name : string; caps : Capability.t array; masks : int array }

type dir = {
  columns : string array;
  rows : row list;
  seqno : int;
  secret : Capability.secret;
}

module Store = Map.Make (Int)

type store = dir Store.t

let empty = Store.empty

type op =
  | Create_dir of {
      columns : string list;
      secret : Capability.secret;
      hint : dir_id option;
    }
  | Delete_dir of { cap : Capability.t }
  | Append_row of {
      cap : Capability.t;
      name : string;
      caps : Capability.t list;
      masks : int list;
    }
  | Chmod_row of { cap : Capability.t; name : string; masks : int list }
  | Delete_row of { cap : Capability.t; name : string }
  | Replace_set of {
      cap : Capability.t;
      rows : (string * Capability.t list) list;
    }

type error =
  | Not_found
  | Already_exists
  | Bad_capability
  | No_permission
  | Bad_request of string
  | Table_full

let error_to_string = function
  | Not_found -> "not found"
  | Already_exists -> "already exists"
  | Bad_capability -> "bad capability"
  | No_permission -> "no permission"
  | Bad_request s -> "bad request: " ^ s
  | Table_full -> "object table full"

type op_result = Created of dir_id | Updated

(* Authorise [cap] against the stored directory; [need] is the rights
   requirement. *)
let authorise store cap ~need =
  match Store.find cap.Capability.obj store with
  | exception Stdlib.Not_found -> Error Not_found
  | dir ->
      if not (Capability.validate cap dir.secret) then Error Bad_capability
      else if not (Capability.has_rights cap ~need) then Error No_permission
      else Ok dir

let lowest_free_id store =
  let rec go i = if Store.mem i store then go (i + 1) else i in
  go 0

(* The padding of a row's capabilities: one constant, not one per row. *)
let null_cap = Capability.owner ~port:"" ~obj:0 0L

let rec fill padded i = function
  | [] -> Some padded
  | x :: rest ->
      if i = Array.length padded then None
      else begin
        padded.(i) <- x;
        fill padded (i + 1) rest
      end

let pad_to n filler list = fill (Array.make n filler) 0 list

let rec has_row name = function
  | [] -> false
  | r :: rest -> String.equal r.name name || has_row name rest

let rec without_row name = function
  | [] -> []
  | r :: rest ->
      if String.equal r.name name then without_row name rest
      else r :: without_row name rest

(* The on-disk format stores a mask as an unsigned 32-bit word. *)
let rec masks_fit = function
  | [] -> true
  | m :: rest -> m >= 0 && m <= 0xFFFF_FFFF && masks_fit rest

let ( let* ) = Result.bind

let apply store ~seqno op =
  match op with
  | Create_dir { columns; secret; hint } ->
      if columns = [] || List.length columns > 4 then
        Error (Bad_request "directories have 1 to 4 columns")
      else begin
        match hint with
        | Some id when Store.mem id store -> Error Already_exists
        | Some id ->
            let dir =
              { columns = Array.of_list columns; rows = []; seqno; secret }
            in
            Ok (Store.add id dir store, Created id)
        | None ->
            let id = lowest_free_id store in
            let dir =
              { columns = Array.of_list columns; rows = []; seqno; secret }
            in
            Ok (Store.add id dir store, Created id)
      end
  | Delete_dir { cap } ->
      let* _dir = authorise store cap ~need:right_delete in
      Ok (Store.remove cap.obj store, Updated)
  | Append_row { cap; name; caps; masks } ->
      let* dir = authorise store cap ~need:right_modify in
      if name = "" then Error (Bad_request "empty name")
      else if not (masks_fit masks) then Error (Bad_request "mask out of range")
      else if has_row name dir.rows then Error Already_exists
      else begin
        let ncols = Array.length dir.columns in
        match (pad_to ncols null_cap caps, pad_to ncols Capability.all_rights masks) with
        | Some caps, Some masks ->
            let row = { name; caps; masks } in
            let dir = { dir with rows = dir.rows @ [ row ]; seqno } in
            Ok (Store.add cap.obj dir store, Updated)
        | None, _ | _, None -> Error (Bad_request "more entries than columns")
      end
  | Chmod_row { cap; name; masks } ->
      let* dir = authorise store cap ~need:right_modify in
      let ncols = Array.length dir.columns in
      let* masks =
        if not (masks_fit masks) then Error (Bad_request "mask out of range")
        else
          match pad_to ncols Capability.all_rights masks with
          | Some m -> Ok m
          | None -> Error (Bad_request "more masks than columns")
      in
      if has_row name dir.rows then begin
        let rows =
          List.map (fun r -> if r.name = name then { r with masks } else r) dir.rows
        in
        Ok (Store.add cap.obj { dir with rows; seqno } store, Updated)
      end
      else Error Not_found
  | Delete_row { cap; name } ->
      let* dir = authorise store cap ~need:right_modify in
      if has_row name dir.rows then begin
        let rows = without_row name dir.rows in
        Ok (Store.add cap.obj { dir with rows; seqno } store, Updated)
      end
      else Error Not_found
  | Replace_set { cap; rows = replacements } ->
      let* dir = authorise store cap ~need:right_modify in
      let ncols = Array.length dir.columns in
      let missing =
        List.find_opt
          (fun (name, _) -> not (has_row name dir.rows))
          replacements
      in
      let oversized =
        List.find_opt (fun (_, caps) -> List.length caps > ncols) replacements
      in
      (match (missing, oversized) with
      | Some (name, _), _ -> Error (Bad_request ("no such row: " ^ name))
      | None, Some (name, _) ->
          Error (Bad_request ("too many capabilities for row " ^ name))
      | None, None ->
          let replace row =
            match List.assoc_opt row.name replacements with
            | None -> row
            | Some caps -> (
                match pad_to ncols null_cap caps with
                | Some caps -> { row with caps }
                | None -> row (* excluded by the oversized check above *))
          in
          let dir = { dir with rows = List.map replace dir.rows; seqno } in
          Ok (Store.add cap.obj dir store, Updated))

let op_kind = function
  | Create_dir _ -> "create_dir"
  | Delete_dir _ -> "delete_dir"
  | Append_row _ -> "append_row"
  | Delete_row _ -> "delete_row"
  | Chmod_row _ -> "chmod_row"
  | Replace_set _ -> "replace_set"

let dir_id_of_op store = function
  | Create_dir { hint = Some id; _ } -> id
  | Create_dir { hint = None; _ } -> lowest_free_id store
  | Delete_dir { cap }
  | Append_row { cap; _ }
  | Chmod_row { cap; _ }
  | Delete_row { cap; _ }
  | Replace_set { cap; _ } ->
      cap.obj

type listing = {
  listed_columns : string list;
  entries : (string * Capability.t * int) list;
}

(* The directory [cap] may read [column] of, or the refusal. A column
   outside the four a directory can have names no read right
   ([column_right] refuses it), so it is refused before authorisation;
   one past the directory's own columns, after. *)
let readable store cap ~column =
  let no_such_column = Error (Bad_request "no such column") in
  if column < 0 || column > 3 then no_such_column
  else
    match authorise store cap ~need:(column_right column) with
    | Ok dir when column >= Array.length dir.columns -> no_such_column
    | authorised -> authorised

let list_dir store ~cap ~column =
  let* dir = readable store cap ~column in
  let entries =
    List.map (fun r -> (r.name, r.caps.(column), r.masks.(column))) dir.rows
  in
  Ok { listed_columns = Array.to_list dir.columns; entries }

(* [name]'s capability and mask in [column] of [rows]. A loop, not
   [List.find_opt]: its predicate would be a closure per lookup. *)
let rec entry name column = function
  | [] -> None
  | r :: rest ->
      if String.equal r.name name then Some (r.caps.(column), r.masks.(column))
      else entry name column rest

let lookup store ~cap ~name ~column =
  match readable store cap ~column with
  | Error e -> Error e
  | Ok dir -> (
      match entry name column dir.rows with
      | Some found -> Ok found
      | None -> Error Not_found)

let rec lookup_items store ~column = function
  | [] -> []
  | (cap, name) :: rest ->
      let found =
        match readable store cap ~column with
        | Ok dir -> entry name column dir.rows
        | Error _ -> None
      in
      found :: lookup_items store ~column rest

(* ---- Codec -------------------------------------------------------- *)

(* Loops, not [Array.iter (write w)]: a partial application allocates a
   closure per row. *)
let encode_row w row =
  Storage.Codec.Writer.string w row.name;
  Storage.Codec.Writer.u32 w (Array.length row.caps);
  for i = 0 to Array.length row.caps - 1 do
    Storage.Cap_codec.write w row.caps.(i)
  done;
  for i = 0 to Array.length row.masks - 1 do
    Storage.Codec.Writer.u32 w row.masks.(i)
  done

let encode_dir dir =
  Storage.Codec.Writer.encode (fun w ->
      Storage.Codec.Writer.u32 w (Array.length dir.columns);
      for i = 0 to Array.length dir.columns - 1 do
        Storage.Codec.Writer.string w dir.columns.(i)
      done;
      Storage.Codec.Writer.u32 w dir.seqno;
      Storage.Codec.Writer.i64 w dir.secret;
      Storage.Codec.Writer.list w encode_row dir.rows)

let decode_dir data =
  let r = Storage.Codec.Reader.of_bytes (Bytes.of_string data) in
  let ncols = Storage.Codec.Reader.u32 r in
  let columns = Array.init ncols (fun _ -> Storage.Codec.Reader.string r) in
  let seqno = Storage.Codec.Reader.u32 r in
  let secret = Storage.Codec.Reader.i64 r in
  let rows =
    Storage.Codec.Reader.list r (fun r ->
        let name = Storage.Codec.Reader.string r in
        let n = Storage.Codec.Reader.u32 r in
        let caps = Array.init n (fun _ -> Storage.Cap_codec.read r) in
        let masks = Array.init n (fun _ -> Storage.Codec.Reader.u32 r) in
        { name; caps; masks })
  in
  { columns; rows; seqno; secret }

let digest dir =
  let mix z c =
    let z = Int64.add z (Int64.of_int (Char.code c)) in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    Int64.logxor z (Int64.shift_right_logical z 27)
  in
  String.fold_left mix 0x9E3779B97F4A7C15L (encode_dir dir)

let equal_store a b = Store.equal (fun d1 d2 -> d1 = d2) a b

let pp_dir fmt dir =
  Format.fprintf fmt "dir(seq=%d, cols=[%s], rows=[%s])" dir.seqno
    (String.concat ";" (Array.to_list dir.columns))
    (String.concat ";" (List.map (fun r -> r.name) dir.rows))
