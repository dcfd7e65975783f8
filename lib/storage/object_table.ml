type entry = { file_cap : Capability.t; seqno : int }

type t = { device : Block_device.t; first_block : int; slots : int }

let magic_present = 0x0B5E47
let magic_absent = 0x0B5E00

let attach device ~first_block ~slots =
  if first_block + slots > Block_device.blocks device then
    invalid_arg "Object_table.attach: region exceeds device";
  { device; first_block; slots }

let block_of t dir_id =
  if dir_id < 0 || dir_id >= t.slots then
    invalid_arg (Printf.sprintf "Object_table: dir id %d out of range" dir_id);
  t.first_block + dir_id

let encode_entry entry =
  Codec.Writer.encode_bytes (fun w ->
      Codec.Writer.u32 w magic_present;
      Cap_codec.write w entry.file_cap;
      Codec.Writer.u32 w entry.seqno)

let encode_tombstone () =
  Codec.Writer.encode_bytes (fun w -> Codec.Writer.u32 w magic_absent)

let decode data =
  if Bytes.length data = 0 then None
  else begin
    let r = Codec.Reader.of_bytes data in
    match Codec.Reader.u32 r with
    | m when m = magic_absent -> None
    | m when m = magic_present ->
        let file_cap = Cap_codec.read r in
        let seqno = Codec.Reader.u32 r in
        Some { file_cap; seqno }
    | _ -> raise (Codec.Corrupt "object table: bad magic")
  end

let write_entry t ~dir_id entry =
  Block_device.write t.device (block_of t dir_id) (encode_entry entry)

let clear_entry t ~dir_id =
  Block_device.write t.device (block_of t dir_id) (encode_tombstone ())

let read_entry t ~dir_id = decode (Block_device.read t.device (block_of t dir_id))

let scan t =
  let rec collect dir_id acc =
    if dir_id >= t.slots then List.rev acc
    else
      let data = Block_device.peek t.device (t.first_block + dir_id) in
      match decode data with
      | Some entry -> collect (dir_id + 1) ((dir_id, entry) :: acc)
      | None -> collect (dir_id + 1) acc
  in
  collect 0 []
