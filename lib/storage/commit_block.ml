type t = {
  config_vector : bool array;
  seqno : int;
  recovering : bool;
  boot : int;
  log : string;
}

let magic = 0xC0B10C

let make ~servers =
  {
    config_vector = Array.make servers true;
    seqno = 0;
    recovering = false;
    boot = 0;
    log = "";
  }

(* The log is the block's last field, copied once into the image. *)
let encode t =
  Codec.Writer.encode_bytes ~tail:t.log (fun w ->
      Codec.Writer.u32 w magic;
      Codec.Writer.u32 w (Array.length t.config_vector);
      for i = 0 to Array.length t.config_vector - 1 do
        Codec.Writer.bool w t.config_vector.(i)
      done;
      Codec.Writer.u32 w t.seqno;
      Codec.Writer.bool w t.recovering;
      Codec.Writer.u32 w t.boot)

let decode data =
  if Bytes.length data = 0 then None
  else begin
    let r = Codec.Reader.of_bytes data in
    let m = Codec.Reader.u32 r in
    if m <> magic then raise (Codec.Corrupt "commit block: bad magic");
    let n = Codec.Reader.u32 r in
    let config_vector = Array.init n (fun _ -> Codec.Reader.bool r) in
    let seqno = Codec.Reader.u32 r in
    let recovering = Codec.Reader.bool r in
    let boot = Codec.Reader.u32 r in
    let log = Codec.Reader.string r in
    Some { config_vector; seqno; recovering; boot; log }
  end

let read device = decode (Block_device.read device 0)

let write device t = Block_device.write device 0 (encode t)
