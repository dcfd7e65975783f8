exception Corrupt of string

module Writer = struct
  type t = Buffer.t

  (* Scratch writers, one stack per domain (Sim.Pool runs simulations
     on several): an encoding writes into [bufs.(depth)] and copies the
     result out once. A nested encoding (a store whose entries are
     encoded directories) takes the next one. *)
  type scratch = { mutable bufs : Buffer.t array; mutable depth : int }

  let scratch = Domain.DLS.new_key (fun () -> { bufs = [||]; depth = 0 })

  (* A buffer that grew past this is dropped after use rather than kept
     for the domain's lifetime. *)
  let keep_limit = 65_536

  let release s depth w =
    s.depth <- depth;
    if Buffer.length w > keep_limit then Buffer.reset w else Buffer.clear w

  (* [finish w tail] makes the result; [tail] is passed through, so no
     finisher is a closure. *)
  let with_scratch f finish tail =
    let s = Domain.DLS.get scratch in
    let d = s.depth in
    if d = Array.length s.bufs then
      s.bufs <- Array.init (d + 1) (fun i -> if i < d then s.bufs.(i) else Buffer.create 512);
    let w = s.bufs.(d) in
    s.depth <- d + 1;
    match f w with
    | () ->
        let result = finish w tail in
        release s d w;
        result
    | exception e ->
        release s d w;
        raise e

  let u8 t v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.u8: out of range";
    Buffer.add_char t (Char.chr v)

  let u32 t v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
    for i = 0 to 3 do
      Buffer.add_char t (Char.chr ((v lsr (8 * i)) land 0xFF))
    done

  let i64 t v =
    for i = 0 to 7 do
      Buffer.add_char t
        (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
    done

  let bool t v = u8 t (if v then 1 else 0)

  let string t s =
    u32 t (String.length s);
    Buffer.add_string t s

  let raw = Buffer.add_string

  let contents w _ = Buffer.contents w

  let to_bytes w _ = Buffer.to_bytes w

  (* The tail as [string] writes it: its length in the scratch writer,
     then its bytes copied once, straight into the result. *)
  let with_tail w tail =
    let len = String.length tail in
    u32 w len;
    let head = Buffer.length w in
    let b = Bytes.create (head + len) in
    Buffer.blit w 0 b 0 head;
    Bytes.blit_string tail 0 b head len;
    b

  let encode f = with_scratch f contents ""

  let encode_bytes ?tail f =
    match tail with
    | None -> with_scratch f to_bytes ""
    | Some tail -> with_scratch f with_tail tail

  (* Not [List.iter (f t)]: the partial application would allocate a
     closure per list. *)
  let rec iter t f = function
    | [] -> ()
    | x :: rest ->
        f t x;
        iter t f rest

  let list t f xs =
    u32 t (List.length xs);
    iter t f xs
end

module Reader = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes data = { data; pos = 0 }

  let need t n =
    if t.pos + n > Bytes.length t.data then raise (Corrupt "truncated input")

  let u8 t =
    need t 1;
    let v = Char.code (Bytes.get t.data t.pos) in
    t.pos <- t.pos + 1;
    v

  let u32 t =
    need t 4;
    let v = ref 0 in
    for i = 0 to 3 do
      v := !v lor (Char.code (Bytes.get t.data (t.pos + i)) lsl (8 * i))
    done;
    t.pos <- t.pos + 4;
    !v

  let i64 t =
    need t 8;
    let v = ref 0L in
    for i = 0 to 7 do
      v :=
        Int64.logor !v
          (Int64.shift_left
             (Int64.of_int (Char.code (Bytes.get t.data (t.pos + i))))
             (8 * i))
    done;
    t.pos <- t.pos + 8;
    !v

  let bool t =
    match u8 t with
    | 0 -> false
    | 1 -> true
    | n -> raise (Corrupt (Printf.sprintf "bad bool %d" n))

  let string t =
    let len = u32 t in
    need t len;
    let s = Bytes.sub_string t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let list t f =
    let n = u32 t in
    List.init n (fun _ -> f t)

  let remaining t = Bytes.length t.data - t.pos
end
