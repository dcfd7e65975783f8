type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  seq : int;
  time : float;
  subsystem : string;
  node : int;
  name : string;
  attrs : (string * attr) list;
}

type t = {
  buffer : event option array; (* ring, slot = seq mod capacity *)
  mutable next_seq : int; (* total events ever emitted *)
  mutable sink : (event -> unit) option;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buffer = Array.make capacity None; next_seq = 0; sink = None }

let length t = min t.next_seq (Array.length t.buffer)

let emitted t = t.next_seq

(* Events that fell off the ring. *)
let dropped t = t.next_seq - length t

let set_sink t sink = t.sink <- sink

let emit t ~time ~subsystem ~node ~name attrs =
  let event = { seq = t.next_seq; time; subsystem; node; name; attrs } in
  t.buffer.(t.next_seq mod Array.length t.buffer) <- Some event;
  t.next_seq <- t.next_seq + 1;
  match t.sink with None -> () | Some f -> f event

let clear t =
  Array.fill t.buffer 0 (Array.length t.buffer) None;
  t.next_seq <- 0

(* Oldest-first. The ring keeps the newest [capacity] events, so the
   oldest retained one is [next_seq - length]. *)
let events t =
  let n = length t in
  let first = t.next_seq - n in
  List.init n (fun i ->
      match t.buffer.((first + i) mod Array.length t.buffer) with
      | Some e -> e
      | None -> assert false)

(* ---- Rendering ---------------------------------------------------- *)

let attr_to_json = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float v -> Json.Float v
  | Bool b -> Json.Bool b

let attr_of_json = function
  | Json.String s -> Str s
  | Json.Int i -> Int i
  | Json.Float v -> Float v
  | Json.Bool b -> Bool b
  | _ -> invalid_arg "Trace.attr_of_json: not an attribute value"

let event_to_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("time", Json.Float e.time);
      ("subsystem", Json.String e.subsystem);
      ("node", Json.Int e.node);
      ("name", Json.String e.name);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) e.attrs));
    ]

let event_of_json json =
  let get key =
    match Json.member key json with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Trace.event_of_json: missing %s" key)
  in
  let int key =
    match Json.to_int (get key) with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Trace.event_of_json: %s not an int" key)
  in
  let str key =
    match Json.to_str (get key) with
    | Some s -> s
    | None ->
        invalid_arg (Printf.sprintf "Trace.event_of_json: %s not a string" key)
  in
  let time =
    match Json.to_float (get "time") with
    | Some v -> v
    | None -> invalid_arg "Trace.event_of_json: time not a number"
  in
  let attrs =
    match get "attrs" with
    | Json.Obj fields -> List.map (fun (k, v) -> (k, attr_of_json v)) fields
    | _ -> invalid_arg "Trace.event_of_json: attrs not an object"
  in
  {
    seq = int "seq";
    time;
    subsystem = str "subsystem";
    node = int "node";
    name = str "name";
    attrs;
  }

let event_to_jsonl e = Json.to_string (event_to_json e)

let attr_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Float v -> Printf.sprintf "%g" v
  | Bool b -> string_of_bool b

let event_to_text e =
  let attrs =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (attr_to_string v)) e.attrs)
  in
  Printf.sprintf "%10.3f  [%s@%d] %s%s" e.time e.subsystem e.node e.name
    (if attrs = "" then "" else " " ^ attrs)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_to_jsonl e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf
