(* The client-facing request path shared by the group, RPC and NFS
   directory servers. A server supplies its write and read paths; this
   module dispatches the Fig. 2 requests onto them, times each one, and
   turns a write's outcome into the client's reply. *)

type server = Replica of int | Named of string

type t = {
  engine : Sim.Engine.t;
  node : int;
  labels : (string * string) list; (* server, then shard when sharded *)
  server : Sim.Trace.attr;
  (* Per-op latency histograms, resolved once per op name: the labelled
     key ["dirsvc.op_ms{op=...,server=...}"] is built at first use, not
     per request. *)
  hists : (string, Sim.Metrics.Histogram.t) Hashtbl.t;
}

let create ~shard net ~node server =
  let label, attr =
    match server with
    | Replica id -> (string_of_int id, Sim.Trace.Int id)
    | Named name -> (name, Sim.Trace.Str name)
  in
  (* The shard label exists only in sharded deployments. *)
  let shard_label =
    match shard with None -> [] | Some k -> [ ("shard", string_of_int k) ]
  in
  {
    engine = Simnet.Network.engine net;
    node = Sim.Node.id node;
    labels = ("server", label) :: shard_label;
    server = attr;
    hists = Hashtbl.create 8;
  }

let histogram t ~op =
  match Hashtbl.find t.hists op with
  | h -> h
  | exception Not_found ->
      let h =
        Sim.Metrics.histogram_handle
          (Sim.Engine.metrics t.engine)
          "dirsvc.op_ms"
          ~labels:(("op", op) :: t.labels)
      in
      Hashtbl.add t.hists op h;
      h

let now t = Sim.Engine.now t.engine

(* Record a request's latency from its [started] stamp and return its
   reply. A stamp, not a wrapped thunk: the thunk would be a closure per
   request. *)
let observe t ~op ~started reply =
  let elapsed = now t -. started in
  Sim.Metrics.Histogram.observe (histogram t ~op) elapsed;
  (* Guarded: the attrs thunk is allocated even when tracing is off. *)
  if Sim.Engine.tracing t.engine then
    Sim.Engine.emit t.engine ~subsystem:"dirsvc" ~node:t.node ~name:"op"
      (fun () ->
        [
          ("op", Sim.Trace.Str op);
          ("server", t.server);
          ("latency_ms", Sim.Trace.Float elapsed);
          ( "status",
            Sim.Trace.Str
              (match reply with Wire.Err_rep _ -> "err" | _ -> "ok") );
        ]);
  reply

(* A new directory's owner capability carries the check field the
   initiator minted into the Create_dir. *)
let write_reply ~port op outcome =
  match (op, outcome) with
  | Directory.Create_dir { secret; _ }, Ok (Directory.Created id) ->
      Wire.Cap_rep (Capability.owner ~port ~obj:id secret)
  | _, Ok _ -> Wire.Ok_rep
  | _, Error e -> Wire.Err_rep (Wire.Op_error e)

(* [dir] added to [dirs], which is sorted with no duplicate. *)
let rec add_dir dir = function
  | [] -> [ dir ]
  | d :: rest as dirs ->
      if dir < d then dir :: dirs
      else if dir = d then dirs
      else d :: add_dir dir rest

(* The directories a lookup's items name, ascending, each once. Not
   [List.sort_uniq], which builds its local closures on every call. *)
let rec dirs_of = function
  | [] -> []
  | ((cap : Capability.t), _) :: rest -> add_dir cap.obj (dirs_of rest)

let handler t ~write ~read ~client:_ body =
  let started = now t in
  match body with
  | Wire.Dir_request (Wire.Write_op op) ->
      Wire.Dir_reply (observe t ~op:(Directory.op_kind op) ~started (write op))
  | Wire.Dir_request (Wire.List_req { cap; column }) ->
      Wire.Dir_reply
        (observe t ~op:"list" ~started
           (read ~dirs:[ cap.Capability.obj ] (fun store ->
                match Directory.list_dir store ~cap ~column with
                | Ok listing -> Wire.Listing_rep listing
                | Error e -> Wire.Err_rep (Wire.Op_error e))))
  | Wire.Dir_request (Wire.Lookup_req { items; column }) ->
      Wire.Dir_reply
        (observe t ~op:"lookup" ~started
           (read ~dirs:(dirs_of items) (fun store ->
                Wire.Lookup_rep (Directory.lookup_items store ~column items))))
  | _ -> Wire.Dir_reply (Wire.Err_rep (Wire.Unavailable "bad request"))
