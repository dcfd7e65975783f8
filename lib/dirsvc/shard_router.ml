(* Client-side shard routing: a deterministic hash partition of
   directory names over M replica groups, layered on the per-port
   locate cache each transport already keeps. Placement is decided
   once, at Create_dir, by hashing the placement name; after that a
   capability carries its shard in its service port, so routing a cap
   is a port-table lookup, not a hash. A request that reaches the
   wrong group bounces with [Wire.Wrong_shard] and is re-sent once to
   the owner — the shard-level analogue of the RPC layer's NOTHERE. A
   request refused [Wire.Busy] is re-sent until it is not. *)

type t = {
  transports : Rpc.Transport.t array; (* one per shard: shards live on
                                         separate networks *)
  ports : string array;
  mutable next_txid : int;
}

(* FNV-1a over the placement name, folded to 30 bits so the partition
   map is identical on 32- and 64-bit hosts. *)
let shard_of_name ~shards name =
  if shards < 1 then invalid_arg "Shard_router.shard_of_name";
  let h = ref 0x1505_51ed in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x0100_0193 land 0x3FFF_FFFF)
    name;
  !h mod shards

let make transports ~ports =
  if Array.length ports = 0 then invalid_arg "Shard_router.make: no shards";
  if Array.length transports <> Array.length ports then
    invalid_arg "Shard_router.make: one transport per shard";
  {
    transports;
    ports;
    next_txid = 0;
  }

let shards t = Array.length t.ports

let port t ~shard = t.ports.(shard)

let transport t ~shard = t.transports.(shard)

let shard_of_cap t (cap : Capability.t) =
  let rec scan i =
    if i >= Array.length t.ports then None
    else if String.equal t.ports.(i) cap.Capability.port then Some i
    else scan (i + 1)
  in
  scan 0

let fresh_txid t =
  t.next_txid <- t.next_txid + 1;
  (Rpc.Transport.node_id t.transports.(0) * 1_000_000) + t.next_txid

(* By key, not by a handle resolved in [make]: a lone group never
   moves a row across shards, so its registry never shows the
   counter. *)
let count_cross t =
  Sim.Metrics.incr
    (Sim.Engine.metrics (Rpc.Transport.engine t.transports.(0)))
    "dirsvc.cross_shard"

let raw_call t ~shard request =
  Rpc.Transport.trans t.transports.(shard) ~port:t.ports.(shard)
    (Wire.Dir_request request)

(* A [Busy] refusal lasts until the move holding the name commits or
   aborts: normally one ordered decision and one forwarded commit, at
   worst the destination's resolver deadline. Retried with doubling
   pauses; past [busy_limit_ms] in all it is reported as unavailable. *)
let busy_first_pause_ms = 5.0

let busy_max_pause_ms = 160.0

let busy_limit_ms = 10_000.0

let rec call_after ~waited t ~shard request =
  match raw_call t ~shard request with
  | Wire.Dir_reply (Wire.Err_rep Wire.Busy) ->
      if waited >= busy_limit_ms then
        raise (Wire.Dir_error (Wire.Unavailable "name stays reserved"));
      let pause =
        Float.min busy_max_pause_ms (Float.max busy_first_pause_ms waited)
      in
      Sim.Proc.sleep pause;
      call_after ~waited:(waited +. pause) t ~shard request
  | Wire.Dir_reply (Wire.Err_rep Wire.Wrong_shard) -> (
      (* Bounce: our guess was wrong (stale placement assumption).
         Recompute the owner from the capability's port and retry
         there; a bounce from the owner itself is a real error. *)
      let owner =
        match Wire.cap_of_request request with
        | Some cap -> shard_of_cap t cap
        | None -> None
      in
      match owner with
      | Some owner when owner <> shard ->
          call_after ~waited t ~shard:owner request
      | _ -> raise (Wire.Dir_error Wire.Wrong_shard))
  | Wire.Dir_reply (Wire.Err_rep e) -> raise (Wire.Dir_error e)
  | Wire.Dir_reply reply -> reply
  | _ -> raise (Wire.Dir_error (Wire.Unavailable "malformed reply"))

let call t ~shard request = call_after ~waited:0.0 t ~shard request
