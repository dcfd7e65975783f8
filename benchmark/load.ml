(* Open-loop offered load. The whole arrival schedule of a round is
   drawn up front from a generator the benchmark owns, seeded from the
   round seed and never split off the simulation engine's stream, so the
   offered load is identical across commits whatever the program does
   with its own randomness. *)

type session =
  | Lookup of { dir : int; row : int }
  | Pair of { dir : int; name : string }
  | Move of { src : int; dst : int; name : string }

type arrival = {
  due : float;  (** simulated ms after the window opens *)
  client : int;  (** 0 .. Spec.clients - 1 *)
  session : session;
}

let placement dir = Printf.sprintf "d%d" dir

let shard_of_dir (w : Spec.t) dir =
  Dirsvc.Shard_router.shard_of_name ~shards:w.shards (placement dir)

let row_name row = Printf.sprintf "f%d" row

(* A destination directory on a different shard than [src]. *)
let rec other_shard_dir rng (w : Spec.t) src =
  let dst = Sim.Rng.int rng w.dirs in
  if shard_of_dir w dst <> shard_of_dir w src then dst
  else other_shard_dir rng w src

let arrivals (w : Spec.t) ~rate ~seed =
  let rng = Sim.Rng.create seed in
  let window = w.window_s *. 1000.0 in
  let mean_gap = 1000.0 /. rate in
  let rec go t serial acc =
    let t = t +. Sim.Rng.exponential rng ~mean:mean_gap in
    if t >= window then Array.of_list (List.rev acc)
    else begin
      let client = Sim.Rng.int rng Spec.clients in
      let dir = Sim.Rng.int rng w.dirs in
      let session, serial =
        if Sim.Rng.float rng < w.read_frac then
          (Lookup { dir; row = 1 + Sim.Rng.int rng w.rows }, serial)
        else
          let name = Printf.sprintf "w%d" serial in
          if w.shards > 1 && Sim.Rng.float rng < w.move_frac then
            (Move { src = dir; dst = other_shard_dir rng w dir; name }, serial + 1)
          else (Pair { dir; name }, serial + 1)
      in
      go t serial ({ due = t; client; session } :: acc)
    end
  in
  go 0.0 0 []
