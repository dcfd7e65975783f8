type t = {
  capacity : int;
  mutable held : int;
  mutable wait_queue : unit Proc.Waker.t list; (* oldest first *)
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  { capacity; held = 0; wait_queue = [] }

let acquire t =
  if t.held < t.capacity then t.held <- t.held + 1
  else Proc.suspend (fun waker -> t.wait_queue <- t.wait_queue @ [ waker ])

let rec release t =
  match t.wait_queue with
  | [] -> t.held <- t.held - 1
  | waker :: rest ->
      t.wait_queue <- rest;
      (* Hand the unit over directly; if the waiter died, try the next. *)
      if not (Proc.Waker.wake waker ()) then release t

let use t d =
  acquire t;
  Proc.sleep d;
  release t

let with_held t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e
