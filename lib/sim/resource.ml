type t = {
  capacity : int;
  mutable held : int;
  wait_queue : unit Proc.Waker.t Queue.t; (* oldest first *)
}

let create ~capacity () =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  { capacity; held = 0; wait_queue = Queue.create () }

let acquire t =
  if t.held < t.capacity then t.held <- t.held + 1
  else Proc.wait t.wait_queue

let rec release t =
  match Queue.take_opt t.wait_queue with
  | None -> t.held <- t.held - 1
  | Some waker ->
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
