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

(* Hand the unit over directly; if the waiter died, try the next.
   Tested with [is_empty] and taken with [pop], as in [Mailbox.send]. *)
let rec release t =
  if Queue.is_empty t.wait_queue then t.held <- t.held - 1
  else if not (Proc.Waker.wake (Queue.pop t.wait_queue) ()) then release t

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
