type 'a t = {
  queue : 'a Queue.t;
  (* Oldest first. Dead wakers (crashed node, fired timeout) are pruned
     lazily as they reach the front, so a delivery costs O(1) however
     many waiters have died. *)
  wait_queue : 'a Proc.Waker.t Queue.t;
}

let create () = { queue = Queue.create (); wait_queue = Queue.create () }

(* Hand [v] to the oldest still-viable waiter; [wake] refuses dead
   wakers, so each is discarded the first time it surfaces. Tested with
   [is_empty] and taken with [pop], as [take_opt]'s option would cost
   an allocation per message. *)
let rec send t v =
  if Queue.is_empty t.wait_queue then Queue.push v t.queue
  else if not (Proc.Waker.wake (Queue.pop t.wait_queue) v) then send t v

let recv ?timeout t =
  if Queue.is_empty t.queue then Proc.wait ?timeout t.wait_queue
  else Queue.pop t.queue

let length t = Queue.length t.queue

(* Whether a viable waiter exists: dead wakers at the front are dropped
   as [send] drops them, so the answer costs no allocation. *)
let rec has_waiter t =
  if Queue.is_empty t.wait_queue then false
  else if Proc.Waker.is_viable (Queue.peek t.wait_queue) then true
  else begin
    ignore (Queue.take t.wait_queue);
    has_waiter t
  end

let waiters t =
  Queue.fold (fun n w -> if Proc.Waker.is_viable w then n + 1 else n) 0 t.wait_queue
