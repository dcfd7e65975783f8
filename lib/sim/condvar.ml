type t = { wait_queue : unit Proc.Waker.t Queue.t (* oldest first *) }

let create () = { wait_queue = Queue.create () }

let wait ?timeout t = Proc.wait ?timeout t.wait_queue

(* A wake only schedules its fiber's resume, so no waiter can join the
   queue while it drains. *)
let broadcast t =
  while not (Queue.is_empty t.wait_queue) do
    ignore (Proc.Waker.wake (Queue.pop t.wait_queue) ())
  done

let await ?timeout t pred =
  (* The overall timeout is budgeted across successive waits. *)
  match timeout with
  | None ->
      while not (pred ()) do
        wait t
      done
  | Some budget ->
      let deadline = Proc.now () +. budget in
      while not (pred ()) do
        let remaining = deadline -. Proc.now () in
        if remaining <= 0.0 then raise Proc.Timeout;
        wait ~timeout:remaining t
      done
