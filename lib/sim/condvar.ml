type t = { mutable wait_queue : unit Proc.Waker.t list (* oldest first *) }

let create () = { wait_queue = [] }

let wait ?timeout t =
  match timeout with
  | None -> Proc.suspend (fun waker -> t.wait_queue <- t.wait_queue @ [ waker ])
  | Some d ->
      (* Only a guarded wait needs the engine (one effect call). *)
      let engine = Proc.engine () in
      Proc.suspend (fun waker ->
          t.wait_queue <- t.wait_queue @ [ waker ];
          ignore (Timer.guard engine waker ~delay:d Proc.Timeout))

let broadcast t =
  let waiting = t.wait_queue in
  t.wait_queue <- [];
  List.iter (fun waker -> ignore (Proc.Waker.wake waker ())) waiting

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
