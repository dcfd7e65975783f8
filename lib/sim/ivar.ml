type 'a state = Empty | Full of ('a, exn) result

type 'a t = {
  mutable state : 'a state;
  mutable readers : 'a Proc.Waker.t list; (* oldest first *)
}

let create () = { state = Empty; readers = [] }

let complete t result =
  match t.state with
  | Full _ -> ()
  | Empty ->
      t.state <- Full result;
      let readers = t.readers in
      t.readers <- [];
      let wake waker =
        match result with
        | Ok v -> ignore (Proc.Waker.wake waker v)
        | Error e -> ignore (Proc.Waker.wake_exn waker e)
      in
      List.iter wake readers

let fill t v = complete t (Ok v)

let fill_exn t e = complete t (Error e)

let is_filled t = match t.state with Full _ -> true | Empty -> false

let peek t =
  match t.state with Full (Ok v) -> Some v | Full (Error _) | Empty -> None

let read ?timeout t =
  match t.state with
  | Full (Ok v) -> v
  | Full (Error e) -> raise e
  | Empty -> (
      match timeout with
      | None -> Proc.suspend (fun waker -> t.readers <- t.readers @ [ waker ])
      | Some d ->
          (* Only a guarded wait needs the engine (one effect call). *)
          let engine = Proc.engine () in
          Proc.suspend (fun waker ->
              t.readers <- t.readers @ [ waker ];
              ignore (Timer.guard engine waker ~delay:d Proc.Timeout)))
