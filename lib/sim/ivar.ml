type 'a state = Empty | Full of ('a, exn) result

type 'a t = {
  mutable state : 'a state;
  readers : 'a Proc.Waker.t Queue.t; (* oldest first *)
}

let create () = { state = Empty; readers = Queue.create () }

(* A wake only schedules its fiber's resume, so no reader can join the
   queue while it drains. *)
let complete t result =
  match t.state with
  | Full _ -> ()
  | Empty ->
      t.state <- Full result;
      while not (Queue.is_empty t.readers) do
        let waker = Queue.pop t.readers in
        ignore
          (match result with
          | Ok v -> Proc.Waker.wake waker v
          | Error e -> Proc.Waker.wake_exn waker e)
      done

let fill t v = complete t (Ok v)

let fill_exn t e = complete t (Error e)

let is_filled t = match t.state with Full _ -> true | Empty -> false

let peek t =
  match t.state with Full (Ok v) -> Some v | Full (Error _) | Empty -> None

let read ?timeout t =
  match t.state with
  | Full (Ok v) -> v
  | Full (Error e) -> raise e
  | Empty -> Proc.wait ?timeout t.readers
