exception Timeout

exception Cancelled of string

module Waker = struct
  type 'a t = {
    mutable used : bool;
    viable : unit -> bool;
    fire : ('a, exn) result -> unit;
    (* Run once, at the moment the waker is consumed — the hook through
       which a successful wakeup revokes its guard timer, so the timeout
       event is tombstoned instead of popping later as a dead no-op. *)
    mutable cleanup : (unit -> unit) option;
  }

  let is_viable w = (not w.used) && w.viable ()

  let on_wake w f =
    match w.cleanup with
    | None -> w.cleanup <- Some f
    | Some g ->
        w.cleanup <-
          Some
            (fun () ->
              g ();
              f ())

  let consumed w =
    w.used <- true;
    match w.cleanup with
    | None -> ()
    | Some f ->
        w.cleanup <- None;
        f ()

  let wake w v =
    if is_viable w then begin
      consumed w;
      w.fire (Ok v);
      true
    end
    else false

  let wake_exn w e =
    if is_viable w then begin
      consumed w;
      w.fire (Error e);
      true
    end
    else false
end

type ctx = {
  engine : Engine.t;
  node : Node.t;
  incarnation : int;
  name : string;
}

type _ Effect.t +=
  | Suspend : ('a Waker.t -> unit) -> 'a Effect.t
  | Get_ctx : ctx Effect.t

let rec run_fiber ctx f =
  let open Effect.Deep in
  match_with f ()
    {
      retc = ignore;
      (* A fiber's uncaught exception aborts the whole run: protocol code
         is expected to handle its own errors, so anything escaping is a
         bug we want tests to see immediately. *)
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  let viable () =
                    Node.is_alive ctx.node
                    && Node.incarnation ctx.node = ctx.incarnation
                  in
                  let fire res =
                    Engine.schedule ctx.engine ~delay:0.0 (fun () ->
                        Engine.attribute ctx.engine Wake ctx.name;
                        if viable () then
                          match res with
                          | Ok v -> continue k v
                          | Error e -> discontinue k e)
                  in
                  register { Waker.used = false; viable; fire; cleanup = None })
          | Get_ctx -> Some (fun (k : (a, _) continuation) -> continue k ctx)
          | _ -> None);
    }

and boot engine node ?(name = "fiber") f =
  Engine.schedule engine ~delay:0.0 (fun () ->
      Engine.attribute engine Wake name;
      if Node.is_alive node then
        run_fiber
          { engine; node; incarnation = Node.incarnation node; name }
          f)

let get_ctx () = Effect.perform Get_ctx

let suspend register = Effect.perform (Suspend register)

let spawn ?name f =
  let ctx = get_ctx () in
  boot ctx.engine ctx.node ?name f

let sleep d =
  let ctx = get_ctx () in
  suspend (fun w ->
      Engine.schedule ctx.engine ~delay:d (fun () ->
          Engine.attribute ctx.engine Wake ctx.name;
          ignore (Waker.wake w ())))

let yield () = sleep 0.0

let now () = Engine.now (get_ctx ()).engine

let engine () = (get_ctx ()).engine

let node () = (get_ctx ()).node

let with_timeout d f =
  let ctx = get_ctx () in
  suspend (fun w ->
      let tm =
        Engine.schedule_timer ctx.engine ~delay:d (fun () ->
            Engine.attribute ctx.engine Tick ctx.name;
            ignore (Waker.wake_exn w Timeout))
      in
      Waker.on_wake w (fun () -> Engine.cancel_timer tm);
      boot ctx.engine ctx.node ~name:(ctx.name ^ ".timed") (fun () ->
          match f () with
          | v -> ignore (Waker.wake w v)
          | exception e -> ignore (Waker.wake_exn w e)))
