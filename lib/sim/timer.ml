type t = Engine.timer

let after engine ~delay f = Engine.schedule_timer engine ~delay f

let every engine ~period f = Engine.schedule_every engine ~period f

let cancel = Engine.cancel_timer

let active = Engine.timer_active

let guard engine waker ~delay exn =
  let tm =
    Engine.schedule_timer engine ~delay (fun () ->
        Engine.attribute engine Tick "timeout";
        ignore (Proc.Waker.wake_exn waker exn))
  in
  Proc.Waker.on_wake waker (fun () -> Engine.cancel_timer tm);
  tm
