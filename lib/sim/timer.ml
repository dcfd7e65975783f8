type t = Engine.timer

let after engine ~delay f = Engine.schedule_timer engine ~delay f

let every engine ~period f = Engine.schedule_every engine ~period f

let cancel = Engine.cancel_timer

let active = Engine.timer_active
