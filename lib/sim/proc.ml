exception Timeout

exception Cancelled of string

open Effect.Deep

(* What a fiber's resume event does when it next runs. *)
type next =
  | Idle
  | Start of (unit -> unit)
  | Alarm of (unit, unit) continuation (* asleep: fires as the wake first *)
  | Resume : ('a, unit) continuation * 'a -> next
  | Raise : ('a, unit) continuation * exn -> next

(* One record per fiber, made by [boot]. [gen] counts the fiber's wakes:
   a waker carries the count of its suspend, so once the fiber is woken
   every older waker is inert. [resume] is the fiber's one pre-built
   engine event; [resume] and [self] are set once, by [boot]. [queue]
   and [timeout] are the pending wait's stash (see [wait]). *)
type fiber = {
  engine : Engine.t;
  node : Node.t;
  name : string;
  mutable incarnation : int;
  mutable gen : int;
  mutable guard : Engine.timer; (* cancelled by the next wake *)
  mutable next : next;
  mutable nap : float; (* the pending sleep's delay *)
  mutable queue : Obj.t; (* the pending wait's ['a Waker.t Queue.t] *)
  mutable timeout : float option; (* and its timeout *)
  mutable resume : Engine.event;
  mutable self : fiber option;
}

let alive f = Node.is_alive f.node && Node.incarnation f.node = f.incarnation

module Waker = struct
  type 'a t = { fiber : fiber; gen : int; k : ('a, unit) continuation }

  let is_viable w = w.gen = w.fiber.gen && alive w.fiber

  (* The resume takes the instant and the seq of an event the caller
     scheduled now at delay 0. *)
  let fire w next =
    is_viable w
    && begin
         let f = w.fiber in
         f.gen <- f.gen + 1;
         Engine.cancel_timer f.guard;
         f.guard <- Engine.no_timer;
         f.next <- next;
         Engine.schedule_event f.engine ~delay:0.0 f.resume;
         true
       end

  let wake w v = fire w (Resume (w.k, v))

  let wake_exn w e = fire w (Raise (w.k, e))
end

type _ Effect.t +=
  | Wait : 'a Effect.t (* for the fiber's [queue] and [timeout] *)
  | Sleep : unit Effect.t (* for the fiber's [nap] *)

(* The fiber running on this domain, set around each resume. *)
let running = Domain.DLS.new_key (fun () -> ref None)

let current () =
  match !(Domain.DLS.get running) with
  | Some f -> f
  | None -> invalid_arg "Sim.Proc: not inside a fiber"

(* The [queue] of a fiber that is not parking. *)
let empty = Obj.repr ()

(* Built once per fiber, like its [sleep] handler: the effect is a
   constant and the parker reads the wait from the fiber. The stash and
   the continuation are held at [Obj.t], the one unchecked conversion in
   this module. It is sound because [wait] writes the stash and
   performs [Wait] at the queue's own ['a], and the handler it reaches
   is this fiber's (the running one's), which consumes the stash before
   anything else runs: no event, and so no other wait of this fiber,
   comes in between. So [k] resumes with an ['a] and the waker joins an
   ['a Waker.t Queue.t]. *)
let handler fiber =
  let sleep =
    Some
      (fun k ->
        fiber.next <- Alarm k;
        Engine.schedule_event fiber.engine ~delay:fiber.nap fiber.resume)
  in
  let park =
    Some
      (fun (k : (Obj.t, unit) continuation) ->
        let w = { Waker.fiber; gen = fiber.gen; k } in
        let queue : Obj.t Waker.t Queue.t = Obj.obj fiber.queue in
        let timeout = fiber.timeout in
        fiber.queue <- empty;
        fiber.timeout <- None;
        Queue.push w queue;
        match timeout with
        | None -> ()
        | Some delay ->
            (* The fiber's one guard: the wake that comes first
               cancels it, leaving a tombstone. *)
            fiber.guard <-
              Engine.schedule_timer fiber.engine ~delay (fun () ->
                  Engine.attribute fiber.engine Tick "timeout";
                  ignore (Waker.wake_exn w Timeout)))
  in
  {
    retc = ignore;
    (* A fiber's uncaught exception aborts the whole run: protocol code
       is expected to handle its own errors, so anything escaping is a
       bug we want tests to see immediately. *)
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait -> (Obj.magic park : ((a, unit) continuation -> unit) option)
        | Sleep -> sleep
        | _ -> None);
  }

let step fiber = function
  | Idle -> ()
  | Start f -> match_with f () (handler fiber)
  | Alarm k ->
      (* A sleep's wake: the resume follows at delay 0, as behind a waker. *)
      fiber.gen <- fiber.gen + 1;
      fiber.next <- Resume (k, ());
      Engine.schedule_event fiber.engine ~delay:0.0 fiber.resume
  | Resume (k, v) -> continue k v
  | Raise (k, e) -> discontinue k e

let resume fiber () =
  Engine.attribute fiber.engine Wake fiber.name;
  let next = fiber.next in
  fiber.next <- Idle;
  (* A fiber belongs to the incarnation its node has when it starts. *)
  (match next with Start _ -> fiber.incarnation <- Node.incarnation fiber.node | _ -> ());
  if alive fiber then begin
    let cell = Domain.DLS.get running in
    let outer = !cell in
    cell := fiber.self;
    match step fiber next with
    | () -> cell := outer
    | exception e ->
        cell := outer;
        raise e
  end

(* A fiber's [resume] until [boot] builds its own. *)
let unbuilt = Engine.event ignore

let boot engine node ?(name = "fiber") f =
  let fiber =
    {
      engine;
      node;
      name;
      incarnation = 0;
      gen = 0;
      guard = Engine.no_timer;
      next = Start f;
      nap = 0.0;
      queue = empty;
      timeout = None;
      resume = unbuilt;
      self = None;
    }
  in
  fiber.self <- Some fiber;
  fiber.resume <- Engine.event (resume fiber);
  Engine.schedule_event engine ~delay:0.0 fiber.resume

let wait ?timeout queue =
  let fiber = current () in
  fiber.queue <- Obj.repr queue;
  fiber.timeout <- timeout;
  Effect.perform Wait

let spawn ?name f =
  let fiber = current () in
  boot fiber.engine fiber.node ?name f

let sleep d =
  (current ()).nap <- d;
  Effect.perform Sleep

let yield () = sleep 0.0

let now () = Engine.now (current ()).engine

let engine () = (current ()).engine

let node () = (current ()).node
