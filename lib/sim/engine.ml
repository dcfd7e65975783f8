(* Timers are heap entries that can be tombstoned in O(1): [cancel_timer]
   flips the state and the run loop discards the corpse when it surfaces,
   without executing it or counting it; only the clock moves to its
   time (see [run]). This is what lets timeout guards (mailbox/condvar/
   ivar waits, RPC enquiry timers) vanish from the event count when the
   guarded thing happens first — which is almost always. A periodic
   timer ([Every]) is the same record, re-pushed by the run loop after
   each tick until it is cancelled. *)
type timer_state =
  | Armed of (unit -> unit)
  | Every of float * (unit -> unit) (* period, tick *)
  | Fired
  | Cancelled

type timer = { mutable state : timer_state }

type event = Thunk of (unit -> unit) | Timer of timer

(* ---- Profiling (off unless [set_profiling]) ----------------------- *)

type kind = Deliver | Wake | Tick | Other

(* [words] is a one-cell float array so that adding to it allocates
   nothing inside the measured window. *)
type bucket = { mutable events : int; words : float array }

type profile = {
  tables : (string, bucket) Hashtbl.t array; (* one per [kind] *)
  mutable kind : kind; (* the running event's bucket *)
  mutable name : string;
  mutable inside_events : int;
  inside_words : float array; (* allocated inside [run], loop included *)
}

type t = {
  mutable now : float;
  mutable seq : int;
  heap : event Heap.t;
  rng : Rng.t;
  mutable stop_requested : bool;
  mutable events_executed : int;
  mutable trace : Trace.t option;
  metrics : Metrics.t;
  mutable next_id : int;
  mutable profile : profile option;
}

exception Stopped

let create ?(seed = 0x12345678L) () =
  {
    now = 0.0;
    seq = 0;
    heap = Heap.create ();
    rng = Rng.create seed;
    stop_requested = false;
    events_executed = 0;
    trace = None;
    metrics = Metrics.create ();
    next_id = 0;
    profile = None;
  }

let now t = t.now

(* Monotonic per-engine ids. Protocol layers needing unique instance or
   message ids must draw them here, not from module-level refs: global
   counters survive from one simulation to the next in the same process
   and break the same-seed => same-trace guarantee. *)
let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let rng t = t.rng

let push t ~delay cell =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  t.seq <- t.seq + 1;
  Heap.push_after t.heap ~base:t.now ~delay ~seq:t.seq cell

let schedule t ~delay f = push t ~delay (Thunk f)

let event f = Thunk f

let schedule_event t ~delay event = push t ~delay event

let schedule_timer t ~delay f =
  let tm = { state = Armed f } in
  push t ~delay (Timer tm);
  tm

let schedule_every t ~period f =
  if not (period > 0.0) then
    invalid_arg "Engine.schedule_every: period must be positive";
  let tm = { state = Every (period, f) } in
  push t ~delay:period (Timer tm);
  tm

(* Never scheduled and never mutated ([cancel_timer] leaves a cancelled
   timer alone), so one value serves every engine and domain. *)
let no_timer = { state = Cancelled }

let cancel_timer tm =
  match tm.state with
  | Armed _ | Every _ -> tm.state <- Cancelled
  | Fired | Cancelled -> ()

let timer_active tm =
  match tm.state with
  | Armed _ | Every _ -> true
  | Fired | Cancelled -> false

let stop t = t.stop_requested <- true

let events_executed t = t.events_executed

let set_trace t trace = t.trace <- trace

let tracing t = t.trace <> None

let metrics t = t.metrics

(* [attrs] is a thunk so that instrumented hot paths pay nothing beyond
   a closure when tracing is off. *)
let emit t ~subsystem ~node ~name attrs =
  match t.trace with
  | None -> ()
  | Some trace -> Trace.emit trace ~time:t.now ~subsystem ~node ~name (attrs ())

let kind_index = function Deliver -> 0 | Wake -> 1 | Tick -> 2 | Other -> 3

let set_profiling t on =
  t.profile <-
    (if on then
       Some
         {
           tables = Array.init 4 (fun _ -> Hashtbl.create 16);
           kind = Other;
           name = "";
           inside_events = 0;
           inside_words = [| 0.0 |];
         }
     else None)

let profiling t = t.profile <> None

let attribute t kind name =
  match t.profile with
  | None -> ()
  | Some p ->
      p.kind <- kind;
      p.name <- name

(* Pop and execute the next entry, unless it lies past [until]; false
   once the run must end. *)
let step t until =
  (* Peek before popping: an event past the time limit stays in the
     heap untouched. The heap compares the times, and the clock gets a
     new box only when its time moves: most events share an instant. *)
  match until with
  | Some limit when Heap.min_time_after t.heap limit ->
      t.now <- limit;
      false
  | _ ->
      if Heap.min_time_differs t.heap t.now then t.now <- Heap.min_time t.heap;
      (match Heap.pop_min_value t.heap with
      | Thunk f ->
          t.events_executed <- t.events_executed + 1;
          f ()
      | Timer tm as event -> (
          match tm.state with
          | Armed f ->
              tm.state <- Fired;
              t.events_executed <- t.events_executed + 1;
              attribute t Tick "other";
              f ()
          | Every (period, f) -> (
              t.events_executed <- t.events_executed + 1;
              attribute t Tick "other";
              f ();
              (* The next tick is pushed after everything [f]
                 scheduled, so it takes the same instant and the
                 same seq a one-shot timer armed at the end of [f]
                 would. A cancel from inside [f] stops it here. *)
              match tm.state with
              | Every _ -> push t ~delay:period event
              | Armed _ | Fired | Cancelled -> ())
          (* Tombstone: discarded without running or counting. The
             clock still advanced, as for a dead no-op event: [now] at
             a drained-heap [run] exit is observable (drivers anchor
             their next quantum on it). *)
          | Cancelled | Fired -> attribute t Tick "(cancelled)"));
      true

(* One profiled step: the window opens before the pop, so the clock's
   box and the re-push of a periodic timer are charged to the event
   that caused them. [Gc.minor_words] returns an unboxed float, so the
   window itself allocates nothing; a new bucket's entry is made after
   it closes. *)
let profiled_step t p until =
  p.kind <- Other;
  p.name <- "other";
  let events0 = t.events_executed in
  let words0 = Gc.minor_words () in
  let more = step t until in
  let words = Gc.minor_words () -. words0 in
  let ran = t.events_executed - events0 in
  if more then begin
    let table = p.tables.(kind_index p.kind) in
    let b =
      match Hashtbl.find table p.name with
      | b -> b
      | exception Not_found ->
          let b = { events = 0; words = [| 0.0 |] } in
          Hashtbl.add table p.name b;
          b
    in
    b.events <- b.events + ran;
    b.words.(0) <- b.words.(0) +. words
  end;
  more

(* The two loops differ only in their step; one loop over a step
   closure would allocate on every call, and drivers call [run] once
   per quantum. *)
let run ?until t =
  t.stop_requested <- false;
  match t.profile with
  | None ->
      let continue = ref true in
      while !continue do
        if t.stop_requested || Heap.is_empty t.heap then continue := false
        else continue := step t until
      done
  | Some p ->
      let events0 = t.events_executed in
      let words0 = Gc.minor_words () in
      let continue = ref true in
      while !continue do
        if t.stop_requested || Heap.is_empty t.heap then continue := false
        else continue := profiled_step t p until
      done;
      p.inside_words.(0) <- p.inside_words.(0) +. (Gc.minor_words () -. words0);
      p.inside_events <- p.inside_events + (t.events_executed - events0)

type bucket_report = { kind : kind; name : string; events : int; minor_words : float }

let profile t =
  match t.profile with
  | None -> []
  | Some p ->
      List.concat_map
        (fun kind ->
          Hashtbl.fold
            (fun name (b : bucket) acc ->
              { kind; name; events = b.events; minor_words = b.words.(0) } :: acc)
            p.tables.(kind_index kind) [])
        [ Deliver; Wake; Tick; Other ]

let profile_totals t =
  match t.profile with
  | None -> (0, 0.0)
  | Some p -> (p.inside_events, p.inside_words.(0))
