exception Group_failure of string

exception Join_failed of string

type epoch = { instance : int; view : int; coord : int }

let epoch_compare a b =
  match compare a.instance b.instance with
  | 0 -> ( match compare a.view b.view with 0 -> compare a.coord b.coord | c -> c)
  | c -> c

type status = Idle | Normal | Broken | Resetting | Left

let status_to_string = function
  | Idle -> "idle"
  | Normal -> "normal"
  | Broken -> "broken"
  | Resetting -> "resetting"
  | Left -> "left"

type dissemination = Pb | Bb

type config = {
  dissemination : dissemination;
  resilience : int;
  heartbeat_period : float;
  fail_timeout : float;
  send_retries : int;
  batch_max : int;
  batch_window : float;
}

let default_config =
  {
    dissemination = Pb;
    resilience = 2;
    heartbeat_period = 25.0;
    fail_timeout = 80.0;
    send_retries = 3;
    batch_max = 1;
    batch_window = 2.0;
  }

type info = {
  members : int list;
  sequencer : int;
  me : int;
  status : status;
  epoch : epoch;
  next_deliver : int;
  highest_seen : int;
}
