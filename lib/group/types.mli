(** Shared types for the group communication layer. *)

(** Raised by [send]/[receive] when the group has suffered a failure the
    kernel detected; the application must call [reset] (ResetGroup) to
    rebuild, exactly as in the paper's Fig. 5 group thread. *)
exception Group_failure of string

(** Raised by [join] when no sequencer granted admission in time. *)
exception Join_failed of string

(** A group {e instance} is one creation lineage of a named group; a
    fresh [create_group] starts a new instance. Within an instance the
    view number increases on every successful ResetGroup. A view's
    epoch also names the member that made it: the creator, or the
    coordinator that committed the reset. Two coordinators that never
    hear each other can commit the same view number, and [coord] keeps
    their views apart. Messages are only accepted from the exact same
    (instance, view, coord): anything else is another partition's
    lineage or view, or a superseded one. *)
type epoch = { instance : int; view : int; coord : int }

val epoch_compare : epoch -> epoch -> int

type status =
  | Idle  (** created but not yet admitted to a group *)
  | Normal  (** operating *)
  | Broken  (** failure detected; needs ResetGroup *)
  | Resetting  (** ResetGroup in progress *)
  | Left  (** after LeaveGroup *)

val status_to_string : status -> string

(** How a message reaches the members (Kaashoek & Tanenbaum's two
    methods). {b PB}: the sender passes the message point-to-point to
    the sequencer, which broadcasts it — 2 hops to order, the body
    crosses the wire twice. {b BB}: the sender broadcasts the body
    itself and the sequencer broadcasts a tiny Accept carrying only the
    sequence number — same latency, but large bodies are not forwarded
    through the sequencer. *)
type dissemination = Pb | Bb

type config = {
  dissemination : dissemination;
  resilience : int;
      (** r: a completed send survives r member failures (the message is
          held by r+1 members before the sender unblocks) *)
  heartbeat_period : float;  (** sequencer heartbeat interval (ms) *)
  fail_timeout : float;
      (** silence threshold before declaring a failure (ms) *)
  send_retries : int;
  batch_max : int;
      (** sequencer-side batching: order up to this many concurrently
          arriving updates with a single multicast. 1 (the default)
          sends every update in a batch of its own, at once *)
  batch_window : float;
      (** how long (ms) the sequencer holds a partial batch before
          flushing it; the flush timer is cancelable, so a batch that
          fills to [batch_max] first leaves no timer corpse behind *)
}

val default_config : config

(** GetInfoGroup result. *)
type info = {
  members : int list;  (** current view, sorted by node id *)
  sequencer : int;
  me : int;
  status : status;
  epoch : epoch;
  next_deliver : int;  (** seqno of the next message [receive] will get *)
  highest_seen : int;
      (** highest seqno known to exist (from data or heartbeats); if
          [highest_seen >= next_deliver] there are buffered/undelivered
          messages — the paper's read-path check *)
}
