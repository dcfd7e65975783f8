(** ResetGroup (the view change behind the paper's Fig. 5 group thread)
    as one pure transition. {!step} reads no clock and sends nothing:
    time and the member's delivered prefix come in the inputs, and
    [Member] carries out the actions. One attempt: the coordinator
    invites every member, collects their states for a 15 ms window,
    fetches what it lacks from the most advanced one for at most one
    more, and commits the view to every member that answered. A member
    answers one coordinator per view number (a coordinator yields to a
    higher one), and installs a commit only from the [(view, coord)] it
    last accepted, and only one it can reach. *)

(** The coordinator's own attempt, at view [fst seen]. *)
type attempt =
  | Collecting of (int * int) list  (** (member, have_upto), newest first *)
  | Syncing of { states : (int * int) list; base : int; donor : int }

type state = {
  me : int;
  fail_timeout : float;  (** the silence the detector forgives *)
  status : Types.status;
  epoch : Types.epoch;  (** the installed view *)
  seen : int * int;  (** the last (view, coord) accepted *)
  since : float;  (** the wait rule's clock *)
  attempt : attempt option;
}

(** [Idle]: in no group yet. *)
val init : me:int -> fail_timeout:float -> state

(** A view as its coordinator commits it. *)
type view = { epoch : Types.epoch; members : int list; sequencer : int; base : int }

type input =
  | Start of { now : float; contig : int }  (** the application's ResetGroup *)
  | Invite of { instance : int; now : float; contig : int; view : int; coord : int }
  | State of { instance : int; view : int; member : int; have : int }
  | Entries of { instance : int; src : int; reach : int }
      (** a donor's entries; [reach] is the prefix held once they are taken *)
  | Commit of { coord : int; view : view; reach : int }  (** [reach]: patch taken *)
  | Expired of { contig : int }  (** the reset timer: collect or sync over *)
  | Tick of { now : float }  (** the failure detector, outside [Normal] *)

type action =
  | Invite_all of int  (** multicast the invite into this view *)
  | Send_state of { coord : int; view : int; have : int }
  | Fetch of { donor : int; from : int; upto : int }
  | Take  (** store the packet's entries, undelivered *)
  | Arm of float  (** (re)arm the one reset timer *)
  | Send_commits of view * (int * int) list  (** to each (member, have_upto) *)
  | Install of view  (** take the patch, drop what is past the base, deliver *)
  | Failed  (** the wait rule: queue one failure for [receive] *)

(** The wait rule: a member [Broken] or [Resetting] past [since + 2 *
    window + fail_timeout] (15 ms windows) gets one [Failed] per expiry:
    a live coordinator commits within two windows of its invite. *)
val deadline : state -> float

val step : state -> input -> state * action list
