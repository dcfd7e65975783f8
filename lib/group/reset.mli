(** A member's membership as one pure transition: ResetGroup (the view
    change behind the paper's Fig. 5 group thread), and the status
    changes of CreateGroup, JoinGroup, LeaveGroup and failure
    detection. {!step} reads no clock and sends nothing: time and the
    member's delivered prefix come in the inputs, and [Member] carries
    out the actions, so [step] is the one writer of a member's status
    and installed view. A member [Idle] in no group adopts one view (the
    one it creates, or the join grant it chose); suspicion breaks only a
    [Normal] member, and only against the view it has installed; a
    member departs from any status, and nothing moves it once [Left].

    ResetGroup is one attempt: the coordinator invites every member,
    collects their states for a 15 ms window, fetches what it lacks from
    the most advanced one for at most one more, and commits the view to
    every member that answered. A member answers one coordinator per
    view number (a coordinator yields to a higher one), and installs a
    commit only from the [(view, coord)] it last accepted, and only one
    it can reach. *)

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

(** A view as its coordinator commits it, its creator makes it, or a
    sequencer grants it to a joiner. *)
type view = { epoch : Types.epoch; members : int list; sequencer : int; base : int }

type input =
  | Adopt of view  (** [create_group]'s view, or the join grant chosen *)
  | Suspect of { now : float; epoch : Types.epoch; reason : string; tell : bool }
      (** the failure detector or a timed-out send ([tell]: the member
          multicasts [Fail]), or a peer's [Fail] for view [epoch] *)
  | Depart of string
      (** LeaveGroup, this member's own [Leave_member], or a join that
          no sequencer granted *)
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
  | Install of view
      (** a reset's commit: take the patch, drop what is past the base,
          deliver; traced as a [view] event *)
  | Adopt_view of view  (** enter a created or granted view as [Install] does, untraced *)
  | Failed  (** the wait rule: queue one failure for [receive] *)
  | Break of string
      (** suspicion: trace it, drop the pending batch, fail the pending
          sends and queue the failure for [receive] *)
  | Tell of string  (** multicast [Fail] into the view *)
  | Fail_sends of string
      (** fail the pending sends: the member left its view, or a
          [Normal] member joined a reset *)
  | Halt  (** stop the failure detector *)

(** The wait rule: a member [Broken] or [Resetting] past [since + 2 *
    window + fail_timeout] (15 ms windows) gets one [Failed] per expiry:
    a live coordinator commits within two windows of its invite. *)
val deadline : state -> float

(** The grant a joiner adopts, of those it collected (in [grants]' order;
    [None] when there are none): the largest group wins, and on a tie a
    later grant whose lowest member is below the best-so-far grant's
    sequencer; the joiner adds itself to the view's members. *)
val choose_grant : me:int -> view list -> view option

val step : state -> input -> state * action list
