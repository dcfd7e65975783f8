(** The recovery protocol of the paper's Fig. 6 as one pure transition.
    {!step} reads no clock and does no I/O: [Group_server]'s group thread
    carries out its actions in order, and feeds back what each blocking
    one returns, so [step] is the one writer of whether the server
    serves, of its recovering flag and of Skeen's [stayed_up].

    One attempt: leave the group and back off [10 + 7·id + 13·attempt]
    ms (staggered, so concurrent creators converge); join the group, or
    create it; poll the membership every 15 ms until a majority is in
    it, for at most 500 ms; exchange Skeen's peer states with the
    members, up to 7 more times 60 ms apart while a member does not
    answer or the last-to-fail set is not covered ({!Skeen.decide});
    then serve from this server's own state, or set the recovering flag,
    fetch the donor's state and reinstall it first. Every failure starts
    the next attempt. The administrator's force
    ({!Group_server.force_recover}) makes the next uncovered verdict
    take the best reachable donor instead. The retry constants are
    liveness knobs only: the recovery explorer
    ([test/test_recovery_explore.ml]) lets any poll or exchange end its
    attempt and still finds recovery safe at its bounds. *)

type phase =
  | Booting  (** started, not in a group yet *)
  | Backing_off
  | Joining
  | Polling of { base : int; polls : int }
      (** in a group joined at [base], waiting for a majority *)
  | Exchanging of { base : int; tries : int }
  | Fetching of { base : int; donor : int }
  | Reinstalling of { base : int }
  | Serving

type state = {
  me : int;
  all : int list;  (** every configured server id *)
  phase : phase;
  attempt : int;  (** attempts since the group was lost *)
  stayed_up : bool;  (** served since boot (Skeen's improved rule) *)
  forced : bool;  (** the administrator's force is pending *)
  recovering : bool;
      (** set from the commit-block write before a fetch until the
          recovery serves: every commit-block write carries it *)
}

val init : me:int -> all:int list -> state

type input =
  | Lost  (** at boot, or the group thread lost its group *)
  | Reset of int
      (** the size of the view a serving server's ResetGroup returned
          (0: no view yet, its wait rule retries) *)
  | Backed_off
  | Joined of { base : int; members : int }
      (** joined or created at [base], with this many members *)
  | Polled of int  (** the membership count at a poll *)
  | Exchanged of Skeen.peer_state list
      (** every member's state, own included *)
  | Unanswered
      (** a member did not answer the exchange: Skeen's rule is never
          run without it, lest it miss a majority that serves *)
  | Fetched of { changed : int list; deleted : int list }
  | Fetch_failed
  | Reinstalled
  | Force  (** the administrator's escape hatch *)

type action =
  | Leave  (** leave the group, if any *)
  | Back_off of float  (** sleep, then [Backed_off] *)
  | Join  (** join the group or create it, then [Joined] *)
  | Poll_in of float  (** sleep, then [Polled] *)
  | Exchange of float
      (** sleep this long (if at all), then [Exchanged] or [Unanswered] *)
  | Forced of int  (** trace the forced donor *)
  | Mark_recovering  (** write the commit block, flag set *)
  | Fetch of { donor : int; base : int }  (** then [Fetched] or [Fetch_failed] *)
  | Reinstall of { changed : int list; deleted : int list }  (** then [Reinstalled] *)
  | Serve of { base : int; attempt : int }
      (** apply nothing at or below [base], notify the serving watch,
          write the commit block and trace [recovered] *)
  | Wait_last_set of Skeen.Int_set.t  (** trace the servers waited for *)
  | Write_vector  (** write the commit block after a majority reset *)

val serving : state -> bool

(** The recovery spans a [recovered] trace event reports, in ms:
    backing off, waiting for a majority (the join and the polls),
    exchanging, fetching (the recovering flag's write included) and
    reinstalling. *)
val spans : string list

(** The index in {!spans} of the time spent in a phase. *)
val slot : phase -> int option

(** [step st input] is the next state and the actions to carry out, in
    order. An input the phase does not wait for changes nothing, except
    that [Lost] starts an attempt from any phase and [Force] is taken
    in any. *)
val step : state -> input -> state * action list
