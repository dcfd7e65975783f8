type phase =
  | Booting | Backing_off | Joining
  | Polling of { base : int; polls : int }
  | Exchanging of { base : int; tries : int }
  | Fetching of { base : int; donor : int }
  | Reinstalling of { base : int }
  | Serving

type state = {
  me : int; all : int list; phase : phase; attempt : int;
  stayed_up : bool; forced : bool; recovering : bool;
}

let init ~me ~all =
  { me; all; phase = Booting; attempt = 0; stayed_up = false; forced = false; recovering = false }

type input =
  | Lost | Reset of int | Backed_off | Joined of { base : int; members : int } | Polled of int
  | Exchanged of Skeen.peer_state list | Unanswered
  | Fetched of { changed : int list; deleted : int list } | Fetch_failed | Reinstalled | Force

type action =
  | Leave | Back_off of float | Join | Poll_in of float | Exchange of float | Forced of int
  | Mark_recovering | Fetch of { donor : int; base : int }
  | Reinstall of { changed : int list; deleted : int list } | Serve of { base : int; attempt : int }
  | Wait_last_set of Skeen.Int_set.t | Write_vector

(* The liveness knobs, named once: Fig. 6's majority wait polls every
   [poll_ms] for [window_ms]; an uncovered last set is exchanged again
   [retries] times, [gap_ms] apart. *)
let poll_ms, window_ms, retries, gap_ms = (15.0, 500.0, 7, 60.0)

let serving st = st.phase = Serving

let spans = [ "backoff"; "majority"; "exchange"; "fetch"; "reinstall" ]

let slot = function
  | Backing_off -> Some 0
  | Joining | Polling _ -> Some 1
  | Exchanging _ -> Some 2
  | Fetching _ -> Some 3
  | Reinstalling _ -> Some 4
  | Booting | Serving -> None

let majority st = (List.length st.all / 2) + 1

(* Leave, then back off, staggered so that concurrent creators converge. *)
let begin_attempt ?(actions = []) st attempt =
  let back_off = 10.0 +. (float_of_int st.me *. 7.0) +. (float_of_int attempt *. 13.0) in
  ({ st with phase = Backing_off; attempt }, actions @ [ Leave; Back_off back_off ])

let retry ?actions st = begin_attempt ?actions st (st.attempt + 1)

let serve ?(actions = []) st ~base =
  ( { st with phase = Serving; stayed_up = true; forced = false; recovering = false },
    actions @ [ Serve { base; attempt = st.attempt } ] )

(* A donor's state is adopted even when our own seqno is as high: a
   rebooted server may carry an uncommitted suffix. *)
let recover ?(actions = []) st ~base ~donor =
  if donor = st.me then serve ~actions st ~base
  else
    ( { st with phase = Fetching { base; donor }; recovering = true },
      actions @ [ Mark_recovering; Fetch { donor; base } ] )

let poll st ~base ~polls ~members =
  if members >= majority st then ({ st with phase = Exchanging { base; tries = 0 } }, [ Exchange 0.0 ])
  else if float_of_int polls *. poll_ms > window_ms then retry st
  else ({ st with phase = Polling { base; polls } }, [ Poll_in poll_ms ])

(* Exchange again after the gap, or give the attempt up. *)
let again ?(actions = []) st ~base ~tries =
  if tries >= retries then retry ~actions st
  else ({ st with phase = Exchanging { base; tries = tries + 1 } }, actions @ [ Exchange gap_ms ])

let decide st ~base ~tries present =
  match (Skeen.decide ~all:st.all ~present, Skeen.donor present) with
  | Skeen.Recover { donor; _ }, _ -> recover st ~base ~donor
  | Skeen.Wait_for _, Some d when st.forced ->
      recover ~actions:[ Forced d.server ] st ~base ~donor:d.server
  | Skeen.Wait_for missing, _ -> again ~actions:[ Wait_last_set missing ] st ~base ~tries
  | Skeen.No_majority, _ -> retry st

let step st input =
  match (input, st.phase) with
  | Reset size, Serving when size >= majority st -> (st, [ Write_vector ])
  | Reset 0, Serving -> (st, []) (* no view yet: the member's wait rule retries *)
  | Lost, _ | Reset _, Serving -> begin_attempt st 0
  | Backed_off, Backing_off -> ({ st with phase = Joining }, [ Join ])
  | Joined { base; members }, Joining -> poll st ~base ~polls:0 ~members
  | Polled members, Polling { base; polls } -> poll st ~base ~polls:(polls + 1) ~members
  | Exchanged present, Exchanging { base; tries } -> decide st ~base ~tries present
  | Unanswered, Exchanging { base; tries } -> again st ~base ~tries
  | Fetched { changed; deleted }, Fetching { base; _ } ->
      ({ st with phase = Reinstalling { base } }, [ Reinstall { changed; deleted } ])
  | Fetch_failed, Fetching _ -> retry st
  | Reinstalled, Reinstalling { base } -> serve st ~base
  | Force, _ -> ({ st with forced = true }, [])
  | _ -> (st, [])
