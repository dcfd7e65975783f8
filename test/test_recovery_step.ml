(* [Dirsvc.Recovery.step] as a table: every phase against every input,
   the phase each ends in and the kinds of action it asks for. The
   states are reached through [step] itself from [init], for server 1
   of three; a phase marked [*] carries the recovering flag. Then the
   retry constants, as the actions carry them. *)

module R = Dirsvc.Recovery
module S = Dirsvc.Skeen

let peer server ~useq =
  { S.server; mourned = S.Int_set.empty; useq; stayed_up = false; serving = false }

let step st input = fst (R.step st input)

let booting = R.init ~me:1 ~all:[ 1; 2; 3 ]

let backing_off = step booting R.Lost

let joining = step backing_off R.Backed_off

let polling = step joining (R.Joined { base = 4; members = 1 })

let exchanging = step polling (R.Polled 2)

let forced = step exchanging R.Force

(* Server 2 holds the most: it is the donor. *)
let fetching = step exchanging (R.Exchanged [ peer 1 ~useq:3; peer 2 ~useq:5; peer 3 ~useq:3 ])

let reinstalling = step fetching (R.Fetched { changed = [ 1 ]; deleted = [] })

let serving = step reinstalling R.Reinstalled

let phases =
  [
    ("booting", booting); ("backing_off", backing_off); ("joining", joining);
    ("polling", polling); ("exchanging", exchanging); ("forced", forced);
    ("fetching", fetching); ("reinstalling", reinstalling); ("serving", serving);
  ]

let inputs =
  [
    ("lost", R.Lost);
    ("reset 2", R.Reset 2);
    ("reset 1", R.Reset 1);
    ("reset 0", R.Reset 0);
    ("backed off", R.Backed_off);
    ("joined 2", R.Joined { base = 4; members = 2 });
    ("joined 1", R.Joined { base = 4; members = 1 });
    ("polled 2", R.Polled 2);
    ("polled 1", R.Polled 1);
    ("own data", R.Exchanged [ peer 1 ~useq:5; peer 2 ~useq:3; peer 3 ~useq:3 ]);
    ("donor 2", R.Exchanged [ peer 1 ~useq:3; peer 2 ~useq:5; peer 3 ~useq:3 ]);
    ("last set out", R.Exchanged [ peer 1 ~useq:3; peer 2 ~useq:5 ]);
    ("no majority", R.Exchanged [ peer 1 ~useq:3 ]);
    ("unanswered", R.Unanswered);
    ("fetched", R.Fetched { changed = [ 1 ]; deleted = [ 2 ] });
    ("fetch failed", R.Fetch_failed);
    ("reinstalled", R.Reinstalled);
    ("force", R.Force);
  ]

let phase_name (st : R.state) =
  (match st.phase with
  | R.Booting -> "booting"
  | Backing_off -> "backing_off"
  | Joining -> "joining"
  | Polling _ -> "polling"
  | Exchanging _ -> "exchanging"
  | Fetching _ -> "fetching"
  | Reinstalling _ -> "reinstalling"
  | Serving -> "serving")
  ^ if st.recovering then "*" else ""

let kind = function
  | R.Leave -> "leave"
  | Back_off _ -> "back_off"
  | Join -> "join"
  | Poll_in _ -> "poll_in"
  | Exchange _ -> "exchange"
  | Forced _ -> "forced"
  | Mark_recovering -> "mark_recovering"
  | Fetch _ -> "fetch"
  | Reinstall _ -> "reinstall"
  | Serve _ -> "serve"
  | Wait_last_set _ -> "wait_last_set"
  | Write_vector -> "write_vector"

(* One row per phase, one column per input in [inputs]' order. [Lost]
   starts an attempt from any phase and the force is taken in any; every
   other input counts only in the phase that waits for it. The
   recovering flag, once set, stays through a new attempt until the
   server serves. *)
let table =
  [
    ( "booting",
      [
        "backing_off leave back_off"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-";
        "-"; "-"; "-"; "-"; "booting";
      ] );
    ( "backing_off",
      [
        "backing_off leave back_off"; "-"; "-"; "-"; "joining join"; "-"; "-"; "-"; "-"; "-";
        "-"; "-"; "-"; "-"; "-"; "-"; "-"; "backing_off";
      ] );
    ( "joining",
      [
        "backing_off leave back_off"; "-"; "-"; "-"; "-"; "exchanging exchange";
        "polling poll_in"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "joining";
      ] );
    ( "polling",
      [
        "backing_off leave back_off"; "-"; "-"; "-"; "-"; "-"; "-"; "exchanging exchange";
        "polling poll_in"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "polling";
      ] );
    ( "exchanging",
      [
        "backing_off leave back_off"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "serving serve";
        "fetching* mark_recovering fetch"; "exchanging wait_last_set exchange";
        "backing_off leave back_off"; "exchanging exchange"; "-"; "-"; "-"; "exchanging";
      ] );
    ( "forced",
      [
        "backing_off leave back_off"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "serving serve";
        "fetching* mark_recovering fetch"; "fetching* forced mark_recovering fetch";
        "backing_off leave back_off"; "exchanging exchange"; "-"; "-"; "-"; "-";
      ] );
    ( "fetching",
      [
        "backing_off* leave back_off"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-";
        "-"; "-"; "reinstalling* reinstall"; "backing_off* leave back_off"; "-"; "fetching*";
      ] );
    ( "reinstalling",
      [
        "backing_off* leave back_off"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-";
        "-"; "-"; "-"; "-"; "serving serve"; "reinstalling*";
      ] );
    ( "serving",
      [
        "backing_off leave back_off"; "serving write_vector"; "backing_off leave back_off"; "-";
        "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "serving";
      ] );
  ]

let test_table () = Explore.check_table ~step:R.step ~name:phase_name ~kind ~inputs phases table

(* The liveness knobs as the actions carry them: back-off [10 + 7·id +
   13·attempt] ms; a poll every 15 ms while polls · 15 <= 500, then the
   next attempt; seven more exchanges 60 ms apart, then the next
   attempt. *)
let test_constants () =
  let back_off (_, actions) =
    List.find_map (function R.Back_off ms -> Some ms | _ -> None) actions
  in
  Alcotest.(check (option (float 0.0))) "first back-off" (Some 17.0) (back_off (R.step booting R.Lost));
  let rec polls st n =
    match R.step st (R.Polled 1) with
    | st', [ R.Poll_in 15.0 ] -> polls st' (n + 1)
    | st', actions ->
        Alcotest.(check int) "the poll that gives up" 34 n;
        Alcotest.(check (option (float 0.0))) "second back-off" (Some 30.0) (back_off (st', actions));
        Alcotest.(check int) "attempt" 1 st'.R.attempt
  in
  polls polling 1;
  let missing = R.Exchanged [ peer 1 ~useq:3; peer 2 ~useq:5 ] in
  let rec exchanges st n =
    match R.step st missing with
    | st', [ R.Wait_last_set _; R.Exchange 60.0 ] -> exchanges st' (n + 1)
    | st', actions ->
        Alcotest.(check int) "the exchange that gives up" 8 n;
        Alcotest.(check (option (float 0.0))) "back-off" (Some 30.0) (back_off (st', actions))
  in
  exchanges exchanging 1

(* Serving clears the flag and the force, and counts as having stayed
   up; a failed fetch keeps the flag through the next attempt. *)
let test_flags () =
  Alcotest.(check (list bool)) "serving: stayed up, not recovering, not forced"
    [ true; false; false ] [ serving.stayed_up; serving.recovering; serving.forced ];
  let retried = step fetching R.Fetch_failed in
  Alcotest.(check bool) "a failed fetch keeps the flag" true retried.recovering;
  let own = step retried R.Backed_off in
  let own = step own (R.Joined { base = 6; members = 3 }) in
  match R.step own (R.Exchanged [ peer 1 ~useq:5; peer 2 ~useq:3; peer 3 ~useq:3 ]) with
  | st, [ R.Serve { base = 6; attempt = 1 } ] ->
      Alcotest.(check bool) "serving from its own data clears it" false st.recovering
  | _ -> Alcotest.fail "expected to serve from its own data"

let suite =
  [
    Alcotest.test_case "every phase against every input" `Quick test_table;
    Alcotest.test_case "retry constants" `Quick test_constants;
    Alcotest.test_case "recovering flag and stayed_up" `Quick test_flags;
  ]
