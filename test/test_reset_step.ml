(* [Group.Reset.step] as a table: every status against every input, the
   status each ends in and the kinds of action it asks for. The states
   are reached through [step] itself from [init]; the explorer starts
   every member [Normal] in view 1, so the [Idle] and [Left] rows are
   covered here only. *)

module R = Group.Reset
open Group.Types

let view1 = { instance = 1; view = 1; coord = 2 }

let granted = { R.epoch = view1; members = [ 1; 2; 3 ]; sequencer = 2; base = 0 }

(* The view member 3 commits after inviting member 1 to view 2. *)
let committed =
  { R.epoch = { view1 with view = 2; coord = 3 }; members = [ 1; 3 ]; sequencer = 1; base = 0 }

let step st input = fst (R.step st input)

let idle = R.init ~me:1 ~fail_timeout:80.0

let normal = step idle (R.Adopt granted)

let broken = step normal (R.Suspect { now = 10.0; epoch = view1; reason = "r"; tell = true })

let resetting =
  step normal (R.Invite { instance = 1; now = 10.0; contig = 0; view = 2; coord = 3 })

let left = step normal (R.Depart "d")

let statuses =
  [ ("idle", idle); ("normal", normal); ("broken", broken); ("resetting", resetting); ("left", left) ]

let inputs =
  [
    ("adopt", R.Adopt { granted with epoch = { view1 with instance = 2 } });
    ("suspect", R.Suspect { now = 20.0; epoch = view1; reason = "r"; tell = true });
    ("fail", R.Suspect { now = 20.0; epoch = view1; reason = "r"; tell = false });
    ("stale fail", R.Suspect { now = 20.0; epoch = { view1 with view = 0 }; reason = "r"; tell = false });
    ("depart", R.Depart "d");
    ("start", R.Start { now = 20.0; contig = 0 });
    ("invite", R.Invite { instance = 1; now = 20.0; contig = 0; view = 5; coord = 2 });
    ("state", R.State { instance = 1; view = 2; member = 2; have = 0 });
    ("entries", R.Entries { instance = 1; src = 2; reach = 0 });
    ("commit", R.Commit { coord = 3; view = committed; reach = 0 });
    ("expired", R.Expired { contig = 0 });
    ("tick", R.Tick { now = 1000.0 });
  ]

let kind = function
  | R.Invite_all _ -> "invite_all"
  | Send_state _ -> "send_state"
  | Fetch _ -> "fetch"
  | Take -> "take"
  | Arm _ -> "arm"
  | Send_commits _ -> "send_commits"
  | Install _ -> "install"
  | Adopt_view _ -> "adopt_view"
  | Failed -> "failed"
  | Break _ -> "break"
  | Tell _ -> "tell"
  | Fail_sends _ -> "fail_sends"
  | Halt -> "halt"

(* One row per status, one column per input in [inputs]' order. A view
   is adopted only from [Idle]; suspicion counts only from [Normal] and
   only in the installed view; departure works from any status; nothing
   moves a member once [Left]. *)
let table =
  [
    ( "idle",
      [ "normal adopt_view"; "-"; "-"; "-"; "left halt fail_sends"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ] );
    ( "normal",
      [
        "-"; "broken break tell"; "broken break"; "-"; "left halt fail_sends";
        "resetting invite_all arm fail_sends"; "resetting send_state fail_sends"; "-"; "-"; "-"; "-";
        "-";
      ] );
    ( "broken",
      [
        "-"; "-"; "-"; "-"; "left halt fail_sends"; "resetting invite_all arm";
        "resetting send_state"; "-"; "-"; "-"; "-"; "broken failed";
      ] );
    ( "resetting",
      [
        "-"; "-"; "-"; "-"; "left halt fail_sends"; "resetting invite_all arm";
        "resetting send_state"; "-"; "-"; "normal install"; "-"; "resetting failed";
      ] );
    ("left", [ "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]);
  ]

let test_table () =
  let name (st : R.state) = status_to_string st.status in
  List.iter (fun (status, st) -> Alcotest.(check string) "fixture status" status (name st)) statuses;
  Explore.check_table ~step:R.step ~name ~kind ~inputs statuses table

(* The grant joiner 4 of five adopts. Member 1 rejoined under sequencer
   3, so a tie goes by the grants' order: the rule compares a grant's
   lowest member with the best-so-far grant's sequencer. *)
let test_choose_grant () =
  let grant sequencer members = { granted with members; sequencer } in
  let a = grant 3 [ 1; 3 ] and b = grant 2 [ 2; 5 ] in
  let chosen grants =
    Option.map (fun (v : R.view) -> (v.sequencer, v.members)) (R.choose_grant ~me:4 grants)
  in
  Alcotest.(check (list (option (pair int (list int)))))
    "none; the largest group; a tie, either order; a member already"
    [ None; Some (2, [ 1; 2; 4; 5 ]); Some (2, [ 2; 4; 5 ]); Some (3, [ 1; 3; 4 ]); Some (2, [ 2; 4 ]) ]
    (List.map chosen [ []; [ a; grant 2 [ 1; 2; 5 ] ]; [ a; b ]; [ b; a ]; [ grant 2 [ 2; 4 ] ] ])

let suite =
  [
    Alcotest.test_case "every status against every input" `Quick test_table;
    Alcotest.test_case "join grant: the largest group, ties by order" `Quick test_choose_grant;
  ]
