(* Tests for Skeen's last-to-fail recovery predicate — including the
   paper's §3.2 worked examples. *)

module S = Dirsvc.Skeen

let all = [ 1; 2; 3 ]

let peer ?(stayed_up = false) ?(serving = false) server ~mourned ~useq =
  { S.server; mourned = S.Int_set.of_list mourned; useq; stayed_up; serving }

let check_verdict = Alcotest.testable
  (fun fmt -> function
    | S.Recover { donor; _ } -> Format.fprintf fmt "Recover(donor=%d)" donor
    | S.Wait_for missing ->
        Format.fprintf fmt "Wait_for[%s]"
          (String.concat "," (List.map string_of_int (S.Int_set.elements missing)))
    | S.No_majority -> Format.fprintf fmt "No_majority")
  (fun a b ->
    match (a, b) with
    | S.Recover { donor = d1; _ }, S.Recover { donor = d2; _ } -> d1 = d2
    | S.Wait_for m1, S.Wait_for m2 -> S.Int_set.equal m1 m2
    | S.No_majority, S.No_majority -> true
    | _ -> false)

(* Paper §3.2: "server 3 crashes; 1 and 2 rebuild (vectors 110); both 1
   and 2 crash; server 1 comes up again: on its own it cannot form a
   group." *)
let test_single_server_no_majority () =
  Alcotest.check check_verdict "1 alone" S.No_majority
    (S.decide ~all ~present:[ peer 1 ~mourned:[ 3 ] ~useq:10 ])

(* "If server 3 also comes up, it may appear that 1 and 3 can form a
   group... however server 2 may have performed the latest update." *)
let test_one_and_three_must_wait () =
  Alcotest.check check_verdict "1+3 wait for 2" (S.Wait_for (S.Int_set.singleton 2))
    (S.decide ~all
       ~present:
         [ peer 1 ~mourned:[ 3 ] ~useq:10; peer 3 ~mourned:[] ~useq:7 ])

(* "Now assume server 2 comes up instead of 3. Vectors of both read 110:
   3 crashed before them, no update happened after they crashed, so they
   can recover; the sequence number determines who has the latest
   version." *)
let test_one_and_two_recover () =
  Alcotest.check check_verdict "1+2 recover from 2"
    (S.Recover { donor = 2; last_set = S.Int_set.empty })
    (S.decide ~all
       ~present:
         [ peer 1 ~mourned:[ 3 ] ~useq:10; peer 2 ~mourned:[ 3 ] ~useq:11 ]);
  (* Donor selection follows the highest sequence number. *)
  Alcotest.check check_verdict "1+2 recover from 1"
    (S.Recover { donor = 1; last_set = S.Int_set.empty })
    (S.decide ~all
       ~present:
         [ peer 1 ~mourned:[ 3 ] ~useq:12; peer 2 ~mourned:[ 3 ] ~useq:11 ])

(* The improvement: "server 3 crashes; 1 and 2 form a new group; 2
   crashes. If server 1 stays alive and 3 is restarted, 1 and 3 can form
   a new group, because 1 must have all updates 2 could have
   performed." *)
let test_improved_rule_stayed_up () =
  Alcotest.check check_verdict "1 stayed up with max seqno"
    (S.Recover { donor = 1; last_set = S.Int_set.empty })
    (S.decide ~all
       ~present:
         [
           peer 1 ~stayed_up:true ~mourned:[ 3 ] ~useq:20;
           peer 3 ~mourned:[] ~useq:7;
         ])

(* The improved rule must NOT fire for a server that was restarted (it
   may have missed updates), nor for a stayed-up server without the
   highest sequence number. *)
let test_improved_rule_guards () =
  Alcotest.check check_verdict "restarted server does not qualify"
    (S.Wait_for (S.Int_set.singleton 2))
    (S.decide ~all
       ~present:
         [ peer 1 ~mourned:[ 3 ] ~useq:20; peer 3 ~mourned:[] ~useq:7 ]);
  Alcotest.check check_verdict "stayed-up without max seqno does not qualify"
    (S.Wait_for (S.Int_set.singleton 2))
    (S.decide ~all
       ~present:
         [
           peer 1 ~stayed_up:true ~mourned:[ 3 ] ~useq:5;
           peer 3 ~mourned:[] ~useq:7;
         ])

let test_full_group_recovers () =
  Alcotest.check check_verdict "all three present"
    (S.Recover { donor = 2; last_set = S.Int_set.empty })
    (S.decide ~all
       ~present:
         [
           peer 1 ~mourned:[] ~useq:3;
           peer 2 ~mourned:[] ~useq:9;
           peer 3 ~mourned:[] ~useq:9;
         ])
(* note: donor ties break to the lowest id *)

let test_mourned_of_vector () =
  let mourned = S.mourned_of_vector [| true; false; true |] in
  Alcotest.(check (list int)) "vector 101 mourns 2" [ 2 ]
    (S.Int_set.elements mourned)

let safety_property =
  (* If the verdict is Recover, then either the last set is covered, or
     a stayed-up member holds the maximum seqno, and the donor is
     [S.donor] of the serving peers if any serve, else of all present.
     Never recover without a majority. *)
  QCheck.Test.make ~name:"recover verdicts are always justified" ~count:500
    QCheck.(
      list_of_size Gen.(1 -- 3)
        (quad (int_bound 2) (list_of_size Gen.(0 -- 2) (int_range 1 3))
           (int_bound 30) bool))
    (fun raw ->
      let present =
        List.mapi
          (fun i (server_offset, mourned, useq, stayed_up) ->
            ignore server_offset;
            peer (i + 1) ~mourned ~useq ~stayed_up)
          raw
      in
      (* Deduplicate server ids (mapi already makes them unique). *)
      match S.decide ~all ~present with
      | S.No_majority -> List.length present < 2
      | S.Wait_for missing -> not (S.Int_set.is_empty missing)
      | S.Recover { donor; last_set } ->
          let here = List.map (fun p -> p.S.server) present in
          let covered = S.Int_set.for_all (fun s -> List.mem s here) last_set in
          let max_useq =
            List.fold_left (fun m p -> max m p.S.useq) min_int present
          in
          let improved =
            List.exists (fun p -> p.S.stayed_up && p.S.useq = max_useq) present
          in
          let serving = List.filter (fun p -> p.S.serving) present in
          List.length present >= 2
          && (covered || improved)
          && List.exists
               (fun p -> p.S.server = donor && p.S.useq = max_useq)
               present
          && Option.map
               (fun p -> p.S.server)
               (S.donor (if serving = [] then present else serving))
             = Some donor)

(* A rebooted server with an inflated (uncommitted-suffix) sequence
   number must NOT become donor when an operating majority exists. *)
let test_serving_majority_is_authoritative () =
  Alcotest.check check_verdict "serving peer wins despite lower useq"
    (S.Recover { donor = 2; last_set = S.Int_set.empty })
    (S.decide ~all
       ~present:
         [
           peer 1 ~mourned:[] ~useq:99 (* rebooted, suffix-inflated *);
           peer 2 ~serving:true ~mourned:[] ~useq:7;
           peer 3 ~serving:true ~mourned:[] ~useq:7;
         ]);
  (* Among several serving peers, the highest-useq one donates. *)
  Alcotest.check check_verdict "highest-useq serving peer"
    (S.Recover { donor = 3; last_set = S.Int_set.empty })
    (S.decide ~all
       ~present:
         [
           peer 1 ~mourned:[] ~useq:0;
           peer 2 ~serving:true ~mourned:[] ~useq:7;
           peer 3 ~serving:true ~mourned:[] ~useq:8;
         ])

let suite =
  let tc = Alcotest.test_case in
  [
    tc "serving majority is authoritative" `Quick
      test_serving_majority_is_authoritative;
    tc "single server: no majority" `Quick test_single_server_no_majority;
    tc "1+3 must wait for 2 (paper scenario)" `Quick test_one_and_three_must_wait;
    tc "1+2 recover, donor by seqno (paper scenario)" `Quick
      test_one_and_two_recover;
    tc "improved rule: stayed-up server" `Quick test_improved_rule_stayed_up;
    tc "improved rule guards" `Quick test_improved_rule_guards;
    tc "full group recovers" `Quick test_full_group_recovers;
    tc "mourned from config vector" `Quick test_mourned_of_vector;
    QCheck_alcotest.to_alcotest safety_property;
  ]
