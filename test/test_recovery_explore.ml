(* Exhaustive small-scope check of Fig. 6 recovery ([Dirsvc.Recovery.step])
   for three servers, without the simulator: no clock, only the order of
   inputs. Each server has a disk (its durable updates, the commit
   block's seqno, configuration vector and recovering flag) and a
   [Recovery.state], and the model carries out [step]'s actions as
   [Group_server]'s group thread does: one action per choice, a blocking
   one's outcome fed back. The servers share one group: a join finds it
   while any live server is a member, else creates it, and a member's
   crash breaks it under every serving member, which then resets to the
   live members once its group thread is back from its last action. An
   update ordered by a serving majority, through a member whose group
   thread is serving, is applied and made durable at once by every such
   member, and acknowledged; a member still recovering, or still
   carrying out its last action, holds it in memory and applies it when
   it serves. (The crash-point sweep covers a crash between two replicas'
   commits.) A reinstall takes two choices: first the commit-block write
   of a deleted directory, which records the donor's seqno with the
   recovering flag, then the rewritten directories, so a crash can fall
   between them. From every state the explorer branches on every
   enabled choice:
   - carry out a server's next action;
   - an exchange that a member does not answer (bounded);
   - a fetch that fails, its recovering flag already durable (bounded;
     one from a donor that is down fails at once, and one whose donor
     has not applied what the fetcher missed waits for it or times
     out);
   - a poll or an exchange that ends the attempt, whatever its count
     (the window's length and the number of retries are liveness knobs,
     so their counters are left out of the state);
   - a broken serving member's ResetGroup;
   - an update ordered by a serving majority (bounded);
   - a crash, a total failure and a restart (bounded).
   It checks:
   - Skeen safety: a server starts serving only from a donor that held
     every update ordered so far, that is, from one of the last servers
     to fail (no force is ever given, so none is exempt);
   - no acknowledged update is lost: after every step, every serving
     server holds every acknowledged update, and every disk a restart
     would trust holds every update its seqno counts;
   - liveness: from every state where no crash or total failure is
     left and the live servers form a majority whose pooled state lets
     Skeen's rule recover ([Skeen.decide] says [Recover]), a fault-free
     schedule timed by the actions' own delays gets every live server
     serving within [fair_steps] steps.
   It is a model for [Explore], which prints a shortest schedule to a
   violation. *)

module R = Dirsvc.Recovery
module S = Dirsvc.Skeen

let ids = [ 1; 2; 3 ]

let majority = 2

type disk = {
  stored : int list;  (** durable updates, oldest first *)
  seqno : int;  (** the seqno a boot reads back *)
  vector : int list;  (** the servers the configuration vector marks up *)
  flag : bool;  (** the recovering flag *)
}

type server = {
  alive : bool;
  disk : disk;
  st : R.state;
  todo : R.action list;  (** [step]'s actions not carried out yet *)
  half : bool;  (** the first half of a reinstall is on disk *)
  data : int list;  (** applied updates, oldest first *)
  useq : int;
  inbox : int list;  (** ordered in its group while it recovers *)
  member : bool;
  broken : bool;  (** serving, and its group lost a member: a reset is due *)
  donor : int;  (** whose state it holds: itself, or its last fetch's donor *)
}

(* The faults and updates a run may take, and those a world has taken. *)
type budget = {
  crashes : int;
  totals : int;
  restarts : int;
  losses : int;
  failures : int;
  orders : int;
}

type world = { ss : server array; spent : budget }

type choice =
  | Act of int
  | Lose of int  (** a member's exchange reply is lost *)
  | Fail_fetch of int
  | Give_up of int
  | Reset of int
  | Order of int
  | Crash of int
  | Total
  | Restart of int

let show_choice = function
  | Act i -> Printf.sprintf "Act %d" i
  | Lose i -> Printf.sprintf "Lose %d" i
  | Fail_fetch i -> Printf.sprintf "Fail_fetch %d" i
  | Give_up i -> Printf.sprintf "Give_up %d" i
  | Reset i -> Printf.sprintf "Reset %d" i
  | Order i -> Printf.sprintf "Order %d" i
  | Crash i -> Printf.sprintf "Crash %d" i
  | Total -> "Total"
  | Restart i -> Printf.sprintf "Restart %d" i

let violation = Explore.violation

let get w i = w.ss.(i - 1)

let set w i s =
  let ss = Array.copy w.ss in
  ss.(i - 1) <- s;
  { w with ss }

let serving s = s.alive && R.serving s.st

let members w = List.filter (fun i -> (get w i).alive && (get w i).member) ids

(* Every update ordered so far is acknowledged: 1 .. [spent.orders]. *)
let acked w = List.init w.spent.orders (fun k -> k + 1)

(* Feed [input] to server [i]'s [step]; its actions queue behind the
   ones not carried out yet. *)
let feed w i input =
  let s = get w i in
  let st, actions = R.step s.st input in
  set w i { s with st; todo = s.todo @ actions }

(* Pop server [i]'s next action, then [f] the world. *)
let pop w i f =
  let s = get w i in
  f (set w i { s with todo = List.tl s.todo })

(* A commit-block write: the vector marks the members of the view the
   server serves in, and stays as it was while the server recovers. *)
let write_block w i =
  let s = get w i in
  let vector = if R.serving s.st then members w else s.disk.vector in
  set w i { s with disk = { s.disk with seqno = s.useq; vector; flag = s.st.recovering } }

(* What server [j] answers an exchange, as [Group_server.peer_state]. *)
let peer_state w j =
  let s = get w j in
  {
    S.server = j;
    mourned = S.Int_set.of_list (List.filter (fun k -> not (List.mem k s.disk.vector)) ids);
    useq = s.useq;
    stayed_up = s.st.stayed_up;
    serving = serving s && List.length (members w) >= majority;
  }

let exchange w i =
  let others = List.filter (fun j -> j <> i) (members w) in
  R.Exchanged (peer_state w i :: List.map (peer_state w) others)

(* The donor answers once it has applied everything ordered before the
   fetcher joined, which the fetcher does not hold itself. *)
let fetchable w i donor =
  let d = get w donor in
  d.alive && List.for_all (fun u -> List.mem u (get w i).inbox) d.inbox

let reinstall_half w i =
  let s = get w i in
  set w i
    { s with half = true; disk = { s.disk with seqno = s.useq; flag = s.st.recovering } }

(* [Serve]: the commit-block write, then the updates the group ordered
   while the server recovered. *)
let serve w i =
  let s = get w i in
  (match List.find_opt (fun u -> not (List.mem u s.data || List.mem u s.inbox)) (acked w) with
  | Some u ->
      violation "server %d serves from donor %d, which lacked update %d (useq %d)" i s.donor u
        (get w s.donor).useq
  | None -> ());
  let data = s.data @ s.inbox in
  let useq = s.useq + List.length s.inbox in
  set w i
    { s with data; useq; inbox = []; disk = { stored = data; seqno = useq; vector = members w; flag = false } }

(* Carry out server [i]'s next action, each blocking one with its
   outcome when nothing fails; [None] when it cannot proceed yet. *)
let act w i =
  let s = get w i in
  match s.todo with
  | [] -> None
  | R.Leave :: _ -> Some (pop w i (fun w -> set w i { (get w i) with member = false; inbox = [] }))
  | Back_off _ :: _ -> Some (pop w i (fun w -> feed w i R.Backed_off))
  | Join :: _ ->
      if List.exists (fun j -> (get w j).broken) (members w) then None
      else
        Some
          (pop w i (fun w ->
               let w = set w i { (get w i) with member = true; inbox = []; donor = i } in
               feed w i (R.Joined { base = 0; members = List.length (members w) })))
  | Poll_in _ :: _ -> Some (pop w i (fun w -> feed w i (R.Polled (List.length (members w)))))
  | Exchange _ :: _ -> Some (pop w i (fun w -> feed w i (exchange w i)))
  | (Forced _ | Wait_last_set _) :: _ -> Some (pop w i Fun.id)
  | (Mark_recovering | Write_vector) :: _ -> Some (pop w i (fun w -> write_block w i))
  | Fetch { donor; _ } :: _ when not (get w donor).alive ->
      Some (pop w i (fun w -> feed w i R.Fetch_failed))
  | Fetch { donor; _ } :: _ when not (fetchable w i donor) -> None
  | Fetch { donor; _ } :: _ ->
        let d = get w donor in
        Some
          (pop w i (fun w ->
               let inbox = List.filter (fun u -> not (List.mem u d.data)) s.inbox in
               let w = set w i { (get w i) with data = d.data; useq = d.useq; inbox; donor } in
               feed w i (R.Fetched { changed = []; deleted = [] })))
  | Reinstall _ :: _ when not s.half -> Some (reinstall_half w i)
  | Reinstall _ :: _ ->
      Some
        (pop w i (fun w ->
             let s = get w i in
             let w = set w i { s with half = false; disk = { s.disk with stored = s.data } } in
             feed w i R.Reinstalled))
  | Serve _ :: _ -> Some (pop w i (fun w -> serve w i))

(* A crash loses memory; the group breaks under its serving members. *)
let crash w i =
  let s = get w i in
  let w =
    if s.member then
      List.fold_left
        (fun w j -> if j <> i && serving (get w j) then set w j { (get w j) with broken = true } else w)
        w (members w)
    else w
  in
  set w i
    { s with alive = false; member = false; inbox = []; todo = []; half = false; broken = false }

(* A restart reads the disk back; a set recovering flag zeroes the
   seqno, so nobody recovers from the mixed image. *)
let restart w i =
  let s = get w i in
  let useq = if s.disk.flag then 0 else s.disk.seqno in
  let st = R.init ~me:i ~all:ids in
  let s =
    { s with alive = true; st; todo = []; half = false; data = s.disk.stored; useq; inbox = []; donor = i }
  in
  feed (set w i s) i R.Lost

let order w =
  let u = w.spent.orders + 1 in
  let w = { w with spent = { w.spent with orders = u } } in
  List.fold_left
    (fun w j ->
      let s = get w j in
      if serving s && s.todo = [] then
        let data = s.data @ [ u ] in
        set w j { s with data; useq = s.useq + 1; disk = { s.disk with stored = data; seqno = s.useq + 1 } }
      else set w j { s with inbox = s.inbox @ [ u ] })
    w (members w)

let spend w f = { w with spent = f w.spent }

(* Run server [i]'s actions that no other server can observe: the end of
   a back-off, and the trace-only ones. They commute with every other
   choice, so taking them at once loses no interleaving. *)
let rec eager w i =
  match (get w i).todo with
  | (R.Back_off _ | Forced _ | Wait_last_set _) :: _ -> eager (Option.get (act w i)) i
  | _ -> w

(* Every enabled choice, with the step that takes it. *)
let successors (b : budget) w =
  let per_server i =
    let s = get w i in
    let when_ cond c f = if cond then [ (c, f) ] else [] in
    if not s.alive then
      when_ (w.spent.restarts < b.restarts) (Restart i) (fun () ->
          restart (spend w (fun p -> { p with restarts = p.restarts + 1 })) i)
    else
      (match act w i with Some w' -> [ (Act i, fun () -> eager w' i) ] | None -> [])
      @ (match s.todo with
        | Exchange _ :: _ ->
            when_ (w.spent.losses < b.losses && List.length (members w) > 1) (Lose i) (fun () ->
                let w = spend w (fun c -> { c with losses = c.losses + 1 }) in
                eager (pop w i (fun w -> feed w i R.Unanswered)) i)
        | Fetch { donor; _ } :: _ when (get w donor).alive ->
            (* A donor short of the fetcher's join point times out; one
               that could answer fails as a fault. *)
            let fault = fetchable w i donor in
            when_ ((not fault) || w.spent.failures < b.failures) (Fail_fetch i) (fun () ->
                let w = if fault then spend w (fun c -> { c with failures = c.failures + 1 }) else w in
                eager (pop w i (fun w -> feed w i R.Fetch_failed)) i)
        | _ -> [])
      @ (match s.todo with
        | Poll_in _ :: _ when List.length (members w) >= majority -> []
        | (Poll_in _ | Exchange _) :: _ ->
            (* The attempt ends at this poll or exchange, as it does once
               the window or the retries run out. *)
            let rec until_over w =
              match (get w i).todo with
              | [ R.Poll_in _ ] -> until_over (pop w i (fun w -> feed w i (R.Polled 1)))
              | [ R.Exchange _ ] -> until_over (pop w i (fun w -> feed w i R.Unanswered))
              | _ -> eager w i
            in
            [ (Give_up i, fun () -> until_over w) ]
        | _ -> [])
      @ when_ (serving s && s.broken && s.todo = []) (Reset i) (fun () ->
            let w = set w i { s with broken = false } in
            feed w i (R.Reset (List.length (members w))))
      @ when_
          (serving s && s.todo = [] && w.spent.orders < b.orders
          && List.length (members w) >= majority
          && not (List.exists (fun j -> (get w j).broken) (members w)))
          (Order i) (fun () -> order w)
      @ when_ (w.spent.crashes < b.crashes) (Crash i) (fun () ->
            crash (spend w (fun c -> { c with crashes = c.crashes + 1 })) i)
  in
  List.concat_map per_server ids
  @
  if w.spent.totals < b.totals && Array.exists (fun s -> s.alive) w.ss then
    [
      ( Total,
        fun () ->
          List.fold_left
            (fun w i -> if (get w i).alive then crash w i else w)
            (spend w (fun c -> { c with totals = c.totals + 1 }))
            ids );
    ]
  else []

(* Safety: no acknowledged update is lost. Every serving server holds
   each, and a disk a restart would trust holds every update its seqno
   counts (the [k]-th update ordered is the one at seqno [k]). *)
let check_safe w =
  List.iter
    (fun i ->
      let s = get w i in
      if serving s then
        List.iter
          (fun u ->
            if not (List.mem u s.data || List.mem u s.inbox) then
              violation "serving server %d lacks acknowledged update %d" i u)
          (acked w);
      if not s.disk.flag then
        for u = 1 to s.disk.seqno do
          if not (List.mem u s.disk.stored) then
            violation "server %d's disk claims seqno %d without update %d and is trusted" i
              s.disk.seqno u
        done)
    ids

let settled w = Array.for_all (fun s -> (not s.alive) || (serving s && s.todo = [] && not s.broken)) w.ss

let fair_steps = 400

(* A join collects grants this long ([Group.Member]'s join window), and
   a donor gives up on reaching a fetcher's join point after this long
   ([Group_server]'s quiesce timeout). *)
let join_ms = 5.0

let quiesce_ms = 4000.0

(* The fault-free schedule, timed by the actions' own delays: back-off,
   poll and exchange gap as [step] sets them, a join's window, a fetch's
   quiesce timeout, and nothing else. Each turn the server whose reset
   or next action can proceed soonest takes it (the lowest id on a tie),
   so the stagger of the back-offs is what desynchronises concurrent
   joiners, as in the simulator. *)
let rec fair w ~now ~started n =
  if settled w then w
  else if n = 0 then violation "the live servers do not all serve within %d fair steps" fair_steps
  else
    let next i =
      let s = get w i in
      let delay =
        match s.todo with
        | (R.Back_off ms | Poll_in ms | Exchange ms) :: _ -> ms
        | Join :: _ -> join_ms
        | _ -> 0.0
      in
      let at = Float.max now (started.(i - 1) +. delay) in
      if not s.alive then None
      else if serving s && s.broken && s.todo = [] then
        Some (at, feed (set w i { s with broken = false }) i (R.Reset (List.length (members w))))
      else
        match (act w i, s.todo) with
        | Some w, _ -> Some (at, w)
        | None, Fetch _ :: _ ->
            Some (started.(i - 1) +. quiesce_ms, pop w i (fun w -> feed w i R.Fetch_failed))
        | None, _ -> None
    in
    let soonest best i =
      match (best, next i) with
      | Some (_, t, _), Some (t', w) when t' < t -> Some (i, t', w)
      | None, Some (t', w) -> Some (i, t', w)
      | best, _ -> best
    in
    match List.fold_left soonest None ids with
    | Some (i, now, w) ->
        let started = Array.copy started in
        started.(i - 1) <- now;
        fair w ~now ~started (n - 1)
    | None -> violation "the live servers are stuck short of serving"

let fair w = fair w ~now:0.0 ~started:(Array.make 3 0.0) fair_steps

(* Safety in every state, and liveness once no crash is left: if the
   live servers' pooled state lets Skeen's rule recover, the fair
   schedule gets them all serving. *)
let check (b : budget) w =
  check_safe w;
  let live = List.filter (fun i -> (get w i).alive) ids in
  if w.spent.crashes = b.crashes && w.spent.totals = b.totals && List.length live >= majority then
    match S.decide ~all:ids ~present:(List.map (peer_state w) live) with
    | S.Recover _ -> ignore (fair w)
    | S.Wait_for _ | S.No_majority -> ()

(* Attempts, poll counts and exchange tries only time the retries: they
   are left out of the state the explorer keys on. *)
let canon w =
  let mask s =
    let phase =
      match s.st.phase with
      | R.Polling p -> R.Polling { p with polls = 0 }
      | Exchanging p -> Exchanging { p with tries = 0 }
      | p -> p
    in
    let todo =
      List.map
        (function R.Back_off _ -> R.Back_off 0.0 | Serve p -> Serve { p with attempt = 0 } | a -> a)
        s.todo
    in
    { s with st = { s.st with phase; attempt = 0 }; todo }
  in
  (* A crashed server's memory is gone: a restart reads the disk. *)
  let mask i s =
    if s.alive then mask s else { s with st = R.init ~me:i ~all:ids; data = []; useq = 0; donor = i }
  in
  { w with ss = Array.mapi (fun k s -> mask (k + 1) s) w.ss }

(* Three servers booted on fresh disks, carried by the fair schedule to
   serving in one view. *)
let initial =
  let disk = { stored = []; seqno = 0; vector = ids; flag = false } in
  let fresh i =
    {
      alive = true;
      disk;
      st = R.init ~me:i ~all:ids;
      todo = [];
      half = false;
      data = [];
      useq = 0;
      inbox = [];
      member = false;
      broken = false;
      donor = i;
    }
  in
  let none = { crashes = 0; totals = 0; restarts = 0; losses = 0; failures = 0; orders = 0 } in
  let booted = { ss = Array.of_list (List.map fresh ids); spent = none } in
  fair (List.fold_left (fun w i -> feed w i R.Lost) booted ids)

include Explore.Make (struct
  type nonrec state = world and choice = choice and bounds = budget

  let initial = initial and canon = canon and successors = successors and show_choice = show_choice
  let expand_canon = false (* the masked counters drive [step] and [fair] *)
  let check b w ~dead_end:_ = check b w
end)

(* [dune runtest]'s bound: a rejoin (one crash and its restart) with one
   update, one total failure and the restarts it needs, and one
   unanswered exchange. It flags a recovering server whose commit-block
   writes mark only itself up (it would mourn every other server), and
   an exchange that goes on without a member that did not answer.
   [@crash-slow]'s bound adds a failed fetch. *)
let small = { crashes = 1; totals = 1; restarts = 3; losses = 1; failures = 0; orders = 1 }

let wide = { small with failures = 1 }

(* Past the bound, with a second total failure, the explorer loses an
   acknowledged update. Update 1 is durable on server 3 only (server 2
   held it in memory behind its vector write). After the first total
   failure server 2 takes 3 as its donor and fetches it; server 3's own
   exchange then sees 2 at the same seqno and, ties going to the lowest
   id, takes 2 as its donor and sets its own recovering flag. The second
   total failure falls while 2 rewrites its directories: both restart
   flagged at seqno 0, and 3 adopts 2's image, which lacks the update. A
   recovering server advertises the seqno of a state it has fetched but
   not made durable. This pins the finding until that is closed. *)
let cross_fetch =
  [
    Crash 1; Reset 2; Reset 3; Act 3; Order 3; Total; Restart 2; Act 2; Act 2; Restart 3; Act 3;
    Act 3; Act 2; Act 2; Act 2; Act 2; Act 3; Act 3; Total; Restart 2; Restart 3;
  ]

let test_cross_fetch () =
  replays_to { small with totals = 2; restarts = 4; losses = 0 } cross_fetch
    ~expected:"server 3 serves from donor 2, which lacked update 1 (useq 0)"
    ~fixed:"the known cross fetch no longer loses the update: add a second total failure to the bounds"

let suite =
  [
    Alcotest.test_case "every interleaving, small bound" `Quick (run small ~states:535_985);
    Alcotest.test_case "two total failures: the known cross fetch replays" `Quick test_cross_fetch;
  ]

let slow_suite =
  [ Alcotest.test_case "every interleaving, failed fetches too" `Quick (run wide ~states:1_321_718) ]
