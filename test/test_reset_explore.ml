(* Exhaustive small-scope check of group membership ([Group.Reset.step]:
   ResetGroup, suspicion, join) for three members, without the
   simulator: no clock, only the order of inputs. Each member is its
   membership state, its store of ordered entries and its contiguous
   prefix; an entry is named by the view that ordered it and a unique
   id. The model carries out [step]'s actions as [Member] does. From
   every global state the explorer branches on every enabled choice:
   - deliver any packet in flight, or lose it (a bounded number);
   - crash a member (bounded);
   - fire a member's armed reset timer;
   - fire the wait rule at a member outside [Normal];
   - [Start] a member that holds a failure (bounded);
   - suspect a [Normal] member, as its failure detector may at any time;
   - have a [Normal] sequencer order one new entry (bounded);
   - restart a crashed member, which asks to join (bounded);
   - close a joiner's grant window.
   Time enters in one place: a member's wait rule cannot fire while the
   coordinator it answered still has its own timer armed (the rule
   waits two windows longer than any attempt). It checks:
   - at most one view is installed per epoch (instance, view and
     coordinator), with the base and members its coordinator sent;
   - views that share an instance and view number never share a
     member, so at most one of them can hold a majority;
   - no member installs a view whose base lies below an entry it has
     delivered (the view's sequencer would reuse that seqno);
   - a member that installs a view then holds every entry the members
     the view was built from had delivered when they answered
     (uniform agreement across the reset);
   - integrity and total order of every member's deliveries, a
     rejoined member's before its crash included;
   - at a dead end, every live member outside [Normal] and [Left]
     holds a failure (liveness without clocks: its owner resets
     again).
   It is a model for [Explore], which prints a shortest schedule to a
   violation. *)

module R = Group.Reset
open Group.Types

(* Ordered in view [tag]. A [Join_member] names its [joiner] (0 for an
   application entry) and has uid [10 * sequencer + joiner]. *)
type entry = { tag : int; uid : int; joiner : int }

let name e = Printf.sprintf "%s%d" (if e.joiner > 0 then "j" else "e") e.uid

type msg =
  | Data of { epoch : epoch; seqno : int; entry : entry }
  | Fail of { epoch : epoch }
  | Invite of { instance : int; view : int; coord : int }
  | State of { instance : int; view : int; member : int; have : int }
  | Fetch of { instance : int; from : int; upto : int }
  | Entries of { instance : int; entries : (int * entry) list }
  | Commit of { view : R.view; patch : (int * entry) list }
  | Join_req
  | Grant of { epoch : epoch; members : int list; base : int }

let show_msg = function
  | Data { seqno; entry; _ } -> Printf.sprintf "data %d = %s" seqno (name entry)
  | Fail { epoch } -> Printf.sprintf "fail v%d" epoch.view
  | Invite { view; _ } -> Printf.sprintf "invite v%d" view
  | State { view; have; _ } -> Printf.sprintf "state v%d have %d" view have
  | Fetch { from; upto; _ } -> Printf.sprintf "fetch %d..%d" from upto
  | Entries { entries; _ } -> Printf.sprintf "entries x%d" (List.length entries)
  | Commit { view; _ } -> Printf.sprintf "commit v%d base %d" view.epoch.view view.base
  | Join_req -> "join"
  | Grant { base; _ } -> Printf.sprintf "grant base %d" base

type packet = { src : int; dst : int; msg : msg }

type member = {
  st : R.state;
  store : (int * entry) list;  (** held entries by seqno, sorted *)
  contig : int;
  log : (int * entry) list;  (** delivered, by seqno *)
  members : int list;
  sequencer : int;
  alive : bool;
  failed : bool;  (** holds a [Failed] *)
  armed : bool;  (** the reset timer *)
  floor : int;
      (** a joiner's base: the entries up to it come by the application's
          state transfer, not by the group *)
  joining : bool;  (** collecting grants *)
  grants : R.view list;  (** newest first *)
  stash : (epoch * int * entry) list;  (** data overheard while joining *)
}

(* A view as its coordinator ([view.epoch.coord]) committed it, with the
   (member, have_upto) states it was built from. *)
type committed = { view : R.view; states : (int * int) list }

type world = {
  ms : member array;  (** member [i] at index [i - 1] *)
  flight : packet list;
  losses : int;
  crashes : int;
  ordered : int;
  starts : int;
  suspicions : int;
  rejoins : int;
  views : committed list;
  retired : (int * (int * entry) list) list;
      (** the deliveries of each member's incarnation before a rejoin *)
}

type bounds = {
  losses : int;
  crashes : int;
  entries : int;
  starts : int;
  suspicions : int;
  rejoins : int;
}

type choice =
  | Deliver of (int * int * string)
  | Lose of (int * int * string)
  | Crash of int
  | Fire of int
  | Wait_rule of int
  | Start of int
  | Suspect of int
  | Order of int
  | Rejoin of int
  | Close_join of int

let show_choice = function
  | Deliver (s, d, m) -> Printf.sprintf "Deliver (%d, %d, %S)" s d m
  | Lose (s, d, m) -> Printf.sprintf "Lose (%d, %d, %S)" s d m
  | Crash m -> Printf.sprintf "Crash %d" m
  | Fire m -> Printf.sprintf "Fire %d" m
  | Wait_rule m -> Printf.sprintf "Wait_rule %d" m
  | Start m -> Printf.sprintf "Start %d" m
  | Suspect m -> Printf.sprintf "Suspect %d" m
  | Order m -> Printf.sprintf "Order %d" m
  | Rejoin m -> Printf.sprintf "Rejoin %d" m
  | Close_join m -> Printf.sprintf "Close_join %d" m

let ids = [ 1; 2; 3 ]

(* A member as it boots, in no group. *)
let fresh id =
  {
    st = R.init ~me:id ~fail_timeout:80.0;
    store = [];
    contig = 0;
    log = [];
    members = [];
    sequencer = 0;
    alive = true;
    failed = false;
    armed = false;
    floor = 0;
    joining = false;
    grants = [];
    stash = [];
  }

let violation = Explore.violation

let held m seqno = List.mem_assoc seqno m.store

(* Deliver what became contiguous; a [Join_member] adds its joiner. *)
let rec advance m =
  match List.assoc_opt (m.contig + 1) m.store with
  | Some e ->
      let members =
        if e.joiner = 0 || List.mem e.joiner m.members then m.members
        else List.sort compare (e.joiner :: m.members)
      in
      advance { m with contig = m.contig + 1; log = m.log @ [ (m.contig + 1, e) ]; members }
  | None -> m

(* Store what is not held yet, without delivering it. *)
let take m entries =
  let fresh = List.filter (fun (s, _) -> s > m.contig && not (held m s)) entries in
  { m with store = List.sort compare (fresh @ m.store) }

let range m ~from ~upto = List.filter (fun (s, _) -> s >= from && s <= upto) m.store

(* The prefix [m] would hold with [entries] taken. *)
let reach m entries =
  let rec go c = if held m (c + 1) || List.mem_assoc (c + 1) entries then go (c + 1) else c in
  go m.contig

let set w id m =
  let ms = Array.copy w.ms in
  ms.(id - 1) <- m;
  { w with ms }

let send w ~src ~dst msg =
  if w.ms.(dst - 1).alive then { w with flight = { src; dst; msg } :: w.flight } else w

let describe (s, e) = Printf.sprintf "%s (view %d) at %d" (name e) e.tag s

(* Member [id] enters view [v] (a reset's commit, or the grant it
   joins by), as [Member.install] does, after checking that it has
   delivered nothing past the base (the new sequencer reuses those
   seqnos). *)
let enter w id (v : R.view) ~patch =
  let m = w.ms.(id - 1) in
  List.iter
    (fun (s, e) ->
      if s > v.base then
        violation "member %d installs view %d at base %d but delivered %s at %d" id
          v.epoch.view v.base (name e) s)
    m.log;
  let m = take m patch in
  let m = advance { m with store = List.filter (fun (s, _) -> s <= v.base) m.store } in
  set w id { m with members = v.members; sequencer = v.sequencer; armed = false; failed = false }

(* Member [id] installs a reset's commit, checking that one epoch names
   one view (every member installs the view its coordinator committed),
   that no two views of one number share a member, and that the member
   then holds every entry the members the view was built from had
   delivered when they answered (uniform agreement across the reset; a
   joiner, only those past its base). *)
let install w id c ~patch =
  let v = c.view in
  let c =
    match List.find_opt (fun c' -> c'.view.epoch = v.epoch) w.views with
    | Some c' when c'.view <> v ->
        violation "member %d installs view %d of coordinator %d unlike the one committed"
          id v.epoch.view v.epoch.coord
    | Some c' -> c'
    | None -> c
  in
  List.iter
    (fun { view = v'; _ } ->
      if v'.epoch.instance = v.epoch.instance && v'.epoch.view = v.epoch.view
         && v'.epoch.coord <> v.epoch.coord
         && List.exists (fun x -> List.mem x v'.members) v.members
      then
        violation "views %d of coordinators %d and %d share a member" v.epoch.view
          v.epoch.coord v'.epoch.coord)
    w.views;
  let w = enter w id v ~patch in
  let m = w.ms.(id - 1) in
  let required =
    List.sort_uniq compare
      (List.concat_map
         (fun (x, have) ->
           List.filter (fun (s, _) -> s <= have && s > m.floor) w.ms.(x - 1).log)
         c.states)
  in
  (match Harness.check_agreement ~describe ~required [ (id, m.log) ] with
  | [] -> ()
  | problem :: _ ->
      violation "installing view %d (instance %d): %s" v.epoch.view v.epoch.instance problem);
  if v.epoch.coord = id then { w with views = c :: w.views } else w

(* Feed [input] to member [id]'s [step] and carry out its actions, as
   [Member] does; [None] when nothing changes. *)
let feed w id ?(patch = []) input =
  let m = w.ms.(id - 1) in
  let st, actions = R.step m.st input in
  (* What [live] relies on: installed views and accepted invites only
     move forward. *)
  if st.epoch.view < m.st.epoch.view || compare st.seen m.st.seen < 0 then
    violation "member %d went back from view %d, invite (%d, %d)" id m.st.epoch.view
      (fst m.st.seen) (snd m.st.seen);
  let states =
    match m.st.attempt with
    | Some (Collecting states) | Some (Syncing { states; _ }) -> states
    | None -> []
  in
  if st = m.st && actions = [] then None
  else
    let instance = m.st.epoch.instance in
    let act w = function
      | R.Invite_all view ->
          List.fold_left
            (fun w dst ->
              if dst = id then w else send w ~src:id ~dst (Invite { instance; view; coord = id }))
            w ids
      | Send_state { coord; view; have } ->
          send w ~src:id ~dst:coord (State { instance; view; member = id; have })
      | Fetch { donor; from; upto } -> send w ~src:id ~dst:donor (Fetch { instance; from; upto })
      | Take -> set w id (take w.ms.(id - 1) patch)
      | Arm _ -> set w id { (w.ms.(id - 1)) with armed = true }
      | Send_commits (view, targets) ->
          List.fold_left
            (fun w (dst, have) ->
              let patch = range w.ms.(id - 1) ~from:(have + 1) ~upto:view.base in
              send w ~src:id ~dst (Commit { view; patch }))
            w targets
      | Install view -> install w id { view; states } ~patch
      | Failed | Break _ -> set w id { (w.ms.(id - 1)) with failed = true }
      | Tell _ ->
          List.fold_left
            (fun w dst ->
              if dst = id then w else send w ~src:id ~dst (Fail { epoch = m.st.epoch }))
            w ids
      | Adopt_view view -> enter w id view ~patch
      | Fail_sends _ | Halt -> w
    in
    let w = List.fold_left act w actions in
    Some (set w id { (w.ms.(id - 1)) with st })

let feed_or_same w id ?patch input = Option.value ~default:w (feed w id ?patch input)

(* One instance in view 1, member 1 sequencing, nothing ordered yet:
   every member adopts the view its creator made. *)
let initial =
  let view = { R.epoch = { instance = 1; view = 1; coord = 1 }; members = ids; sequencer = 1; base = 0 } in
  let booted =
    {
      ms = Array.of_list (List.map fresh ids);
      flight = [];
      losses = 0;
      crashes = 0;
      ordered = 0;
      starts = 0;
      suspicions = 0;
      rejoins = 0;
      views = [];
      retired = [];
    }
  in
  List.fold_left (fun w id -> feed_or_same w id (R.Adopt view)) booted ids

(* A packet reaching its destination. *)
let arrive w { src; dst; msg } =
  let m = w.ms.(dst - 1) in
  match msg with
  | Fail { epoch } ->
      feed_or_same w dst (R.Suspect { now = 0.0; epoch; reason = "fail"; tell = false })
  | Data { epoch; seqno; entry } ->
      if m.st.status = Normal && epoch = m.st.epoch then
        set w dst (advance (take m [ (seqno, entry) ]))
      else if m.joining then set w dst { m with stash = (epoch, seqno, entry) :: m.stash }
      else w
  | Invite { instance; view; coord } ->
      feed_or_same w dst (R.Invite { instance; now = 0.0; contig = m.contig; view; coord })
  | State { instance; view; member; have } ->
      feed_or_same w dst (R.State { instance; view; member; have })
  | Fetch { instance; from; upto } ->
      if instance = m.st.epoch.instance then
        send w ~src:dst ~dst:src (Entries { instance; entries = range m ~from ~upto })
      else w
  | Entries { instance; entries } ->
      feed_or_same w dst ~patch:entries
        (R.Entries { instance; src; reach = reach m entries })
  | Commit { view; patch } ->
      feed_or_same w dst ~patch (R.Commit { coord = src; view; reach = reach m patch })
  | Join_req ->
      (* A [Normal] sequencer orders the joiner's [Join_member], alone,
         and grants it the view with the entry's seqno as its base. *)
      if m.st.status = Normal && m.sequencer = dst then
        let seqno = m.contig + 1 in
        let entry = { tag = m.st.epoch.view; uid = (10 * dst) + src; joiner = src } in
        let m = advance (take m [ (seqno, entry) ]) in
        let w =
          List.fold_left
            (fun w o ->
              if o = dst then w else send w ~src:dst ~dst:o (Data { epoch = m.st.epoch; seqno; entry }))
            (set w dst m) ids
        in
        send w ~src:dst ~dst:src (Grant { epoch = m.st.epoch; members = m.members; base = seqno })
      else w
  | Grant { epoch; members; base } ->
      if m.joining then
        set w dst { m with grants = { R.epoch; members; sequencer = src; base } :: m.grants }
      else w

(* The join window closes at member [id], as in [Member.join_group]:
   it adopts the grant [R.choose_grant] picks, then replays what it
   overheard of that view past the base; with no grant it departs. *)
let close_join w id =
  let m = w.ms.(id - 1) in
  let w = set w id { m with joining = false; grants = []; stash = [] } in
  match R.choose_grant ~me:id m.grants with
  | None -> feed_or_same w id (R.Depart "no grant")
  | Some v ->
      let w = set w id { (w.ms.(id - 1)) with contig = v.base; floor = v.base } in
      let w = feed_or_same w id (R.Adopt v) in
      let overheard =
        List.filter_map
          (fun (e, s, entry) -> if e = v.epoch && s > v.base then Some (s, entry) else None)
          (List.rev m.stash)
      in
      set w id (advance (take w.ms.(id - 1) overheard))

let rec remove p = function [] -> [] | q :: rest -> if q = p then rest else q :: remove p rest

(* Whether [coord]'s attempt at [view] may still commit on time. A
   member's wait rule runs [2 * window + fail_timeout] past its accept,
   so a live coordinator's own timers (two windows past its invite)
   always fire before it: time enters the model only here. *)
let collecting w (view, coord) =
  coord >= 1
  &&
  let c = w.ms.(coord - 1) in
  c.alive && c.armed && c.st.attempt <> None && c.st.seen = (view, coord)

(* Every enabled choice, with the step that takes it; [w.flight] is
   sorted. *)
let successors (b : bounds) w =
  let per_packet p =
    let tag = (p.src, p.dst, show_msg p.msg) in
    let w' = { w with flight = remove p w.flight } in
    (Deliver tag, fun () -> arrive w' p)
    :: (if w.losses < b.losses then [ (Lose tag, fun () -> { w' with losses = w.losses + 1 }) ]
        else [])
  in
  let per_member id =
    let m = w.ms.(id - 1) in
    let when_ cond c f = if cond then [ (c, f) ] else [] in
    if not m.alive then
      (* A crashed member restarts as a fresh incarnation and asks to join. *)
      when_ (w.rejoins < b.rejoins) (Rejoin id) (fun () ->
          let w =
            { w with rejoins = w.rejoins + 1; retired = (id, m.log) :: w.retired }
          in
          List.fold_left
            (fun w dst -> if dst = id then w else send w ~src:id ~dst Join_req)
            (set w id { (fresh id) with joining = true })
            ids)
    else
      when_ (w.crashes < b.crashes) (Crash id) (fun () ->
          let w = set w id { m with alive = false; armed = false } in
          { w with crashes = w.crashes + 1; flight = List.filter (fun p -> p.dst <> id) w.flight })
      @ when_ m.joining (Close_join id) (fun () -> close_join w id)
      @ when_ m.armed (Fire id) (fun () ->
            feed_or_same (set w id { m with armed = false }) id (R.Expired { contig = m.contig }))
      @ (match
           if m.failed || m.st.status = Normal || collecting w m.st.seen then None
           else feed w id (R.Tick { now = infinity })
         with
        | Some w' -> [ (Wait_rule id, fun () -> w') ]
        | None -> [])
      @ when_ (m.failed && m.st.status <> Normal && w.starts < b.starts) (Start id) (fun () ->
            let w = { (set w id { m with failed = false }) with starts = w.starts + 1 } in
            feed_or_same w id (R.Start { now = 0.0; contig = m.contig }))
      @ when_ (m.st.status = Normal && w.suspicions < b.suspicions) (Suspect id) (fun () ->
            let w = { w with suspicions = w.suspicions + 1 } in
            feed_or_same w id
              (R.Suspect { now = 0.0; epoch = m.st.epoch; reason = "suspect"; tell = true }))
      @ when_
          (m.st.status = Normal && m.sequencer = id && w.ordered < b.entries)
          (Order id)
          (fun () ->
            let seqno = m.contig + 1 in
            let entry = { tag = m.st.epoch.view; uid = w.ordered + 1; joiner = 0 } in
            let w = set w id (advance (take m [ (seqno, entry) ])) in
            let w =
              List.fold_left
                (fun w dst ->
                  if dst = id then w else send w ~src:id ~dst (Data { epoch = m.st.epoch; seqno; entry }))
                w ids
            in
            { w with ordered = w.ordered + 1 })
  in
  let rec distinct = function
    | p :: (q :: _ as rest) -> if p = q then distinct rest else p :: distinct rest
    | ps -> ps
  in
  List.concat_map per_packet (distinct w.flight)
  @ List.concat_map per_member ids

(* At a dead end: every member's deliveries in order, and liveness. *)
let check_end w =
  (* Member [10 + x] is member [x] before its rejoin. *)
  let logs =
    List.map (fun id -> (id, List.map snd w.ms.(id - 1).log)) ids
    @ List.map (fun (id, log) -> (10 + id, List.map snd log)) w.retired
  in
  (match Harness.check_order ~describe:name logs with
  | [] -> ()
  | problem :: _ -> violation "%s" problem);
  List.iter
    (fun id ->
      let m = w.ms.(id - 1) in
      if m.alive && m.st.status <> Normal && m.st.status <> Left && not m.failed then
        violation "member %d is stuck %s with no view and no failure" id
          (status_to_string m.st.status))
    ids

(* Whether [p] can still change anything at its destination: installed
   views, accepted invites and attempts only move forward ([feed] checks
   that), so a packet one of them has passed is a no-op from then on and
   is dropped at once, once its delivery now is seen to be one. This
   relies on nothing else [step] guards. *)
(* Data and failures count only in the member's view, once [Normal];
   a joiner keeps data. *)
let may_count m epoch =
  (m.st.status = Normal && epoch = m.st.epoch) || epoch.view > m.st.epoch.view || m.joining

let may_act w p =
  let m = w.ms.(p.dst - 1) in
  let st = m.st in
  match p.msg with
  | Data { epoch; seqno; _ } -> may_count m epoch && not (held m seqno)
  | Fail { epoch } -> may_count m epoch
  | Invite { view; coord; _ } -> view > st.epoch.view && compare (view, coord) st.seen > 0
  | State { view; member; _ } -> (
      match st.attempt with
      | Some (R.Collecting states) -> view = fst st.seen && not (List.mem_assoc member states)
      | _ -> false)
  | Commit { view; _ } -> view.epoch.view > st.epoch.view
  | Grant _ -> m.joining
  | Fetch _ | Entries _ | Join_req -> true

let live w p =
  may_act w p
  ||
  let w = { w with flight = remove p w.flight } in
  match arrive w p with w' -> w' <> w | exception Explore.Violation _ -> true

(* A world in the form the explorer keys on: dead packets dropped, the
   flight and the views sorted. *)
let canon w =
  {
    w with
    flight = List.sort compare (List.filter (live w) w.flight);
    views = List.sort compare w.views;
  }

include Explore.Make (struct
  type nonrec state = world and choice = choice and bounds = bounds

  let initial = initial and canon = canon and successors = successors and show_choice = show_choice
  let expand_canon = true (* [successors] relies on the sorted flight *)
  let check _ w ~dead_end = if dead_end then check_end w
end)

(* [dune runtest]'s bound, and the two wider ones of [dune build
   @crash-slow]: faults, and a third [Start]. *)
let small = { losses = 0; crashes = 0; entries = 1; starts = 2; suspicions = 1; rejoins = 0 }

let large = { small with losses = 2; crashes = 2 }

let rejoin = { small with crashes = 1; rejoins = 1; starts = 1 }

let deep = { small with starts = 3 }

(* Past the bound: with two ordered entries the explorer finds a
   member that coordinated a view alone ordering an entry at a seqno
   where the others hold one from the view before, and a later reset
   merging the two. The coordinator takes the highest [have_upto] and
   cannot tell two lineages apart; closing this needs the reset state to
   carry the member's installed view. This pins the finding and its
   replay until then. *)
let lineage_merge =
  [
    Order 1; Deliver (1, 2, "data 1 = e1"); Suspect 1; Deliver (1, 2, "fail v1");
    Deliver (1, 3, "fail v1"); Start 3;
    Deliver (3, 1, "invite v2"); Deliver (3, 2, "invite v2"); Start 1;
    Deliver (1, 2, "invite v3"); Deliver (2, 1, "state v3 have 1"); Fire 3; Order 3;
    Deliver (1, 3, "invite v3"); Deliver (3, 1, "state v3 have 1"); Fire 1;
  ]

let test_lineage_merge () =
  replays_to { small with entries = 2 } lineage_merge
    ~expected:"installing view 3 (instance 1): member 1 lacks e2 (view 2) at 1"
    ~fixed:"the known lineage merge no longer diverges: widen the bounds"

(* Past the rejoin bound, with a second [Start], a rejoin reaches the
   same merge with no application entry at all: a [Join_member] is an
   ordered entry too. Member 2's join request is granted by sequencer 1
   (j12 at 1) and, late, by member 3, which has meanwhile committed a
   view 2 alone (j32 at 1); member 1's reset then takes both in. This
   pins the finding until the reset state carries the lineage. *)
let rejoin_merge =
  [
    Crash 2; Rejoin 2; Deliver (2, 1, "join"); Deliver (1, 2, "data 1 = j12");
    Deliver (1, 2, "grant base 1"); Suspect 1; Deliver (1, 2, "fail v1"); Deliver (1, 3, "fail v1");
    Close_join 2; Start 3; Deliver (3, 1, "invite v2"); Deliver (3, 2, "invite v2"); Start 1;
    Deliver (1, 2, "invite v3"); Deliver (2, 1, "state v3 have 1"); Fire 3; Deliver (2, 3, "join");
    Deliver (1, 3, "invite v3"); Deliver (3, 1, "state v3 have 1"); Fire 1;
  ]

let test_rejoin_merge () =
  replays_to { rejoin with starts = 2; entries = 0 } rejoin_merge
    ~expected:"installing view 3 (instance 1): member 1 lacks j32 (view 2) at 1"
    ~fixed:"the known rejoin merge no longer diverges: widen the rejoin bound"

(* The broadcast predicates the crash sweep shares catch what they check. *)
let test_predicates () =
  let describe = string_of_int in
  Alcotest.(check (list string)) "integrity and total order"
    [ "member 1 delivered 2 twice"; "members 1 and 2 delivered 2 and 1 in opposite orders" ]
    (Harness.check_order ~describe [ (1, [ 1; 2; 2 ]); (2, [ 2; 1 ]) ]);
  Alcotest.(check (list string)) "uniform agreement" [ "member 2 lacks 2" ]
    (Harness.check_agreement ~describe ~required:[ 1; 2 ] [ (1, [ 1; 2 ]); (2, [ 1 ]) ])

(* Two coordinators that never hear each other each commit a view 2:
   member 1 is down and member 3's invite to member 2 is lost. The
   data member 2's view orders must be refused at member 3, which
   installed the other view 2: their epochs differ only in the
   coordinator they name. *)
let split_views =
  [
    Crash 1; Suspect 2; Deliver (2, 3, "fail v1"); Start 2; Start 3;
    Lose (3, 2, "invite v2"); Fire 2; Fire 3; Order 2;
  ]

let test_split_views () =
  let b = { small with losses = 1; crashes = 1 } in
  let w = replay b split_views in
  let epoch id = w.ms.(id - 1).st.epoch in
  Alcotest.(check (list int)) "both installed view 2" [ 2; 2 ]
    [ (epoch 2).view; (epoch 3).view ];
  Alcotest.(check bool) "their epochs differ" true (epoch 2 <> epoch 3);
  match List.find_opt (fun p -> p.src = 2 && p.dst = 3) w.flight with
  | Some ({ msg = Data _; _ } as p) ->
      let w = arrive { w with flight = remove p w.flight } p in
      Alcotest.(check int) "member 3 delivered nothing" 0 (List.length w.ms.(2).log)
  | _ -> Alcotest.fail "member 2's data to member 3 is not in flight"

let suite =
  [
    Alcotest.test_case "every interleaving, small bound" `Quick (run small ~states:143_900);
    Alcotest.test_case "two entries: the known lineage merge replays" `Quick
      test_lineage_merge;
    Alcotest.test_case "broadcast predicates flag violations" `Quick test_predicates;
    Alcotest.test_case "two views of one number: one's data is refused by the other" `Quick
      test_split_views;
    Alcotest.test_case "a rejoin: the known lineage merge replays" `Quick test_rejoin_merge;
  ]

let slow_suite =
  [
    Alcotest.test_case "every interleaving, large bound" `Quick (run large ~states:3_494_261);
    Alcotest.test_case "every interleaving, three starts" `Quick (run deep ~states:3_606_407);
    Alcotest.test_case "every interleaving, one crashed member rejoins" `Quick
      (run rejoin ~states:839_125);
  ]
