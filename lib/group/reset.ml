open Types

type attempt =
  | Collecting of (int * int) list
  | Syncing of { states : (int * int) list; base : int; donor : int }

type state = {
  me : int;
  fail_timeout : float;
  status : Types.status;
  epoch : Types.epoch;
  seen : int * int;
  since : float;
  attempt : attempt option;
}

let init ~me ~fail_timeout =
  let epoch = { instance = 0; view = 0; coord = -1 } and attempt = None in
  { me; fail_timeout; status = Idle; epoch; seen = (0, -1); since = 0.0; attempt }

type view = { epoch : Types.epoch; members : int list; sequencer : int; base : int }

type input =
  | Adopt of view
  | Suspect of { now : float; epoch : Types.epoch; reason : string; tell : bool }
  | Depart of string
  | Start of { now : float; contig : int }
  | Invite of { instance : int; now : float; contig : int; view : int; coord : int }
  | State of { instance : int; view : int; member : int; have : int }
  | Entries of { instance : int; src : int; reach : int }
  | Commit of { coord : int; view : view; reach : int }
  | Expired of { contig : int }
  | Tick of { now : float }

type action =
  | Invite_all of int
  | Send_state of { coord : int; view : int; have : int }
  | Fetch of { donor : int; from : int; upto : int }
  | Take
  | Arm of float
  | Send_commits of view * (int * int) list
  | Install of view
  | Adopt_view of view
  | Failed
  | Break of string
  | Tell of string
  | Fail_sends of string
  | Halt

let window = 15.0

let deadline (st : state) = st.since +. (2.0 *. window) +. st.fail_timeout

let choose_grant ~me grants =
  let better (g : view) (best : view) =
    let cmp = compare (List.length g.members) (List.length best.members) in
    cmp > 0 || (cmp = 0 && List.hd g.members < best.sequencer)
  in
  List.fold_left
    (fun best g -> match best with Some b when not (better g b) -> best | _ -> Some g)
    None grants
  |> Option.map (fun v ->
         if List.mem me v.members then v
         else { v with members = List.sort compare (me :: v.members) })

(* Join [coord]'s reset into [view], ours too: the wait rule's clock
   restarts, and an attempt of our own is abandoned. A [Normal] member
   fails its pending sends once the other actions are out. *)
let accept (st : state) ~now ~view ~coord actions =
  let actions =
    if st.status = Normal then actions @ [ Fail_sends "reset in progress" ] else actions
  in
  ({ st with status = Resetting; seen = (view, coord); since = now; attempt = None }, actions)

let install (st : state) epoch = { st with status = Normal; epoch; attempt = None }

(* The view is every member that answered, the lowest one sequencing;
   its epoch names the coordinator, so no two views share one. *)
let commit (st : state) states base =
  let members = List.sort compare (List.map fst states) in
  let view, coord = st.seen in
  let epoch = { st.epoch with view; coord } in
  let v = { epoch; members; sequencer = List.hd members; base } in
  let others = List.filter (fun (m, _) -> m <> st.me) states in
  (install st epoch, [ Send_commits (v, others); Install v ])

let step (st : state) input =
  match (input, st.attempt) with
  | _ when st.status = Left -> (st, [])
  | Adopt v, _ -> if st.status = Idle then (install st v.epoch, [ Adopt_view v ]) else (st, [])
  | Depart reason, _ -> ({ st with status = Left; attempt = None }, [ Halt; Fail_sends reason ])
  | _ when st.status = Idle -> (st, [])
  (* Suspicion counts only against the installed view, and only once. *)
  | Suspect { now; epoch; reason; tell }, _ when st.status = Normal && epoch = st.epoch ->
      ( { st with status = Broken; since = now },
        Break reason :: (if tell then [ Tell reason ] else []) )
  | (Invite { instance; _ } | State { instance; _ } | Entries { instance; _ }), _
  | Commit { view = { epoch = { instance; _ }; _ }; _ }, _
    when instance <> st.epoch.instance ->
      (st, [])
  | Start { now; contig }, _ ->
      let view = max st.epoch.view (fst st.seen) + 1 in
      let st, actions = accept st ~now ~view ~coord:st.me [ Invite_all view; Arm window ] in
      ({ st with attempt = Some (Collecting [ (st.me, contig) ]) }, actions)
  (* One coordinator per view number; a coordinator yields to a higher. *)
  | Invite { now; contig; view; coord; _ }, attempt
    when view > st.epoch.view && compare (view, coord) st.seen > 0
         && (view > fst st.seen || attempt <> None) ->
      accept st ~now ~view ~coord [ Send_state { coord; view; have = contig } ]
  | State { view; member; have; _ }, Some (Collecting states)
    when view = fst st.seen && not (List.mem_assoc member states) ->
      ({ st with attempt = Some (Collecting ((member, have) :: states)) }, [])
  | Expired { contig }, Some (Collecting states) ->
      let base = List.fold_left (fun acc (_, h) -> max acc h) (-1) states in
      if contig >= base then commit st states base
      else
        let donor, _ = List.find (fun (_, h) -> h = base) states in
        ( { st with attempt = Some (Syncing { states; base; donor }) },
          [ Fetch { donor; from = contig + 1; upto = base }; Arm window ] )
  | Expired _, Some (Syncing _) -> ({ st with attempt = None }, [])
  (* Fetched entries count only for the sync that asked for them. *)
  | Entries { src; reach; _ }, Some (Syncing { states; base; donor })
    when src = donor ->
      if reach < base then (st, [ Take ])
      else
        let st, acts = commit st states base in
        (st, Take :: acts)
  (* Only the coordinator this member last answered can move it on, and
     only to a view it can reach. *)
  | Commit { coord; view = v; reach }, _
    when (v.epoch.view, coord) = st.seen && v.epoch.view > st.epoch.view
         && reach >= v.base ->
      (install st v.epoch, [ Install v ])
  | Tick { now }, _
    when (st.status = Broken || st.status = Resetting) && now > deadline st ->
      ({ st with since = now }, [ Failed ])
  | _ -> (st, [])
