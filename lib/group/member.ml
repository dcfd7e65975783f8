open Types

type item = Delivery of (int * Wire.entry) | Failed of string

(* Protocol constants no deployment varies; times in ms. *)
let send_timeout = 60.0 (* per-attempt wait for a send to complete *)

let join_window = 5.0 (* how long [join_group] collects grants *)

let retrans_batch = 256 (* max entries per retransmission request *)

(* Pre-resolved counter handles in the engine's registry: the protocol
   counts every message it sends, so the hot path must not build or
   hash a key per packet. One record per member, interned at [make]
   time; send sites pass the handle to bump. *)
type counters = {
  c_req : Sim.Metrics.handle;
  c_data : Sim.Metrics.handle;
  c_ack : Sim.Metrics.handle;
  c_done : Sim.Metrics.handle;
  c_accept : Sim.Metrics.handle;
  c_body : Sim.Metrics.handle;
  c_hb : Sim.Metrics.handle;
  c_hback : Sim.Metrics.handle;
  c_join : Sim.Metrics.handle;
  c_grant : Sim.Metrics.handle;
  c_reset : Sim.Metrics.handle;
  c_leave : Sim.Metrics.handle;
  c_fail : Sim.Metrics.handle;
  c_retrans : Sim.Metrics.handle;
  c_retrans_served : Sim.Metrics.handle;
  c_send_retry : Sim.Metrics.handle;
  c_send_ms : Sim.Metrics.Histogram.t; (* labelled by dissemination *)
}

type pending = { seqno : int; origin : int; uid : int } (* ordered, not yet resilient *)

type t = {
  net : Simnet.Network.t;
  nic : Simnet.Network.nic;
  node : Sim.Node.t;
  engine : Sim.Engine.t;
  gname : string;
  proto : string;
  config : Types.config;
  counters : counters;
  me : int;
  mutable reset : Reset.state; (* status, installed view, ResetGroup *)
  mutable reset_timer : Sim.Timer.t option; (* collect or sync window *)
  mutable members : int list; (* sorted *)
  mutable sequencer : int;
  (* Totally-ordered log. [store] holds every entry we know; [contig] is
     the highest seqno up to which we hold *everything* (the paper's
     "buffered" high-water mark is [highest_seen]). *)
  store : (int, Wire.entry) Hashtbl.t;
  mutable contig : int;
  mutable highest_seen : int;
  deliver_q : item Sim.Mailbox.t;
  changed : Sim.Condvar.t; (* broadcast on advance / status change *)
  (* Sender state. *)
  pending_sends : (int, unit Sim.Ivar.t) Hashtbl.t; (* uid -> done *)
  (* Sequencer state (only meaningful while me = sequencer). *)
  mutable seq_next : int;
  (* Sequencer-side batching: every ordered entry travels in a batch,
     batch_max = 1 being a batch of one. Pending entries already hold
     their seqnos [batch_base .. batch_base + batch_n - 1] in [store] —
     only the ordering multicast is deferred. The scratch vector is
     reused across flushes (grown geometrically, never shrunk);
     [batch_timer] is the cancelable flush timer, armed when the first
     entry of a batch arrives without filling it and revoked when the
     batch fills to [batch_max] first. *)
  mutable batch_base : int;
  mutable batch_n : int;
  mutable batch_scratch : Wire.entry array;
  mutable batch_bodies : bool;
      (* every pending entry's body already traveled by the sender's
         own broadcast (BB), so one tiny Accept can order them all *)
  mutable batch_timer : Sim.Timer.t option;
  acked : (int, int) Hashtbl.t; (* member -> cumulative have_upto *)
  last_heard : (int, float) Hashtbl.t; (* member -> last ack/hb time *)
  pending_done : pending Queue.t; (* in seqno order, taken from the front *)
  assigned_uids : (int, int) Hashtbl.t;
      (* uid -> seqno, for sends and joins alike: both draw their uids
         from [fresh_uid], which leads with the member's id, so the keys
         never collide *)
  mutable last_data_sent : float;
  (* The failure detector's periodic timer. Held so that a member
     leaving the group, or crashing, can revoke it: its pending tick is
     tombstoned in the heap (or, revoked inside a tick, never re-pushed)
     and the detector stops. *)
  mutable fd_tick : Sim.Timer.t option;
  (* Member-side failure detection. *)
  mutable last_from_seq : float;
  mutable last_retrans_req : float;
  (* Join state. *)
  mutable join_collect : (Reset.view * int) list option;
      (* (view, uid) grants, newest first, while joining; a grant's
         sequencer is the member that sent it *)
  mutable join_stash : (Types.epoch * int * Wire.entry) list;
      (* data overheard while still joining; replayed after adoption *)
  bb_bodies : (int, Wire.entry) Hashtbl.t;
      (* BB method: bodies received by broadcast, keyed by uid, each
         already the entry its Accept will order (its origin is the
         body's packet source) *)
  (* Liveness packets, built once and sent again while what they carry
     is unchanged: the sequencer's heartbeat (epoch, highest assigned)
     and a member's Hb_ack (epoch, contig, to the sequencer). Each is
     keyed by its own fields, so a stale one is never sent. *)
  mutable hb_packet : Simnet.Packet.t option;
  mutable hback_packet : Simnet.Packet.t option;
}

(* Instance and message ids come from the engine's per-run counter, not
   module-level refs: a global counter carries state from one simulation
   into the next within the same process, so two same-seed runs would
   produce different ids (and different traces). *)
let fresh_instance t = (t.me * 10_000) + Sim.Engine.fresh_id t.engine

let make_counters m ~dissemination =
  let c key = Sim.Metrics.counter m key in
  {
    c_req = c "grp.req";
    c_data = c "grp.data";
    c_ack = c "grp.ack";
    c_done = c "grp.done";
    c_accept = c "grp.accept";
    c_body = c "grp.body";
    c_hb = c "grp.hb";
    c_hback = c "grp.hback";
    c_join = c "grp.join";
    c_grant = c "grp.grant";
    c_reset = c "grp.reset";
    c_leave = c "grp.leave";
    c_fail = c "grp.fail";
    c_retrans = c "grp.retrans";
    c_retrans_served = c "grp.retrans.served";
    c_send_retry = c "grp.send.retry";
    c_send_ms =
      Sim.Metrics.histogram_handle m "grp.send_ms"
        ~labels:
          [
            ( "method",
              match dissemination with Types.Pb -> "pb" | Types.Bb -> "bb" );
          ];
  }

let now t = Sim.Engine.now t.engine

let status t = t.reset.status

let epoch t = t.reset.epoch

(* Revoke the failure detector (see [fd_tick]). Safe to call at any
   point, including from inside one of its ticks. *)
let halt_fd t =
  Option.iter Sim.Timer.cancel t.fd_tick;
  t.fd_tick <- None

let cancel_batch_timer t =
  Option.iter Sim.Timer.cancel t.batch_timer;
  t.batch_timer <- None

(* Drop the pending batch without ordering it (view change, detected
   failure, node crash). The entries keep their [store] slots but were
   never multicast; the reset that follows purges everything past the
   agreed base, and the blocked senders retry into the new view. *)
let clear_batch t =
  cancel_batch_timer t;
  t.batch_n <- 0;
  t.batch_bodies <- true

let emit t ~name attrs =
  Sim.Engine.emit t.engine ~subsystem:"grp" ~node:t.me ~name attrs

(* Guard for per-packet emits: the attrs thunk is a closure allocated at
   the call site even when tracing is off, so the hot path checks first. *)
let tracing t = Sim.Engine.tracing t.engine

let me t = t.me

let members t = t.members

let info t =
  {
    members = t.members;
    sequencer = t.sequencer;
    me = t.me;
    status = status t;
    epoch = epoch t;
    next_deliver = t.contig + 1;
    highest_seen = t.highest_seen;
  }

let highest_seen t = t.highest_seen

let held t seqno = Hashtbl.find_opt t.store seqno

let is_sequencer t = status t = Normal && t.sequencer = t.me

let unicast t ~dst counter payload =
  Sim.Metrics.incr_handle counter;
  Simnet.Network.send t.net t.nic ~dst ~proto:t.proto payload

let multicast t counter payload =
  Sim.Metrics.incr_handle counter;
  Simnet.Network.multicast t.net t.nic ~proto:t.proto payload

let epoch_matches t e = Types.epoch_compare e (epoch t) = 0

let send_packet t counter packet =
  Sim.Metrics.incr_handle counter;
  Simnet.Network.send_packet t.net t.nic packet

(* The cached liveness packets (see [hb_packet]): the one sent last,
   while its fields still match what a fresh one would carry. *)
let heartbeat_packet t =
  let highest = t.seq_next - 1 in
  match t.hb_packet with
  | Some ({ payload = Wire.Heartbeat { epoch; highest = h; _ }; _ } as packet)
    when h = highest && epoch_matches t epoch ->
      packet
  | Some _ | None ->
      let packet =
        Simnet.Network.packet t.nic ~dst:Multicast ~proto:t.proto
          (Wire.Heartbeat { epoch = epoch t; highest })
      in
      t.hb_packet <- Some packet;
      packet

let hb_ack_packet t =
  match t.hback_packet with
  | Some
      ({ dst = Unicast dst; payload = Wire.Hb_ack { epoch; have_upto; _ }; _ } as
       packet)
    when dst = t.sequencer && have_upto = t.contig && epoch_matches t epoch ->
      packet
  | Some _ | None ->
      let packet =
        Simnet.Network.packet t.nic ~dst:(Unicast t.sequencer) ~proto:t.proto
          (Wire.Hb_ack { epoch = epoch t; have_upto = t.contig })
      in
      t.hback_packet <- Some packet;
      packet

let fail_pending_sends t reason =
  let pending = Hashtbl.fold (fun uid ivar acc -> (uid, ivar) :: acc) t.pending_sends [] in
  Hashtbl.reset t.pending_sends;
  List.iter
    (fun (_, ivar) -> Sim.Ivar.fill_exn ivar (Group_failure reason))
    pending

(* ---- Sequencer: resilience bookkeeping --------------------------- *)

let needed_holders t = min (t.config.resilience + 1) (List.length t.members)

(* Wake the local SendToGroup waiting on [uid], if it still waits. *)
let complete_send t uid =
  match Hashtbl.find_opt t.pending_sends uid with
  | Some ivar ->
      Hashtbl.remove t.pending_sends uid;
      Sim.Ivar.fill ivar ()
  | None -> ()

let send_done t ~origin ~uid =
  if origin = t.me then complete_send t uid
  else
    unicast t ~dst:origin t.counters.c_done (Wire.Done { epoch = epoch t; uid })

(* Members whose cumulative ack covers [seqno]. *)
let rec count_holders acked seqno n = function
  | [] -> n
  | m :: rest -> (
      match Hashtbl.find acked m with
      | upto -> count_holders acked seqno (if upto >= seqno then n + 1 else n) rest
      | exception Not_found -> count_holders acked seqno n rest)

let holders t seqno = count_holders t.acked seqno 0 t.members

(* Acks are cumulative, so [holders] never grows with the seqno: the
   sends that are resilient are always the oldest pending ones. Take
   them from the front, in seqno order, until one is not. *)
let check_pending_done t =
  let needed = needed_holders t in
  while
    (not (Queue.is_empty t.pending_done))
    && holders t (Queue.peek t.pending_done).seqno >= needed
  do
    let { origin; uid; _ } = Queue.pop t.pending_done in
    send_done t ~origin ~uid
  done

let record_ack t ~member ~have_upto =
  let previous =
    match Hashtbl.find t.acked member with v -> v | exception Not_found -> -1
  in
  if have_upto > previous then Hashtbl.replace t.acked member have_upto;
  Hashtbl.replace t.last_heard member (now t);
  check_pending_done t

(* ---- Delivery, and carrying out [Reset.step] ---------------------- *)

(* The entries held in [from .. upto], in seqno order. *)
let held_range t ~from ~upto =
  let entries = ref [] in
  for seqno = upto downto from do
    match Hashtbl.find_opt t.store seqno with
    | Some entry -> entries := (seqno, entry) :: !entries
    | None -> ()
  done;
  !entries

(* An ordered entry is worth holding at [seqno] unless it was already
   delivered or is already held. *)
let unheld t seqno = seqno > t.contig && not (Hashtbl.mem t.store seqno)

let take t entries =
  List.iter (fun (s, e) -> if unheld t s then Hashtbl.replace t.store s e) entries

let send_cumulative_ack t =
  if status t = Normal then
    if t.sequencer = t.me then record_ack t ~member:t.me ~have_upto:t.contig
    else
      unicast t ~dst:t.sequencer t.counters.c_ack
        (Wire.Ack { epoch = epoch t; have_upto = t.contig })

let rec deliver_entry t seqno (entry : Wire.entry) =
  if tracing t then
    emit t ~name:"deliver" (fun () ->
        let kind, origin =
          match entry with
          | Wire.App { origin; _ } -> ("app", origin)
          | Wire.Join_member m -> ("join", m)
          | Wire.Leave_member m -> ("leave", m)
        in
        [
          ("gname", Sim.Trace.Str t.gname);
          ("seqno", Sim.Trace.Int seqno);
          ("kind", Sim.Trace.Str kind);
          ("origin", Sim.Trace.Int origin);
        ]);
  Sim.Mailbox.send t.deliver_q (Delivery (seqno, entry));
  match entry with
  | Wire.App _ -> ()
  | Wire.Join_member m ->
      if not (List.mem m t.members) then
        t.members <- List.sort compare (m :: t.members);
      if is_sequencer t then begin
        (* Admit the joiner: it starts with a clean slate at [seqno]. *)
        Hashtbl.replace t.acked m seqno;
        Hashtbl.replace t.last_heard m (now t)
      end
  | Wire.Leave_member m ->
      t.members <- List.filter (fun x -> x <> m) t.members;
      if m = t.me then feed t (Reset.Depart "left group")
      else if m = t.sequencer then begin
        (* Deterministic handover: lowest surviving id becomes sequencer;
           everyone computes the same answer from the same total order. *)
        (match t.members with
        | [] -> ()
        | first :: _ ->
            t.sequencer <- first;
            if first = t.me then begin
              t.seq_next <- seqno + 1;
              Queue.clear t.pending_done;
              List.iter
                (fun m' -> Hashtbl.replace t.last_heard m' (now t))
                t.members
            end);
        t.last_from_seq <- now t
      end

(* Deliver every stored entry that has become contiguous. *)
and advance t =
  let advanced = ref false in
  let continue = ref true in
  while !continue do
    match Hashtbl.find_opt t.store (t.contig + 1) with
    | Some entry ->
        t.contig <- t.contig + 1;
        advanced := true;
        deliver_entry t t.contig entry
    | None -> continue := false
  done;
  if !advanced then begin
    if t.contig > t.highest_seen then t.highest_seen <- t.contig;
    send_cumulative_ack t;
    Sim.Condvar.broadcast t.changed
  end

(* Enter view [v]: a reset's commit, the view [create_group] makes, or
   a join grant (the joiner's [contig] already at the grant's base). *)
and install t ~patch (v : Reset.view) =
  (* A batch pending under the dead view was never multicast, and entries
     past the base belonged to it: the new sequencer reuses their seqnos. *)
  clear_batch t;
  Option.iter Sim.Timer.cancel t.reset_timer;
  take t patch;
  Hashtbl.filter_map_inplace (fun s e -> if s > v.base then None else Some e) t.store;
  t.highest_seen <- v.base;
  advance t;
  t.members <- v.members;
  t.sequencer <- v.sequencer;
  t.last_from_seq <- now t;
  Queue.clear t.pending_done;
  Hashtbl.reset t.assigned_uids;
  Hashtbl.reset t.bb_bodies;
  fail_pending_sends t "view changed";
  if v.sequencer = t.me then begin
    t.seq_next <- v.base + 1;
    Hashtbl.reset t.acked;
    List.iter
      (fun m ->
        Hashtbl.replace t.acked m v.base;
        Hashtbl.replace t.last_heard m (now t))
      v.members
  end

(* Run one input through [Reset.step] and carry out its actions ([patch]:
   the packet's entries): the one place a member's status and view
   change. The state lands after the actions, so an install delivers
   before [Normal]. *)
and feed ?(patch = []) t input =
  let st, actions = Reset.step t.reset input in
  List.iter (perform t ~patch) actions;
  let was = status t in
  t.reset <- st;
  if st.status <> was then Sim.Condvar.broadcast t.changed

and perform t ~patch action =
  let instance = (epoch t).instance in
  match action with
  | Reset.Invite_all view ->
      multicast t t.counters.c_reset (Wire.Reset_invite { instance; view })
  | Send_state { coord; view; have } ->
      unicast t ~dst:coord t.counters.c_reset
        (Wire.Reset_state { instance; view; have_upto = have })
  | Fetch { donor; from; upto } ->
      unicast t ~dst:donor t.counters.c_reset (Wire.Reset_fetch { instance; from; upto })
  | Take -> take t patch
  | Arm delay ->
      Option.iter Sim.Timer.cancel t.reset_timer;
      t.reset_timer <-
        Some
          (Sim.Timer.after t.engine ~delay (fun () ->
               Sim.Engine.attribute t.engine Tick "grp.reset";
               t.reset_timer <- None;
               feed t (Reset.Expired { contig = t.contig })))
  | Send_commits ({ epoch; members; sequencer; base }, targets) ->
      List.iter
        (fun (m, have) ->
          let patch = held_range t ~from:(have + 1) ~upto:base in
          unicast t ~dst:m t.counters.c_reset
            (Wire.Reset_commit { epoch; members; sequencer; base; patch }))
        targets
  | Install v ->
      install t ~patch v;
      emit t ~name:"view" (fun () ->
          [
            ("gname", Sim.Trace.Str t.gname);
            ("instance", Sim.Trace.Int v.epoch.instance);
            ("view", Sim.Trace.Int v.epoch.view);
            ("sequencer", Sim.Trace.Int v.sequencer);
            ("members", Sim.Trace.Str (String.concat "," (List.map string_of_int v.members)));
          ])
  | Adopt_view v -> install t ~patch v
  | Failed ->
      emit t ~name:"unsettled" (fun () -> [ ("gname", Sim.Trace.Str t.gname) ]);
      Sim.Mailbox.send t.deliver_q (Failed "no view installed")
  | Break reason ->
      emit t ~name:"broken" (fun () ->
          [ ("gname", Sim.Trace.Str t.gname); ("reason", Sim.Trace.Str reason) ]);
      clear_batch t;
      fail_pending_sends t reason;
      Sim.Mailbox.send t.deliver_q (Failed reason)
  | Tell reason -> multicast t t.counters.c_fail (Wire.Fail { epoch = epoch t; reason })
  | Fail_sends reason -> fail_pending_sends t reason
  | Halt -> halt_fd t

(* A suspicion this member raises itself: the others are told. *)
let suspect t reason = feed t (Reset.Suspect { now = now t; epoch = epoch t; reason; tell = true })

let request_retrans t =
  if
    status t = Normal && t.sequencer <> t.me
    && now t -. t.last_retrans_req > 4.0
  then begin
    t.last_retrans_req <- now t;
    emit t ~name:"retrans.req" (fun () ->
        [
          ("gname", Sim.Trace.Str t.gname);
          ("from", Sim.Trace.Int (t.contig + 1));
          ("highest_seen", Sim.Trace.Int t.highest_seen);
        ]);
    unicast t ~dst:t.sequencer t.counters.c_retrans
      (Wire.Retrans { epoch = epoch t; from = t.contig + 1 })
  end

let store_data t ~seqno ~entry =
  if seqno > t.highest_seen then t.highest_seen <- seqno;
  if unheld t seqno then Hashtbl.replace t.store seqno entry;
  advance t;
  if t.highest_seen > t.contig then request_retrans t

(* ---- Sequencer duties: ordering in batches ------------------------ *)

(* Multicast the pending batch, then deliver it locally right away (the
   loopback copy becomes a harmless duplicate). *)
let flush_batch t =
  if t.batch_n > 0 then begin
    cancel_batch_timer t;
    let base = t.batch_base and count = t.batch_n in
    t.batch_n <- 0;
    t.last_data_sent <- now t;
    if tracing t then
      emit t ~name:"assign.batch" (fun () ->
          [
            ("gname", Sim.Trace.Str t.gname);
            ("base", Sim.Trace.Int base);
            ("count", Sim.Trace.Int count);
          ]);
    if t.batch_bodies then begin
      (* BB: every body already traveled by its sender's own broadcast,
         so one Accept of their uids orders the whole batch. *)
      let uids =
        Array.init count (fun i ->
            match t.batch_scratch.(i) with
            | Wire.App { uid; _ } -> uid
            | Wire.Join_member _ | Wire.Leave_member _ -> assert false)
      in
      multicast t t.counters.c_accept
        (Wire.Bb_accept_batch { epoch = epoch t; base; uids })
    end
    else
      multicast t t.counters.c_data
        (Wire.Data_batch
           { epoch = epoch t; batch = Wire.encode_batch ~base ~count t.batch_scratch });
    t.batch_bodies <- true;
    advance t;
    check_pending_done t
  end

(* Order [entry] into the pending batch: the seqno is assigned — and the
   sequencer's authoritative [store] updated — immediately, so duplicate
   detection and retransmission behave exactly as if the entry had been
   multicast; only the ordering multicast itself is deferred until the
   batch fills to [batch_max] or the flush timer fires. A batch that
   fills on arrival (every batch when batch_max = 1) never arms the
   timer. [body_known] marks BB entries whose payload already traveled
   by the sender's own broadcast. [alone] orders a membership entry:
   any pending batch goes first, and the entry travels by itself. *)
let enqueue t entry ~body_known ~alone =
  if alone then flush_batch t;
  let seqno = t.seq_next in
  t.seq_next <- seqno + 1;
  if t.batch_n = 0 then t.batch_base <- seqno;
  if t.batch_n >= Array.length t.batch_scratch then begin
    let bigger = Array.make (2 * Array.length t.batch_scratch) entry in
    Array.blit t.batch_scratch 0 bigger 0 t.batch_n;
    t.batch_scratch <- bigger
  end;
  t.batch_scratch.(t.batch_n) <- entry;
  t.batch_n <- t.batch_n + 1;
  if not body_known then t.batch_bodies <- false;
  Hashtbl.replace t.store seqno entry;
  if seqno > t.highest_seen then t.highest_seen <- seqno;
  if alone || t.batch_n >= t.config.batch_max then flush_batch t
  else if t.batch_n = 1 then
    t.batch_timer <-
      Some
        (Sim.Timer.after t.engine ~delay:t.config.batch_window (fun () ->
             Sim.Engine.attribute t.engine Tick "grp.batch";
             t.batch_timer <- None;
             if is_sequencer t then flush_batch t));
  seqno

(* An application message reaching the sequencer: by [Bcast_req] (PB,
   and the sequencer's own sends) or, under BB, as a broadcast body
   ([body_known]) that a tiny Accept will order. *)
let handle_bcast_req t ~origin ~uid ~payload ~body_known =
  match Hashtbl.find_opt t.assigned_uids uid with
  | Some seqno ->
      (* Duplicate (origin retried): if already resilient, re-notify.
         Sends leave [pending_done] only from the front, so the ones
         still pending are those at or after the front's seqno. *)
      if Queue.is_empty t.pending_done || seqno < (Queue.peek t.pending_done).seqno
      then send_done t ~origin ~uid
  | None ->
      let seqno =
        enqueue t (Wire.App { origin; uid; payload }) ~body_known ~alone:false
      in
      Hashtbl.replace t.assigned_uids uid seqno;
      Queue.push { seqno; origin; uid } t.pending_done;
      (* With r = 0 the send completes as soon as it is ordered. *)
      check_pending_done t

(* Member side: store a batch frame's entries, each at its seqno — one
   store pass, then a single [advance], so one cumulative Ack covers the
   whole range. *)
let store_batch t ({ base; entries } : Wire.batch) =
  let last = base + Array.length entries - 1 in
  if last > t.highest_seen then t.highest_seen <- last;
  Array.iteri
    (fun i entry -> if unheld t (base + i) then Hashtbl.replace t.store (base + i) entry)
    entries;
  advance t;
  if t.highest_seen > t.contig then request_retrans t

(* BB method, member side: an Accept pairs each uid with the entry its
   broadcast body became, then one [advance] covers the whole range. A
   missing body is recovered through the ordinary retransmission path
   (the sequencer holds every ordered entry). *)
let handle_bb_accept_batch t ~base ~uids =
  let last = base + Array.length uids - 1 in
  if last > t.highest_seen then t.highest_seen <- last;
  Array.iteri
    (fun i uid ->
      match Hashtbl.find_opt t.bb_bodies uid with
      | Some entry ->
          Hashtbl.remove t.bb_bodies uid;
          if unheld t (base + i) then Hashtbl.replace t.store (base + i) entry
      | None -> ())
    uids;
  advance t;
  if t.highest_seen > t.contig then request_retrans t

let handle_join_req t ~joiner ~uid =
  let seqno =
    match Hashtbl.find_opt t.assigned_uids uid with
    | Some seqno -> seqno
    | None ->
        (* The Join travels alone, after any pending batch. Ordering it
           also delivers it locally, so [t.members] already includes the
           joiner when we build the grant. *)
        let seqno =
          enqueue t (Wire.Join_member joiner) ~body_known:false ~alone:true
        in
        Hashtbl.replace t.assigned_uids uid seqno;
        seqno
  in
  unicast t ~dst:joiner t.counters.c_grant
    (Wire.Join_grant { epoch = epoch t; uid; members = t.members; base = seqno })

let handle_retrans t ~member ~from =
  let upto = min (from + retrans_batch - 1) (t.seq_next - 1) in
  Sim.Metrics.incr_handle t.counters.c_retrans_served;
  emit t ~name:"retrans" (fun () ->
      [
        ("gname", Sim.Trace.Str t.gname);
        ("member", Sim.Trace.Int member);
        ("from", Sim.Trace.Int from);
        ("upto", Sim.Trace.Int upto);
      ]);
  (* Each contiguous stored run in [from..upto] travels as one covering
     batch frame; gaps split the range. *)
  let run = ref [] and run_base = ref from in
  let flush_run () =
    if !run <> [] then begin
      let entries = Array.of_list (List.rev !run) in
      unicast t ~dst:member t.counters.c_data
        (Wire.Data_batch { epoch = epoch t; batch = { base = !run_base; entries } });
      run := []
    end
  in
  for seqno = from to upto do
    match Hashtbl.find_opt t.store seqno with
    | Some entry ->
        if !run = [] then run_base := seqno;
        run := entry :: !run
    | None -> flush_run ()
  done;
  flush_run ()

(* ---- ResetGroup --------------------------------------------------- *)

(* The contiguous prefix we would hold with [entries] taken. *)
let rec reach t entries c =
  if Hashtbl.mem t.store (c + 1) || List.mem_assoc (c + 1) entries then
    reach t entries (c + 1)
  else c

(* One attempt, run by [Reset.step] from here on; then wait for a view
   until the wait rule's deadline, whose next [Failed] is the retry. *)
let reset t =
  if status t = Left || status t = Idle then
    raise (Group_failure "reset: not a member");
  feed t (Reset.Start { now = now t; contig = t.contig });
  (try
     Sim.Condvar.await ~timeout:(Reset.deadline t.reset -. now t) t.changed
       (fun () -> status t = Normal)
   with Sim.Proc.Timeout -> ());
  if status t = Normal then List.length t.members else 0

(* ---- Packet handling ---------------------------------------------- *)

(* Every packet here is this group's: a member listens on [Wire.proto
   gname] only. *)
let handle_packet t (packet : Simnet.Packet.t) =
  let src = packet.src in
  match packet.payload with
  | Wire.Data_batch { epoch; batch } ->
      if epoch_matches t epoch && status t = Normal then begin
        t.last_from_seq <- now t;
        store_batch t batch
      end
      else if status t = Idle && t.join_collect <> None then
        (* Traffic racing our join: keep it until we know which group
           (and base) we were admitted to. *)
        Array.iteri
          (fun i entry -> t.join_stash <- (epoch, batch.base + i, entry) :: t.join_stash)
          batch.entries
  | Wire.Bb_accept_batch { epoch; base; uids } ->
      if epoch_matches t epoch && status t = Normal then begin
        t.last_from_seq <- now t;
        handle_bb_accept_batch t ~base ~uids
      end
  | Wire.Bcast_req { epoch; uid; payload } ->
      if epoch_matches t epoch && is_sequencer t then
        handle_bcast_req t ~origin:src ~uid ~payload ~body_known:false
  | Wire.Bb_body { epoch; uid; payload } ->
      if epoch_matches t epoch && status t = Normal then
        if is_sequencer t then
          handle_bcast_req t ~origin:src ~uid ~payload ~body_known:true
        else
          (* Keep our own loopback copy too: the Accept will need it. *)
          Hashtbl.replace t.bb_bodies uid (Wire.App { origin = src; uid; payload })
  | Wire.Ack { epoch; have_upto } ->
      if epoch_matches t epoch && is_sequencer t then record_ack t ~member:src ~have_upto
  | Wire.Done { epoch; uid } -> if epoch_matches t epoch then complete_send t uid
  | Wire.Retrans { epoch; from } ->
      if epoch_matches t epoch && is_sequencer t then handle_retrans t ~member:src ~from
  | Wire.Heartbeat { epoch; highest } ->
      if epoch_matches t epoch && status t = Normal then begin
        t.last_from_seq <- now t;
        if highest > t.highest_seen then t.highest_seen <- highest;
        if t.highest_seen > t.contig then request_retrans t;
        if t.sequencer <> t.me then
          send_packet t t.counters.c_hback (hb_ack_packet t)
      end
  | Wire.Hb_ack { epoch; have_upto } ->
      if epoch_matches t epoch && is_sequencer t then record_ack t ~member:src ~have_upto
  | Wire.Fail { epoch; reason } ->
      feed t (Reset.Suspect { now = now t; epoch; reason; tell = false })
  | Wire.Join_req { uid } -> if is_sequencer t then handle_join_req t ~joiner:src ~uid
  | Wire.Join_grant { epoch; uid; members; base } -> (
      match t.join_collect with
      | Some grants when status t = Idle ->
          t.join_collect <- Some (({ Reset.epoch; members; sequencer = src; base }, uid) :: grants)
      | Some _ | None -> ())
  | Wire.Leave_req { epoch } ->
      if epoch_matches t epoch && is_sequencer t then
        ignore (enqueue t (Wire.Leave_member src) ~body_known:false ~alone:true)
  | Wire.Reset_invite { instance; view } ->
      feed t (Reset.Invite { instance; now = now t; contig = t.contig; view; coord = src })
  | Wire.Reset_state { instance; view; have_upto } ->
      feed t (Reset.State { instance; view; member = src; have = have_upto })
  | Wire.Reset_fetch { instance; from; upto } ->
      if instance = (epoch t).instance then
        unicast t ~dst:src t.counters.c_reset
          (Wire.Reset_entries { instance; entries = held_range t ~from ~upto })
  | Wire.Reset_entries { instance; entries } ->
      let reach = reach t entries t.contig in
      feed t ~patch:entries (Reset.Entries { instance; src; reach })
  | Wire.Reset_commit { epoch; members; sequencer; base; patch } ->
      let view = { Reset.epoch; members; sequencer; base } in
      let reach = reach t patch t.contig in
      feed t ~patch (Reset.Commit { coord = src; view; reach })
  | _ -> ()

(* The sequencer's watch over the other members, one tick's worth: a
   plain recursion, so a tick allocates no closure and no option. *)
let rec watch_members t = function
  | [] -> ()
  | m :: rest ->
      (if m <> t.me && status t = Normal then
         let heard =
           match Hashtbl.find t.last_heard m with
           | v -> v
           | exception Not_found -> 0.0
         in
         if now t -. heard > t.config.fail_timeout then
           suspect t (Printf.sprintf "member %d silent" m));
      watch_members t rest

(* One failure-detector tick: the sequencer heartbeats and watches
   every member; a member watches the sequencer. *)
let fd_check t =
  match status t with
  | Normal ->
      if t.sequencer = t.me then begin
        (* Suppress the heartbeat when data traffic is already flowing. *)
        if now t -. t.last_data_sent >= t.config.heartbeat_period then
          send_packet t t.counters.c_hb (heartbeat_packet t);
        watch_members t t.members
      end
      else if now t -. t.last_from_seq > t.config.fail_timeout then
        suspect t "sequencer silent"
  | Broken | Resetting -> feed t (Reset.Tick { now = now t }) (* the wait rule *)
  | Idle | Left -> ()

(* The failure detector is one periodic timer, parked in [t.fd_tick] so
   [halt_fd] can revoke it — also from inside a tick, when the tick
   itself crashes the node (a fault filter on its heartbeat). Every
   departure halts it ([Reset.Halt]). *)
let arm_fd t =
  t.fd_tick <-
    Some
      (Sim.Timer.every t.engine ~period:t.config.heartbeat_period (fun () ->
           Sim.Engine.attribute t.engine Tick
             (if t.sequencer = t.me then "grp.detector.seq" else "grp.detector.member");
           fd_check t))

let make ?(config = Types.default_config) net nic ~gname =
  let node = Simnet.Network.nic_node nic in
  let engine = Simnet.Network.engine net in
  let t =
    {
      net;
      nic;
      node;
      engine;
      gname;
      proto = Wire.proto gname;
      config;
      counters =
        make_counters (Sim.Engine.metrics engine)
          ~dissemination:config.Types.dissemination;
      me = Sim.Node.id node;
      reset = Reset.init ~me:(Sim.Node.id node) ~fail_timeout:config.fail_timeout;
      reset_timer = None;
      members = [];
      sequencer = -1;
      store = Hashtbl.create 256;
      contig = 0;
      highest_seen = 0;
      deliver_q = Sim.Mailbox.create ();
      changed = Sim.Condvar.create ();
      pending_sends = Hashtbl.create 8;
      seq_next = 1;
      batch_base = 0;
      batch_n = 0;
      batch_scratch = Array.make 8 (Wire.Join_member 0);
      batch_bodies = true;
      batch_timer = None;
      acked = Hashtbl.create 8;
      last_heard = Hashtbl.create 8;
      pending_done = Queue.create ();
      assigned_uids = Hashtbl.create 32;
      last_data_sent = 0.0;
      fd_tick = None;
      last_from_seq = Sim.Engine.now engine;
      last_retrans_req = -1000.0;
      join_collect = None;
      join_stash = [];
      bb_bodies = Hashtbl.create 16;
      hb_packet = None;
      hback_packet = None;
    }
  in
  (* Packets are handled in their delivery event, as the kernel would.
     Listening replaces the handler of a previous (left) member endpoint
     on this NIC, so a rejoin takes its packets over. *)
  Simnet.Network.listen nic ~proto:t.proto (fun packet ->
      if status t <> Left then handle_packet t packet);
  arm_fd t;
  (* A crashed node's failure detector must stop ticking: revoke it.
     The batch timer is revoked too, so a crashed sequencer's pending
     batch dies with it instead of being multicast posthumously. *)
  Sim.Node.on_crash node (fun () ->
      halt_fd t;
      clear_batch t;
      Option.iter Sim.Timer.cancel t.reset_timer);
  t

let create_group ?config net nic ~gname =
  let t = make ?config net nic ~gname in
  let epoch = { instance = fresh_instance t; view = 1; coord = t.me } in
  feed t (Reset.Adopt { epoch; members = [ t.me ]; sequencer = t.me; base = 0 });
  t

(* Uids must be unique across member incarnations on the same node: the
   sequencer deduplicates by uid, so a restarted member reusing an
   old uid would be handed the original answer — e.g. a join grant with a
   long-gone base, making it re-execute history. The engine counter is
   shared by every incarnation in a run, which gives exactly that. *)
let fresh_uid t = (t.me * 100_000_000) + Sim.Engine.fresh_id t.engine

let join_group ?config net nic ~gname =
  let t = make ?config net nic ~gname in
  let uid = fresh_uid t in
  t.join_collect <- Some [];
  multicast t t.counters.c_join (Wire.Join_req { uid });
  Sim.Proc.sleep join_window;
  let grants = match t.join_collect with Some g -> g | None -> [] in
  t.join_collect <- None;
  (* The largest group wins: partition-merge joins converge instead of
     ping-ponging. *)
  let grants = List.filter_map (fun (v, u) -> if u = uid then Some v else None) grants in
  match Reset.choose_grant ~me:t.me grants with
  | None ->
      feed t (Reset.Depart "no grant");
      raise (Join_failed (Printf.sprintf "%s: no grant received" gname))
  | Some view ->
      t.contig <- view.base;
      feed t (Reset.Adopt view);
      (* Replay data that raced the join. *)
      let stash = List.rev t.join_stash in
      t.join_stash <- [];
      List.iter
        (fun (e, seqno, entry) ->
          if Types.epoch_compare e view.epoch = 0 && seqno > view.base then
            store_data t ~seqno ~entry)
        stash;
      t

let send t payload =
  if status t <> Normal then
    raise (Group_failure ("send while " ^ Types.status_to_string (status t)));
  let uid = fresh_uid t in
  let epoch0 = epoch t in
  let started = now t in
  let meth =
    match t.config.dissemination with Types.Pb -> "pb" | Types.Bb -> "bb"
  in
  if tracing t then
    emit t ~name:"send" (fun () ->
        [
          ("gname", Sim.Trace.Str t.gname);
          ("uid", Sim.Trace.Int uid);
          ("method", Sim.Trace.Str meth);
        ]);
  let rec attempt n =
    if status t <> Normal || Types.epoch_compare (epoch t) epoch0 <> 0 then
      raise (Group_failure "group changed during send");
    if n > t.config.send_retries then begin
      suspect t "send timed out";
      raise (Group_failure "send timed out")
    end;
    let ivar = Sim.Ivar.create () in
    Hashtbl.replace t.pending_sends uid ivar;
    (if t.sequencer = t.me then
       (* The sequencer's own sends never need forwarding: order and
          broadcast directly (identical under PB and BB). *)
       handle_bcast_req t ~origin:t.me ~uid ~payload ~body_known:false
     else
       match t.config.dissemination with
       | Types.Pb ->
           unicast t ~dst:t.sequencer t.counters.c_req
             (Wire.Bcast_req { epoch = epoch t; uid; payload })
       | Types.Bb ->
           multicast t t.counters.c_body (Wire.Bb_body { epoch = epoch t; uid; payload }));
    match Sim.Ivar.read ~timeout:send_timeout ivar with
    | () ->
        let wait = now t -. started in
        Sim.Metrics.Histogram.observe t.counters.c_send_ms wait;
        if tracing t then
          emit t ~name:"send.done" (fun () ->
              [
                ("gname", Sim.Trace.Str t.gname);
                ("uid", Sim.Trace.Int uid);
                ("wait_ms", Sim.Trace.Float wait);
                ("attempts", Sim.Trace.Int n);
              ])
    | exception Sim.Proc.Timeout ->
        Hashtbl.remove t.pending_sends uid;
        Sim.Metrics.incr_handle t.counters.c_send_retry;
        emit t ~name:"send.retry" (fun () ->
            [
              ("gname", Sim.Trace.Str t.gname);
              ("uid", Sim.Trace.Int uid);
              ("attempt", Sim.Trace.Int n);
            ]);
        attempt (n + 1)
  in
  attempt 1

let rec receive ?timeout t =
  (match status t with
  | Broken -> raise (Group_failure "group broken")
  | Left -> raise (Group_failure "not a member")
  | Idle -> raise (Group_failure "not joined")
  | Normal | Resetting -> ());
  match Sim.Mailbox.recv ?timeout t.deliver_q with
  | Delivery d -> d
  | Failed reason when status t = Broken || status t = Resetting ->
      raise (Group_failure reason)
  | Failed _ -> (* stale: a reset has succeeded since *) receive ?timeout t

let pending_deliveries t = Sim.Mailbox.length t.deliver_q

let batch_timer_active t =
  match t.batch_timer with Some tm -> Sim.Timer.active tm | None -> false

let leave t =
  match status t with
  | Idle | Broken | Resetting | Left -> feed t (Reset.Depart "left group")
  | Normal ->
      if t.sequencer = t.me then begin
        (* Drain pending resilience work, then order our own departure so
           the handover point is unambiguous. *)
        (try
           Sim.Condvar.await ~timeout:send_timeout t.changed (fun () ->
               Queue.is_empty t.pending_done)
         with Sim.Proc.Timeout -> ());
        ignore (enqueue t (Wire.Leave_member t.me) ~body_known:false ~alone:true)
      end
      else
        unicast t ~dst:t.sequencer t.counters.c_leave (Wire.Leave_req { epoch = epoch t });
      (try
         Sim.Condvar.await ~timeout:send_timeout t.changed (fun () ->
             status t = Left)
       with Sim.Proc.Timeout -> feed t (Reset.Depart "left group"))
