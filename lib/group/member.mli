(** A group member endpoint: Amoeba's Fig. 1 primitives.

    {ul
    {- [create_group] / [join_group] — CreateGroup / JoinGroup: the
       member adopts its first view}
    {- [send] — SendToGroup: blocks until the message is held by r+1
       members (resilience degree r); raises {!Types.Group_failure} if
       the group breaks first}
    {- [receive] — ReceiveFromGroup: the next delivery in the global
       total order; raises {!Types.Group_failure} when the kernel has
       detected a failure (at once while [Broken]; while [Resetting],
       when the wait rule below fires), after which the application
       must call [reset]}
    {- [reset] — ResetGroup: one attempt ({!Reset}: invite, collect,
       sync, commit) to rebuild the group from the reachable members;
       returns the size of the view it ends in (the caller checks it
       against its majority requirement), or 0 if none by the wait
       rule's deadline (its next failure prompts another attempt)}
    {- [leave] — LeaveGroup}
    {- [info] — GetInfoGroup}}

    {b One writer.} A member's status and installed view change only
    in {!Reset.step}: creating, joining, leaving, suspecting, failing
    and resetting are its inputs, and the member carries out the
    actions it returns. Every view is entered the same way, whether a
    reset commits it, [create_group] makes it or a join grant names
    it; only a reset's is traced as a [grp]/[view] event.

    {b Wait rule} ({!Reset.deadline}, on each detector tick). A member
    [Broken] or [Resetting] for longer than [2 * 15 ms + fail_timeout]
    (110 ms by default), counted from when it entered that status or
    last accepted a reset invite, gets one failure queued for [receive].

    A member counts every protocol message it sends ([grp.req],
    [grp.data], …) and how long each send blocks
    ([grp.send_ms{method}]) in its engine's registry
    ({!Sim.Engine.metrics}).

    All functions must be called from a fiber on the member's node. *)

type t

(** [create_group net nic ~gname] starts a new instance of the group
    with this member alone in view 1, sequencing from seqno 1. *)
val create_group :
  ?config:Types.config ->
  Simnet.Network.t ->
  Simnet.Network.nic ->
  gname:string ->
  t

(** [join_group net nic ~gname] broadcasts a join request, collects
    grants for 5 ms, and adopts the largest granting group (ties toward
    the lowest sequencer): its view, with this member in it, from the
    seqno its [Join_member] holds. Data of that view overheard while
    joining is kept and replayed past that seqno. Raises
    {!Types.Join_failed} when nobody grants, leaving the member [Left]. *)
val join_group :
  ?config:Types.config ->
  Simnet.Network.t ->
  Simnet.Network.nic ->
  gname:string ->
  t

val me : t -> int

val send : t -> Simnet.Payload.t -> unit

(** The next delivery in the total order: its seqno and the entry this
    member holds there (as {!held} gives it). Seqnos are contiguous
    across entries: membership changes occupy slots in the same
    numbering as application messages, so a consumer can always tell
    how far it has processed the stream. *)
val receive : ?timeout:float -> t -> int * Wire.entry

val reset : t -> int

(** LeaveGroup. A [Normal] member has its departure ordered (a
    sequencer drains its pending sends first) and is [Left] when it
    delivers its own [Leave_member], or after 60 ms without it; a member
    in any other status is [Left] at once. Leaving fails the pending
    sends and stops the failure detector. *)
val leave : t -> unit

val info : t -> Types.info

(** Sorted ids of the current view (= [(info t).members]). *)
val members : t -> int list

(** The highest seqno this member has seen ordered (=
    [(info t).highest_seen]), read without building {!info}'s record. *)
val highest_seen : t -> int

(** The ordered entry this member holds at [seqno] — an application
    payload or a membership change — or [None] while it is not held.
    Delivered entries stay held, so a caller that consumes deliveries
    asynchronously can look ahead at what it has yet to apply. *)
val held : t -> int -> Wire.entry option

(** Deliveries buffered but not yet consumed by [receive]. *)
val pending_deliveries : t -> int

(** Whether the sequencer's batch flush timer is currently armed (never
    with [batch_max = 1]: such a batch fills on arrival). A batch flushed by reaching
    [batch_max] cancels its timer, so this returning [false] right after
    a full batch went out is the observable no-timer-corpse guarantee. *)
val batch_timer_active : t -> bool
