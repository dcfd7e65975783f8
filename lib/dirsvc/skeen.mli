(** Skeen's "determining the last process to fail" (ACM TOCS 1985),
    as used by the recovery protocol of the group directory service
    (paper §3.2, Fig. 6) — in pure, separately testable form.

    Each server maintains a {e mourned set}: the servers it saw crash
    before it went down (derived from the configuration vector in its
    commit block). During recovery the reachable servers pool their
    mourned sets. The servers that {e nobody} mourns are the candidates
    for having performed the last update; recovery is safe only when

    {ol
    {- the recovering group holds a majority of all servers (partition
       safety), and}
    {- that {e last set} is contained in the group (one of its members
       is guaranteed to hold the latest directory versions), {b or} the
       paper's improvement applies: some member never went down since
       the last majority configuration and holds the highest update
       sequence number — then no update can have happened behind its
       back, {b or} some member is already {e serving}: a running
       majority is the authoritative lineage and a rejoiner simply
       adopts it.}}

    The donor is the member with the highest sequence number — except
    when serving members exist, in which case the donor is the serving
    member with the highest sequence number (a rebooted server's own
    count may be inflated by an uncommitted suffix). *)

module Int_set : Set.S with type elt = int

type peer_state = {
  server : int;
  mourned : Int_set.t;
  useq : int;  (** highest update sequence number the server holds *)
  stayed_up : bool;
      (** continuously up since it last belonged to a majority
          configuration (i.e. it never crashed, it only lost quorum) *)
  serving : bool;
      (** currently serving clients as part of a majority view. A
          serving peer embodies the authoritative committed lineage: a
          rejoiner must adopt its state even when the rejoiner's own
          sequence number is higher — a crashed server can reboot with
          an {e uncommitted suffix} (updates it applied whose resilience
          was never reached), which must be discarded, not donated. *)
}

(** [mourned_of_vector vector] — servers marked down in a configuration
    vector, i.e. the initial mourned set (vector index = server id,
    1-based ids in element order given). *)
val mourned_of_vector : bool array -> Int_set.t

type verdict =
  | Recover of { donor : int; last_set : Int_set.t }
  | Wait_for of Int_set.t
      (** safe only once these servers join (last set not covered) *)
  | No_majority

(** [donor peers] is the peer with the highest sequence number, ties
    going to the lowest server id; [None] for no peers. *)
val donor : peer_state list -> peer_state option

(** [decide ~all ~present] runs the recovery predicate over the pooled
    states of the [present] servers. [all] is the full set of directory
    servers ever configured. *)
val decide : all:int list -> present:peer_state list -> verdict
