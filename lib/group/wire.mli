(** Wire messages of the sequencer-based total-order broadcast protocol
    (the PB method of Kaashoek & Tanenbaum's Amoeba group protocol).

    Normal operation: a member sends [Bcast_req] point-to-point to the
    sequencer; the sequencer assigns the next global sequence number and
    multicasts it in a [Data_batch] (a batch of one unless concurrent
    updates share it); members deliver strictly in sequence and return
    cumulative [Ack]s; once r+1 members hold the message the sequencer
    tells the origin with [Done], unblocking its SendToGroup. With a
    triplicated group and r = 2 that is 5 messages — the paper's count.
    Under BB the sender broadcasts a [Bb_body] and the sequencer orders
    it with a [Bb_accept_batch] instead.

    Failure handling: heartbeats double as "highest assigned seqno"
    gossip; gaps trigger [Retrans]; silence triggers [Fail]; recovery is
    the invite/state/commit view change behind ResetGroup. *)

(** An ordered entry. An [App]'s [origin] is the member that sent it,
    and its [uid] is unique across members: it leads with that member's
    node id. *)
type entry =
  | App of { origin : int; uid : int; payload : Simnet.Payload.t }
  | Join_member of int
  | Leave_member of int

(** One ordered multicast: the entries at the contiguous seqno range
    [base .. base + Array.length entries - 1]. The sequencer freezes
    them out of its reused scratch vector with one [Array.sub], and a
    receiver stores the very entries it is handed, so a frame carries
    the entries the sequencer holds and nothing is re-encoded. *)
type batch = {
  base : int;  (** seqno of the first entry *)
  entries : entry array;
}

(** [encode_batch ~base ~count entries] freezes the first [count] slots
    of [entries] (typically the sequencer's reused scratch vector) into
    a frame. Raises [Invalid_argument] on an empty or oversized
    count. *)
val encode_batch : base:int -> count:int -> entry array -> batch

(** A member listens on [proto gname] only, so no message names its
    group, and none names its sender, which is the packet's [src]: the
    origin of a [Bcast_req] or a [Bb_body], the member of an [Ack], an
    [Hb_ack], a [Retrans], a [Leave_req] or a [Reset_state], the joiner
    of a [Join_req], the sequencer of a [Join_grant] and the coordinator
    of a [Reset_invite] or a [Reset_commit]. *)
type Simnet.Payload.t +=
  | Bcast_req of { epoch : Types.epoch; uid : int; payload : Simnet.Payload.t }
  | Bb_body of { epoch : Types.epoch; uid : int; payload : Simnet.Payload.t }
  | Data_batch of { epoch : Types.epoch; batch : batch }
      (** one ordered multicast covering a whole batch (PB, and BB
          batches that contain entries whose bodies never traveled);
          also the retransmission frame *)
  | Bb_accept_batch of { epoch : Types.epoch; base : int; uids : int array }
      (** BB: one Accept covering [base .. base + n - 1]; members pair
          each uid with the body broadcast under it *)
  | Ack of { epoch : Types.epoch; have_upto : int }
  | Done of { epoch : Types.epoch; uid : int }
  | Retrans of { epoch : Types.epoch; from : int }
  | Heartbeat of { epoch : Types.epoch; highest : int }
  | Hb_ack of { epoch : Types.epoch; have_upto : int }
  | Fail of { epoch : Types.epoch; reason : string }
  | Join_req of { uid : int }
  | Join_grant of {
      epoch : Types.epoch;
      uid : int;
      members : int list;
      base : int;  (** joiner's first seqno is [base + 1] *)
    }
  | Leave_req of { epoch : Types.epoch }
  | Reset_invite of { instance : int; view : int }
  | Reset_state of { instance : int; view : int; have_upto : int }
  | Reset_fetch of { instance : int; from : int; upto : int }
  | Reset_entries of { instance : int; entries : (int * entry) list }
  | Reset_commit of {
      epoch : Types.epoch;  (** the new view *)
      members : int list;
      sequencer : int;
      base : int;  (** the new view starts assigning at [base + 1] *)
      patch : (int * entry) list;  (** entries the receiver was missing *)
    }

(** Socket protocol key for a named group. *)
val proto : string -> string
