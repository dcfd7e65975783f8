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

type entry =
  | App of { origin : int; uid : int; payload : Simnet.Payload.t }
  | Join_member of int
  | Leave_member of int

type member_state = {
  member : int;
  have_upto : int;  (** highest contiguous seqno this member holds *)
}

(** Flat batch framing: the sequencer packs concurrently arriving
    updates into one multicast covering the contiguous seqno range
    [base .. base + count - 1]. The header is int-encoded — three ints
    per entry (tag, member-or-origin, uid) — and App payloads ride in a
    parallel array, so a frame is two flat arrays rather than [count]
    boxed entries. Delivery unpacks it back into individual ordered
    entries with {!decode_entry}, which is what keeps the layers above
    (and the recovery path) unchanged. *)
type batch = {
  base : int;  (** seqno of the first entry *)
  count : int;
  hdr : int array;  (** 3 ints per entry: tag, member/origin, uid *)
  payloads : Simnet.Payload.t array;
}

(** [encode_batch ~base ~count entries] freezes the first [count] slots
    of [entries] (typically the sequencer's reused scratch vector) into
    a flat frame. Raises [Invalid_argument] on an empty or oversized
    count. *)
val encode_batch : base:int -> count:int -> entry array -> batch

(** [decode_entry b i] reconstructs entry [i] (seqno [b.base + i]). *)
val decode_entry : batch -> int -> entry

(** All entries, in seqno order. *)
val batch_entries : batch -> entry list

type Simnet.Payload.t +=
  | Bcast_req of {
      gname : string;
      epoch : Types.epoch;
      origin : int;
      uid : int;
      payload : Simnet.Payload.t;
    }
  | Bb_body of {
      gname : string;
      epoch : Types.epoch;
      origin : int;
      uid : int;
      payload : Simnet.Payload.t;
    }
  | Data_batch of { gname : string; epoch : Types.epoch; batch : batch }
      (** one ordered multicast covering a whole batch (PB, and BB
          batches that contain entries whose bodies never traveled);
          also the retransmission frame *)
  | Bb_accept_batch of {
      gname : string;
      epoch : Types.epoch;
      base : int;
      pairs : int array;  (** 2 ints per accept: origin, uid *)
    }
      (** BB: one Accept covering [base .. base + n - 1]; members pair
          each (origin, uid) with its broadcast body *)
  | Ack of { gname : string; epoch : Types.epoch; member : int; have_upto : int }
  | Done of { gname : string; epoch : Types.epoch; uid : int }
  | Retrans of {
      gname : string;
      epoch : Types.epoch;
      member : int;
      from : int;
    }
  | Heartbeat of { gname : string; epoch : Types.epoch; highest : int }
  | Hb_ack of { gname : string; epoch : Types.epoch; member : int; have_upto : int }
  | Fail of { gname : string; epoch : Types.epoch; reason : string }
  | Join_req of { gname : string; joiner : int; uid : int }
  | Join_grant of {
      gname : string;
      epoch : Types.epoch;
      uid : int;
      members : int list;
      sequencer : int;
      base : int;  (** joiner's first seqno is [base + 1] *)
    }
  | Leave_req of { gname : string; epoch : Types.epoch; member : int }
  | Reset_invite of { gname : string; instance : int; view : int; coord : int }
  | Reset_state of {
      gname : string;
      instance : int;
      view : int;
      member : int;
      have_upto : int;
    }
  | Reset_fetch of { gname : string; instance : int; from : int; upto : int }
  | Reset_entries of { gname : string; instance : int; entries : (int * entry) list }
  | Reset_commit of {
      gname : string;
      epoch : Types.epoch;  (** the new view *)
      members : int list;
      sequencer : int;
      base : int;  (** the new view starts assigning at [base + 1] *)
      patch : (int * entry) list;  (** entries the receiver was missing *)
    }

(** Socket protocol key for a named group. *)
val proto : string -> string
