(** RPC wire messages (Amoeba transaction protocol).

    An Amoeba RPC costs three packets — request, reply, acknowledgement —
    and is preceded, the first time a client talks to a service, by a
    broadcast {e locate}: every machine running a server that is
    currently listening on the port answers HEREIS; a busy server that
    receives a request answers NOTHERE, making the client fall back to
    another cached server. The paper's Figure 8 throughput shape comes
    from this heuristic.

    While a reply is outstanding the client's kernel sends the server an
    {e enquiry} now and then (Birrell & Nelson's call probe); the
    server's kernel answers ALIVE while it holds the request. A client
    whose enquiries go unanswered gives up on that server; there is no
    other deadline on a transaction. *)

(** No message names its sender: that is the packet's [src], the
    client for [Locate], [Request], [Ack] and [Enquiry] and the server
    for the others. *)
type Simnet.Payload.t +=
  | Locate of { port : string; xid : int }
  | Here_is of { port : string; xid : int }
  | Request of { port : string; xid : int; body : Simnet.Payload.t }
  | Reply of { xid : int; body : Simnet.Payload.t }
  | Not_here of { port : string; xid : int }
  | Ack of { xid : int }
  | Enquiry of { xid : int }
      (** client to server while a reply is outstanding: do you still
          hold [xid]? *)
  | Alive of { xid : int }
      (** the server's answer: [xid] was accepted and not yet replied
          to. A server that does not hold it stays silent. *)

(** Socket protocol key all RPC traffic travels on. *)
val proto : string
