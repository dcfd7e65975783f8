(** Structured trace events.

    Replaces the old opaque [float -> string -> unit] tracer hook: every
    interesting protocol step (group send/deliver/retransmit, RPC
    locate/transaction, disk and NVRAM operations, per-request server
    work) is a typed event with a subsystem, originating node, virtual
    timestamp and key=value attributes. Events land in a bounded ring
    buffer — a long run cannot exhaust memory — and render as an
    annotated text timeline or as JSONL for offline analysis.

    Because the simulation is deterministic, the same seed produces a
    byte-identical JSONL file; the tests assert this. *)

type attr =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  seq : int;  (** global emission index, 0-based, monotonic *)
  time : float;  (** virtual milliseconds *)
  subsystem : string;  (** "grp", "rpc", "net", "storage", "dirsvc", … *)
  node : int;  (** originating node id; -1 when not node-bound *)
  name : string;  (** event name within the subsystem *)
  attrs : (string * attr) list;
}

type t

(** [create ?capacity ()] — ring buffer keeping the newest [capacity]
    events (default 65536). *)
val create : ?capacity:int -> unit -> t

(** Events currently retained. *)
val length : t -> int

(** Events emitted over the trace's lifetime. *)
val emitted : t -> int

(** Events that fell off the ring ([emitted - length]). *)
val dropped : t -> int

(** Streaming hook, called synchronously on every emit (e.g. live
    timeline printing). The ring is populated either way. *)
val set_sink : t -> (event -> unit) option -> unit

val emit :
  t ->
  time:float ->
  subsystem:string ->
  node:int ->
  name:string ->
  (string * attr) list ->
  unit

val clear : t -> unit

(** Retained events, oldest first. *)
val events : t -> event list

(** Decodes one event's JSON object, as {!event_to_jsonl} prints it.
    Raises [Invalid_argument] on a value that is not an encoded event. *)
val event_of_json : Json.t -> event

(** One compact JSON object, no trailing newline. *)
val event_to_jsonl : event -> string

val event_to_text : event -> string

(** All retained events as newline-terminated JSONL. *)
val to_jsonl : t -> string
