(** Extensible packet payloads.

    Each protocol layer (RPC, group communication, application services)
    extends [t] with its own constructors, so one simulated network can
    carry them all — the way FLIP multiplexed every Amoeba protocol over
    one wire format. Receivers pattern-match on their own constructors
    and ignore the rest. *)

type t = ..

(** Fallback constructor, mainly for tests. *)
type t += Opaque of string

(** Register a printer for trace output. Printers are tried in
    first-registration order until one returns [Some]. Registration is
    keyed by [name] and idempotent: registering the same name again
    replaces the previous printer in place, so module initializers that
    run more than once per process do not accumulate duplicates.
    Thread-safe: the registry is an immutable list updated by CAS, so
    concurrent registrations from parallel sweep domains cannot drop
    one another. *)
val register_printer : name:string -> (t -> string option) -> unit

val to_string : t -> string

(** The name of [payload]'s constructor, as it was declared (for example
    ["Group.Wire.Heartbeat"]). Allocates nothing. *)
val constructor : t -> string
