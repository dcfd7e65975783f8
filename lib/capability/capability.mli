(** Amoeba capabilities.

    A capability is a 128-bit ticket naming an object and the operations
    its holder may perform: service port, object number, rights mask and
    a cryptographic check field. The scheme follows Amoeba's: the server
    stores one random {e owner check} [C] per object; the owner
    capability carries all rights and check [C]; a restricted capability
    with rights [r] carries check [H(C xor r)], which anyone can compute
    from the owner capability but nobody can invert to forge wider
    rights. Restriction always starts from the owner capability;
    re-restricting an already-restricted capability requires the server
    (as in Amoeba's directory service). *)

type rights = int
(** Rights mask; the low 8 bits are significant. *)

val all_rights : rights

type t = { port : string; obj : int; rights : rights; check : int64 }

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

(** Server-side per-object secret (the stored owner check). *)
type secret = int64

(** [mint_secret rng_state] derives a fresh secret deterministically from
    the caller's counter/state — the simulation keeps secrets
    reproducible. *)
val mint_secret : int64 -> secret

(** [owner ~port ~obj secret] is the all-rights capability. *)
val owner : port:string -> obj:int -> secret -> t

(** [restrict cap ~mask] narrows an {e owner} capability to
    [rights land mask]. Raises [Invalid_argument] when applied to a
    non-owner capability (its check would not validate anyway). *)
val restrict : t -> mask:rights -> t

(** [validate cap secret] checks the capability against the stored
    owner check: true for the owner capability itself and for any
    correctly restricted version of it. *)
val validate : t -> secret -> bool

(** [has_rights cap ~need] is true when every bit of [need] is present. *)
val has_rights : t -> need:rights -> bool
