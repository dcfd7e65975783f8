(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in a simulation draws from one [t] seeded
    at engine creation, so a given seed always reproduces the same run.
    Splitmix64 is tiny, fast, and has well-understood statistical
    quality for simulation purposes. *)

type t

val create : int64 -> t

(** [split rng] derives an independent generator from [rng]; used to give
    subsystems their own streams without coupling their consumption. *)
val split : t -> t

(** [derive ~base count] returns [count] independent seeds determined by
    [base] — seed [i] is the one [split] would give the [i+1]-th
    subsystem of [create base]. The multi-seed sweep harnesses use this
    so a whole [--seeds K] grid is reproducible from one base seed.
    Raises [Invalid_argument] on a negative count. *)
val derive : base:int64 -> int -> int64 list

(** [int rng bound] draws uniformly from [0, bound). Raises
    [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

(** [float rng] draws uniformly from [0, 1). *)
val float : t -> float

(** [uniform rng ~lo ~hi] draws uniformly from [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** [exponential rng ~mean] draws from the exponential distribution. *)
val exponential : t -> mean:float -> float

(** [bool rng ~p] is [true] with probability [p]. *)
val bool : t -> p:float -> bool
