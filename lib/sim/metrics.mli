(** Named counters and latency histograms.

    The benches rebuild the paper's §3.1 cost analysis (messages and disk
    operations per directory update) from these counters, and the figure
    harnesses aggregate latency distributions recorded here. Histograms
    use fixed buckets, so memory stays constant no matter how many
    operations a run performs. A simulation's registry is its engine's
    ({!Engine.metrics}). *)

(** Fixed-bucket latency histogram. Observations are assigned to
    log-spaced buckets; quantiles are estimated by linear interpolation
    within the bucket that holds the requested rank. No per-sample data
    is retained. *)
module Histogram : sig
  type t

  (** [create ?bounds ()] — [bounds] must be strictly increasing upper
      bounds; the default runs from 0.05 to 10000 ms, roughly
      log-spaced. An implicit overflow bucket sits above the last.
      Raises [Invalid_argument] on bounds that do not increase. *)
  val create : ?bounds:float array -> unit -> t

  val observe : t -> float -> unit

  val count : t -> int

  val sum : t -> float

  (** [nan] when empty. *)
  val mean : t -> float

  val min_value : t -> float

  val max_value : t -> float

  (** [quantile t q] with [q] in [0, 1]. Interpolated within the bucket,
      clamped to the observed min/max; [nan] when empty. *)
  val quantile : t -> float -> float

  (** Non-empty buckets as [(lower, upper, count)], ascending;
      the overflow bucket's upper bound is [infinity]. *)
  val buckets : t -> (float * float * int) list

  (** [{n; mean; min; max; p50; p90; p95; p99}] — just [{n = 0}] when
      empty. *)
  val summary_to_json : t -> Json.t
end

(** [labelled key ~labels] canonicalises labels into the key:
    [labelled "op_ms" ~labels:[("server", "2"); ("op", "write")]] is
    ["op_ms{op=write,server=2}"] (labels sorted by name). An empty label
    list returns the key unchanged. *)
val labelled : string -> labels:(string * string) list -> string

(** Key without its label suffix. *)
val base_key : string -> string

(** Parsed label pairs of a canonical key ([[]] when unlabelled). *)
val labels_of_key : string -> (string * string) list

type t

val create : unit -> t

(** Counters. *)

val incr : ?by:int -> t -> string -> unit

(** Pre-resolved counter handle: the key is interned once and hot paths
    bump the underlying cell directly — no key building, hashing or
    table lookup per event. A handle and [incr] on the same key update
    the same counter. [reset] orphans outstanding handles (their
    increments are no longer visible through [count]); re-resolve after
    a reset. *)
type handle

val counter : t -> string -> handle

val incr_handle : ?by:int -> handle -> unit

val count : t -> string -> int

(** All counters, sorted by name. *)
val counters : t -> (string * int) list

(** [delta ~before ~after] is the per-counter difference over the union
    of both key sets: counters absent in [before] count from zero, and
    counters present only in [before] yield negative deltas. Zero deltas
    are omitted. *)
val delta : before:(string * int) list -> after:(string * int) list -> (string * int) list

(** Histograms. *)

val histogram : t -> string -> Histogram.t option

(** [histogram_handle t key] resolves (creating if needed) the histogram
    named [labelled key ~labels] once; record into it directly with
    {!Histogram.observe}. The histogram-side analogue of {!counter} —
    the canonical labelled key is built at resolution time, not per
    observation. Orphaned by [reset], like counter handles. *)
val histogram_handle :
  ?labels:(string * string) list -> t -> string -> Histogram.t

(** All histograms, sorted by name. *)
val histograms : t -> (string * Histogram.t) list

val reset : t -> unit
