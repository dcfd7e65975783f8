(** Fixed-size domain worker pool with deterministic, submission-order
    joins — the multicore substrate for the benchmark grid.

    Every run in the paper's evaluation owns its engine, heap, RNG
    stream and metrics registry, so the grid of runs is embarrassingly
    parallel; what is {e not} parallel is reporting. The pool therefore
    separates execution from observation: tasks run on whatever domain
    frees up first, but results are only ever consumed through [await],
    and [map] awaits in submission order — so a coordinator that prints
    or serialises from joined results produces byte-identical output at
    any [jobs] level.

    Concurrency is [jobs] domains in total: [jobs - 1] spawned workers
    plus the submitting domain itself, which {e helps} — an [await] on
    an unfinished future runs queued tasks instead of blocking, which
    also makes nested fan-out (a task that submits and awaits sub-tasks)
    deadlock-free. [jobs = 1] spawns no domains at all and degenerates
    to inline execution at [submit], preserving exact sequential
    semantics. *)

type t

type 'a future

(** The total concurrency level (including the submitting domain). *)
val jobs : t -> int

(** [submit pool f] enqueues [f] and returns its future. With
    [jobs = 1] the task runs inline before [submit] returns. An
    exception raised by [f] is captured and re-raised at [await].
    Raises [Invalid_argument] once the pool's [with_pool] has returned. *)
val submit : t -> (unit -> 'a) -> 'a future

(** [await fut] returns the task's result, running other queued tasks
    while it waits. Re-raises the task's exception, if any. [await] is
    idempotent: repeated calls return (or re-raise) the same outcome. *)
val await : 'a future -> 'a

(** [map pool f items] submits [f item] for every item (in list order)
    and awaits the results {e in submission order} — the deterministic
    fan-out primitive. An exception from any task propagates; the
    remaining tasks still run to completion. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [with_pool ~jobs f] spawns [jobs - 1] worker domains, runs [f] on
    the pool, and then (also on exception) drains the queue, stops the
    workers and joins their domains. Raises [Invalid_argument] if
    [jobs < 1]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
