(** The paper's three single-client microbenchmarks (§4.1, Fig. 7).

    {ul
    {- {b append-delete}: append a (name, capability) pair to a
       directory and delete it again — pure directory-service cost;}
    {- {b tmp file}: create a 4-byte file, register its capability,
       look the name up, read the file back, delete the name — the
       compiler temporary-file pattern, exercising directory service
       and file service together;}
    {- {b lookup}: one name lookup against a cached directory.}}

    Each runs on a fresh client machine against an already-booted
    deployment and returns per-iteration latencies in simulated
    milliseconds. *)

type fig7 = {
  append_delete_ms : Stats.summary;  (** per append+delete {e pair} *)
  tmp_file_ms : Stats.summary;
  lookup_ms : Stats.summary;
}

(** [run_fig7 cluster] boots the measurement client, runs [repeats]
    iterations of each scenario (after a warm-up iteration), and drives
    the simulation until they complete. *)
val run_fig7 : ?repeats:int -> Dirsvc.Cluster.t -> fig7

(** Individual scenarios, for tests: each returns the latency samples. *)

val append_delete : ?repeats:int -> Dirsvc.Cluster.t -> float list

val tmp_file : ?repeats:int -> Dirsvc.Cluster.t -> float list

val lookup : ?repeats:int -> Dirsvc.Cluster.t -> float list
