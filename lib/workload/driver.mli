(** The one client driver behind {!Scenarios}, {!Throughput} and
    {!Mix}: run a function on a fresh client fiber, or run a
    closed-loop client population over a gated measurement window.
    Internal to the workload library. *)

(** [on_client ~quantum ~max_quanta cluster f] runs [f client] as a
    fiber on a fresh client machine, drives the simulation in
    [quantum]-ms steps until it finishes (at most [max_quanta] steps)
    and returns its result. *)
val on_client :
  quantum:float ->
  max_quanta:int ->
  Dirsvc.Cluster.t ->
  (Dirsvc.Client.t -> 'a) ->
  'a

type tally = {
  mutable total : int;  (** successful ops over the whole run *)
  mutable errors : int;  (** failed ops over the whole run *)
  window : int array;  (** successful ops per kind inside the window *)
}

(** [closed_loop cluster ~warmup ~window ~clients ~kinds ~setup] boots
    [clients] client fibers. Fiber [i] runs [setup i client] to get its
    op, then (with [warm]) one op, counted in [total] / [errors] only.
    Once every fiber is that far, the window opens [warmup] ms later
    and lasts [window] ms; each fiber loops its op until the window
    closes. An op returns its kind (below [kinds]) and counts in the
    window when it completes inside it. An op that raises
    {!Dirsvc.Wire.Dir_error} or {!Rpc.Transport.Rpc_failure} counts as
    an error and its fiber backs off 5 ms; any other exception is a
    bug and ends the run. The simulation is driven to 500 ms past the
    window. *)
val closed_loop :
  Dirsvc.Cluster.t ->
  warmup:float ->
  window:float ->
  clients:int ->
  kinds:int ->
  warm:bool ->
  setup:(int -> Dirsvc.Client.t -> unit -> int) ->
  tally
