(** Simulated network packets. *)

type dst = Unicast of int | Multicast

type t = {
  src : int;  (** sending node id *)
  dst : dst;
  proto : string;  (** selects the receiving handler, e.g. ["rpc"] *)
  payload : Payload.t;
}
