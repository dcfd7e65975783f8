type dst = Unicast of int | Multicast

type t = {
  src : int;
  dst : dst;
  proto : string;
  payload : Payload.t;
}
