(* The clock lands on a quantum boundary, the iterated sum [start +.
   quantum +. quantum +. ...] (a bounded [Engine.run] leaves [now] on
   its limit). Later scenarios on the same engine start from that
   clock, so a same-seed run depends on it to the last ulp. *)
let run_until_filled ?(quantum = 10_000.0) ~max_quanta engine ivar =
  let rec poll n =
    if Ivar.is_filled ivar then true
    else if n = 0 then false
    else begin
      let limit = Engine.now engine +. quantum in
      Engine.run ~until:limit engine;
      (* A run that ends short of its limit drained the heap: nothing
         is left that could fill the ivar. *)
      if Engine.now engine < limit then Ivar.is_filled ivar else poll (n - 1)
    end
  in
  poll max_quanta
