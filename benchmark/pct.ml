(* Order statistics under the benchmark's reporting rule: a percentile
   is reported only as high as the sample supports, i.e. the highest
   nearest-rank percentile at or below the one asked for that still has
   at least [beyond] samples above it. *)

let beyond = 10

type t = {
  value : float;
  pct : float;  (** the percentile actually reported, 0..100 *)
  n : int;
}

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* [None] when fewer than [beyond + 1] samples exist. *)
let get samples q =
  let sorted = sorted_copy samples in
  let n = Array.length sorted in
  if n <= beyond then None
  else begin
    let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min rank (n - beyond)) in
    Some
      {
        value = sorted.(rank - 1);
        pct = 100.0 *. float_of_int rank /. float_of_int n;
        n;
      }
  end

let value_or_nan = function Some p -> p.value | None -> nan

let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* First and third quartile by the method of Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" one),
   so run-to-run spreads printed here match a Python recomputation. *)
let quartiles a =
  let s = sorted_copy a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else begin
    let m = ld + 1 in
    let at i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (at 1, at 3)
  end
