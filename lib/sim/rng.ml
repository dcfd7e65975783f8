(* The splitmix64 state lives in an 8-byte buffer rather than a mutable
   int64 field: a field holds a boxed int64, so every draw allocated one.
   Reading and writing the buffer keeps the whole step unboxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let[@inline] next_raw t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (next_raw t)

(* Multi-seed sweeps: seed i is exactly the seed [split] would hand the
   (i+1)-th subsystem of a generator created from [base], so derived
   runs are as independent of each other as subsystem streams are. *)
let derive ~base count =
  if count < 0 then invalid_arg "Rng.derive: negative count";
  let t = create base in
  let rec go i acc =
    if i = count then List.rev acc else go (i + 1) (next_raw t :: acc)
  in
  go 0 []

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value stays non-negative as a native int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_raw t) 2) in
  v mod bound

(* Inlined so that [uniform] and [bool] keep the draw unboxed. *)
let[@inline] float t =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.shift_right_logical (next_raw t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let exponential t ~mean =
  let u = float t in
  (* Guard against log 0: the float draw can return exactly 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let bool t ~p = float t < p
