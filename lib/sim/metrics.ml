(* ---- Fixed-bucket histograms -------------------------------------- *)

module Histogram = struct
  type t = {
    bounds : float array; (* strictly increasing upper bounds *)
    counts : int array; (* length bounds + 1; last = overflow *)
    mutable n : int;
    mutable sum : float;
    mutable min : float;
    mutable max : float;
  }

  (* Log-spaced milliseconds: 50 µs .. 10 s. Wide enough for every
     latency this simulation produces, narrow enough that quantile
     interpolation stays within ~2x of the true value. *)
  let default_bounds =
    [|
      0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 3.0; 5.0; 7.5; 10.0; 15.0; 20.0; 30.0;
      50.0; 75.0; 100.0; 150.0; 200.0; 300.0; 500.0; 750.0; 1_000.0; 2_000.0;
      5_000.0; 10_000.0;
    |]

  let create ?(bounds = default_bounds) () =
    let ok = ref (Array.length bounds > 0) in
    Array.iteri
      (fun i b -> if i > 0 && b <= bounds.(i - 1) then ok := false)
      bounds;
    if not !ok then
      invalid_arg "Histogram.create: bounds must be non-empty and increasing";
    {
      bounds = Array.copy bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      n = 0;
      sum = 0.0;
      min = infinity;
      max = neg_infinity;
    }

  (* First bucket whose upper bound admits [v]; binary search keeps the
     hot path O(log buckets). *)
  let bucket_index t v =
    let lo = ref 0 and hi = ref (Array.length t.bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= t.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe t v =
    let i = bucket_index t v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    if v < t.min then t.min <- v;
    if v > t.max then t.max <- v

  let count t = t.n

  let sum t = t.sum

  let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n

  let min_value t = if t.n = 0 then nan else t.min

  let max_value t = if t.n = 0 then nan else t.max

  (* (lower, upper, count) per non-empty bucket. *)
  let buckets t =
    let out = ref [] in
    for i = Array.length t.counts - 1 downto 0 do
      if t.counts.(i) > 0 then begin
        let lower = if i = 0 then 0.0 else t.bounds.(i - 1) in
        let upper =
          if i < Array.length t.bounds then t.bounds.(i) else infinity
        in
        out := (lower, upper, t.counts.(i)) :: !out
      end
    done;
    !out

  (* Nearest-rank over buckets, linearly interpolated inside the bucket.
     The overflow bucket has no upper bound, so it answers with the
     exact observed maximum. [q] in 0..1. *)
  let quantile t q =
    if t.n = 0 then nan
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = Float.max 1.0 (Float.round (q *. float_of_int t.n)) in
      let rank = int_of_float rank in
      let rec walk i seen =
        if i >= Array.length t.counts then t.max
        else begin
          let here = t.counts.(i) in
          if seen + here >= rank then
            if i >= Array.length t.bounds then t.max
            else begin
              let lower = if i = 0 then 0.0 else t.bounds.(i - 1) in
              let upper = t.bounds.(i) in
              (* Clamp to the observed range: a single-bucket histogram
                 must not answer below min or above max. *)
              let lower = Float.max lower t.min and upper = Float.min upper t.max in
              let frac = float_of_int (rank - seen) /. float_of_int here in
              lower +. ((upper -. lower) *. frac)
            end
          else walk (i + 1) (seen + here)
        end
      in
      walk 0 0
    end

  let summary_to_json t =
    if t.n = 0 then Json.Obj [ ("n", Json.Int 0) ]
    else
      Json.Obj
        [
          ("n", Json.Int t.n);
          ("mean", Json.Float (mean t));
          ("min", Json.Float t.min);
          ("max", Json.Float t.max);
          ("p50", Json.Float (quantile t 0.50));
          ("p90", Json.Float (quantile t 0.90));
          ("p95", Json.Float (quantile t 0.95));
          ("p99", Json.Float (quantile t 0.99));
        ]
end

(* ---- Labelled keys ------------------------------------------------ *)

(* Labels are canonicalised into the key — ["op_ms{op=write,server=2}"] —
   so one flat table serves plain and labelled metrics alike. *)
let labelled key ~labels =
  match labels with
  | [] -> key
  | labels ->
      let labels =
        List.sort (fun (a, _) (b, _) -> String.compare a b) labels
      in
      Printf.sprintf "%s{%s}" key
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))

let base_key key =
  match String.index_opt key '{' with
  | Some i -> String.sub key 0 i
  | None -> key

let labels_of_key key =
  match String.index_opt key '{' with
  | None -> []
  | Some i ->
      let body = String.sub key (i + 1) (String.length key - i - 2) in
      if body = "" then []
      else
        String.split_on_char ',' body
        |> List.filter_map (fun pair ->
               match String.index_opt pair '=' with
               | Some j ->
                   Some
                     ( String.sub pair 0 j,
                       String.sub pair (j + 1) (String.length pair - j - 1) )
               | None -> None)

(* ---- The registry ------------------------------------------------- *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 32;
  }

(* A handle is the counter's cell itself: resolving once buys hot paths
   an increment with no hashing, no lookup and no key building. *)
type handle = int ref

let counter t key =
  match Hashtbl.find_opt t.counters key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters key r;
      r

let incr ?(by = 1) t key =
  let r = counter t key in
  r := !r + by

let incr_handle ?(by = 1) h = h := !h + by

let count t key = match Hashtbl.find_opt t.counters key with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun key r acc -> (key, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Union of both key sets: a counter present only in [before] (e.g.
   after a [reset]) reports a negative delta instead of vanishing. *)
let delta ~before ~after =
  let keys =
    List.sort_uniq String.compare (List.map fst before @ List.map fst after)
  in
  let lookup key list =
    match List.assoc_opt key list with Some v -> v | None -> 0
  in
  List.filter_map
    (fun key ->
      let d = lookup key after - lookup key before in
      if d = 0 then None else Some (key, d))
    keys

let histogram_handle ?(labels = []) t key =
  let key = labelled key ~labels in
  match Hashtbl.find_opt t.histograms key with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.histograms key h;
      h

let histogram t key = Hashtbl.find_opt t.histograms key

let histograms t =
  Hashtbl.fold (fun key h acc -> (key, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms
