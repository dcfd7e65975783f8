(* Struct-of-arrays layout: times live in a flat (unboxed) float array
   and seqs in an int array, so push/pop allocate nothing — the previous
   layout boxed a 3-field entry (plus its [Some]) per event, and
   simulations push millions of events per run.

   Values do not move with their entries: each sits in a fixed cell of
   [values], and the heap order permutes only [slots], the cell index
   of each entry. Sifting thus swaps floats and ints and runs no write
   barrier; a value is stored once when pushed and cleared once when
   popped. (Moving the values themselves made each sift step a
   [caml_modify], and a young value moved into a cell that held an old
   one — a reused, long-lived event among fresh closures — is a new
   remembered-set entry: O(log n) per push and pop, enough on a large
   heap to overflow the table and force extra minor collections.)

   Invariants: [slots] is a permutation of the cell indices; the cells
   [slots.(i)] for i >= size are free and hold [dummy]. The heap must
   never retain a popped value: it is usually a closure over a fiber's
   continuation, i.e. an arbitrarily large object graph. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
}

(* Filler for cleared/unused value cells. An immediate, so [Array.make]
   builds a generic (not flat-float) array even at ['a = float]; all
   accesses below go through the polymorphic array primitives, which
   handle either representation, and free cells are never read. *)
let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () = { times = [||]; seqs = [||]; slots = [||]; values = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Strict (time, seq) order; seqs are unique in practice (the engine
   hands out one per scheduled event), which is what makes pop order —
   and therefore whole simulations — deterministic. *)
let lt h i j =
  h.times.(i) < h.times.(j)
  || (h.times.(i) = h.times.(j) && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let t = h.times.(i) in
  h.times.(i) <- h.times.(j);
  h.times.(j) <- t;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let k = h.slots.(i) in
  h.slots.(i) <- h.slots.(j);
  h.slots.(j) <- k

let grow h =
  let capacity = Array.length h.times in
  if h.size = capacity then begin
    let new_capacity = if capacity = 0 then 16 else capacity * 2 in
    let times = Array.make new_capacity 0.0 in
    let seqs = Array.make new_capacity 0 in
    let values = Array.make new_capacity (dummy ()) in
    Array.blit h.times 0 times 0 h.size;
    Array.blit h.seqs 0 seqs 0 h.size;
    Array.blit h.values 0 values 0 capacity;
    h.slots <- Array.init new_capacity (fun i -> if i < capacity then h.slots.(i) else i);
    h.times <- times;
    h.seqs <- seqs;
    h.values <- values
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && lt h left !smallest then smallest := left;
  if right < h.size && lt h right !smallest then smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let[@inline] insert h time seq value =
  grow h;
  let i = h.size in
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.values.(h.slots.(i)) <- value;
  h.size <- i + 1;
  sift_up h i

let push h ~time ~seq value = insert h time seq value

(* The sum is formed here, inside the one call: a float argument crosses
   a module boundary boxed, and [base] and [delay] usually arrive boxed
   already, so the caller then allocates nothing for the key. *)
let push_after h ~base ~delay ~seq value = insert h (base +. delay) seq value

(* Remove the root: clear its value cell, move the last entry into
   position 0 (its freed cell takes the last position's place among the
   free ones), re-establish the heap. Shared by the popping entry points
   so the cell-clearing invariant lives in one place. *)
let remove_min h =
  let last = h.size - 1 in
  let k = h.slots.(0) in
  h.values.(k) <- dummy ();
  h.size <- last;
  if last > 0 then begin
    h.times.(0) <- h.times.(last);
    h.seqs.(0) <- h.seqs.(last);
    h.slots.(0) <- h.slots.(last);
    h.slots.(last) <- k;
    sift_down h 0
  end

let min_value h = h.values.(h.slots.(0))

let pop_min h =
  if h.size = 0 then None
  else begin
    let time = h.times.(0) and seq = h.seqs.(0) and value = min_value h in
    remove_min h;
    Some (time, seq, value)
  end

let peek_min h =
  if h.size = 0 then None else Some (h.times.(0), h.seqs.(0), min_value h)

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  h.times.(0)

(* Compared here, so that neither time crosses the module boundary as a
   fresh box. *)
let min_time_after h limit =
  if h.size = 0 then invalid_arg "Heap.min_time_after: empty heap";
  h.times.(0) > limit

let min_time_differs h time =
  if h.size = 0 then invalid_arg "Heap.min_time_differs: empty heap";
  h.times.(0) <> time

let pop_min_value h =
  if h.size = 0 then invalid_arg "Heap.pop_min_value: empty heap";
  let value = min_value h in
  remove_min h;
  value
