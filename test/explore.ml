(* The exhaustive small-scope explorer both protocol models run on, and
   the table both pure steps are pinned by. The search is breadth-first
   from the model's initial state over every enabled choice, with the
   visited states memoised, so a violation comes with a shortest
   schedule, printed as a list for [replay]. *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* A model: [canon] is the form states are told apart by (the digest of
   its bytes is memoised), [expand_canon] whether [successors] and
   [check] take that form or the state as its step left it (when
   [canon] masks what drives the step). A step, or [check] of a state
   ([dead_end]: no choice is enabled in it), raises [Violation] where a
   property breaks. *)
module type MODEL = sig
  type state
  type choice
  type bounds  (** the faults and steps a run may take *)

  val initial : state
  val canon : state -> state
  val expand_canon : bool
  val successors : bounds -> state -> (choice * (unit -> state)) list
  val check : bounds -> state -> dead_end:bool -> unit
  val show_choice : choice -> string
end

module Make (M : MODEL) = struct
  exception Found of string * M.choice list

  (* Check [w], a state in the form the model expands; its successors. *)
  let expand b w =
    let next = M.successors b w in
    M.check b w ~dead_end:(next = []);
    next

  (* The number of states visited. *)
  let explore b =
    let seen = Hashtbl.create 65_536 and queue = Queue.create () in
    let visit path w =
      let c = M.canon w in
      let k = Digest.string (Marshal.to_string c [ Marshal.No_sharing ]) in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        Queue.push (path, if M.expand_canon then c else w) queue
      end
    in
    let guard path f = try f () with Violation msg -> raise (Found (msg, List.rev path)) in
    visit [] M.initial;
    while not (Queue.is_empty queue) do
      let path, w = Queue.pop queue in
      guard path (fun () -> expand b w)
      |> List.iter (fun (c, step) -> visit (c :: path) (guard (c :: path) step))
    done;
    Hashtbl.length seen

  (* Take [choices] in order from the initial state, checking each state
     reached as the explorer does: raises [Violation] where the explorer
     found one, else returns the last step's own result. *)
  let replay b choices =
    let form w = if M.expand_canon then M.canon w else w in
    let last =
      List.fold_left
        (fun w c ->
          match List.assoc_opt c (expand b (form w)) with
          | Some step -> step ()
          | None -> Alcotest.failf "replay: %s is not enabled" (M.show_choice c))
        M.initial choices
    in
    ignore (expand b (form last));
    last

  (* A pinned finding: [choices] still reach the violation [expected];
     [fixed] is the failure once they do not. *)
  let replays_to b choices ~expected ~fixed =
    match replay b choices with
    | _ -> Alcotest.fail fixed
    | exception Violation msg -> Alcotest.(check string) "violation" expected msg

  (* Explore [b], expecting no violation and exactly [states] states. *)
  let run b ~states () =
    match explore b with
    | n -> Alcotest.(check int) "states explored" states n
    | exception Found (msg, path) ->
        Alcotest.failf "%s\n  replay: [%s]" msg (String.concat "; " (List.map M.show_choice path))
end

(* A pure [step] as a table: one row per fixture state, one column per
   input in [inputs]' order, each cell "-" when nothing changes, else
   the state [name] prints after it and the [kind] of each action. *)
let check_table ~step ~name ~kind ~inputs rows table =
  let outcome st input =
    match step st input with
    | st', [] when st' = st -> "-"
    | st', actions -> String.concat " " (name st' :: List.map kind actions)
  in
  List.iter2
    (fun (label, st) (row, expected) ->
      Alcotest.(check string) "row order" row label;
      Alcotest.(check (list (pair string string)))
        (label ^ " row") (List.combine (List.map fst inputs) expected)
        (List.map (fun (input, i) -> (input, outcome st i)) inputs))
    rows table
