type 'a t = {
  engine : Sim.Engine.t option;
  capacity : int;
  size_of : 'a -> int;
  write_ms : float;
  mutable records : 'a list; (* newest first *)
  mutable used : int;
}

let create ?engine ~capacity ~size_of ~write_ms () =
  if capacity <= 0 then invalid_arg "Nvram.create: capacity must be positive";
  { engine; capacity; size_of; write_ms; records = []; used = 0 }

let capacity t = t.capacity

let used_bytes t = t.used

let length t = List.length t.records

let fill_ratio t = float_of_int t.used /. float_of_int t.capacity

let emit t ~name attrs =
  match t.engine with
  | None -> ()
  | Some engine ->
      Sim.Engine.emit engine ~subsystem:"storage" ~node:(-1) ~name attrs

(* Issue one board write: [complete] runs [write_ms] later, at the
   completion event itself, whether or not the issuing fiber's node is
   still alive — the rule [Block_device.submit] follows for disk
   writes. A crash after issue loses the caller, never the write. *)
let board_write t complete =
  let engine = Sim.Proc.engine () in
  Sim.Proc.suspend (fun waker ->
      Sim.Engine.schedule engine ~delay:t.write_ms (fun () ->
          complete ();
          ignore (Sim.Proc.Waker.wake waker ())))

(* Group commit: one NVRAM write latency covers the whole list. The
   board commits a contiguous region in a single DMA-like burst, which
   is what makes group commit pay — [n] records cost one [write_ms]
   instead of [n]. All-or-nothing on capacity. *)
let append_all t rs =
  match rs with
  | [] -> true
  | rs ->
      let size = List.fold_left (fun acc r -> acc + t.size_of r) 0 rs in
      if t.used + size > t.capacity then false
      else begin
        board_write t (fun () ->
            List.iter (fun r -> t.records <- r :: t.records) rs;
            t.used <- t.used + size;
            emit t ~name:"nvram.append" (fun () ->
                [
                  ("bytes", Sim.Trace.Int size);
                  ("used", Sim.Trace.Int t.used);
                  ("records", Sim.Trace.Int (List.length t.records));
                ]));
        true
      end

let remove_if t pred =
  let removed = List.filter pred t.records in
  if removed = [] then []
  else begin
    board_write t (fun () ->
        let gone, kept = List.partition (fun r -> List.memq r removed) t.records in
        t.records <- kept;
        t.used <- t.used - List.fold_left (fun acc r -> acc + t.size_of r) 0 gone;
        emit t ~name:"nvram.cancel" (fun () ->
            [
              ("removed", Sim.Trace.Int (List.length gone));
              ("used", Sim.Trace.Int t.used);
            ]));
    List.rev removed
  end

let take_all t =
  let all = List.rev t.records in
  if all <> [] then
    emit t ~name:"nvram.flush" (fun () ->
        [ ("records", Sim.Trace.Int (List.length all)) ]);
  t.records <- [];
  t.used <- 0;
  all

let peek_all t = List.rev t.records
