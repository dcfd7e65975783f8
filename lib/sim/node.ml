type t = {
  id : int;
  name : string;
  mutable alive : bool;
  mutable incarnation : int;
  mutable crash_hooks : (unit -> unit) list;
}

let create ~id ~name = { id; name; alive = true; incarnation = 0; crash_hooks = [] }

let id t = t.id

let name t = t.name

let is_alive t = t.alive

let incarnation t = t.incarnation

let crash t =
  if t.alive then begin
    t.alive <- false;
    let hooks = t.crash_hooks in
    t.crash_hooks <- [];
    List.iter (fun hook -> hook ()) hooks
  end

let restart t =
  if not t.alive then begin
    t.incarnation <- t.incarnation + 1;
    t.alive <- true
  end

let on_crash t hook = t.crash_hooks <- hook :: t.crash_hooks


