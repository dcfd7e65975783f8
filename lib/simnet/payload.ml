type t = ..

type t += Opaque of string

(* Keyed so registration is idempotent: a module initializer that runs
   more than once in a process (a library linked into several dynamically
   loaded plugins, or reloaded in a toploop) replaces its old printer
   instead of appending a duplicate that every [to_string] call would
   then re-try. Order of first registration is preserved.

   The registry is an immutable list behind an [Atomic.t], updated by a
   CAS loop: it is the one piece of cross-run shared state in the
   simulator, and parallel sweep domains must be able to race
   registrations without one of them vanishing (a plain [ref] lost one
   of two concurrent read-modify-writes). Readers pay one atomic load
   and then walk an immutable list. *)
let printers : (string * (t -> string option)) list Atomic.t = Atomic.make []

let rec register_printer ~name p =
  let old = Atomic.get printers in
  let updated =
    if List.mem_assoc name old then
      List.map (fun (n, q) -> if n = name then (n, p) else (n, q)) old
    else old @ [ (name, p) ]
  in
  if not (Atomic.compare_and_set printers old updated) then
    register_printer ~name p

let to_string payload =
  match payload with
  | Opaque s -> Printf.sprintf "opaque(%s)" s
  | _ ->
      let rec try_printers = function
        | [] -> "<payload>"
        | (_, p) :: rest -> (
            match p payload with Some s -> s | None -> try_printers rest)
      in
      try_printers (Atomic.get printers)

let constructor payload =
  Obj.Extension_constructor.name (Obj.Extension_constructor.of_val payload)
