module Int_set = Set.Make (Int)

type peer_state = {
  server : int;
  mourned : Int_set.t;
  useq : int;
  stayed_up : bool;
  serving : bool;
}

let mourned_of_vector vector =
  let mourned = ref Int_set.empty in
  Array.iteri
    (fun i up -> if not up then mourned := Int_set.add (i + 1) !mourned)
    vector;
  !mourned

type verdict =
  | Recover of { donor : int; last_set : Int_set.t }
  | Wait_for of Int_set.t
  | No_majority

(* Ties break to the lowest id so every participant computes the same
   answer. *)
let donor peers =
  List.fold_left
    (fun best p ->
      match best with
      | None -> Some p
      | Some b ->
          if p.useq > b.useq || (p.useq = b.useq && p.server < b.server) then
            Some p
          else best)
    None peers

let decide ~all ~present =
  let majority = (List.length all / 2) + 1 in
  match donor present with
  | Some best when List.length present >= majority -> (
      let here =
        List.fold_left (fun s p -> Int_set.add p.server s) Int_set.empty present
      in
      let mourned =
        List.fold_left (fun s p -> Int_set.union s p.mourned) Int_set.empty present
      in
      let last_set = Int_set.diff (Int_set.of_list all) mourned in
      match donor (List.filter (fun p -> p.serving) present) with
      | Some d ->
          (* An operating majority exists: adopt its lineage. *)
          Recover { donor = d.server; last_set }
      | None ->
          (* Safe when the last set is here, or by the improvement
             (paper §3.2, last paragraph): a member that never failed
             and holds the maximum sequence number proves that no update
             happened outside this group. *)
          if
            Int_set.subset last_set here
            || List.exists (fun p -> p.stayed_up && p.useq = best.useq) present
          then Recover { donor = best.server; last_set }
          else Wait_for (Int_set.diff last_set here))
  | Some _ | None -> No_majority
