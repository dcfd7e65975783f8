(* [run.exe compare A.jsonl B.jsonl]: per workload and metric, the
   median of B's runs against A's, judged against the bound that
   BENCHMARK.json fixes for the metric.

   - unresolved: the runs spread (quartile distance over median) wider
     than the bound on either side, unless every B run beats, or loses
     to, every A run;
   - worse / better: the medians differ by more than the bound;
   - same: otherwise. Per-layer metrics have no bound: their delta is
     printed with the verdict "-". *)

type metric = { name : string; lower_better : bool; bound : float option }

type verdict = Better | Same | Worse | Unresolved | Unbounded

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Unbounded -> "-"

let str_field j k = Option.bind (Sim.Json.member k j) Sim.Json.to_str

let metrics_of_bench json =
  let section key ~bounded =
    match Sim.Json.member key json with
    | Some (Sim.Json.List l) ->
        List.filter_map
          (fun m ->
            match (str_field m "name", str_field m "better") with
            | Some name, Some better ->
                Some
                  {
                    name;
                    lower_better = better = "lower";
                    bound =
                      (if bounded then Option.bind (Sim.Json.member "bound" m) Sim.Json.to_float
                       else None);
                  }
            | _ -> None)
          l
    | _ -> []
  in
  section "end_to_end" ~bounded:true @ section "per_layer" ~bounded:false

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* JSONL records written by [run.exe --out]: workload -> metric ->
   values, in file order. *)
let load_runs path =
  let tbl = Hashtbl.create 16 in
  String.split_on_char '\n' (read_file path)
  |> List.iter (fun line ->
         if String.trim line <> "" then begin
           let j = Sim.Json.of_string line in
           match (str_field j "workload", Sim.Json.member "metrics" j) with
           | Some w, Some (Sim.Json.Obj ms) ->
               List.iter
                 (fun (name, m) ->
                   match Option.bind (Sim.Json.member "value" m) Sim.Json.to_float with
                   | Some v ->
                       let key = (w, name) in
                       Hashtbl.replace tbl key
                         (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
                   | None -> ())
                 ms
           | _ -> ()
         end);
  fun w name -> Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl (w, name))))

let spread a =
  let q1, q3 = Pct.quartiles a in
  if Array.length a < 2 then 0.0 else (q3 -. q1) /. Float.abs (Pct.median a)

(* [worse_by] > 0 means B is worse. *)
let judge m a b =
  let ma = Pct.median a and mb = Pct.median b in
  let sign = if m.lower_better then 1.0 else -1.0 in
  let worse_by = sign *. (mb -. ma) /. Float.abs ma in
  let verdict =
    match m.bound with
    | None -> Unbounded
    | Some _ when Array.length a = 0 || Array.length b = 0 || Float.is_nan worse_by -> Unresolved
    | Some bound ->
        let better x y = sign *. (x -. y) < 0.0 in
        let all_b_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b in
        let all_b_worse = Array.for_all (fun y -> Array.for_all (fun x -> better x y) a) b in
        if spread a > bound || spread b > bound then
          if all_b_better then Better else if all_b_worse then Worse else Unresolved
        else if worse_by > bound then Worse
        else if worse_by < -.bound then Better
        else Same
  in
  (ma, mb, worse_by, verdict)

let workloads = List.map (fun (w : Spec.t) -> w.name) Spec.all

(* Prints the table; returns the verdicts. *)
let run ~bench a_path b_path =
  let metrics = metrics_of_bench (Sim.Json.of_string (read_file bench)) in
  let a = load_runs a_path and b = load_runs b_path in
  Printf.printf "%-14s %-28s %12s %12s %9s %8s %8s %7s  %s\n" "workload" "metric" "A median"
    "B median" "worse by" "A iqr" "B iqr" "bound" "verdict";
  List.concat_map
    (fun w ->
      List.filter_map
        (fun m ->
          let va = a w m.name and vb = b w m.name in
          if va = [||] && vb = [||] then None
          else begin
            let ma, mb, worse_by, v = judge m va vb in
            Printf.printf "%-14s %-28s %12.4g %12.4g %8.2f%% %7.2f%% %7.2f%% %7s  %s\n" w m.name ma
              mb (100.0 *. worse_by) (100.0 *. spread va) (100.0 *. spread vb)
              (match m.bound with Some b -> Printf.sprintf "%.0f%%" (100.0 *. b) | None -> "-")
              (verdict_to_string v);
            Some v
          end)
        metrics)
    workloads
