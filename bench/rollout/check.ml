(* Compares two sets of rollout benchmark results against the bounds in
   BENCHMARK.json.

     check.exe DIR_A DIR_B

   run from the repository root. Each directory holds the untraced
   BENCH_rollout_<workload>.json files of several runs (copied under any
   names); set A is the baseline, set B the change. For every workload and
   end-to-end metric it takes each set's median and quartiles (Python's
   statistics.quantiles, exclusive method) and reports:

   - unresolved: the spread (third minus first quartile, over the median)
     of either set exceeds the metric's bound, and not every run of B is
     better than every run of A;
   - regression: B's median is worse than A's by more than the bound;
   - ok otherwise.

   setup_s is judged on its medians alone: set-up time moves with the
   seed, since every set-up converges the seed's own network.

   Runs of the same workload and seed must also agree exactly on their
   deterministic outputs. One row per workload; exit status 1 when any
   metric regressed or is unresolved, or deterministic outputs differ. *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("check: " ^ m); exit 2) fmt

let parse_file path =
  match Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let str key j = Option.bind (Obs.Json.member key j) Obs.Json.to_str
let num key j = Option.bind (Obs.Json.member key j) Obs.Json.to_float

type spec = { metric : string; lower_better : bool; bound : float }

let specs () =
  let j = parse_file "BENCHMARK.json" in
  let list key = match Obs.Json.member key j with Some (Obs.Json.List l) -> l | _ -> [] in
  let workloads = List.filter_map (str "name") (list "workloads") in
  let metrics =
    List.filter_map
      (fun m ->
        match (str "name" m, str "better" m, num "bound" m) with
        | Some metric, Some better, Some bound ->
          Some { metric; lower_better = better = "lower"; bound }
        | _ -> None)
      (list "end_to_end")
  in
  (workloads, metrics)

(* (workload, seed, metrics, deterministic) of every untraced result. *)
let results dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let j = parse_file (Filename.concat dir f) in
         match (str "workload" j, Obs.Json.member "trace" j) with
         | Some w, Some (Obs.Json.Bool false) ->
           Some
             ( w,
               Option.value (Option.bind (Obs.Json.member "seed" j) Obs.Json.to_int) ~default:0,
               Option.value (Obs.Json.member "metrics" j) ~default:Obs.Json.Null,
               Option.value (Obs.Json.member "deterministic" j) ~default:Obs.Json.Null )
         | _ -> None)

(* statistics.quantiles(data, n=4), method='exclusive'. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = min (n - 1) (max 1 (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let () =
  let dir_a, dir_b =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ -> die "usage: check.exe DIR_A DIR_B"
  in
  let workloads, specs = specs () in
  let set_a = results dir_a and set_b = results dir_b in
  let bad = ref false in
  List.iter
    (fun w ->
      let runs set = List.filter (fun (w', _, _, _) -> w' = w) set in
      let a = runs set_a and b = runs set_b in
      if a = [] || b = [] then
        Printf.printf "%-16s no runs (A %d, B %d)\n" w (List.length a) (List.length b)
      else begin
        let values runs metric =
          List.filter_map
            (fun (_, _, m, _) ->
              Option.bind (Obs.Json.member metric m) (num "value"))
            runs
        in
        let cells =
          List.map
            (fun { metric; lower_better; bound } ->
              let va = values a metric and vb = values b metric in
              if va = [] || vb = [] then Printf.sprintf "%s missing" metric
              else begin
                let _, ma, _ = quartiles va and _, mb, _ = quartiles vb in
                let worse x y = if lower_better then x > y else x < y in
                let change = (if lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
                let all_better =
                  List.for_all (fun y -> List.for_all (fun x -> worse x y) va) vb
                in
                let s = Float.max (spread va) (spread vb) in
                let rel = 100. *. (mb -. ma) /. Float.abs ma in
                if s > bound && metric <> "setup_s" && not all_better then begin
                  bad := true;
                  Printf.sprintf "%s %+.1f%% UNRESOLVED (spread %.1f%% > %g%%)" metric rel
                    (100. *. s) (100. *. bound)
                end
                else if change > bound then begin
                  bad := true;
                  Printf.sprintf "%s %+.1f%% REGRESSION (bound %g%%)" metric rel (100. *. bound)
                end
                else Printf.sprintf "%s %+.1f%%" metric rel
              end)
            specs
        in
        let mismatched =
          List.filter_map
            (fun (_, seed, _, da) ->
              if List.exists (fun (_, s, _, db) -> s = seed && db <> da) (a @ b) then
                Some seed
              else None)
            (a @ b)
          |> List.sort_uniq compare
        in
        if mismatched <> [] then bad := true;
        Printf.printf "%-16s A %d runs, B %d runs: %s%s\n" w (List.length a) (List.length b)
          (String.concat "; " cells)
          (if mismatched = [] then ""
           else
             "; DETERMINISTIC OUTPUTS DIFFER at seeds "
             ^ String.concat "," (List.map string_of_int mismatched))
      end)
    workloads;
  if !bad then exit 1
