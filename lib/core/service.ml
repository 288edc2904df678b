type role = Storage | Io | Application of string

type t = {
  service_name : string;
  service_role : role;
  intended_view : Nsdb.t;
  current_view : Nsdb.t;
  mutable busy : float;
}

let create ~name ~role =
  {
    service_name = name;
    service_role = role;
    intended_view = Nsdb.create ();
    current_view = Nsdb.create ();
    busy = 0.0;
  }

let name t = t.service_name
let role t = t.service_role
let intended t = t.intended_view
let current t = t.current_view

(* Missing on one side counts as different. *)
let in_sync t path =
  match
    (Nsdb.get_one t.intended_view ~path, Nsdb.get_one t.current_view ~path)
  with
  | Some a, Some b -> Nsdb.value_equal a b
  | None, None -> true
  | Some _, None | None, Some _ -> false

let out_of_sync t =
  Nsdb.paths t.intended_view @ Nsdb.paths t.current_view
  |> List.sort_uniq compare
  |> List.filter (fun path -> not (in_sync t path))

let sync_fraction t =
  match Nsdb.paths t.intended_view with
  | [] -> 1.0
  | paths ->
    let synced = List.length (List.filter (in_sync t) paths) in
    float_of_int synced /. float_of_int (List.length paths)

let with_work t f =
  let start = Sys.time () in
  Fun.protect ~finally:(fun () -> t.busy <- t.busy +. (Sys.time () -. start)) f

let busy_seconds t = t.busy

let cpu_utilization t ~elapsed =
  if elapsed <= 0.0 then 0.0 else t.busy /. elapsed

let memory_bytes t =
  (* ~64 MB runtime baseline per task, plus both views. *)
  (64 * 1024 * 1024)
  + Nsdb.memory_estimate_bytes t.intended_view
  + Nsdb.memory_estimate_bytes t.current_view

type health = Healthy | Degraded of string list

let health t =
  match out_of_sync t with [] -> Healthy | stragglers -> Degraded stragglers

let pp_health ppf = function
  | Healthy -> Format.pp_print_string ppf "healthy"
  | Degraded paths ->
    Format.fprintf ppf "degraded (%d out-of-sync paths)" (List.length paths)
