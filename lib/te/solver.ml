(* Observability instruments (shared registry; no-ops until enabled). *)
let m_solver_runs = Obs.Metrics.counter "te.solver.runs"
let m_maxflow_checks = Obs.Metrics.counter "te.maxflow.checks"

type instance = {
  node_count : int;
  edges : (int * int * float) list;
  demands : (int * float) list;
  destination : int;
}

let total_demand instance =
  List.fold_left (fun acc (_, d) -> acc +. d) 0.0 instance.demands

type weights = int -> (int * float) list

let out_edges instance =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (src, dst, cap) ->
      let cur = Option.value (Hashtbl.find_opt table src) ~default:[] in
      Hashtbl.replace table src ((dst, cap) :: cur))
    instance.edges;
  table

let ecmp_weights instance =
  let table = out_edges instance in
  fun device ->
    if device = instance.destination then []
    else
      Option.value (Hashtbl.find_opt table device) ~default:[]
      |> List.map (fun (dst, _) -> (dst, 1.0))

(* Propagates demand along weights in topological order of the weighted
   forwarding graph; cycles raise (instances are DAGs by contract). *)
let edge_loads instance weights =
  let inflow = Hashtbl.create 64 in
  let add table key v =
    Hashtbl.replace table key
      (Option.value (Hashtbl.find_opt table key) ~default:0.0 +. v)
  in
  List.iter (fun (device, demand) -> add inflow device demand) instance.demands;
  let loads = Hashtbl.create 64 in
  (* Round-based propagation bounded by node count: the graph is a DAG so
     every unit of volume advances at least one hop per round. *)
  let rounds = ref 0 in
  while Hashtbl.length inflow > 0 && !rounds <= instance.node_count + 1 do
    incr rounds;
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun device volume ->
        if device <> instance.destination && volume > 0.0 then begin
          match weights device with
          | [] ->
            failwith
              (Printf.sprintf
                 "Te.Solver: device %d carries traffic but has no next hops"
                 device)
          | out ->
            let weight_sum = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 out in
            List.iter
              (fun (dst, w) ->
                let share = volume *. w /. weight_sum in
                if share > 0.0 then begin
                  add loads (device, dst) share;
                  add next dst share
                end)
              out
        end)
      inflow;
    Hashtbl.reset inflow;
    Hashtbl.iter (fun device v -> Hashtbl.replace inflow device v) next
  done;
  if Hashtbl.length inflow > 0 then
    failwith "Te.Solver: propagation did not terminate (cycle in weights?)";
  loads

let max_utilization instance weights =
  let loads = edge_loads instance weights in
  List.fold_left
    (fun acc (src, dst, cap) ->
      if cap <= 0.0 then acc
      else
        let load =
          Option.value (Hashtbl.find_opt loads (src, dst)) ~default:0.0
        in
        Float.max acc (load /. cap))
    0.0 instance.edges

(* Builds the max-flow network for a utilization bound [theta]: each edge
   gets capacity [theta * cap]; a super source feeds each demand. *)
let flow_network instance theta =
  let super = instance.node_count in
  let mf = Maxflow.create ~nodes:(instance.node_count + 1) in
  List.iter
    (fun (src, dst, cap) -> Maxflow.add_edge mf ~src ~dst ~capacity:(theta *. cap))
    instance.edges;
  List.iter
    (fun (device, demand) ->
      Maxflow.add_edge mf ~src:super ~dst:device ~capacity:demand)
    instance.demands;
  (mf, super)

let feasible instance theta =
  Obs.Metrics.incr m_maxflow_checks;
  let mf, super = flow_network instance theta in
  let flow = Maxflow.max_flow mf ~source:super ~sink:instance.destination in
  (flow >= total_demand instance -. 1e-7, mf)

let optimal instance =
  Obs.Metrics.incr m_solver_runs;
  Obs.Span.with_span "te.solve"
    ~attrs:(fun () ->
      [
        ("nodes", string_of_int instance.node_count);
        ("edges", string_of_int (List.length instance.edges));
      ])
  @@ fun () ->
  let demand = total_demand instance in
  if demand <= 0.0 then (0.0, fun _ -> [])
  else begin
    (* Find a feasible upper bound first. *)
    let rec find_hi theta =
      if theta > 1e9 then
        failwith "Te.Solver.optimal: destination unreachable from demands"
      else
        let ok, _ = feasible instance theta in
        if ok then theta else find_hi (theta *. 2.0)
    in
    let hi = ref (find_hi 1.0) in
    let lo = ref 0.0 in
    while !hi -. !lo > 1e-4 *. !hi do
      let mid = (!hi +. !lo) /. 2.0 in
      let ok, _ = feasible instance mid in
      if ok then hi := mid else lo := mid
    done;
    let _, mf = feasible instance !hi in
    let ecmp = ecmp_weights instance in
    let weights device =
      if device = instance.destination then []
      else
        match Maxflow.out_flows mf device with
        | [] -> ecmp device (* no flow crossed it: any split will do *)
        | flows -> flows
    in
    (* The extracted utilization can be marginally better than the bound. *)
    let u = max_utilization instance weights in
    (u, weights)
  end

let quantize ?(levels = 64) weights device =
  match weights device with
  | [] -> []
  | out ->
    let largest = List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 out in
    if largest <= 0.0 then List.map (fun (dst, _) -> (dst, 1.0)) out
    else
      List.filter_map
        (fun (dst, w) ->
          let q = Float.round (w /. largest *. float_of_int levels) in
          (* Weights that round to zero are dropped: the hardware cannot
             express a share below 1/levels of the largest. *)
          if q < 1.0 then None else Some (dst, q))
        out

let effective_capacity instance ~max_util =
  if max_util <= 0.0 then 0.0 else total_demand instance /. max_util
