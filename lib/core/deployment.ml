type direction = Install | Remove

let distance_from_origination graph ~origination_layer device =
  let node = Topology.Graph.node graph device in
  abs
    (Topology.Node.layer_rank node.Topology.Node.layer
     - Topology.Node.layer_rank origination_layer)

let phases graph ~targets ~origination_layer direction =
  let annotated =
    List.map
      (fun device ->
        (distance_from_origination graph ~origination_layer device, device))
      targets
  in
  let distances =
    List.sort_uniq Int.compare (List.map fst annotated)
  in
  let ordered_distances =
    match direction with
    | Install -> List.rev distances (* furthest first *)
    | Remove -> distances (* closest first *)
  in
  List.map
    (fun d ->
      List.filter_map
        (fun (d', device) -> if d = d' then Some device else None)
        annotated)
    ordered_distances

let is_safe_order graph ~origination_layer direction phase_list =
  (* A device listed twice deploys with the last phase that lists it. *)
  let position = Hashtbl.create 16 in
  List.iteri
    (fun i phase -> List.iter (fun d -> Hashtbl.replace position d i) phase)
    phase_list;
  let n = List.length phase_list in
  let lo = Array.make n max_int and hi = Array.make n min_int in
  Hashtbl.iter
    (fun d i ->
      let dist = distance_from_origination graph ~origination_layer d in
      lo.(i) <- min lo.(i) dist;
      hi.(i) <- max hi.(i) dist)
    position;
  (* An unsafe pair is a device in a later phase that is further from the
     origination layer (Install) or closer to it (Remove) than one in an
     earlier phase, so each phase is compared with the extreme distance of
     all phases before it. Empty phases keep [max_int]/[min_int] and never
     trip a comparison. *)
  let rec safe k earliest =
    k >= n
    ||
    match direction with
    | Install -> hi.(k) <= earliest && safe (k + 1) (min earliest lo.(k))
    | Remove -> lo.(k) >= earliest && safe (k + 1) (max earliest hi.(k))
  in
  safe 0 (match direction with Install -> max_int | Remove -> min_int)

let flatten = List.concat

let rollback_order phase_list = List.rev_map List.rev phase_list
