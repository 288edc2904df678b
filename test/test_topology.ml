(* Tests for lib/topology: graph operations, Clos builders, migration
   taxonomy. *)

open Topology

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let node id layer = Node.make ~id ~name:(Printf.sprintf "n%d" id) ~layer ()

(* ---------------- Graph ---------------- *)

let test_graph_basics () =
  let g = Graph.create () in
  Graph.add_node g (node 0 Node.Rsw);
  Graph.add_node g (node 1 Node.Fsw);
  Graph.add_link g 0 1;
  check_int "nodes" 2 (Graph.node_count g);
  check_int "links" 1 (List.length (Graph.links g));
  check_int "neighbors" 1 (List.length (Graph.neighbors g 0));
  check_bool "link found" true (Graph.find_link g 1 0 <> None)

let test_graph_duplicate_rejected () =
  let g = Graph.create () in
  Graph.add_node g (node 0 Node.Rsw);
  Graph.add_node g (node 1 Node.Fsw);
  Graph.add_link g 0 1;
  check_bool "dup node" true
    (try
       Graph.add_node g (node 0 Node.Rsw);
       false
     with Invalid_argument _ -> true);
  check_bool "dup link" true
    (try
       Graph.add_link g 1 0;
       false
     with Invalid_argument _ -> true);
  check_bool "self loop" true
    (try
       Graph.add_link g 0 0;
       false
     with Invalid_argument _ -> true)

let test_graph_link_state () =
  let g = Graph.create () in
  Graph.add_node g (node 0 Node.Rsw);
  Graph.add_node g (node 1 Node.Fsw);
  Graph.add_link g 0 1;
  Graph.set_link_up g 0 1 false;
  check_int "no live neighbors" 0 (List.length (Graph.neighbors g 0));
  check_int "still physically there" 1 (List.length (Graph.all_neighbors g 0));
  check_int "degree up" 0 (Graph.degree_up g 0);
  Graph.set_link_up g 0 1 true;
  check_int "back up" 1 (Graph.degree_up g 0)

let test_graph_remove_node () =
  let g = Graph.create () in
  List.iter (fun i -> Graph.add_node g (node i Node.Ssw)) [ 0; 1; 2 ];
  Graph.add_link g 0 1;
  Graph.add_link g 1 2;
  Graph.remove_node g 1;
  check_int "nodes" 2 (Graph.node_count g);
  check_int "links gone" 0 (List.length (Graph.links g));
  check_int "neighbor cleaned" 0 (List.length (Graph.all_neighbors g 0))

let test_graph_by_layer () =
  let g = Graph.create () in
  Graph.add_node g (node 0 Node.Rsw);
  Graph.add_node g (node 1 Node.Fsw);
  Graph.add_node g (node 2 Node.Fsw);
  check_int "fsw count" 2 (List.length (Graph.by_layer g Node.Fsw));
  check_int "layers" 2 (List.length (Graph.layers g))

(* ---------------- Clos: fabric ---------------- *)

let test_fabric_counts () =
  let f = Clos.fabric () in
  (* defaults: 4 pods x 4 rsw, 4 fsw; 4 planes x 4 ssw; 2 grids; 2 fauu; 4 eb *)
  check_int "rsws" 16 (List.length f.Clos.rsws);
  check_int "fsws" 16 (List.length f.Clos.fsws);
  check_int "ssws" 16 (List.length f.Clos.ssws);
  check_int "fadus" 8 (List.length f.Clos.fadus);
  check_int "fauus" 4 (List.length f.Clos.fauus);
  check_int "ebs" 4 (List.length f.Clos.ebs)

let test_fabric_wiring_invariants () =
  let f = Clos.fabric () in
  let g = f.Clos.graph in
  (* Every RSW connects to exactly the FSWs of its pod (4). *)
  List.iter
    (fun rsw ->
      let neighbors = Graph.neighbors g rsw in
      check_int "rsw degree" 4 (List.length neighbors);
      let pod = (Graph.node g rsw).Node.pod in
      List.iter
        (fun ((n : Node.t), _) ->
          check_bool "same pod" true (n.Node.pod = pod);
          check_bool "fsw layer" true (Node.layer_equal n.Node.layer Node.Fsw))
        neighbors)
    f.Clos.rsws;
  (* Every SSW connects to one FADU in every grid (Appendix A.1). *)
  List.iter
    (fun ssw ->
      let fadu_neighbors =
        List.filter
          (fun ((n : Node.t), _) -> Node.layer_equal n.Node.layer Node.Fadu)
          (Graph.neighbors g ssw)
      in
      check_int "one fadu per grid" 2 (List.length fadu_neighbors);
      let grids =
        List.sort_uniq Int.compare
          (List.map (fun ((n : Node.t), _) -> n.Node.grid) fadu_neighbors)
      in
      check_int "distinct grids" 2 (List.length grids))
    f.Clos.ssws

let test_fabric_connected_bottom_to_top () =
  let f = Clos.fabric () in
  let g = f.Clos.graph in
  (* BFS from an RSW must reach an EB. *)
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  (match f.Clos.rsws with
   | first :: _ -> Queue.add first queue
   | [] -> Alcotest.fail "no rsws");
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.replace visited v ();
      List.iter
        (fun ((n : Node.t), _) -> Queue.add n.Node.id queue)
        (Graph.neighbors g v)
    end
  done;
  List.iter
    (fun eb -> check_bool "eb reachable" true (Hashtbl.mem visited eb))
    f.Clos.ebs

(* ---------------- Clos: scenario topologies ---------------- *)

let test_expansion_paths () =
  let x = Clos.expansion () in
  let g = x.Clos.xgraph in
  (* SSWs reach the backbone through FAv1 -> Edge initially. *)
  List.iter
    (fun ssw ->
      let neighbors = Graph.neighbors g ssw in
      check_bool "ssw sees fav1" true
        (List.exists
           (fun ((n : Node.t), _) -> Node.layer_equal n.Node.layer Node.Fa)
           neighbors))
    x.Clos.xssws;
  check_int "no fav2 initially" 0 (List.length x.Clos.fav2);
  let fav2 = Clos.add_fav2 x in
  check_int "one fav2" 1 (List.length x.Clos.fav2);
  (* New FAv2 connects to every SSW and the backbone. *)
  check_int "fav2 degree" (List.length x.Clos.xssws + 1)
    (List.length (Graph.neighbors g fav2))

let test_decommission_wiring () =
  let d = Clos.decommission ~planes:3 ~grids:2 ~per:4 () in
  let g = d.Clos.dgraph in
  (* SSW-n connects only to FADU-n in every grid. *)
  List.iteri
    (fun _ ssws ->
      List.iteri
        (fun n ssw ->
          let fadus =
            List.filter
              (fun ((x : Node.t), _) -> Node.layer_equal x.Node.layer Node.Fadu)
              (Graph.neighbors g ssw)
          in
          check_int "one fadu per grid" 2 (List.length fadus);
          List.iter
            (fun ((fadu : Node.t), _) ->
              let expected = List.map (fun grid -> List.nth grid n) d.Clos.grids in
              check_bool "numbered wiring" true (List.mem fadu.Node.id expected))
            fadus)
        ssws)
    d.Clos.planes;
  check_int "numbered ssws" 3 (List.length (Clos.ssws_numbered d 1));
  check_int "numbered fadus" 2 (List.length (Clos.fadus_numbered d 1))

let test_wcmp_topology_sessions () =
  let w = Clos.wcmp_convergence () in
  check_int "ebs" 8 (List.length w.Clos.ebs);
  check_int "uus" 4 (List.length w.Clos.uus);
  (* Each UU-DU pair has two sessions. *)
  List.iter
    (fun du ->
      List.iter
        (fun uu ->
          match Graph.find_link w.Clos.wgraph du uu with
          | Some link -> check_int "two sessions" 2 link.Graph.sessions
          | None -> Alcotest.fail "missing uu-du link")
        w.Clos.uus)
    w.Clos.dus

let test_mixed_dissemination_edges () =
  let m = Clos.mixed_dissemination () in
  let g = m.Clos.mgraph in
  let has a b = Graph.find_link g a b <> None in
  let r = m.Clos.r in
  check_bool "origin-r1" true (has m.Clos.origin r.(1));
  check_bool "r1-r2" true (has r.(1) r.(2));
  check_bool "r2-r6" true (has r.(2) r.(6));
  check_bool "r3-r4" true (has r.(3) r.(4));
  check_bool "r4-r5" true (has r.(4) r.(5));
  check_bool "r5-r6" true (has r.(5) r.(6));
  check_bool "no r2-r5" false (has r.(2) r.(5))

let test_sev_bad_fa_isolated_from_backbone () =
  let s = Clos.sev () in
  let g = s.Clos.sgraph in
  check_bool "bad fa has no backbone link" true
    (Graph.find_link g s.Clos.bad_fa s.Clos.sbackbone = None);
  List.iter
    (fun fa ->
      if fa <> s.Clos.bad_fa then
        check_bool "good fa wired" true
          (Graph.find_link g fa s.Clos.sbackbone <> None))
    s.Clos.sfas

let test_fabric_invariants_across_sizes () =
  (* The wiring invariants must hold for any fabric dimensions. *)
  List.iter
    (fun (pods, rsws, fsws, ssws, grids, fauus, ebs) ->
      let f =
        Clos.fabric ~pods ~rsws_per_pod:rsws ~fsws_per_pod:fsws
          ~ssws_per_plane:ssws ~grids ~fauus_per_grid:fauus ~ebs ()
      in
      let g = f.Clos.graph in
      check_int "rsw count" (pods * rsws) (List.length f.Clos.rsws);
      check_int "ssw count" (fsws * ssws) (List.length f.Clos.ssws);
      check_int "fadu count" (grids * ssws) (List.length f.Clos.fadus);
      (* FSW i connects to exactly the SSWs of plane i. *)
      List.iter
        (fun fsw ->
          let plane = (Graph.node g fsw).Node.plane in
          let ssw_neighbors =
            List.filter
              (fun ((n : Node.t), _) -> Node.layer_equal n.Node.layer Node.Ssw)
              (Graph.neighbors g fsw)
          in
          check_int "fsw uplink count" ssws (List.length ssw_neighbors);
          List.iter
            (fun ((n : Node.t), _) -> check_int "same plane" plane n.Node.plane)
            ssw_neighbors)
        f.Clos.fsws;
      (* Every FAUU connects to every EB. *)
      List.iter
        (fun fauu ->
          let eb_neighbors =
            List.filter
              (fun ((n : Node.t), _) -> Node.layer_equal n.Node.layer Node.Eb)
              (Graph.neighbors g fauu)
          in
          check_int "fauu-eb full mesh" ebs (List.length eb_neighbors))
        f.Clos.fauus)
    [ (1, 1, 1, 1, 1, 1, 1); (2, 3, 2, 3, 2, 2, 3); (3, 2, 4, 2, 3, 1, 2) ]

(* ---------------- Migration ---------------- *)

let test_table1_rows () =
  check_int "five categories" 5 (List.length Migration.table1);
  List.iter
    (fun row ->
      check_bool "duration positive" true (row.Migration.typical_duration_days > 0.0))
    Migration.table1;
  (* Maintenance drain is the only daily one and the shortest. *)
  let drain =
    List.find
      (fun r -> r.Migration.category = Migration.Traffic_drain_for_maintenance)
      Migration.table1
  in
  check_bool "drain is daily" true (drain.Migration.frequency = Migration.Daily);
  check_bool "drain is shortest" true
    (List.for_all
       (fun r -> r.Migration.typical_duration_days >= drain.Migration.typical_duration_days)
       Migration.table1)

let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

let test_fleet_scale () =
  (* Fleet-wide migrations involve tens of thousands of switches. *)
  let rng = Dsim.Rng.create 1 in
  let counts =
    Migration.switches_involved ~rng Migration.default_fleet
      Migration.Routing_system_evolution
  in
  check_bool "tens of thousands" true (total counts > 10_000)

let test_drain_is_hundreds () =
  let rng = Dsim.Rng.create 1 in
  let counts =
    Migration.switches_involved ~rng Migration.default_fleet
      Migration.Traffic_drain_for_maintenance
  in
  let n = total counts in
  check_bool "hundreds" true (n >= 100 && n < 2_000)

let test_lower_layers_bigger () =
  (* Figure 3: migrations involve more switches at lower layers. *)
  let rng = Dsim.Rng.create 2 in
  List.iter
    (fun category ->
      let avg =
        Migration.average_switches_per_layer ~samples:20 ~rng
          Migration.default_fleet category
      in
      let value layer =
        match List.assoc_opt layer avg with Some v -> v | None -> 0.0
      in
      if category <> Migration.Traffic_drain_for_maintenance then
        check_bool
          (Printf.sprintf "rsw+fsw >= fadu+fauu (%s)"
             (Migration.category_label category))
          true
          (value Node.Rsw +. value Node.Fsw >= value Node.Fadu +. value Node.Fauu))
    Migration.all_categories

let test_sub_dc_smaller_than_fleet () =
  let rng = Dsim.Rng.create 3 in
  let fleet_total =
    total
      (Migration.switches_involved ~rng Migration.default_fleet
         Migration.Routing_system_evolution)
  in
  let sub_total =
    total
      (Migration.switches_involved ~rng Migration.default_fleet
         Migration.Differential_traffic_distribution)
  in
  check_bool "sub-DC smaller" true (sub_total < fleet_total)

(* ---------------- Insertion order ---------------- *)

(* The graph keeps nodes and adjacency in tables hashed by device id, whose
   iteration order depends on the order of insertion once ids share a
   bucket. Nothing built on the graph may show that order: the same fabric
   inserted two ways must read the same through every accessor, and
   converge to the same FIBs. *)
let same_fabric_inserted_otherwise g =
  let g' = Graph.create () in
  List.iter (Graph.add_node g') (List.rev (Graph.nodes g));
  let links = Array.of_list (Graph.links g) in
  Dsim.Rng.shuffle (Dsim.Rng.create 5) links;
  Array.iter
    (fun (l : Graph.link) ->
      Graph.add_link ~capacity:l.capacity ~sessions:l.sessions g' l.a l.b)
    links;
  g'

let insertion_order_invisible (f : Clos.fabric) =
  let g = f.Clos.graph in
  let g' = same_fabric_inserted_otherwise g in
  let link_key (l : Graph.link) = (l.a, l.b, l.capacity, l.sessions, l.up) in
  let neighbor_keys =
    List.map (fun ((n : Node.t), l) -> (n.Node.id, link_key l))
  in
  (* One link down, so [neighbors] and [all_neighbors] differ. *)
  let down = List.nth (Graph.links g) 7 in
  List.iter (fun g -> Graph.set_link_up g down.a down.b false) [ g; g' ];
  check_bool "nodes" true (Graph.nodes g = Graph.nodes g');
  check_bool "links" true
    (List.map link_key (Graph.links g) = List.map link_key (Graph.links g'));
  List.iter
    (fun (n : Node.t) ->
      let id = n.Node.id in
      check_bool "all_neighbors" true
        (neighbor_keys (Graph.all_neighbors g id)
        = neighbor_keys (Graph.all_neighbors g' id));
      check_bool "neighbors" true
        (neighbor_keys (Graph.neighbors g id)
        = neighbor_keys (Graph.neighbors g' id)))
    (Graph.nodes g);
  check_bool "layers" true (Graph.layers g = Graph.layers g');
  List.iter
    (fun layer ->
      check_bool "by_layer" true
        (Graph.by_layer g layer = Graph.by_layer g' layer))
    (Graph.layers g);
  List.iter (fun g -> Graph.set_link_up g down.a down.b true) [ g; g' ];
  let converged g =
    let net = Bgp.Network.create ~seed:3 g in
    List.iter
      (fun eb ->
        Bgp.Network.originate net eb Net.Prefix.default_v4 (Net.Attr.make ()))
      f.Clos.ebs;
    List.iteri
      (fun i rsw ->
        Bgp.Network.originate net rsw
          (Net.Prefix.v4 10 (i / 256) (i mod 256) 0 24)
          (Net.Attr.make ()))
      f.Clos.rsws;
    ignore (Bgp.Network.converge net);
    net
  in
  let net = converged g and net' = converged g' in
  check_bool "known_prefixes" true
    (List.equal Net.Prefix.equal
       (Bgp.Network.known_prefixes net)
       (Bgp.Network.known_prefixes net'));
  check_int "every prefix known" (1 + List.length f.Clos.rsws)
    (List.length (Bgp.Network.known_prefixes net));
  Alcotest.(check string) "fib_digest" (Bgp.Network.fib_digest net)
    (Bgp.Network.fib_digest net')

(* The default fabric has 64 devices, one per bucket of a fresh node table;
   eight pods make 96, so ids share buckets there too. *)
let test_insertion_order_invisible () =
  insertion_order_invisible (Clos.fabric ());
  insertion_order_invisible (Clos.fabric ~pods:8 ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "topology"
    [
      ( "graph",
        [
          quick "basics" test_graph_basics;
          quick "duplicates rejected" test_graph_duplicate_rejected;
          quick "link state" test_graph_link_state;
          quick "remove node" test_graph_remove_node;
          quick "by layer" test_graph_by_layer;
          quick "insertion order invisible" test_insertion_order_invisible;
        ] );
      ( "clos",
        [
          quick "fabric counts" test_fabric_counts;
          quick "fabric wiring invariants" test_fabric_wiring_invariants;
          quick "fabric connectivity" test_fabric_connected_bottom_to_top;
          quick "expansion paths" test_expansion_paths;
          quick "decommission wiring" test_decommission_wiring;
          quick "wcmp sessions" test_wcmp_topology_sessions;
          quick "mixed dissemination edges" test_mixed_dissemination_edges;
          quick "sev bad fa" test_sev_bad_fa_isolated_from_backbone;
          quick "invariants across sizes" test_fabric_invariants_across_sizes;
        ] );
      ( "migration",
        [
          quick "table1 rows" test_table1_rows;
          quick "fleet scale" test_fleet_scale;
          quick "drain is hundreds" test_drain_is_hundreds;
          quick "lower layers bigger" test_lower_layers_bigger;
          quick "sub-dc smaller" test_sub_dc_smaller_than_fleet;
        ] );
    ]
