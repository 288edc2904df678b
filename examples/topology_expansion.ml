(* Scenario 1 (Section 3.2): live topology expansion, replacing the FAv1 +
   Edge layers with a single FAv2 layer, without disrupting traffic.

   The example walks the full migration the way an operator would run it
   with Centralium: pre-deploy path-equalize RPAs bottom-up, activate FAv2
   nodes one by one (watching that no first-router collapse happens),
   decommission the old layers, and remove the RPAs top-down.

   Run with: dune exec examples/topology_expansion.exe *)

let pf = Printf.printf

let measure_shares net (x : Topology.Clos.expansion) =
  let demands = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
  let total = Dataplane.Traffic.total_demand demands in
  let result = Dataplane.Traffic.route_prefix net Net.Prefix.default_v4 ~demands in
  let members = x.fav1 @ x.fav2 in
  ( Dataplane.Metrics.funneling result ~members ~total,
    Dataplane.Metrics.loss_fraction result ~total )

let report label net x =
  let funnel, loss = measure_shares net x in
  pf "%-44s hottest FA: %3.0f%%   loss: %.1f%%\n" label (100.0 *. funnel)
    (100.0 *. loss)

let () =
  let x = Topology.Clos.expansion () in
  (* Activate all FAv2 nodes in the graph up front so the controller can
     compile per-switch RPAs that already know about them; they attract no
     traffic until BGP converges onto them. *)
  let fav2s = List.init 4 (fun _ -> Topology.Clos.add_fav2 x) in
  let net = Bgp.Network.create ~seed:3 x.xgraph in
  (* Keep FAv2 sessions down until each node is "activated" on-site. *)
  List.iter
    (fun fav2 ->
      List.iter (fun ssw -> Bgp.Network.set_link net fav2 ssw ~up:false) x.xssws;
      Bgp.Network.set_link net fav2 x.backbone ~up:false)
    fav2s;
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4
    (Net.Attr.make
       ~communities:
         (Net.Community.Set.singleton
            Net.Community.Well_known.backbone_default_route)
       ());
  ignore (Bgp.Network.converge net);
  report "initial state (FAv1 + Edge only)" net x;

  (* Pre-deploy the equalizing RPAs through the controller; phases are
     bottom-up (FSW before SSW) per Section 5.3.2. *)
  let controller = Centralium.Controller.create ~seed:4 net in
  let plan = Centralium.Apps.Expansion_equalizer.plan x in
  (match Centralium.Controller.deploy controller plan with
   | Ok report_ ->
     pf "RPAs deployed to %d switches in %d phases\n"
       report_.Centralium.Controller.applied
       (List.length plan.Centralium.Controller.phases)
   | Error es -> failwith (String.concat "; " es));
  report "RPAs active, FAv2 still dark" net x;

  (* Activate FAv2 nodes one at a time: the moment the paper's Figure 2
     calls state A. Without the RPA the first node would take 100%. *)
  List.iteri
    (fun i fav2 ->
      Bgp.Network.set_link net fav2 x.backbone ~up:true;
      List.iter (fun ssw -> Bgp.Network.set_link net fav2 ssw ~up:true) x.xssws;
      ignore (Bgp.Network.converge net);
      report (Printf.sprintf "FAv2 node %d/4 activated" (i + 1)) net x)
    fav2s;

  (* Drain and decommission the old layers. *)
  List.iter (fun fa -> Bgp.Network.drain_device net fa) x.fav1;
  List.iter (fun e -> Bgp.Network.drain_device net e) x.edge;
  ignore (Bgp.Network.converge net);
  report "FAv1 + Edge drained" net x;

  (* Remove the RPAs top-down; no policy residue remains. *)
  (match Centralium.Controller.remove controller plan with
   | Ok _ -> pf "RPAs removed (reverse phase order); BGP back to native\n"
   | Error es -> failwith (String.concat "; " es));
  report "final state (FAv2 only, native BGP)" net x;
  pf "\nmigration complete without a first-router collapse.\n"
