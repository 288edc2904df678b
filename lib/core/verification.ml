type spec = {
  spec_name : string;
  build : unit -> Bgp.Network.t * Controller.plan * Health.check list;
}

type outcome = {
  outcome_name : string;
  deployed : bool;
  intent_failures : (string * string) list;
  errors : string list;
}

let passed o = o.deployed && o.intent_failures = [] && o.errors = []

let qualify spec =
  let failed errors =
    { outcome_name = spec.spec_name; deployed = false; intent_failures = [];
      errors }
  in
  match spec.build () with
  | exception e -> failed [ Printexc.to_string e ]
  | net, plan, intent_checks -> (
    (* Both pre-flight gates enforce: a plan with error-severity lint or
       verify findings fails qualification before anything is deployed. *)
    let controller = Controller.create net in
    match Controller.deploy ~lint:`Enforce ~verify:`Enforce controller plan with
    | Error errors -> failed errors
    | Ok _report ->
      ignore (Bgp.Network.converge net);
      {
        outcome_name = spec.spec_name;
        deployed = true;
        intent_failures = Health.failures intent_checks;
        errors = [];
      })

let qualify_all specs = List.map qualify specs

let pp_outcome ppf o =
  if passed o then Format.fprintf ppf "[PASS] %s" o.outcome_name
  else begin
    Format.fprintf ppf "[FAIL] %s" o.outcome_name;
    List.iter (fun e -> Format.fprintf ppf "@.       error: %s" e) o.errors;
    List.iter
      (fun (check, reason) ->
        Format.fprintf ppf "@.       intent %s: %s" check reason)
      o.intent_failures
  end

(* ---------------- Standard qualification runs ---------------- *)

let tagged_attr () =
  Net.Attr.make
    ~communities:
      (Net.Community.Set.singleton Net.Community.Well_known.backbone_default_route)
    ()

let equalization_spec ~seed =
  {
    spec_name = "path-equalization on expansion topology";
    build =
      (fun () ->
        let x = Topology.Clos.expansion () in
        let fav2 = Topology.Clos.add_fav2 x in
        let net = Bgp.Network.create ~seed x.Topology.Clos.xgraph in
        Bgp.Network.originate net x.backbone Net.Prefix.default_v4 (tagged_attr ());
        ignore (Bgp.Network.converge net);
        let plan = Apps.Expansion_equalizer.plan x in
        let demands = List.map (fun f -> (f, 1.0)) x.xfsws in
        let intent =
          [
            (* With the RPA live, no FA — including the new one — may
               attract more than a balanced share (plus slack). *)
            Health.congestion_free net Net.Prefix.default_v4 ~demands
              ~members:(x.fav1 @ [ fav2 ])
              ~max_share:(1.2 /. float_of_int (List.length x.fav1 + 1));
            Health.no_loss net Net.Prefix.default_v4 ~demands;
            (* SSWs must now hold both short and long paths. *)
            (match x.xssws with
             | ssw :: _ ->
               Health.path_count_at_least net ~device:ssw Net.Prefix.default_v4
                 ~count:(List.length x.fav1 + 1)
             | [] -> failwith "no SSWs");
          ]
        in
        (net, plan, intent));
  }

let guard_spec ~seed =
  {
    spec_name = "min-next-hop guard on decommission mesh";
    build =
      (fun () ->
        let d = Topology.Clos.decommission ~planes:2 ~grids:4 ~per:2 () in
        let net = Bgp.Network.create ~seed d.Topology.Clos.dgraph in
        Bgp.Network.originate net d.north_origin Net.Prefix.default_v4
          (tagged_attr ());
        ignore (Bgp.Network.converge net);
        let ssw1s = Topology.Clos.ssws_numbered d 1 in
        let plan =
          Apps.Decommission_guard.plan d.dgraph
            ~destination:Destination.backbone_default
            ~threshold:(Path_selection.Fraction 0.75) ~decommissioned:ssw1s
            ~origination_layer:Topology.Node.Eb
        in
        let intent =
          List.map
            (fun ssw -> Health.route_present net ~device:ssw Net.Prefix.default_v4)
            ssw1s
        in
        (net, plan, intent));
  }

let rollout_spec ~seed =
  {
    spec_name = "safe rollout ordering on FA/DMAG topology";
    build =
      (fun () ->
        let r = Topology.Clos.rollout () in
        let net = Bgp.Network.create ~seed r.Topology.Clos.rgraph in
        Bgp.Network.originate net r.rbackbone Net.Prefix.default_v4 (tagged_attr ());
        ignore (Bgp.Network.converge net);
        let origin_asn =
          (Topology.Graph.node r.rgraph r.rbackbone).Topology.Node.asn
        in
        let plan =
          Apps.Path_equalize.plan r.rgraph
            ~destination:Destination.backbone_default ~origin_asn
            ~targets:(r.rfsws @ r.rssws @ r.rfas)
            ~origination_layer:Topology.Node.Eb
        in
        let demands = List.map (fun f -> (f, 1.0)) r.rfsws in
        let devices =
          List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes r.rgraph)
        in
        let intent =
          [
            Health.loop_free net Net.Prefix.default_v4 ~devices;
            Health.no_loss net Net.Prefix.default_v4 ~demands;
            Health.congestion_free net Net.Prefix.default_v4 ~demands
              ~members:r.rfas ~max_share:0.6;
          ]
        in
        (net, plan, intent));
  }

let standard_suite ?(seed = 31) () =
  [
    equalization_spec ~seed;
    guard_spec ~seed:(seed + 1);
    rollout_spec ~seed:(seed + 2);
  ]
