(* Interoperability between RPA and non-RPA switches (Section 5.3), plus
   the debugging tooling of Section 7.2.

   R6 runs a Path Selection RPA that load-balances prefix D over R2 and R5
   while R1-R5 run native BGP. Advertising R6's best selected path installs
   a persistent forwarding loop between R5 and R6; the production rule —
   advertise the least favorable selected path — prevents it. The example
   then uses the debug tooling to explain R6's decision.

   Run with: dune exec examples/interop.exe *)

let pf = Printf.printf

let prefix_d = Net.Prefix.of_string_exn "203.0.113.0/24"

let build ~advertise_least_favorable =
  let m = Topology.Clos.mixed_dissemination () in
  let net = Bgp.Network.create ~seed:9 m.Topology.Clos.mgraph in
  let r = m.Topology.Clos.r in
  let asn_of d = (Topology.Graph.node m.mgraph d).Topology.Node.asn in
  let rpa =
    Centralium.Rpa.make ~advertise_least_favorable
      ~path_selection:
        [
          Centralium.Path_selection.make
            [
              Centralium.Path_selection.statement ~name:"balance-r2-r5"
                ~path_sets:
                  [
                    Centralium.Path_selection.path_set ~name:"r2-r5"
                      (Centralium.Signature.make
                         ~neighbor_asns:[ asn_of r.(2); asn_of r.(5) ]
                         ());
                  ]
                (Centralium.Destination.Prefixes [ prefix_d ]);
            ];
        ]
      ()
  in
  Bgp.Network.set_hooks net r.(6) (Centralium.Engine.hooks (Centralium.Engine.create rpa));
  Bgp.Network.originate net m.origin prefix_d (Net.Attr.make ());
  ignore (Bgp.Network.converge net);
  (m, net, rpa)

let report_loops (m : Topology.Clos.mixed) net =
  let devices =
    List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes m.mgraph)
  in
  match
    Dataplane.Metrics.find_forwarding_loops
      ~lookup:(fun d -> Bgp.Network.fib net d prefix_d)
      ~devices
  with
  | [] -> pf "  forwarding is loop-free\n"
  | cycles ->
    List.iter
      (fun cycle ->
        pf "  PERSISTENT LOOP: %s\n"
          (String.concat " -> " (List.map string_of_int cycle)))
      cycles

let () =
  pf "R6 is the only RPA speaker; R1-R5 run native multipath BGP.\n\n";

  pf "variant A - R6 advertises its BEST selected path (the naive choice):\n";
  let m, net, _ = build ~advertise_least_favorable:false in
  report_loops m net;

  pf "\nvariant B - R6 advertises its LEAST FAVORABLE selected path \
      (Section 5.3.1 rule):\n";
  let m, net, rpa = build ~advertise_least_favorable:true in
  report_loops m net;

  (* Explain R6's decision with the Section 7.2 tooling. *)
  pf "\nwhy did R6 do that? (debug tooling)\n";
  let r6 = m.Topology.Clos.r.(6) in
  let speaker = Bgp.Network.speaker net r6 in
  let env = Bgp.Network.env net in
  let ctx =
    {
      Bgp.Rib_policy.device = r6;
      prefix = prefix_d;
      now = env.Bgp.Speaker.now;
      commit = false;
      peer_layer = env.Bgp.Speaker.peer_layer;
      live_peers_in_layer = (fun _ -> List.length (Bgp.Speaker.peers speaker));
    }
  in
  let explanation =
    Centralium.Debug.explain
      (Centralium.Engine.create rpa)
      ~ctx
      ~candidates:(Bgp.Speaker.candidates speaker prefix_d)
  in
  Format.printf "%a" Centralium.Debug.pp_explanation explanation;
  pf "\nthe rule costs nothing in steady state and removes the loop class \
      entirely.\n"
