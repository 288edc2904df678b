(* Scenario 3 (Section 3.4): transient forwarding-state exhaustion during
   distributed WCMP convergence, and its elimination by prescribing weights
   a priori with a Route Attribute RPA.

   Run with: dune exec examples/state_explosion.exe *)

let pf = Printf.printf

let prefixes = 64

let prefix_of i = Net.Prefix.v4 10 (i / 256) (i mod 256) 0 24

let run ~with_rpa =
  let w = Topology.Clos.wcmp_convergence () in
  let du = List.nth w.Topology.Clos.dus 0 in
  let net = Bgp.Network.create ~seed:7 ~wcmp:true w.wgraph in
  if with_rpa then begin
    let rpa =
      Centralium.Apps.Wcmp_freeze.rpa
        ~destination:
          (Centralium.Destination.Prefixes
             [ Net.Prefix.of_string_exn "10.0.0.0/8" ])
        ~live_weight:1
        ~drained_signature:
          (Centralium.Signature.make
             ~communities:[ Net.Community.Well_known.drained ]
             ())
        ()
    in
    Bgp.Network.set_hooks net du
      (Centralium.Engine.hooks (Centralium.Engine.create rpa))
  end;
  for i = 0 to prefixes - 1 do
    List.iter
      (fun eb -> Bgp.Network.originate net eb (prefix_of i) (Net.Attr.make ()))
      w.ebs
  done;
  ignore (Bgp.Network.converge net);
  let initial = Bgp.Speaker.fib (Bgp.Network.speaker net du) in
  Bgp.Trace.clear (Bgp.Network.trace net);
  (match w.ebs with
   | eb1 :: eb2 :: _ ->
     Bgp.Network.drain_device ~delay:0.0 net eb1;
     Bgp.Network.drain_device ~delay:0.003 net eb2
   | _ -> assert false);
  ignore (Bgp.Network.converge net);
  let timeline =
    Dataplane.Nhg.timeline_on_device ~initial (Bgp.Network.trace net) ~device:du
  in
  let peak = Dataplane.Nhg.max_on_device ~initial (Bgp.Network.trace net) ~device:du in
  (peak, timeline)

let () =
  pf "EB[1:8] advertise %d prefixes to UU[1:4]; each UU-DU pair runs two \
      BGP sessions.\n"
    prefixes;
  pf "EB1 and EB2 go into maintenance 3 ms apart; the DU's hardware must \
      hold every distinct next-hop-group object that appears.\n\n";
  let native_peak, native_timeline = run ~with_rpa:false in
  let rpa_peak, _ = run ~with_rpa:true in
  pf "distributed WCMP: peak %d distinct next-hop groups on the DU\n"
    native_peak;
  pf "  (%d FIB updates during convergence; theoretical bound 4^8 = 65536)\n"
    (List.length native_timeline);
  pf "Route Attribute RPA (weights prescribed a priori): peak %d group(s)\n"
    rpa_peak;
  pf "\nthe transient explosion is structural to distributed WCMP; the RPA \
      removes it by decoupling weights from convergence order.\n"
