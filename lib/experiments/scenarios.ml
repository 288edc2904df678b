let backbone_community = Net.Community.Well_known.backbone_default_route

let tagged_attr () =
  Net.Attr.make ~communities:(Net.Community.Set.singleton backbone_community) ()

let deploy_rpa net device rpa =
  let engine = Centralium.Engine.create rpa in
  (* Guard firings are part of the run's observable history: record each
     MNH-forced withdrawal in the trace alongside invariant violations. *)
  Centralium.Engine.set_on_withdraw engine
    (Some
       (fun ~prefix ~statement ->
         Bgp.Trace.record (Bgp.Network.trace net)
           (Bgp.Trace.Violation
              {
                time = Bgp.Network.now net;
                device = Some device;
                prefix = Some prefix;
                kind = "mnh-withdraw";
                detail =
                  Printf.sprintf
                    "BgpNativeMinNextHop guard of statement %S forced a \
                     withdrawal"
                    statement;
              })));
  Bgp.Network.set_hooks net device (Centralium.Engine.hooks engine)

let deploy_plan net (plan : Centralium.Controller.plan) =
  List.iter
    (fun (device, rpa) -> deploy_rpa net device rpa)
    plan.Centralium.Controller.rpas

let funnel_of net prefix ~demands ~members =
  let result = Dataplane.Traffic.route_prefix net prefix ~demands in
  let total = Dataplane.Traffic.total_demand demands in
  Dataplane.Metrics.funneling result ~members ~total

(* The report a rollout outcome carries, if any. *)
let report_of = function
  | Centralium.Controller.Completed r
  | Rolled_back { partial = r; _ }
  | Crashed { partial = r; _ }
  | Fenced { partial = r; _ } ->
    Some r
  | Aborted _ -> None

(* ------------------------------------------------------------------ *)

module Fig2 = struct
  type result = {
    baseline_funnel : float;
    native_fav2_share : float;
    rpa_fav2_share : float;
    balanced_share : float;
    rpa_loss : float;
  }

  let run ?(seed = 42) () =
    Obs.Span.with_span "scenario.fig2"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let default = Net.Prefix.default_v4 in
    (* Initial state: FAv1 + Edge only. *)
    let x0 = Topology.Clos.expansion () in
    let demands_of x = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
    let net0 = Bgp.Network.create ~seed x0.Topology.Clos.xgraph in
    Bgp.Network.originate net0 x0.backbone default (tagged_attr ());
    ignore (Bgp.Network.converge net0);
    let baseline_funnel =
      funnel_of net0 default ~demands:(demands_of x0) ~members:x0.fav1
    in
    (* Transitory state A: the first FAv2 is activated. *)
    let x = Topology.Clos.expansion () in
    let fav2 = Topology.Clos.add_fav2 x in
    let fa_members = x.fav1 @ [ fav2 ] in
    let run_case ~with_rpa =
      let net = Bgp.Network.create ~seed:(seed + 1) x.xgraph in
      if with_rpa then deploy_plan net (Centralium.Apps.Expansion_equalizer.plan x);
      Bgp.Network.originate net x.backbone default (tagged_attr ());
      ignore (Bgp.Network.converge net);
      let result = Dataplane.Traffic.route_prefix net default ~demands:(demands_of x) in
      let total = Dataplane.Traffic.total_demand (demands_of x) in
      ( Dataplane.Metrics.transit_share result ~device:fav2 ~total,
        Dataplane.Metrics.loss_fraction result ~total )
    in
    let native_fav2_share, _ = run_case ~with_rpa:false in
    let rpa_fav2_share, rpa_loss = run_case ~with_rpa:true in
    {
      baseline_funnel;
      native_fav2_share;
      rpa_fav2_share;
      balanced_share = 1.0 /. float_of_int (List.length fa_members);
      rpa_loss;
    }
end

(* ------------------------------------------------------------------ *)

module Fig4 = struct
  type result = {
    steady_share : float;
    native_worst_funnel : float;
    rpa_worst_funnel : float;
  }

  let decommissioned_number = 1

  let run_case ~seed ~guard =
    let default = Net.Prefix.default_v4 in
    let d = Topology.Clos.decommission ~planes:4 ~grids:8 ~per:4 () in
    let net = Bgp.Network.create ~seed d.Topology.Clos.dgraph in
    let ssw1s = Topology.Clos.ssws_numbered d decommissioned_number in
    let fadu1s = Topology.Clos.fadus_numbered d decommissioned_number in
    (match guard with
     | None -> ()
     | Some fraction ->
       let plan =
         Centralium.Apps.Decommission_guard.plan d.dgraph
           ~destination:Centralium.Destination.backbone_default
           ~threshold:(Centralium.Path_selection.Fraction fraction)
           ~decommissioned:ssw1s ~origination_layer:Topology.Node.Eb
       in
       deploy_plan net plan);
    Bgp.Network.originate net d.north_origin default (tagged_attr ());
    ignore (Bgp.Network.converge net);
    let demands = [ (d.south_origin, 16.0) ] in
    let total = Dataplane.Traffic.total_demand demands in
    let steady =
      let result = Dataplane.Traffic.route_prefix net default ~demands in
      Dataplane.Metrics.funneling result ~members:fadu1s ~total
    in
    (* Drain the FADU-1s asynchronously and watch the transient FIBs. *)
    let initial = Bgp.Network.fib_snapshot net default in
    Bgp.Trace.clear (Bgp.Network.trace net);
    List.iteri
      (fun i fadu ->
        Bgp.Network.drain_device ~delay:(float_of_int i *. 0.002) net fadu)
      fadu1s;
    ignore (Bgp.Network.converge net);
    let timeline =
      Bgp.Trace.fib_timeline (Bgp.Network.trace net) ~prefix:default ~initial
    in
    let worst, _ =
      Dataplane.Metrics.max_funneling_over_timeline ~timeline ~demands
        ~members:fadu1s
    in
    (steady, worst)

  let run ?(seed = 42) () =
    Obs.Span.with_span "scenario.fig4"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let steady_share, native_worst_funnel = run_case ~seed ~guard:None in
    let _, rpa_worst_funnel = run_case ~seed ~guard:(Some 0.75) in
    { steady_share; native_worst_funnel; rpa_worst_funnel }

  let sweep ?(seed = 42) ~thresholds () =
    List.map
      (fun guard ->
        let _, worst = run_case ~seed ~guard in
        (guard, worst))
      thresholds
end

(* ------------------------------------------------------------------ *)

module Fig5 = struct
  type result = {
    prefixes : int;
    du_nhg_native : int;
    du_nhg_rpa : int;
    theoretical_bound : int;
  }

  let prefix_of i = Net.Prefix.v4 10 (i / 256) (i mod 256) 0 24

  let run ?(seed = 42) ?(prefixes = 48) () =
    Obs.Span.with_span "scenario.fig5"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let run_case ~with_rpa =
      let w = Topology.Clos.wcmp_convergence () in
      let du = List.nth w.Topology.Clos.dus 0 in
      let config = { Bgp.Speaker.default_config with wcmp = true } in
      let net = Bgp.Network.create ~seed ~config w.wgraph in
      if with_rpa then begin
        (* Prescribe the traffic distribution a priori: every UU path
           carries weight 1 regardless of what capacity the distributed
           control plane would derive. *)
        let rpa =
          Centralium.Rpa.make
            ~route_attribute:
              [
                Centralium.Route_attribute.make ~name:"freeze"
                  [
                    Centralium.Route_attribute.statement ~default_weight:1
                      (Centralium.Destination.Prefixes
                         [ Net.Prefix.of_string_exn "10.0.0.0/8" ])
                      [];
                  ];
              ]
            ()
        in
        deploy_rpa net du rpa
      end;
      (* All EBs originate the same N prefixes. *)
      for i = 0 to prefixes - 1 do
        List.iter
          (fun eb -> Bgp.Network.originate net eb (prefix_of i) (Net.Attr.make ()))
          w.ebs
      done;
      ignore (Bgp.Network.converge net);
      (* Snapshot the steady FIB so the replay counts unchanged prefixes'
         groups too. *)
      let initial = Bgp.Speaker.fib (Bgp.Network.speaker net du) in
      Bgp.Trace.clear (Bgp.Network.trace net);
      (* EB1 and EB2 transition from LIVE to MAINTENANCE asynchronously. *)
      (match w.ebs with
       | eb1 :: eb2 :: _ ->
         Bgp.Network.drain_device ~delay:0.0 net eb1;
         Bgp.Network.drain_device ~delay:0.003 net eb2
       | _ -> invalid_arg "Fig5: need at least two EBs");
      ignore (Bgp.Network.converge net);
      Dataplane.Nhg.max_on_device ~initial (Bgp.Network.trace net) ~device:du
    in
    let du_nhg_native = run_case ~with_rpa:false in
    let du_nhg_rpa = run_case ~with_rpa:true in
    {
      prefixes;
      du_nhg_native;
      du_nhg_rpa;
      (* Up to 4 transitory per-UU states, seen independently over the
         DU's 8 sessions. *)
      theoretical_bound = 4 * 4 * 4 * 4 * 4 * 4 * 4 * 4;
    }
end

(* ------------------------------------------------------------------ *)

module Fig9 = struct
  type result = {
    loops_with_best_advertised : int list list;
    circulating_bad : float;
    ttl_loss_bad : float;
    loops_with_rule : int list list;
    circulating_good : float;
    ttl_loss_good : float;
  }

  let prefix_d = Net.Prefix.of_string_exn "203.0.113.0/24"

  let run ?(seed = 42) () =
    Obs.Span.with_span "scenario.fig9"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let run_case ~advertise_least_favorable =
      let m = Topology.Clos.mixed_dissemination () in
      let net = Bgp.Network.create ~seed m.mgraph in
      let r = m.Topology.Clos.r in
      let asn_of d = (Topology.Graph.node m.mgraph d).Topology.Node.asn in
      (* R6 load-balances prefix D over R2 and R5 (Figure 9). *)
      let rpa =
        Centralium.Rpa.make ~advertise_least_favorable
          ~path_selection:
            [
              Centralium.Path_selection.make
                [
                  Centralium.Path_selection.statement
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
      deploy_rpa net r.(6) rpa;
      Bgp.Network.originate net m.origin prefix_d (Net.Attr.make ());
      ignore (Bgp.Network.converge net);
      let devices =
        List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes m.mgraph)
      in
      let loops =
        Dataplane.Metrics.find_forwarding_loops
          ~lookup:(fun d -> Bgp.Network.fib net d prefix_d)
          ~devices
      in
      let demands = [ (r.(6), 1.0); (r.(3), 1.0) ] in
      let result = Dataplane.Traffic.route_prefix net prefix_d ~demands in
      let load a b =
        Option.value
          (Hashtbl.find_opt result.Dataplane.Traffic.link_load (a, b))
          ~default:0.0
      in
      (* Traffic on the R5-R6 link in both directions at once = packets
         circulating between the two. *)
      let circulating = Float.min (load r.(5) r.(6)) (load r.(6) r.(5)) in
      (* Discrete flows with a TTL: bouncers between R5 and R6 expire. *)
      let flows =
        List.concat_map
          (fun src -> List.init 100 (fun i -> (src, (src * 1000) + i)))
          [ r.(6); r.(3) ]
      in
      let flow_result =
        Dataplane.Flowsim.run
          ~lookup:(fun d -> Bgp.Network.fib net d prefix_d)
          ~flows ()
      in
      (loops, circulating, Dataplane.Flowsim.loss_fraction flow_result)
    in
    let loops_with_best_advertised, circulating_bad, ttl_loss_bad =
      run_case ~advertise_least_favorable:false
    in
    let loops_with_rule, circulating_good, ttl_loss_good =
      run_case ~advertise_least_favorable:true
    in
    { loops_with_best_advertised; circulating_bad; ttl_loss_bad;
      loops_with_rule; circulating_good; ttl_loss_good }
end

(* ------------------------------------------------------------------ *)

module Fig10 = struct
  type result = {
    funnel_top_down : float;
    funnel_bottom_up : float;
    balanced : float;
  }

  let run ?(seed = 42) () =
    Obs.Span.with_span "scenario.fig10"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let default = Net.Prefix.default_v4 in
    let fresh () =
      let r = Topology.Clos.rollout () in
      let net = Bgp.Network.create ~seed r.rgraph in
      Bgp.Network.originate net r.rbackbone default (tagged_attr ());
      ignore (Bgp.Network.converge net);
      (r, net)
    in
    let plan_for (r : Topology.Clos.rollout) =
      Centralium.Apps.Path_equalize.plan r.rgraph
        ~destination:Centralium.Destination.backbone_default
        ~origin_asn:(Topology.Graph.node r.rgraph r.rbackbone).Topology.Node.asn
        ~targets:(r.rfsws @ r.rssws @ r.rfas)
        ~origination_layer:Topology.Node.Eb
    in
    let rpa_of plan device = List.assoc device plan.Centralium.Controller.rpas in
    let measure (r : Topology.Clos.rollout) net =
      let demands = List.map (fun f -> (f, 1.0)) r.rfsws in
      funnel_of net default ~demands ~members:r.rfas
    in
    (* Uncoordinated: the RPA takes effect on FA1 first. *)
    let funnel_top_down =
      let r, net = fresh () in
      let plan = plan_for r in
      (match r.rfas with
       | fa1 :: _ -> deploy_rpa net fa1 (rpa_of plan fa1)
       | [] -> invalid_arg "Fig10: no FAs");
      ignore (Bgp.Network.converge net);
      let worst = measure r net in
      (* Finish the rollout; the funnel persists only until then. *)
      List.iter
        (fun (d, rpa) -> deploy_rpa net d rpa)
        plan.Centralium.Controller.rpas;
      ignore (Bgp.Network.converge net);
      worst
    in
    (* Safe order: bottom-up phases, converging between phases, watching
       the funnel at every checkpoint (including mid-FA-phase). *)
    let funnel_bottom_up =
      let r, net = fresh () in
      let plan = plan_for r in
      let worst = ref (measure r net) in
      let checkpoint () = worst := Float.max !worst (measure r net) in
      List.iter
        (fun phase ->
          List.iter
            (fun device ->
              deploy_rpa net device (rpa_of plan device);
              ignore (Bgp.Network.converge net);
              checkpoint ())
            phase)
        plan.Centralium.Controller.phases;
      !worst
    in
    let r = Topology.Clos.rollout () in
    {
      funnel_top_down;
      funnel_bottom_up;
      balanced = 1.0 /. float_of_int (List.length r.rfas);
    }
end

(* ------------------------------------------------------------------ *)

module Fig14 = struct
  type result = {
    blackholed_with_knob : float;
    blackholed_without_knob : float;
    propagated_past_ssw : bool;
  }

  let specific = Net.Prefix.of_string_exn "10.0.0.0/8"
  let host = Net.Prefix.v4 10 1 2 3 32

  let run ?(seed = 42) () =
    Obs.Span.with_span "scenario.fig14"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let run_case ~keep_fib_warm =
      let s = Topology.Clos.sev () in
      let net = Bgp.Network.create ~seed s.sgraph in
      Bgp.Network.originate net s.sbackbone Net.Prefix.default_v4 (tagged_attr ());
      ignore (Bgp.Network.converge net);
      (* The protective RPA was pre-deployed on SSWs and FSWs: only
         advertise routes of this destination group when >= 75% of the FA
         uplinks provide them. *)
      let guard =
        Centralium.Apps.Min_next_hop_guard.rpa
          ~destination:Centralium.Destination.backbone_default
          ~threshold:(Centralium.Path_selection.Fraction 0.75) ~keep_fib_warm
      in
      List.iter (fun d -> deploy_rpa net d guard) (s.sssws @ s.sfsws);
      ignore (Bgp.Network.converge net);
      (* The not-production-ready FA unexpectedly originates the new, more
         specific route. *)
      Bgp.Network.originate net s.bad_fa specific (tagged_attr ());
      ignore (Bgp.Network.converge net);
      let demands = List.map (fun f -> (f, 1.0)) s.sfsws in
      let result = Dataplane.Traffic.route_destination net host ~demands in
      let total = Dataplane.Traffic.total_demand demands in
      let blackholed =
        Option.value
          (Hashtbl.find_opt result.Dataplane.Traffic.delivered_at s.bad_fa)
          ~default:0.0
        /. total
      in
      let propagated =
        List.exists (fun f -> Bgp.Network.fib net f specific <> None) s.sfsws
      in
      (blackholed, propagated)
    in
    let blackholed_with_knob, leaked1 = run_case ~keep_fib_warm:true in
    let blackholed_without_knob, leaked2 = run_case ~keep_fib_warm:false in
    {
      blackholed_with_knob;
      blackholed_without_knob;
      propagated_past_ssw = leaked1 || leaked2;
    }
end

(* ------------------------------------------------------------------ *)

module Faulted = struct
  type result = {
    schedule : Dsim.Fault.schedule;
    events_executed : int;
    messages_dropped : int;
    speaker_restarts : int;
    transient_violations : (float * string) list;
    final_violations : (int option * Net.Prefix.t option * string) list;
    trace : Bgp.Trace.event list;
  }

  let horizon = 0.05

  let run ?(seed = 42) ?(profile = Dsim.Fault.light) ?(flaps = 4)
      ?(restarts = 1) () =
    Obs.Span.with_span "scenario.faulted"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let default = Net.Prefix.default_v4 in
    let x = Topology.Clos.expansion () in
    (* The result carries the whole trace, message records included, and a
       log stores those only under provenance. *)
    let net, _ =
      Bgp.Trace.with_provenance (fun () ->
          Bgp.Network.create ~seed x.Topology.Clos.xgraph)
    in
    (* Independent seeds: the message-fate stream, the control-fault
       schedule, and the latency stream never share an RNG, so any one can
       be changed without perturbing the others. *)
    Bgp.Network.set_fault net
      (Some (Dsim.Fault.create ~seed:(seed + 1) profile));
    let links =
      List.map
        (fun (l : Topology.Graph.link) -> (l.Topology.Graph.a, l.Topology.Graph.b))
        (Topology.Graph.links x.xgraph)
    in
    let devices =
      List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes x.xgraph)
    in
    let schedule =
      Dsim.Fault.random_schedule ~seed:(seed + 2) ~links ~devices ~horizon
        ~flaps ~restarts ()
    in
    Bgp.Network.originate net x.backbone default (tagged_attr ());
    Bgp.Network.apply_schedule net schedule;
    (* Sample the invariants through the whole fault window (plus slack for
       the last recoveries to land). *)
    Centralium.Invariant.monitor ~period:0.005 ~until:(horizon +. 0.03) net;
    let events_executed = Bgp.Network.converge net in
    let trace_log = Bgp.Network.trace net in
    let transient_violations =
      List.map
        (fun (time, _, _, kind, _) -> (time, kind))
        (Bgp.Trace.violations trace_log)
    in
    let final_violations =
      List.map
        (fun (v : Centralium.Invariant.violation) ->
          (v.device, v.prefix, Centralium.Invariant.kind_name v.kind))
        (Centralium.Invariant.check net)
    in
    {
      schedule;
      events_executed;
      messages_dropped = Bgp.Trace.messages_dropped trace_log;
      speaker_restarts =
        Bgp.Trace.count
          (function Bgp.Trace.Speaker_restarted _ -> true | _ -> false)
          trace_log;
      transient_violations;
      final_violations;
      trace = Bgp.Trace.events trace_log;
    }
end

(* ------------------------------------------------------------------ *)

(* Out-of-band management star: the controller host reaches every device
   over a link-state network on its own graph, so partitioning the
   management plane never touches the BGP data plane (Appendix A.2). *)
let management_star graph ~hub =
  let g = Topology.Graph.create () in
  List.iter
    (fun (n : Topology.Node.t) -> Topology.Graph.add_node g n)
    (Topology.Graph.nodes graph);
  List.iter
    (fun (n : Topology.Node.t) ->
      if n.Topology.Node.id <> hub then
        Topology.Graph.add_link g hub n.Topology.Node.id)
    (Topology.Graph.nodes graph);
  g

(* The fixture the management-plane scenarios share. *)
type 'side mgmt_fixture = {
  x : Topology.Clos.expansion;
  net : Bgp.Network.t;  (* converged on the backbone's default route *)
  agent : Centralium.Switch_agent.t;
  side : 'side;  (* what else [controller_side] built *)
  mgmt_graph : Topology.Graph.t;  (* the management star, hub = backbone *)
  openr : Openr.Network.t;
}

(* The expansion Clos converged on the default route; then
   [controller_side net], which builds the controller side on the
   converged fabric and returns its switch agent (and whatever else it
   built); then the Open/R management star, converged and attached to
   that agent. *)
let mgmt_fixture ~seed ~controller_side =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  let agent, side = controller_side net in
  let hub = x.backbone in
  let mgmt_graph = management_star x.xgraph ~hub in
  let openr = Openr.Network.create ~seed:(seed + 11) mgmt_graph in
  ignore (Openr.Network.converge openr);
  Centralium.Switch_agent.attach_management_network agent openr
    ~controller_host:hub;
  { x; net; agent; side; mgmt_graph; openr }

(* A [?between_phases] hook sweeping the invariants at every phase
   boundary, and a reader of the (phase, kind) violations seen, in
   order. *)
let phase_sweeps net =
  let seen = ref [] in
  let between_phases idx =
    List.iter
      (fun (v : Centralium.Invariant.violation) ->
        seen := (idx, Centralium.Invariant.kind_name v.kind) :: !seen)
      (Centralium.Invariant.check net)
  in
  (between_phases, fun () -> List.rev !seen)

module Faulted_deploy = struct
  type result = {
    outcome : string;
    applied : int;
    skipped_in_sync : int;
    retries : int;
    backoff_seconds : float list;
    gave_up : int list;
    unreachable : int list;
    crashed : bool;
    resumed : bool;
    journal_status : string option;
    stragglers_during_outage : int list;
    unexpected_unreachable : int list;
    phase_violations : (int * string) list;
    transient_violations : (float * string) list;
    final_violations : string list;
    fib_digest : string;
  }

  let run ?(seed = 42) ?(profile = Dsim.Mgmt_fault.flaky) ?crash_after_ops
      ?(resume = true) ?(partition_devices = 0) () =
    Obs.Span.with_span "scenario.faulted_deploy"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let { x; net; agent; side = controller; mgmt_graph; openr } =
      mgmt_fixture ~seed ~controller_side:(fun net ->
          let controller = Centralium.Controller.create ~seed:(seed + 7) net in
          (Centralium.Controller.agent controller, controller))
    in
    let hub = x.backbone in
    (* Independent seeds: the RPC-fate stream, the backoff-jitter stream
       and the agent's latency stream never share an RNG. *)
    let fault = Dsim.Mgmt_fault.create ?crash_after_ops ~seed:(seed + 13) profile in
    Centralium.Switch_agent.set_mgmt_fault agent (Some fault);
    let plan = Centralium.Apps.Expansion_equalizer.plan x in
    let plan_devices = List.map fst plan.Centralium.Controller.rpas in
    let partitioned =
      List.filteri (fun i _ -> i < partition_devices) plan_devices
    in
    let set_partition up =
      List.iter
        (fun device ->
          Topology.Graph.set_link_up mgmt_graph hub device up;
          Openr.Network.link_event openr hub device ~up)
        partitioned;
      ignore (Openr.Network.converge openr)
    in
    if partitioned <> [] then set_partition false;
    (* Sample the invariants continuously through the deployment (and any
       controller outage inside it): backoff waits and phase convergences
       advance virtual time, which executes these sweeps. *)
    Centralium.Invariant.monitor ~period:0.01
      ~until:(Bgp.Network.now net +. 0.5)
      net;
    let between_phases, phase_violations = phase_sweeps net in
    let policy =
      { Centralium.Controller.default_retry_policy with jitter_seed = seed + 17 }
    in
    let outcome =
      Centralium.Controller.deploy_resilient ~policy ~fault ~between_phases
        controller plan
    in
    let crashed =
      match outcome with Centralium.Controller.Crashed _ -> true | _ -> false
    in
    (* Degraded-state views, captured before any healing: what the fleet
       looks like while the controller is down or devices are cut off. *)
    let stragglers_during_outage = Centralium.Switch_agent.stragglers agent in
    let unexpected_unreachable =
      Centralium.Switch_agent.unexpected_unreachable agent
    in
    let final_outcome, resumed =
      if crashed && resume then begin
        (* The replacement controller process: same NSDB (the journal
           survives), same devices, a fresh fault model with the crash
           schedule cleared. *)
        let fault' = Dsim.Mgmt_fault.create ~seed:(seed + 14) profile in
        Centralium.Switch_agent.set_mgmt_fault agent (Some fault');
        ( Centralium.Controller.resume ~policy ~fault:fault' ~between_phases
            controller plan,
          true )
      end
      else (outcome, false)
    in
    if partitioned <> [] then begin
      (* Heal the management partition; the level-triggered agent sweep
         clears the stragglers the outage left behind. *)
      set_partition true;
      ignore (Centralium.Switch_agent.reconcile agent ~devices:plan_devices);
      ignore (Bgp.Network.converge net)
    end;
    let initial_report = report_of outcome in
    let resume_report = if resumed then report_of final_outcome else None in
    let sum f = function
      | None -> 0
      | Some (r : Centralium.Controller.report) -> f r
    in
    let cat f = function
      | None -> []
      | Some (r : Centralium.Controller.report) -> f r
    in
    let reports = [ initial_report; resume_report ] in
    let trace_log = Bgp.Network.trace net in
    let transient_violations =
      List.map
        (fun (time, _, _, kind, _) -> (time, kind))
        (Bgp.Trace.violations trace_log)
    in
    let final_violations =
      List.map
        (fun (v : Centralium.Invariant.violation) ->
          Centralium.Invariant.kind_name v.kind)
        (Centralium.Invariant.check net)
    in
    {
      outcome = Centralium.Controller.outcome_name final_outcome;
      applied = List.fold_left (fun a r -> a + sum (fun r -> r.Centralium.Controller.applied) r) 0 reports;
      skipped_in_sync =
        List.fold_left (fun a r -> a + sum (fun r -> r.Centralium.Controller.skipped_in_sync) r) 0 reports;
      retries = List.fold_left (fun a r -> a + sum (fun r -> r.Centralium.Controller.retries) r) 0 reports;
      backoff_seconds =
        List.concat_map (cat (fun r -> r.Centralium.Controller.backoff_seconds)) reports;
      gave_up =
        List.concat_map
          (cat (fun r ->
               List.map
                 (fun (f : Centralium.Controller.device_failure) ->
                   f.failed_device)
                 r.Centralium.Controller.gave_up))
          reports;
      unreachable =
        List.sort_uniq Int.compare
          (List.concat_map (cat (fun r -> r.Centralium.Controller.unreachable)) reports);
      crashed;
      resumed;
      journal_status = Centralium.Controller.journal_status controller plan;
      stragglers_during_outage;
      unexpected_unreachable;
      phase_violations = phase_violations ();
      transient_violations;
      final_violations;
      fib_digest = Bgp.Network.fib_digest net;
    }

  type comparison = {
    interrupted : result;
    uninterrupted : result;
    digests_match : bool;
  }

  let crash_vs_uninterrupted ?(seed = 42) ?(profile = Dsim.Mgmt_fault.flaky)
      ?crash_after_ops () =
    let crash_after_ops =
      match crash_after_ops with
      | Some n -> n
      | None ->
        (* Default to mid-flight: past the plan-record writes, inside the
           first phase's reconciles. *)
        let x = Topology.Clos.expansion () in
        let plan = Centralium.Apps.Expansion_equalizer.plan x in
        List.length plan.Centralium.Controller.rpas + 6
    in
    let interrupted =
      run ~seed ~profile ~crash_after_ops ~resume:true ()
    in
    let uninterrupted = run ~seed ~profile ~resume:false () in
    {
      interrupted;
      uninterrupted;
      digests_match = interrupted.fib_digest = uninterrupted.fib_digest;
    }
end

(* ------------------------------------------------------------------ *)

module Failover = struct
  type result = {
    outcome : string;
    attempts : (int * string) list;
    completed_by : int option;
    elections : int;
    takeover_ms : float list;
    fenced_attempts : int;
    dead_members : int;
    grants : (int * int * float * float) list;
    applied : int;
    skipped_in_sync : int;
    journal_status : string option;
    ha_violations : string list;
    phase_violations : (int * string) list;
    final_violations : string list;
    fib_digest : string;
  }

  let run ?(seed = 42) ?(profile = Dsim.Mgmt_fault.none) ?(members = 3)
      ?(leader_crash_offsets = []) ?(lease_partition_offsets = []) () =
    Obs.Span.with_span "scenario.failover"
      ~attrs:(fun () ->
        [
          ("seed", string_of_int seed);
          ("members", string_of_int members);
          ("crashes", string_of_int (List.length leader_crash_offsets));
        ])
    @@ fun () ->
    (* Same fixture as Faulted_deploy, but the controller is a cluster:
       every member shares the one agent, NSDB and network, and only the
       lease holder may drive the rollout. *)
    let { x; net; agent; side = nsdb; _ } =
      mgmt_fixture ~seed ~controller_side:(fun net ->
          let agent = Centralium.Switch_agent.create ~seed:(seed + 7) net in
          (agent, Centralium.Nsdb.Replicated.create ~replicas:3))
    in
    (* The chaos schedule is anchored to the instant the cluster starts:
       offsets are relative so callers need not know the virtual clock. *)
    let t0 = Bgp.Network.now net in
    let ha =
      {
        Dsim.Mgmt_fault.leader_crash_times =
          List.map (fun o -> t0 +. o) leader_crash_offsets;
        lease_partitions =
          List.map (fun (a, b) -> (t0 +. a, t0 +. b)) lease_partition_offsets;
      }
    in
    let fault = Dsim.Mgmt_fault.create ~ha ~seed:(seed + 13) profile in
    let cluster = Centralium.Ha.create ~fault ~members net agent nsdb in
    Centralium.Ha.start cluster;
    Centralium.Invariant.monitor ~period:0.01
      ~until:(Bgp.Network.now net +. 0.5)
      net;
    let between_phases, phase_violations = phase_sweeps net in
    let policy =
      { Centralium.Controller.default_retry_policy with jitter_seed = seed + 17 }
    in
    let plan = Centralium.Apps.Expansion_equalizer.plan x in
    let attempts, terminal =
      Centralium.Ha.run_plan ~policy ~between_phases cluster plan
    in
    ignore (Bgp.Network.converge net);
    Centralium.Ha.stop cluster;
    let attempt_names =
      List.map (fun (m, o) -> (m, Centralium.Controller.outcome_name o)) attempts
    in
    let completed_by =
      match terminal with
      | Some (Centralium.Controller.Completed _) ->
        (match List.rev attempts with (m, _) :: _ -> Some m | [] -> None)
      | _ -> None
    in
    let reports = List.filter_map (fun (_, o) -> report_of o) attempts in
    let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
    let dead_members =
      let n = ref 0 in
      for i = 0 to Centralium.Ha.members cluster - 1 do
        if not (Centralium.Ha.member_alive cluster i) then incr n
      done;
      !n
    in
    let ha_violations =
      List.map
        (fun (v : Centralium.Invariant.violation) ->
          Centralium.Invariant.kind_name v.kind)
        (Centralium.Invariant.check_ha
           ~grants:(Centralium.Ha.grants cluster)
           ~commits:(Centralium.Ha.epoch_commits cluster))
    in
    let final_violations =
      List.map
        (fun (v : Centralium.Invariant.violation) ->
          Centralium.Invariant.kind_name v.kind)
        (Centralium.Invariant.check net)
    in
    let journal_status =
      (* Any member's controller sees the shared journal; ask the last
         attempt's (or member 0 when no attempt ever ran). *)
      let m = match List.rev attempts with (m, _) :: _ -> m | [] -> 0 in
      Centralium.Controller.journal_status
        (Centralium.Ha.controller cluster m)
        plan
    in
    {
      outcome =
        (match terminal with
         | Some o -> Centralium.Controller.outcome_name o
         | None -> "none");
      attempts = attempt_names;
      completed_by;
      elections = Centralium.Ha.elections cluster;
      takeover_ms = Centralium.Ha.takeover_ms cluster;
      fenced_attempts =
        List.length (List.filter (fun (_, n) -> n = "fenced") attempt_names);
      dead_members;
      grants = Centralium.Ha.grants cluster;
      applied = sum (fun (r : Centralium.Controller.report) -> r.applied);
      skipped_in_sync =
        sum (fun (r : Centralium.Controller.report) -> r.skipped_in_sync);
      journal_status;
      ha_violations;
      phase_violations = phase_violations ();
      final_violations;
      fib_digest = Bgp.Network.fib_digest net;
    }

  type comparison = {
    interrupted : result;
    uninterrupted : result;
    digests_match : bool;
  }

  let crash_vs_uninterrupted ?(seed = 42) ?(profile = Dsim.Mgmt_fault.none)
      ?(members = 3) ?(leader_crash_offsets = [ 0.02 ]) () =
    let interrupted = run ~seed ~profile ~members ~leader_crash_offsets () in
    let uninterrupted = run ~seed ~profile ~members () in
    {
      interrupted;
      uninterrupted;
      digests_match = interrupted.fib_digest = uninterrupted.fib_digest;
    }
end

(* ------------------------------------------------------------------ *)

module Chaos = struct
  type mode_result = {
    gr : bool;
    blackhole_seconds : float;
    loss_seconds : float;
    window : float;
    messages_dropped : int;
    keepalives_sent : int;
    hold_expiries : int;
    reconnects : int;
    stale_sweeps : int;
    speaker_restarts : int;
    transient_violations : (float * string) list;
    final_violations : (int option * Net.Prefix.t option * string) list;
    trace_events : int;
    fib_digest : string;
    loss_segments : Dataplane.Metrics.loss_segment list;
  }

  type result = { gr_on : mode_result; gr_off : mode_result; gr_wins : bool }

  let horizon = 0.12

  let count_session_events trace event =
    Bgp.Trace.count
      (function
        | Bgp.Trace.Session_event { event = e; _ } -> e = event
        | _ -> false)
      trace

  let run_mode ?(seed = 42) ?eval_mode ~gr () =
    Obs.Span.with_span "scenario.chaos"
      ~attrs:(fun () ->
        [ ("seed", string_of_int seed); ("gr", string_of_bool gr) ])
    @@ fun () ->
    let default = Net.Prefix.default_v4 in
    let x = Topology.Clos.expansion () in
    let net = Bgp.Network.create ~seed x.Topology.Clos.xgraph in
    Option.iter (Bgp.Network.set_eval_mode net) eval_mode;
    Bgp.Network.originate net x.backbone default (tagged_attr ());
    (* Each FSW also originates its rack prefix: the fabric carries a
       realistic multi-prefix table, so the chaos window exercises the
       decision pipeline across prefixes (the loss accounting below still
       follows the default route only). *)
    List.iteri
      (fun i fsw ->
        let rack =
          Net.Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/24" (i land 0xff))
        in
        Bgp.Network.originate net fsw rack (tagged_attr ()))
      x.Topology.Clos.xfsws;
    ignore (Bgp.Network.converge net);
    let t0 = Bgp.Network.now net in
    let initial = Bgp.Network.fib_snapshot net default in
    Bgp.Trace.clear (Bgp.Network.trace net);
    (* Identical seeds across both modes: the latency stream belongs to the
       network, message fates to their own stream. GR is the only
       difference between the two runs. *)
    Bgp.Network.set_fault net
      (Some (Dsim.Fault.create ~seed:(seed + 1) Dsim.Fault.severe));
    let config =
      if gr then Bgp.Liveness.with_gr Bgp.Liveness.default
      else Bgp.Liveness.default
    in
    Bgp.Network.enable_liveness ~config ~until:(t0 +. horizon) net;
    (* Control-plane chaos on top of the message-level faults: the origin
       itself restarts mid-window — the worst case for blackholes, since in
       legacy mode every peer flushes the default route and the withdrawal
       cascades fabric-wide — and one FA restarts later. *)
    Bgp.Network.restart_device ~delay:0.01 net x.backbone ~recovery:0.02;
    (match x.Topology.Clos.fav1 with
     | fa :: _ -> Bgp.Network.restart_device ~delay:0.05 net fa ~recovery:0.015
     | [] -> ());
    Centralium.Invariant.monitor ~period:0.01 ~until:(t0 +. horizon) net;
    ignore (Bgp.Network.run_until net ~time:(t0 +. horizon));
    (* End of the chaos window: heal the transport, re-establish every
       torn-down session, and let the remaining timers (stale sweeps,
       recoveries) drain to quiescence. *)
    Bgp.Network.set_fault net None;
    Bgp.Network.reestablish_sessions ~all:true net;
    ignore (Bgp.Network.converge net);
    let trace_log = Bgp.Network.trace net in
    let demands = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
    let timeline = Bgp.Trace.fib_timeline trace_log ~prefix:default ~initial in
    (* A fixed integration window covering the chaos plus the longest
       possible sweep tail, identical in both modes so the integrals are
       directly comparable. The healed network contributes zero loss. *)
    let until = t0 +. horizon +. config.Bgp.Liveness.stale_path_time in
    let integral =
      Dataplane.Metrics.loss_integrals ~initial ~timeline ~demands
        ~from_time:t0 ~until
    in
    let loss_segments =
      Dataplane.Metrics.loss_segments ~initial ~timeline ~demands
        ~from_time:t0 ~until
    in
    let transient_violations =
      List.map
        (fun (time, _, _, kind, _) -> (time, kind))
        (Bgp.Trace.violations trace_log)
    in
    let final_violations =
      List.map
        (fun (v : Centralium.Invariant.violation) ->
          (v.device, v.prefix, Centralium.Invariant.kind_name v.kind))
        (Centralium.Invariant.check net)
    in
    {
      gr;
      blackhole_seconds = integral.Dataplane.Metrics.blackhole_seconds;
      loss_seconds = integral.Dataplane.Metrics.loss_seconds;
      window = integral.Dataplane.Metrics.duration;
      messages_dropped = Bgp.Trace.messages_dropped trace_log;
      keepalives_sent = Bgp.Trace.keepalives_sent trace_log;
      hold_expiries = count_session_events trace_log "hold-expired";
      reconnects = count_session_events trace_log "reconnected";
      stale_sweeps =
        count_session_events trace_log "stale-swept"
        + count_session_events trace_log "fib-stale-swept";
      speaker_restarts =
        Bgp.Trace.count
          (function Bgp.Trace.Speaker_restarted _ -> true | _ -> false)
          trace_log;
      transient_violations;
      final_violations;
      trace_events = Bgp.Trace.length trace_log;
      fib_digest = Bgp.Network.fib_digest net;
      loss_segments;
    }

  let run ?seed () =
    let gr_on = run_mode ?seed ~gr:true () in
    let gr_off = run_mode ?seed ~gr:false () in
    {
      gr_on;
      gr_off;
      gr_wins = gr_on.blackhole_seconds < gr_off.blackhole_seconds;
    }
end

(* ------------------------------------------------------------------ *)

module Fig13 = struct
  type event = {
    event_id : int;
    drained_links : int;
    ecmp_capacity : float;
    rpa_capacity : float;
    ideal_capacity : float;
  }

  type result = {
    events : event list;
    mean_rpa_over_ideal : float;
    mean_ecmp_over_ideal : float;
    unblocked_fraction : float;
  }

  let fauus = 4
  let ebs = 4

  (* FAUU i is node i; EB j is node fauus + j; the backbone sink is the
     last node. Uplink capacities are deliberately heterogeneous: that is
     what separates WCMP from ECMP. *)
  let base_edges () =
    let sink = fauus + ebs in
    let uplinks =
      List.concat_map
        (fun i ->
          List.map
            (fun j ->
              (* Heterogeneous uplink speeds (1/3/5), varying per (i, j). *)
              let capacity = float_of_int (1 + (((i + j) mod 3) * 2)) in
              (i, fauus + j, capacity))
            (List.init ebs Fun.id))
        (List.init fauus Fun.id)
    in
    let egress = List.init ebs (fun j -> (fauus + j, sink, 8.0)) in
    (uplinks, egress, sink)

  let run ?(seed = 42) ?(events = 40) ?(levels = 64) () =
    Obs.Span.with_span "scenario.fig13"
      ~attrs:(fun () -> [ ("seed", string_of_int seed) ])
    @@ fun () ->
    let rng = Dsim.Rng.create seed in
    let uplinks, egress, sink = base_edges () in
    let demand_per_fauu = 6.0 in
    let demands = List.init fauus (fun i -> (i, demand_per_fauu)) in
    let total = demand_per_fauu *. float_of_int fauus in
    let make_event event_id =
      (* Drain 0-4 uplinks, never isolating a FAUU. *)
      let to_drain =
        if event_id = 0 then []
        else begin
          let k = 1 + Dsim.Rng.int rng 4 in
          let candidates = Dsim.Rng.sample_without_replacement rng k uplinks in
          (* Greedily accept drains that leave every FAUU >= 1 live uplink. *)
          List.fold_left
            (fun accepted ((i, _, _) as edge) ->
              let live_after =
                List.length
                  (List.filter
                     (fun ((i', _, _) as e) ->
                       i' = i && e <> edge && not (List.mem e accepted))
                     uplinks)
              in
              if live_after >= 1 then edge :: accepted else accepted)
            [] candidates
        end
      in
      let live =
        List.filter (fun edge -> not (List.mem edge to_drain)) uplinks
      in
      let instance =
        {
          Te.Solver.node_count = sink + 1;
          edges = live @ egress;
          demands;
          destination = sink;
        }
      in
      let u_ideal, w_ideal = Te.Solver.optimal instance in
      let u_rpa =
        Te.Solver.max_utilization instance (Te.Solver.quantize ~levels w_ideal)
      in
      let u_ecmp =
        Te.Solver.max_utilization instance (Te.Solver.ecmp_weights instance)
      in
      {
        event_id;
        drained_links = List.length to_drain;
        ecmp_capacity = Te.Solver.effective_capacity instance ~max_util:u_ecmp;
        rpa_capacity = Te.Solver.effective_capacity instance ~max_util:u_rpa;
        ideal_capacity = Te.Solver.effective_capacity instance ~max_util:u_ideal;
      }
    in
    let event_list = List.init events make_event in
    let mean f =
      List.fold_left (fun acc e -> acc +. f e) 0.0 event_list
      /. float_of_int (List.length event_list)
    in
    let unblocked =
      List.filter
        (fun e -> e.ecmp_capacity < total && e.rpa_capacity >= total)
        event_list
    in
    {
      events = event_list;
      mean_rpa_over_ideal = mean (fun e -> e.rpa_capacity /. e.ideal_capacity);
      mean_ecmp_over_ideal = mean (fun e -> e.ecmp_capacity /. e.ideal_capacity);
      unblocked_fraction =
        float_of_int (List.length unblocked)
        /. float_of_int (List.length event_list);
    }
end

(* ------------------------------------------------------------------ *)

module Continuous = struct
  type job = {
    job_index : int;
    job_name : string;
    job_tenant : string;
    job_class : string;
    job_canary : bool;
    job_seq : int option;
    job_shed_reason : string option;
    job_outcome : string option;
    job_queue_wait_s : float;
    job_convergence_s : float;
    job_remediation : string option;
  }

  type report = {
    hours : int;
    submitted : int;
    admitted : int;
    shed : int;
    completed : int;
    rolled_back : int;
    shed_rate : float;
    rollback_rate : float;
    plans_per_hour : float;
    convergence_p50_s : float;
    convergence_p99_s : float;
    queue_wait_p99_s : float;
    blackhole_seconds_per_day : float;
    replica_lag_p99 : float;
    replica_lag_peak : int;
    snapshot_ships : int;
    elections : int;
    queue_recoveries : int;
    remediations : int;
    unremediated_violations : int;
    queue_order : int list;
    shed_set : int list;
    fib_digest : string;
    jobs : job list;
  }

  (* Nearest-rank percentile; 0.0 on an empty sample set. *)
  let percentile p xs =
    match List.sort compare xs with
    | [] -> 0.0
    | sorted ->
      let n = List.length sorted in
      let k = int_of_float (ceil (p *. float_of_int n)) - 1 in
      List.nth sorted (min (n - 1) (max 0 k))

  (* Deliberately small so hourly bursts exercise real backpressure. *)
  let queue_config =
    { Centralium.Ops.max_queue = 4; per_tenant = 2; per_class = 3 }

  (* Virtual seconds standing in for one wall-clock hour. *)
  let hour_s = 0.5

  let run ?(seed = 42) ?(hours = 24) ?(jobs_per_hour = 5) ?(members = 2)
      ?(profile = Dsim.Mgmt_fault.flaky) ?(leader_crash_offsets = []) () =
    Obs.Span.with_span "scenario.continuous"
      ~attrs:(fun () ->
        [
          ("seed", string_of_int seed);
          ("hours", string_of_int hours);
          ("crashes", string_of_int (List.length leader_crash_offsets));
        ])
    @@ fun () ->
    (* The Failover fixture, run as a 24/7 fleet: expansion Clos, shared
       agent, an async 3-replica NSDB, and an HA controller cluster.
       [hour_s] virtual seconds stand in for one wall-clock hour — the
       simulated day is compressed, and per-day SLO figures are
       normalized by that compression below. *)
    let default = Net.Prefix.default_v4 in
    let { x; net; agent; side = nsdb; _ } =
      mgmt_fixture ~seed ~controller_side:(fun net ->
          let agent = Centralium.Switch_agent.create ~seed:(seed + 7) net in
          let nsdb = Centralium.Nsdb.Replicated.create ~replicas:3 in
          Centralium.Nsdb.Replicated.enable_async ~lag_threshold:48
            ~batch_budget:24 nsdb;
          (agent, nsdb))
    in
    let t0 = Bgp.Network.now net in
    let ha =
      {
        Dsim.Mgmt_fault.leader_crash_times =
          List.map (fun o -> t0 +. o) leader_crash_offsets;
        lease_partitions = [];
      }
    in
    let fault = Dsim.Mgmt_fault.create ~ha ~seed:(seed + 13) profile in
    let cluster = Centralium.Ha.create ~fault ~members net agent nsdb in
    Centralium.Ha.start cluster;
    (* Churn stream: tenants, classes and plan kinds are drawn from a
       dedicated RNG so the submission schedule is a pure function of the
       seed. *)
    let rng = Dsim.Rng.create (seed + 19) in
    let catalog : (string, Centralium.Controller.plan) Hashtbl.t =
      Hashtbl.create 64
    in
    let lookup name = Hashtbl.find_opt catalog name in
    let ops = ref (Centralium.Ops.create ~config:queue_config nsdb) in
    let base = Centralium.Apps.Expansion_equalizer.plan x in
    let install_of name =
      { base with Centralium.Controller.plan_name = name }
    in
    let clear_of name = Centralium.Controller.removal (install_of name) in
    (* The canary: a min-next-hop guard whose [Fraction 1.1] threshold can
       never be met, so its SSW targets withdraw the default and the FSWs
       below black-hole — exactly the regression the watchdog's SLO budget
       exists to catch and roll back. *)
    let canary_of name =
      let p =
        Centralium.Apps.Min_next_hop_guard.plan x.xgraph
          ~destination:(Centralium.Destination.Tagged backbone_community)
          ~threshold:(Centralium.Path_selection.Fraction 1.1)
          ~keep_fib_warm:false ~targets:x.xssws
          ~origination_layer:Topology.Node.Eb
      in
      { p with Centralium.Controller.plan_name = name }
    in
    let demands = List.map (fun f -> (f, 1.0)) x.xfsws in
    let wd =
      Centralium.Ops.Watchdog.create ~net ~nsdb ~demands ~prefix:default ()
    in
    let total_jobs = hours * jobs_per_hour in
    let tenants = [| "ops"; "te"; "ml"; "edge" |] in
    let j_name = Array.make total_jobs "" in
    let j_tenant = Array.make total_jobs "" in
    let j_class = Array.make total_jobs "" in
    let j_canary = Array.make total_jobs false in
    let j_seq = Array.make total_jobs None in
    let j_shed = Array.make total_jobs None in
    let j_outcome = Array.make total_jobs None in
    let j_wait = Array.make total_jobs 0.0 in
    let j_conv = Array.make total_jobs 0.0 in
    let j_remediation = Array.make total_jobs None in
    let submit_times = Hashtbl.create 64 in
    let job_of_seq = Hashtbl.create 64 in
    let queue_order = ref [] in
    let lag_samples = ref [] in
    let completed = ref 0 in
    let rolled_back = ref 0 in
    let unremediated = ref 0 in
    let queue_recoveries = ref 0 in
    let last_leader = ref (Centralium.Ha.wait_for_leader cluster) in
    let policy =
      { Centralium.Controller.default_retry_policy with jitter_seed = seed + 17 }
    in
    let submit_job i =
      let name = Printf.sprintf "job-%04d" i in
      (* Every third job is a canary: 3 is coprime with the default
         [jobs_per_hour], so canaries cycle through burst positions
         instead of always landing on the shed slot. *)
      let canary = (i + 1) mod 3 = 0 in
      let plan =
        if canary then canary_of name
        else if i mod 2 = 0 then install_of name
        else clear_of name
      in
      Hashtbl.replace catalog name plan;
      let tenant = tenants.(Dsim.Rng.int rng (Array.length tenants)) in
      let cls =
        match Dsim.Rng.int rng 3 with
        | 0 -> Centralium.Ops.Interactive
        | 1 -> Centralium.Ops.Standard
        | _ -> Centralium.Ops.Bulk
      in
      j_name.(i) <- name;
      j_tenant.(i) <- tenant;
      j_class.(i) <- Centralium.Ops.class_name cls;
      j_canary.(i) <- canary;
      match Centralium.Ops.submit !ops ~tenant ~cls plan with
      | Centralium.Ops.Admitted seq ->
        j_seq.(i) <- Some seq;
        Hashtbl.replace submit_times seq (Bgp.Network.now net);
        Hashtbl.replace job_of_seq seq i
      | Centralium.Ops.Overloaded reason ->
        j_shed.(i) <-
          Some (Centralium.Ops.overload_reason_to_string reason)
    in
    (* An election means a takeover: the new leader rebuilds its queue
       view from the opsq journal, exactly as a real standby would. *)
    let maybe_recover () =
      let l =
        match Centralium.Ha.leader_id cluster with
        | Some _ as l -> l
        | None -> Centralium.Ha.wait_for_leader cluster
      in
      if l <> !last_leader then begin
        last_leader := l;
        incr queue_recoveries;
        ops := Centralium.Ops.recover ~config:queue_config ~lookup nsdb
      end
    in
    let run_one seq plan =
      let start = Bgp.Network.now net in
      Centralium.Ops.mark_started !ops seq;
      let wait =
        start
        -.
        match Hashtbl.find_opt submit_times seq with
        | Some t -> t
        | None -> start
      in
      Centralium.Ops.Watchdog.arm wd
        ~plan_name:plan.Centralium.Controller.plan_name;
      let _, terminal =
        Centralium.Ha.run_plan ~policy
          ~watchdog:(Centralium.Ops.Watchdog.probe wd) cluster plan
      in
      ignore (Bgp.Network.converge net);
      let dur = Bgp.Network.now net -. start in
      Centralium.Ops.mark_done !ops seq;
      ignore (Centralium.Ops.gc !ops);
      lag_samples :=
        float_of_int (Centralium.Nsdb.Replicated.max_lag nsdb)
        :: !lag_samples;
      Centralium.Nsdb.Replicated.flush nsdb;
      let remediation =
        let m = match !last_leader with Some m -> m | None -> 0 in
        Centralium.Controller.journal_remediation
          (Centralium.Ha.controller cluster m)
          plan
      in
      Centralium.Ops.Watchdog.disarm wd;
      queue_order := seq :: !queue_order;
      (match terminal with
       | Some (Centralium.Controller.Completed _) -> incr completed
       | Some (Centralium.Controller.Rolled_back _) -> incr rolled_back
       | _ -> ());
      let post = Centralium.Invariant.check net in
      if post <> [] && remediation = None then
        unremediated := !unremediated + List.length post;
      (match Hashtbl.find_opt job_of_seq seq with
       | Some i ->
         j_wait.(i) <- wait;
         j_conv.(i) <- dur;
         j_outcome.(i) <-
           Some
             (match terminal with
              | Some o -> Centralium.Controller.outcome_name o
              | None -> "none");
         j_remediation.(i) <- remediation
       | None -> ())
    in
    let drain () =
      let continue = ref true in
      while !continue do
        maybe_recover ();
        match Centralium.Ops.next_ready !ops with
        | None -> continue := false
        | Some (seq, plan) -> run_one seq plan
      done
    in
    let next = ref 0 in
    for h = 0 to hours - 1 do
      for _ = 1 to jobs_per_hour do
        submit_job !next;
        incr next
      done;
      drain ();
      ignore
        (Bgp.Network.run_until net
           ~time:(t0 +. (hour_s *. float_of_int (h + 1))));
      lag_samples :=
        float_of_int (Centralium.Nsdb.Replicated.max_lag nsdb)
        :: !lag_samples;
      Centralium.Nsdb.Replicated.flush nsdb
    done;
    drain ();
    ignore (Bgp.Network.converge net);
    Centralium.Nsdb.Replicated.flush nsdb;
    Centralium.Ha.stop cluster;
    unremediated :=
      !unremediated + List.length (Centralium.Invariant.check net);
    let submitted = Centralium.Ops.submissions !ops in
    let sheds = Centralium.Ops.shed_log !ops in
    let shed = List.length sheds in
    let admitted = submitted - shed in
    let waits = Array.to_list (Array.sub j_wait 0 !next) in
    let waits =
      List.filteri (fun i _ -> j_seq.(i) <> None) waits
    in
    let convs =
      List.filteri
        (fun i _ -> j_seq.(i) <> None)
        (Array.to_list (Array.sub j_conv 0 !next))
    in
    let jobs =
      List.init !next (fun i ->
          {
            job_index = i;
            job_name = j_name.(i);
            job_tenant = j_tenant.(i);
            job_class = j_class.(i);
            job_canary = j_canary.(i);
            job_seq = j_seq.(i);
            job_shed_reason = j_shed.(i);
            job_outcome = j_outcome.(i);
            job_queue_wait_s = j_wait.(i);
            job_convergence_s = j_conv.(i);
            job_remediation = j_remediation.(i);
          })
    in
    let fi = float_of_int in
    {
      hours;
      submitted;
      admitted;
      shed;
      completed = !completed;
      rolled_back = !rolled_back;
      shed_rate = (if submitted = 0 then 0.0 else fi shed /. fi submitted);
      rollback_rate =
        (if admitted = 0 then 0.0 else fi !rolled_back /. fi admitted);
      plans_per_hour = fi !completed /. fi (max 1 hours);
      convergence_p50_s = percentile 0.50 convs;
      convergence_p99_s = percentile 0.99 convs;
      queue_wait_p99_s = percentile 0.99 waits;
      (* Blackhole-seconds accrue on the virtual clock; one simulated day
         is [hours] windows, so normalize to a represented 24h. *)
      blackhole_seconds_per_day =
        Centralium.Ops.Watchdog.blackhole_seconds wd *. 24.
        /. fi (max 1 hours);
      replica_lag_p99 = percentile 0.99 !lag_samples;
      replica_lag_peak = Centralium.Nsdb.Replicated.lag_peak nsdb;
      snapshot_ships = Centralium.Nsdb.Replicated.snapshot_ships nsdb;
      elections = Centralium.Ha.elections cluster;
      queue_recoveries = !queue_recoveries;
      remediations =
        List.length (Centralium.Ops.Watchdog.remediations wd);
      unremediated_violations = !unremediated;
      queue_order = List.rev !queue_order;
      shed_set = List.map (fun (i, _, _, _) -> i) sheds;
      fib_digest = Bgp.Network.fib_digest net;
      jobs;
    }
end
