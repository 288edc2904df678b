(* Tests for the controller applications (the 10+ use cases of Section 5),
   the debuggability tooling (Section 7.2), and the pre-deployment
   verification suite (Section 7.1). *)

open Centralium

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bb = Net.Community.Well_known.backbone_default_route

(* Substring search for warning-message assertions. *)
module Astring_like = struct
  let contains_substring haystack needle =
    let h = String.length haystack and n = String.length needle in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
end

let tagged_attr ?(extra = []) () =
  List.fold_left
    (fun a c -> Net.Attr.add_community c a)
    (Net.Attr.make ~communities:(Net.Community.Set.singleton bb) ())
    extra

let fabric_fixture () =
  let f = Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 () in
  let net = Bgp.Network.create ~seed:21 f.Topology.Clos.graph in
  List.iter
    (fun eb -> Bgp.Network.originate net eb Net.Prefix.default_v4 (tagged_attr ()))
    f.Topology.Clos.ebs;
  ignore (Bgp.Network.converge net);
  (f, net, Controller.create ~seed:22 net)

(* ---------------- app coverage ---------------- *)

let test_app_catalog () =
  check_bool "10+ use cases onboarded" true (List.length Apps.all_app_names >= 10);
  check_int "no duplicates" (List.length Apps.all_app_names)
    (List.length (List.sort_uniq compare Apps.all_app_names))

let test_anycast_stability_pins_paths () =
  (* An anycast prefix originated by two FADUs; maintenance drains one
     FADU's other traffic but the pinned prefix keeps using both. *)
  let f, net, controller = fabric_fixture () in
  let anycast = Net.Prefix.of_string_exn "198.51.100.0/24" in
  let anycast_attr =
    Net.Attr.make
      ~communities:
        (Net.Community.Set.singleton Net.Community.Well_known.anycast_load_bearing)
      ()
  in
  (* Anycast service lives behind every FADU of grid 0. *)
  let origins =
    List.filter
      (fun fadu -> (Topology.Graph.node f.Topology.Clos.graph fadu).Topology.Node.grid = 0)
      f.Topology.Clos.fadus
  in
  List.iter (fun o -> Bgp.Network.originate net o anycast anycast_attr) origins;
  ignore (Bgp.Network.converge net);
  let ssw = List.nth f.Topology.Clos.ssws 0 in
  let plan =
    Apps.Anycast_stability.plan f.Topology.Clos.graph
      ~origin_asn:
        (Topology.Graph.node f.Topology.Clos.graph (List.nth origins 0)).Topology.Node.asn
      ~targets:[ ssw ] ~origination_layer:Topology.Node.Fadu
  in
  (* The anycast origins differ per ASN; pin to the first origin's paths. *)
  (match Controller.deploy controller plan with
   | Ok _ -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  match Bgp.Network.fib net ssw anycast with
  | Some (Bgp.Speaker.Entries entries) ->
    check_bool "pinned to stable origin" true (List.length entries >= 1)
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "anycast route missing"

let test_backup_preference_failover () =
  (* A destination reachable via a primary FA pair and a backup DMAG; the
     RPA prefers primary while it has 2+ paths and fails over cleanly. *)
  let r = Topology.Clos.rollout () in
  let net = Bgp.Network.create ~seed:23 r.Topology.Clos.rgraph in
  Bgp.Network.originate net r.rbackbone Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  let ssw = List.nth r.rssws 0 in
  let fa_asns =
    List.map
      (fun fa -> (Topology.Graph.node r.rgraph fa).Topology.Node.asn)
      r.rfas
  in
  let rpa =
    Apps.Backup_preference.rpa ~destination:Destination.backbone_default
      ~primary:(Signature.make ~neighbor_asns:fa_asns ~origin_asn:(Topology.Graph.node r.rgraph r.rbackbone).Topology.Node.asn ())
      ~primary_min_next_hop:(Path_selection.Count 2)
      ~backup:Signature.any ()
  in
  Bgp.Network.set_hooks net ssw (Engine.hooks (Engine.create rpa));
  ignore (Bgp.Network.converge net);
  (match Bgp.Network.fib net ssw Net.Prefix.default_v4 with
   | Some (Bgp.Speaker.Entries entries) ->
     check_int "primary: both FAs" 2 (List.length entries)
   | Some Bgp.Speaker.Local | None -> Alcotest.fail "no route");
  (* Kill one FA uplink: primary drops below 2, backup takes over (here the
     backup signature matches anything, so the remaining FA path). *)
  (match r.rfas with
   | fa :: _ -> Bgp.Network.set_link net ssw fa ~up:false
   | [] -> ());
  ignore (Bgp.Network.converge net);
  match Bgp.Network.fib net ssw Net.Prefix.default_v4 with
  | Some (Bgp.Speaker.Entries entries) ->
    check_bool "failover keeps reachability" true (List.length entries >= 1)
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "blackhole after failover"

let test_prefix_limit_guard_blocks_leak () =
  let f, net, controller = fabric_fixture () in
  let fauu = List.nth f.Topology.Clos.fauus 0 in
  let plan =
    Apps.Prefix_limit_guard.plan f.Topology.Clos.graph
      ~covering:Net.Prefix.default_v4 ~max_mask_length:20 ~targets:[ fauu ]
      ~origination_layer:Topology.Node.Eb
  in
  (match Controller.deploy controller plan with
   | Ok _ -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  (* An EB leaks a /24: the FAUU must reject it; a /16 passes. *)
  let eb = List.nth f.Topology.Clos.ebs 0 in
  let leak = Net.Prefix.of_string_exn "10.9.9.0/24" in
  let ok = Net.Prefix.of_string_exn "10.9.0.0/16" in
  Bgp.Network.originate net eb leak (tagged_attr ());
  Bgp.Network.originate net eb ok (tagged_attr ());
  ignore (Bgp.Network.converge net);
  check_bool "leak filtered" true (Bgp.Network.fib net fauu leak = None);
  check_bool "aggregate accepted" true (Bgp.Network.fib net fauu ok <> None)

let test_maintenance_drain_execute_undo () =
  let f, net, controller = fabric_fixture () in
  let victim = List.nth f.Topology.Clos.fadus 0 in
  let before =
    match Bgp.Network.fib net (List.nth f.Topology.Clos.ssws 0) Net.Prefix.default_v4 with
    | Some (Bgp.Speaker.Entries entries) -> List.length entries
    | Some Bgp.Speaker.Local | None -> 0
  in
  (match Apps.Maintenance_drain.execute controller ~devices:[ victim ] () with
   | Ok () -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  (* The drained FADU's paths are now less preferred: SSWs stop using it. *)
  let ssw_using_victim () =
    List.exists
      (fun ssw ->
        match Bgp.Network.fib net ssw Net.Prefix.default_v4 with
        | Some (Bgp.Speaker.Entries entries) ->
          List.exists (fun e -> e.Bgp.Speaker.next_hop = victim) entries
        | Some Bgp.Speaker.Local | None -> false)
      f.Topology.Clos.ssws
  in
  check_bool "drained FADU avoided" false (ssw_using_victim ());
  (match Apps.Maintenance_drain.undo controller ~devices:[ victim ] () with
   | Ok () -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  check_bool "traffic restored" true (ssw_using_victim ());
  let after =
    match Bgp.Network.fib net (List.nth f.Topology.Clos.ssws 0) Net.Prefix.default_v4 with
    | Some (Bgp.Speaker.Entries entries) -> List.length entries
    | Some Bgp.Speaker.Local | None -> 0
  in
  check_int "path count restored" before after

let test_policy_rollout_coordinates () =
  (* The unified orchestration: base policy tags routes with a community,
     then the RPA that depends on the tag deploys. Out-of-order deployment
     would leave the RPA matching nothing. *)
  let f, net, controller = fabric_fixture () in
  let marker = Net.Community.make 65100 99 in
  let base_policy =
    [ Bgp.Policy.rule [ Bgp.Policy.Add_community marker ] ]
  in
  let ssw = List.nth f.Topology.Clos.ssws 0 in
  let rpa =
    Rpa.make
      ~path_selection:
        [
          Path_selection.make
            [
              Path_selection.statement
                ~path_sets:
                  [
                    Path_selection.path_set ~name:"tagged"
                      (Signature.make ~communities:[ marker ] ());
                  ]
                (Destination.Tagged bb);
            ];
        ]
      ()
  in
  let plan =
    {
      Controller.plan_name = "rollout-test";
      rpas = [ (ssw, rpa) ];
      phases = [ [ ssw ] ];
      pre_checks = [];
      post_checks = [];
    }
  in
  let eb_peers_of_fadus = f.Topology.Clos.fadus in
  (match
     Apps.Policy_rollout.execute controller
       ~base_policies:(List.map (fun d -> (d, base_policy)) eb_peers_of_fadus)
       ~rpa_plan:plan
   with
   | Ok () -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  (* The RPA's path set must be live: the SSW selects tagged FADU paths. *)
  match Bgp.Network.fib net ssw Net.Prefix.default_v4 with
  | Some (Bgp.Speaker.Entries entries) ->
    check_bool "tagged paths selected" true (List.length entries >= 1)
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "no route after rollout"

let test_job_placement_pins_plane () =
  (* A training job's prefix is pinned to spine plane 0; when that plane is
     out, the fallback set keeps the job reachable. *)
  let f = Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 () in
  let g = f.Topology.Clos.graph in
  let net = Bgp.Network.create ~seed:51 g in
  let job_tag = Net.Community.make 65100 77 in
  let job_prefix = Net.Prefix.of_string_exn "192.0.2.0/24" in
  (* The job's parameter servers sit behind a FADU in every grid. *)
  let origins =
    List.filter (fun d -> (Topology.Graph.node g d).Topology.Node.grid >= 0)
      f.Topology.Clos.fadus
  in
  List.iter
    (fun o ->
      Bgp.Network.originate net o job_prefix
        (Net.Attr.make ~communities:(Net.Community.Set.singleton job_tag) ()))
    origins;
  ignore (Bgp.Network.converge net);
  let plane0 =
    List.filter (fun d -> (Topology.Graph.node g d).Topology.Node.plane = 0)
      f.Topology.Clos.ssws
  in
  let fsw = List.nth f.Topology.Clos.fsws 0 in
  let controller = Controller.create ~seed:52 net in
  let plan =
    Apps.Job_placement.plan g ~job_tag ~preferred_plane:plane0
      ~plane_min_next_hop:(Path_selection.Count 1) ~targets:[ fsw ]
      ~origination_layer:Topology.Node.Fadu ()
  in
  (match Controller.deploy controller plan with
   | Ok _ -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  (* FSW 0's plane-0 uplink: the pinned route must only use plane-0 SSWs
     (an FSW peers with one plane, so this checks pinning took effect at
     all: entries only to plane-0 neighbors). *)
  (match Bgp.Network.fib net fsw job_prefix with
   | Some (Bgp.Speaker.Entries entries) ->
     check_bool "uses preferred plane only" true
       (List.for_all
          (fun e ->
            (Topology.Graph.node g e.Bgp.Speaker.next_hop).Topology.Node.plane = 0)
          entries)
   | Some Bgp.Speaker.Local | None -> Alcotest.fail "job route missing");
  (* Plane 0 goes away: fallback set keeps the job routable. *)
  List.iter
    (fun ssw ->
      match Topology.Graph.find_link g fsw ssw with
      | Some _ -> Bgp.Network.set_link net fsw ssw ~up:false
      | None -> ())
    plane0;
  ignore (Bgp.Network.converge net);
  match Bgp.Network.fib net fsw job_prefix with
  | Some (Bgp.Speaker.Entries _) | Some Bgp.Speaker.Local -> ()
  | None ->
    (* The FSW may simply have no remaining uplinks in this small fabric;
       accept either a fallback route or a clean withdrawal. *)
    check_bool "fsw lost all uplinks" true
      (List.for_all
         (fun ((n : Topology.Node.t), (l : Topology.Graph.link)) ->
           (not (Topology.Node.layer_equal n.Topology.Node.layer Topology.Node.Ssw))
           || not l.Topology.Graph.up)
         (Topology.Graph.all_neighbors g fsw))

let test_slow_roll_completes () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:24 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  let controller = Controller.create ~seed:25 net in
  let plan = Apps.Expansion_equalizer.plan x in
  let progress =
    Apps.Slow_roll.execute controller ~plan ~chunk:2 ~max_out_of_sync:0
  in
  check_bool "not halted" false progress.Apps.Slow_roll.halted;
  check_int "all applied" (List.length plan.Controller.rpas)
    progress.Apps.Slow_roll.applied;
  check_int "no stragglers" 0 (List.length progress.Apps.Slow_roll.out_of_sync)

let test_slow_roll_halts_on_stragglers () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:26 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  let controller = Controller.create ~seed:27 net in
  let agent = Controller.agent controller in
  let plan = Apps.Expansion_equalizer.plan x in
  (* Make the first-phase devices unreachable: the gate must trip and the
     later phases must stay untouched. *)
  (match plan.Controller.phases with
   | first :: _ ->
     List.iter (fun d -> Switch_agent.set_reachable agent ~device:d false) first
   | [] -> Alcotest.fail "no phases");
  let progress =
    Apps.Slow_roll.execute controller ~plan ~chunk:2 ~max_out_of_sync:1
  in
  check_bool "halted" true progress.Apps.Slow_roll.halted;
  check_bool "stragglers reported" true
    (List.length progress.Apps.Slow_roll.out_of_sync > 1);
  (* Later-phase devices never received hooks. *)
  (match List.rev plan.Controller.phases with
   | last :: _ ->
     List.iter
       (fun d ->
         check_bool "untouched" true
           (Bgp.Rib_policy.is_native
              (Bgp.Speaker.hooks (Bgp.Network.speaker net d))))
       last
   | [] -> ())

(* ---------------- Debug tooling ---------------- *)

let test_debug_explains_chosen_set () =
  let engine =
    Engine.create
      (Apps.Path_equalize.rpa ~destination:(Destination.Tagged bb)
         ~origin_asn:(Net.Asn.of_int 9)
         ~via:[ Net.Asn.of_int 1; Net.Asn.of_int 2 ])
  in
  let path peer asns =
    Bgp.Path.make ~peer ~session:0
      ~attr:
        (Net.Attr.set_as_path
           (Net.As_path.of_asns (List.map Net.Asn.of_int asns))
           (tagged_attr ()))
  in
  let ctx =
    {
      Bgp.Rib_policy.device = 0;
      prefix = Net.Prefix.default_v4;
      now = 0.0;
      commit = false;
      peer_layer = (fun _ -> Some (Topology.Node.Other "R"));
      live_peers_in_layer = (fun _ -> 2);
    }
  in
  let e =
    Debug.explain engine ~ctx ~candidates:[ path 1 [ 1; 9 ]; path 2 [ 2; 7; 9 ] ]
  in
  (match e.Debug.verdict with
   | Debug.Path_set_chosen { trials; _ } ->
     check_int "one trial" 1 (List.length trials);
     check_bool "chosen" true (List.exists (fun t -> t.Debug.chosen) trials)
   | Debug.No_matching_statement | Debug.Native_fallback _
   | Debug.Withdrawn_min_next_hop _ ->
     Alcotest.fail "expected chosen path set");
  check_int "both selected" 2 e.Debug.selected_count;
  check_bool "advertised the long one" true
    (match e.Debug.advertised with
     | Some s -> String.length s > 0
     | None -> false)

let test_debug_explains_withdrawal () =
  let engine =
    Engine.create
      (Apps.Min_next_hop_guard.rpa ~destination:(Destination.Tagged bb)
         ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm:true)
  in
  let ctx =
    {
      Bgp.Rib_policy.device = 0;
      prefix = Net.Prefix.default_v4;
      now = 0.0;
      commit = false;
      peer_layer = (fun _ -> Some Topology.Node.Fa);
      live_peers_in_layer = (fun _ -> 4);
    }
  in
  let candidate =
    Bgp.Path.make ~peer:1 ~session:0
      ~attr:
        (Net.Attr.set_as_path
           (Net.As_path.of_asns [ Net.Asn.of_int 1 ])
           (tagged_attr ()))
  in
  let e = Debug.explain engine ~ctx ~candidates:[ candidate ] in
  match e.Debug.verdict with
  | Debug.Withdrawn_min_next_hop { available; required; fib_kept_warm; _ } ->
    check_int "available" 1 available;
    check_int "required" 3 required;
    check_bool "warm" true fib_kept_warm;
    check_bool "withdrawn" true (e.Debug.advertised = None);
    check_int "fib kept" 1 e.Debug.selected_count
  | Debug.No_matching_statement | Debug.Path_set_chosen _
  | Debug.Native_fallback _ ->
    Alcotest.fail "expected min-next-hop withdrawal"

let test_debug_active_rpas_on_switch () =
  let f, net, controller = fabric_fixture () in
  let agent = Controller.agent controller in
  let device = List.nth f.Topology.Clos.ssws 0 in
  (match Debug.active_rpas net agent ~device with
   | [ line ] -> check_bool "native reported" true (line = "(native BGP, no RPAs)")
   | _ -> Alcotest.fail "expected native marker");
  Switch_agent.set_intended agent ~device
    (Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
       ~threshold:(Path_selection.Count 2) ~keep_fib_warm:false);
  ignore (Switch_agent.reconcile_device agent device);
  (* The RPC is applied through the event queue: until the network runs,
     the speaker still runs native hooks and the tool must say so. *)
  (match Debug.active_rpas net agent ~device with
   | [ line ] ->
     check_bool "inconsistency flagged" true
       (String.length line >= 7 && String.sub line 0 7 = "WARNING")
   | _ -> Alcotest.fail "expected a warning before convergence");
  ignore (Bgp.Network.converge net);
  let lines = Debug.active_rpas net agent ~device in
  check_bool "rendered rpa shown" true (List.length lines > 3)

(* Run with provenance off and on: only with it does the explanation cite
   the critical path, which ends at the explained device's FIB install. *)
let test_debug_explain_route_live () =
  let explain_live () =
    let f, net, controller = fabric_fixture () in
    let agent = Controller.agent controller in
    let device = List.nth f.Topology.Clos.ssws 0 in
    check_bool "native: no explanation" true
      (Debug.explain_route net agent ~device Net.Prefix.default_v4 = None);
    Switch_agent.set_intended agent ~device
      (Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
         ~threshold:(Path_selection.Count 1) ~keep_fib_warm:false);
    ignore (Switch_agent.reconcile_device agent device);
    ignore (Bgp.Network.converge net);
    match Debug.explain_route net agent ~device Net.Prefix.default_v4 with
    | Some e ->
      check_bool "selected something" true (e.Debug.selected_count >= 1);
      (device, e.Debug.critical_path)
    | None -> Alcotest.fail "expected an explanation"
  in
  let _, bare = explain_live () in
  check_bool "no provenance: no citation" true (bare = []);
  let (device, cited), _ = Bgp.Trace.with_provenance explain_live in
  match List.rev cited with
  | last :: _ ->
    let install = Printf.sprintf "fib install at device %d " device in
    check_bool "citation ends at the device's FIB install" true
      (Astring_like.contains_substring last install)
  | [] -> Alcotest.fail "expected a citation with provenance on"

(* ---------------- Fallback compiler (Section 7.4) ---------------- *)

let expansion_with_fav2 seed =
  let x = Topology.Clos.expansion () in
  let fav2 = Topology.Clos.add_fav2 x in
  let net = Bgp.Network.create ~seed x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  (x, fav2, net)

let fav2_share (x : Topology.Clos.expansion) fav2 net =
  let demands = List.map (fun f -> (f, 1.0)) x.xfsws in
  let result =
    Dataplane.Traffic.route_prefix net Net.Prefix.default_v4 ~demands
  in
  Dataplane.Metrics.transit_share result ~device:fav2
    ~total:(Dataplane.Traffic.total_demand demands)

let equalize_intent =
  Rpa.make
    ~path_selection:
      [
        Path_selection.make
          [
            Path_selection.statement ~name:"equalize"
              ~path_sets:[ Path_selection.path_set ~name:"all" Signature.any ]
              (Destination.Tagged bb);
          ];
      ]
    ()

let test_fallback_compiler_equalizes () =
  let x, fav2, net = expansion_with_fav2 61 in
  check_bool "collapse without anything" true (fav2_share x fav2 net > 0.99);
  let compiled =
    Fallback_compiler.compile x.xgraph ~origination_layer:Topology.Node.Eb
      ~targets:(x.xfsws @ x.xssws) equalize_intent
  in
  (* Padding rules exist only where path lengths differ: on SSWs for their
     FAv2 sessions. *)
  check_int "one rule per SSW" (List.length x.xssws)
    (List.length compiled.Fallback_compiler.ingress_policies);
  List.iter
    (fun (device, peer, _) ->
      check_bool "on an SSW" true (List.mem device x.xssws);
      check_int "toward FAv2" fav2 peer)
    compiled.Fallback_compiler.ingress_policies;
  Fallback_compiler.apply net compiled;
  ignore (Bgp.Network.converge net);
  let share = fav2_share x fav2 net in
  check_bool "compiled padding balances" true (share < 0.25 && share > 0.05)

let test_fallback_compiler_redaction_risk () =
  (* The paper's warning: redacting the transitory policies re-creates the
     collapse (whereas removing an RPA restores native selection of the
     then-final topology). *)
  let x, fav2, net = expansion_with_fav2 62 in
  let compiled =
    Fallback_compiler.compile x.xgraph ~origination_layer:Topology.Node.Eb
      ~targets:(x.xfsws @ x.xssws) equalize_intent
  in
  Fallback_compiler.apply net compiled;
  ignore (Bgp.Network.converge net);
  Fallback_compiler.remove net compiled;
  ignore (Bgp.Network.converge net);
  check_bool "collapse returns after cleanup" true (fav2_share x fav2 net > 0.99)

let test_fallback_compiler_warns_on_inexpressible () =
  let x, _fav2, _net = expansion_with_fav2 63 in
  let rpa =
    Rpa.merge equalize_intent
      (Rpa.merge
         (Apps.Min_next_hop_guard.rpa ~destination:(Destination.Tagged bb)
            ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm:true)
         (Apps.Wcmp_freeze.rpa ~destination:(Destination.Tagged bb)
            ~live_weight:4
            ~drained_signature:
              (Signature.make
                 ~communities:[ Net.Community.Well_known.drained ]
                 ())
            ()))
  in
  let compiled =
    Fallback_compiler.compile x.xgraph ~origination_layer:Topology.Node.Eb
      ~targets:x.xssws rpa
  in
  check_bool "min-next-hop warned" true
    (List.exists
       (fun w ->
         Astring_like.contains_substring w "BgpNativeMinNextHop")
       compiled.Fallback_compiler.warnings);
  check_bool "weights warned" true
    (List.exists
       (fun w -> Astring_like.contains_substring w "WCMP")
       compiled.Fallback_compiler.warnings)

(* ---------------- Verification suite ---------------- *)

(* Qualification deploys with the lint and verify gates at [`Enforce],
   which refuse every plan when no engine is registered. Dune links a
   library module only into executables that reference it, so this
   reference links [Analysis.Lint], whose initializer registers both
   engines; without it the suite below could not pass. *)
let () = ignore Analysis.Lint.check_plan

let test_standard_suite_passes () =
  List.iter
    (fun outcome ->
      check_bool
        (Format.asprintf "%a" Verification.pp_outcome outcome)
        true
        (Verification.passed outcome))
    (Verification.qualify_all (Verification.standard_suite ()))

let test_verification_catches_bad_intent () =
  (* A spec whose intent cannot hold must FAIL, not silently pass. *)
  let bad_spec =
    {
      Verification.spec_name = "impossible intent";
      build =
        (fun () ->
          let x = Topology.Clos.expansion () in
          let net = Bgp.Network.create ~seed:41 x.Topology.Clos.xgraph in
          Bgp.Network.originate net x.backbone Net.Prefix.default_v4
            (tagged_attr ());
          ignore (Bgp.Network.converge net);
          let plan = Apps.Expansion_equalizer.plan x in
          let intent =
            [
              (match x.xssws with
               | ssw :: _ ->
                 Health.path_count_at_least net ~device:ssw
                   Net.Prefix.default_v4 ~count:999
               | [] -> failwith "no ssws");
            ]
          in
          (net, plan, intent));
    }
  in
  let outcome = Verification.qualify bad_spec in
  check_bool "deployment fine" true outcome.Verification.deployed;
  check_bool "intent failed" true (outcome.Verification.intent_failures <> []);
  check_bool "not passed" false (Verification.passed outcome)

let test_verification_build_exception_reported () =
  let crashing =
    { Verification.spec_name = "crash"; build = (fun () -> failwith "boom") }
  in
  let outcome = Verification.qualify crashing in
  check_bool "reported as error" true (outcome.Verification.errors <> []);
  check_bool "not passed" false (Verification.passed outcome)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "apps"
    [
      ( "applications",
        [
          quick "catalog" test_app_catalog;
          quick "anycast stability" test_anycast_stability_pins_paths;
          quick "backup preference failover" test_backup_preference_failover;
          quick "prefix limit guard" test_prefix_limit_guard_blocks_leak;
          quick "maintenance drain" test_maintenance_drain_execute_undo;
          quick "policy rollout" test_policy_rollout_coordinates;
          quick "job placement" test_job_placement_pins_plane;
          quick "slow roll completes" test_slow_roll_completes;
          quick "slow roll halts" test_slow_roll_halts_on_stragglers;
        ] );
      ( "debug",
        [
          quick "explains chosen set" test_debug_explains_chosen_set;
          quick "explains withdrawal" test_debug_explains_withdrawal;
          quick "active rpas" test_debug_active_rpas_on_switch;
          quick "explain live route" test_debug_explain_route_live;
        ] );
      ( "fallback-compiler",
        [
          quick "equalizes via padding" test_fallback_compiler_equalizes;
          quick "redaction risk" test_fallback_compiler_redaction_risk;
          quick "warns on inexpressible" test_fallback_compiler_warns_on_inexpressible;
        ] );
      ( "verification",
        [
          quick "standard suite passes" test_standard_suite_passes;
          quick "catches bad intent" test_verification_catches_bad_intent;
          quick "reports build crash" test_verification_build_exception_reported;
        ] );
    ]
