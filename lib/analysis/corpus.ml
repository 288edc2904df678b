open Centralium

type case = {
  case_name : string;
  expect : Diagnostic.code;
  findings : unit -> Diagnostic.t list;
}

let asn = Net.Asn.of_int
let community = Net.Community.make
let p4 = Net.Prefix.v4

let ps_rpa statements =
  Rpa.make ~path_selection:[ Path_selection.make statements ] ()

let path_set ?min_next_hop name sg = Path_selection.path_set ?min_next_hop ~name sg

(* A three-layer line topology (EB 0 — FA 1 — FSW 2) for the plan-level
   cases; when routes originate at EB, the Section 5.3.2 install rule
   requires FSW before FA and the removal rule FA before FSW. *)
let line_graph () =
  let g = Topology.Graph.create () in
  List.iter
    (fun (id, name, layer) ->
      Topology.Graph.add_node g (Topology.Node.make ~id ~name ~layer ()))
    [
      (0, "eb0", Topology.Node.Eb);
      (1, "fa1", Topology.Node.Fa);
      (2, "fsw2", Topology.Node.Fsw);
    ];
  Topology.Graph.add_link g 0 1;
  Topology.Graph.add_link g 1 2;
  g

let benign_rpa () =
  ps_rpa
    [
      Path_selection.statement ~name:"steer"
        ~path_sets:[ path_set "via-upstream" (Signature.make ~neighbor_asns:[ asn 64512 ] ()) ]
        (Destination.Tagged (community 65000 1));
    ]

let plan ?(name = "corpus") ~rpas ~phases () =
  {
    Controller.plan_name = name;
    rpas;
    phases;
    pre_checks = [];
    post_checks = [];
  }

let check_plan_case ~rpas ~phases () =
  Lint.check_plan (line_graph ()) (plan ~rpas ~phases ())

let cases =
  [
    {
      case_name = "empty-signature-regex-vs-neighbor";
      expect = Diagnostic.Empty_signature;
      findings =
        (fun () ->
          (* regex anchors the first hop at 100; neighbor constraint says
             the first hop is 200 — the conjunction matches nothing *)
          Lint.check_rpa
            (ps_rpa
               [
                 Path_selection.statement ~name:"contradiction"
                   ~path_sets:
                     [
                       path_set "impossible"
                         (Signature.make ~as_path_regex:"^100"
                            ~neighbor_asns:[ asn 200 ] ());
                     ]
                   (Destination.Tagged (community 65000 1));
               ]));
    };
    {
      case_name = "empty-signature-community-contradiction";
      expect = Diagnostic.Empty_signature;
      findings =
        (fun () ->
          Lint.check_rpa
            (ps_rpa
               [
                 Path_selection.statement ~name:"contradiction"
                   ~path_sets:
                     [
                       path_set "impossible"
                         (Signature.make
                            ~communities:[ community 100 1 ]
                            ~none_of:[ community 100 1 ] ());
                     ]
                   (Destination.Tagged (community 65000 1));
               ]));
    };
    {
      case_name = "empty-signature-no-neighbors";
      expect = Diagnostic.Empty_signature;
      findings =
        (fun () ->
          Lint.check_rpa
            (ps_rpa
               [
                 Path_selection.statement ~name:"orphan"
                   ~path_sets:
                     [ path_set "nobody" (Signature.make ~neighbor_asns:[] ()) ]
                   (Destination.Tagged (community 65000 1));
               ]));
    };
    {
      case_name = "signature-overlap-same-destination";
      expect = Diagnostic.Signature_overlap;
      findings =
        (fun () ->
          (* two statements steer the same tagged destination and their
             path sets share paths through ASN 150 *)
          Lint.check_rpa
            (ps_rpa
               [
                 Path_selection.statement ~name:"first"
                   ~path_sets:
                     [ path_set "low" (Signature.make ~as_path_regex:"^[100-200]" ()) ]
                   (Destination.Tagged (community 65000 1));
                 Path_selection.statement ~name:"second"
                   ~path_sets:
                     [ path_set "high" (Signature.make ~as_path_regex:"^[150-300]" ()) ]
                   (Destination.Tagged (community 65000 1));
               ]));
    };
    {
      case_name = "shadowed-path-set";
      expect = Diagnostic.Shadowed_statement;
      findings =
        (fun () ->
          (* the any-path set is first in priority with the same threshold,
             so the specific set below it can never fire *)
          Lint.check_rpa
            (ps_rpa
               [
                 Path_selection.statement ~name:"steer"
                   ~path_sets:
                     [
                       path_set "anything" Signature.any;
                       path_set "specific"
                         (Signature.make ~as_path_regex:"^100" ());
                     ]
                   (Destination.Tagged (community 65000 1));
               ]));
    };
    {
      case_name = "prefix-shadowed-across-statements";
      expect = Diagnostic.Prefix_shadowed;
      findings =
        (fun () ->
          (* 10.1.0.0/16 is inside 10.0.0.0/8: the statements' destination
             domains overlap even though their path sets are disjoint *)
          Lint.check_rpa
            (ps_rpa
               [
                 Path_selection.statement ~name:"aggregate"
                   ~path_sets:
                     [ path_set "via-100" (Signature.make ~neighbor_asns:[ asn 100 ] ()) ]
                   (Destination.Prefixes [ p4 10 0 0 0 8 ]);
                 Path_selection.statement ~name:"specific"
                   ~path_sets:
                     [ path_set "via-200" (Signature.make ~neighbor_asns:[ asn 200 ] ()) ]
                   (Destination.Prefixes [ p4 10 1 0 0 16 ]);
               ]));
    };
    {
      case_name = "filter-blackhole-steered-prefix";
      expect = Diagnostic.Filter_blackhole;
      findings =
        (fun () ->
          (* the allow list admits only 192.168.0.0/16, so the steered
             10.0.0.0/8 can never be exchanged with any peer *)
          Lint.check_rpa
            (Rpa.make
               ~path_selection:
                 [
                   Path_selection.make
                     [
                       Path_selection.statement ~name:"steer"
                         ~path_sets:[ path_set "any" Signature.any ]
                         (Destination.Prefixes [ p4 10 0 0 0 8 ]);
                     ];
                 ]
               ~route_filter:
                 [
                   Route_filter.make
                     [
                       Route_filter.statement ~name:"boundary"
                         ~ingress:
                           (Route_filter.Allow_list
                              [ Route_filter.prefix_rule (p4 192 168 0 0 16) ])
                         Route_filter.any_peer;
                     ];
                 ]
               ()));
    };
    {
      case_name = "unsafe-phase-order";
      expect = Diagnostic.Unsafe_phase_order;
      findings =
        (fun () ->
          (* install must reach FSW (furthest from EB) before FA *)
          check_plan_case
            ~rpas:[ (1, benign_rpa ()); (2, benign_rpa ()) ]
            ~phases:[ [ 1 ]; [ 2 ] ] ());
    };
    {
      case_name = "unsafe-removal-order";
      expect = Diagnostic.Unsafe_phase_order;
      findings =
        (fun () ->
          (* removal must leave FA (closest to EB) before FSW *)
          check_plan_case
            ~rpas:[ (1, Rpa.empty); (2, Rpa.empty) ]
            ~phases:[ [ 2 ]; [ 1 ] ] ());
    };
    {
      case_name = "duplicate-target";
      expect = Diagnostic.Duplicate_target;
      findings =
        (fun () ->
          check_plan_case
            ~rpas:[ (1, benign_rpa ()); (2, benign_rpa ()) ]
            ~phases:[ [ 2 ]; [ 1; 2 ] ] ());
    };
    {
      case_name = "plan-coverage-mismatch";
      expect = Diagnostic.Plan_coverage;
      findings =
        (fun () ->
          check_plan_case
            ~rpas:[ (1, benign_rpa ()); (2, benign_rpa ()) ]
            ~phases:[ [ 2 ] ] ());
    };
    {
      case_name = "least-favorable-off";
      expect = Diagnostic.Least_favorable_off;
      findings =
        (fun () ->
          Lint.check_rpa
            (Rpa.make ~advertise_least_favorable:false
               ~path_selection:
                 [
                   Path_selection.make
                     [
                       Path_selection.statement ~name:"steer"
                         ~path_sets:[ path_set "any" Signature.any ]
                         (Destination.Tagged (community 65000 1));
                     ];
                 ]
               ()));
    };
    {
      case_name = "community-collision";
      expect = Diagnostic.Community_collision;
      findings =
        (fun () ->
          Lint.check_rpa
            (Rpa.make
               ~route_attribute:
                 [
                   Route_attribute.make
                     [
                       Route_attribute.statement ~name:"weights-a"
                         (Destination.Tagged (community 65000 7))
                         [
                           Route_attribute.next_hop_weight Signature.any
                             ~weight:3;
                         ];
                       Route_attribute.statement ~name:"weights-b"
                         (Destination.Tagged (community 65000 7))
                         [
                           Route_attribute.next_hop_weight Signature.any
                             ~weight:1;
                         ];
                     ];
                 ]
               ()));
    };
    {
      case_name = "merge-conflict";
      expect = Diagnostic.Merge_conflict;
      findings =
        (fun () ->
          (* two path-selection blocks with the same name but different
             statements — e.g. two applications generating under one name *)
          Lint.check_rpa
            (Rpa.make
               ~path_selection:
                 [
                   Path_selection.make ~name:"steer"
                     [
                       Path_selection.statement ~name:"a"
                         ~path_sets:[ path_set "any" Signature.any ]
                         (Destination.Tagged (community 65000 1));
                     ];
                   Path_selection.make ~name:"steer"
                     [
                       Path_selection.statement ~name:"b"
                         ~path_sets:[ path_set "any" Signature.any ]
                         (Destination.Tagged (community 65000 2));
                     ];
                 ]
               ()));
    };
  ]

(* ---------------- Symbolic phase-verifier plants ----------------

   Defects no syntactic lint can see: the RPAs are individually
   well-formed, and only the symbolic forwarding model over the planned
   deployment states exposes them. *)

(* Diamond: EB 0 over peered FA 1/2, optionally with FSW 3 fed by both
   FAs. Default origins put the tagged v4 default route at EB 0. *)
let diamond_graph ~feeder () =
  let g = Topology.Graph.create () in
  List.iter
    (fun (id, name, layer) ->
      Topology.Graph.add_node g (Topology.Node.make ~id ~name ~layer ()))
    ([
       (0, "eb0", Topology.Node.Eb);
       (1, "fa1", Topology.Node.Fa);
       (2, "fa2", Topology.Node.Fa);
     ]
    @ if feeder then [ (3, "fsw3", Topology.Node.Fsw) ] else []);
  Topology.Graph.add_link g 0 1;
  Topology.Graph.add_link g 0 2;
  Topology.Graph.add_link g 1 2;
  if feeder then begin
    Topology.Graph.add_link g 1 3;
    Topology.Graph.add_link g 2 3
  end;
  g

(* Clos slice without the FA peering: EB 0 over FA 1/2, FSW 3 dual-homed
   to both FAs. *)
let slice_graph () =
  let g = Topology.Graph.create () in
  List.iter
    (fun (id, name, layer) ->
      Topology.Graph.add_node g (Topology.Node.make ~id ~name ~layer ()))
    [
      (0, "eb0", Topology.Node.Eb);
      (1, "fa1", Topology.Node.Fa);
      (2, "fa2", Topology.Node.Fa);
      (3, "fsw3", Topology.Node.Fsw);
    ];
  Topology.Graph.add_link g 0 1;
  Topology.Graph.add_link g 0 2;
  Topology.Graph.add_link g 1 3;
  Topology.Graph.add_link g 2 3;
  g

(* Each FA steers the default route through the other while advertising
   its most preferred path (the Figure 9 ablation): once both are live
   they chase each other's advertisements forever, and every other
   propagation round is a forwarding loop. *)
let mutual_steer_rpa ~via =
  Rpa.make ~advertise_least_favorable:false
    ~path_selection:
      [
        Path_selection.make
          [
            Path_selection.statement ~name:"steer-via-peer"
              ~path_sets:
                [
                  path_set "peer"
                    (Signature.make ~neighbor_asns:[ asn via ] ());
                ]
              Destination.backbone_default;
          ];
      ]
    ()

let mnh_guard_rpa () =
  ps_rpa
    [
      Path_selection.statement ~name:"native-guard"
        ~bgp_native_min_next_hop:(Path_selection.Count 2)
        Destination.backbone_default;
    ]

let deny_default_egress_rpa () =
  Rpa.make
    ~route_filter:
      [
        Route_filter.make
          [
            Route_filter.statement ~name:"deny-default-egress"
              ~egress:
                (Route_filter.Allow_list
                   [ Route_filter.prefix_rule (p4 192 168 0 0 16) ])
              Route_filter.any_peer;
          ];
      ]
    ()

let verifier_diags graph plan_v =
  (Phase_verifier.verify graph plan_v).Phase_verifier.vr_diagnostics

let verifier_cases =
  [
    {
      case_name = "verifier-forwarding-loop-mutual-steer";
      expect = Diagnostic.Forwarding_loop_static;
      findings =
        (fun () ->
          (* fa1 steers via fa2's ASN and vice versa; the loop only exists
             once both RPAs are live, i.e. at the phase 1 boundary *)
          verifier_diags
            (diamond_graph ~feeder:false ())
            (plan ~name:"loop-plant"
               ~rpas:
                 [ (1, mutual_steer_rpa ~via:64514);
                   (2, mutual_steer_rpa ~via:64513) ]
               ~phases:[ [ 1; 2 ] ] ()));
    };
    {
      case_name = "verifier-blackhole-frontier-mnh";
      expect = Diagnostic.Blackhole_static;
      findings =
        (fun () ->
          (* fsw3 guards native selection with Count 2; fa2's egress filter
             stops advertising the default downward. The moment fa2 deploys
             ahead of its phase peer (the phase 2 frontier), fsw3 drops to
             one candidate, withdraws, and blackholes traffic that still
             has a physical path up through fa1. *)
          verifier_diags (slice_graph ())
            (plan ~name:"blackhole-plant"
               ~rpas:
                 [ (3, mnh_guard_rpa ());
                   (1, benign_rpa ());
                   (2, deny_default_egress_rpa ()) ]
               ~phases:[ [ 3 ]; [ 1; 2 ] ] ()));
    };
    {
      case_name = "verifier-reachability-loss-feeder";
      expect = Diagnostic.Reachability_loss;
      findings =
        (fun () ->
          (* fsw3 keeps a healthy-looking FIB toward both FAs, but its
             packets die in the FAs' mutual-steer loop: reachability it had
             at baseline is gone without any local symptom *)
          verifier_diags
            (diamond_graph ~feeder:true ())
            (plan ~name:"feeder-plant"
               ~rpas:
                 [ (1, mutual_steer_rpa ~via:64514);
                   (2, mutual_steer_rpa ~via:64513) ]
               ~phases:[ [ 1; 2 ] ] ()));
    };
  ]

let cases = cases @ verifier_cases

type result = {
  r_case : string;
  r_expect : Diagnostic.code;
  r_detected : bool;
  r_findings : Diagnostic.t list;
}

let run_cases cs =
  List.map
    (fun c ->
      let findings = c.findings () in
      {
        r_case = c.case_name;
        r_expect = c.expect;
        r_detected =
          List.exists (fun d -> d.Diagnostic.code = c.expect) findings;
        r_findings = findings;
      })
    cs

let run () = run_cases cases
let run_verifier () = run_cases verifier_cases
let all_detected results = List.for_all (fun r -> r.r_detected) results
