(* Tests for the symbolic phase verifier (lib/analysis): planted-defect
   detection with counterexample paths, zero false positives on the
   standard qualification suite, agreement with the runtime invariant
   checker, deterministic JSON, delta-net incrementality, and the wiring
   into the controller gate, the qualification suite and Ops admission. *)

open Centralium
module D = Analysis.Diagnostic
module PV = Analysis.Phase_verifier
module Eq = Analysis.Eq_class
module FM = Analysis.Fwd_model

let quick name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.(check bool) msg
let check_int msg = Alcotest.(check int) msg

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let asn = Net.Asn.of_int
let p4 = Net.Prefix.v4

let tagged_attr () =
  Net.Attr.make
    ~communities:
      (Net.Community.Set.singleton
         Net.Community.Well_known.backbone_default_route)
    ()

(* The corpus plants, rebuilt here so the tests can inspect the raw
   violations (the corpus only exposes diagnostics). *)

let add_nodes g specs =
  List.iter
    (fun (id, name, layer) ->
      Topology.Graph.add_node g (Topology.Node.make ~id ~name ~layer ()))
    specs

let diamond_graph ~feeder () =
  let g = Topology.Graph.create () in
  add_nodes g
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

let slice_graph () =
  let g = Topology.Graph.create () in
  add_nodes g
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

let mutual_steer_rpa ~via =
  Rpa.make ~advertise_least_favorable:false
    ~path_selection:
      [
        Path_selection.make
          [
            Path_selection.statement ~name:"steer-via-peer"
              ~path_sets:
                [
                  Path_selection.path_set ~name:"peer"
                    (Signature.make ~neighbor_asns:[ asn via ] ());
                ]
              Destination.backbone_default;
          ];
      ]
    ()

let mnh_guard_rpa () =
  Rpa.make
    ~path_selection:
      [
        Path_selection.make
          [
            Path_selection.statement ~name:"native-guard"
              ~bgp_native_min_next_hop:(Path_selection.Count 2)
              Destination.backbone_default;
          ];
      ]
    ()

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

let benign_rpa () =
  Rpa.make
    ~path_selection:
      [
        Path_selection.make
          [
            Path_selection.statement ~name:"steer"
              ~path_sets:
                [
                  Path_selection.path_set ~name:"via-upstream"
                    (Signature.make ~neighbor_asns:[ asn 64512 ] ());
                ]
              (Destination.Tagged (Net.Community.make 65000 1));
          ];
      ]
    ()

let plan ~name ~rpas ~phases =
  { Controller.plan_name = name; rpas; phases; pre_checks = [];
    post_checks = [] }

let loop_plan () =
  plan ~name:"loop-plant"
    ~rpas:[ (1, mutual_steer_rpa ~via:64514); (2, mutual_steer_rpa ~via:64513) ]
    ~phases:[ [ 1; 2 ] ]

let blackhole_plan () =
  plan ~name:"blackhole-plant"
    ~rpas:
      [ (3, mnh_guard_rpa ()); (1, benign_rpa ());
        (2, deny_default_egress_rpa ()) ]
    ~phases:[ [ 3 ]; [ 1; 2 ] ]

(* ---------------- planted defects ---------------- *)

let test_plants_all_detected () =
  let results = Analysis.Corpus.run_verifier () in
  check_int "three plants" 3 (List.length results);
  check_bool "all detected" true (Analysis.Corpus.all_detected results);
  List.iter
    (fun r ->
      check_bool (r.Analysis.Corpus.r_case ^ " is an error") true
        (List.exists
           (fun d ->
             d.D.code = r.Analysis.Corpus.r_expect && d.D.severity = D.Error)
           r.Analysis.Corpus.r_findings))
    results

let test_loop_counterexample () =
  let r = PV.verify (diamond_graph ~feeder:false ()) (loop_plan ()) in
  let loops =
    List.filter (fun v -> v.PV.v_code = D.Forwarding_loop_static)
      r.PV.vr_violations
  in
  check_bool "loop found" true (loops <> []);
  List.iter
    (fun v ->
      check_bool "cycle path closes" true
        (List.length v.PV.v_path >= 3
        && List.hd v.PV.v_path = List.nth v.PV.v_path
             (List.length v.PV.v_path - 1)))
    loops;
  check_bool "loop is at the phase boundary" true
    (List.exists (fun v -> v.PV.v_state = "phase 1") loops);
  check_bool "mutual steer oscillates" false r.PV.vr_converged

let test_blackhole_at_frontier () =
  let r = PV.verify (slice_graph ()) (blackhole_plan ()) in
  let holes =
    List.filter (fun v -> v.PV.v_code = D.Blackhole_static) r.PV.vr_violations
  in
  check_bool "blackhole found" true (holes <> []);
  check_bool "anchored at the guarded device" true
    (List.for_all (fun v -> v.PV.v_device = 3) holes);
  (* the defect is live before the phase completes: the verifier must see
     it on the single-device frontier where only the deny filter is in *)
  check_bool "caught on a mixed frontier" true
    (List.exists
       (fun v -> contains_sub ~sub:"frontier device 2" v.PV.v_state)
       holes);
  (* counterexample: a surviving physical path from the hole to the origin *)
  List.iter
    (fun v ->
      check_bool "path starts at the hole" true (List.hd v.PV.v_path = 3);
      check_bool "path ends at the origin" true
        (List.nth v.PV.v_path (List.length v.PV.v_path - 1) = 0))
    holes

let test_reachability_loss_feeder () =
  let r = PV.verify (diamond_graph ~feeder:true ()) (loop_plan ()) in
  let losses =
    List.filter (fun v -> v.PV.v_code = D.Reachability_loss) r.PV.vr_violations
  in
  check_bool "loss found" true (losses <> []);
  check_bool "at the feeder, not the looping pair" true
    (List.exists (fun v -> v.PV.v_device = 3) losses);
  List.iter
    (fun v -> check_bool "walk recorded" true (List.length v.PV.v_path >= 2))
    losses

(* ---------------- zero false positives ---------------- *)

let test_standard_suite_clean () =
  List.iter
    (fun spec ->
      let net, plan_v, _ = spec.Verification.build () in
      let r = PV.verify_network net plan_v in
      check_bool
        (spec.Verification.spec_name ^ " verifies clean")
        true
        (not (List.exists (fun d -> d.D.severity = D.Error) r.PV.vr_diagnostics));
      check_bool (spec.Verification.spec_name ^ " converges") true
        r.PV.vr_converged)
    (Verification.standard_suite ())

(* ---------------- runtime agreement ---------------- *)

let test_runtime_invariant_agreement () =
  (* Static verdict: blackhole at device 3 in the final state. *)
  let r = PV.verify (slice_graph ()) (blackhole_plan ()) in
  check_bool "static blackhole in the end state" true
    (List.exists
       (fun v -> v.PV.v_code = D.Blackhole_static && v.PV.v_state = "phase 2")
       r.PV.vr_violations);
  (* Runtime verdict at the same end state: deploy the plan for real (gates
     off) and sweep the converged network with the invariant checker. *)
  let net = Bgp.Network.create ~seed:7 (slice_graph ()) in
  Bgp.Network.originate net 0 Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  let controller = Controller.create net in
  (match Controller.deploy ~lint:`Off ~verify:`Off controller (blackhole_plan ()) with
   | Ok _ -> ()
   | Error es -> Alcotest.failf "deploy failed: %s" (String.concat "; " es));
  ignore (Bgp.Network.converge net);
  let violations = Invariant.check ~prefixes:[ Net.Prefix.default_v4 ] net in
  check_bool "runtime sweep agrees: blackhole at device 3" true
    (List.exists
       (fun (v : Invariant.violation) ->
         v.Invariant.kind = Invariant.Blackhole && v.Invariant.device = Some 3)
       violations)

(* ---------------- determinism ---------------- *)

let test_json_byte_identical () =
  let render () =
    Obs.Json.to_string
      (PV.report_json (PV.verify (slice_graph ()) (blackhole_plan ())))
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical reports" a b

(* ---------------- incrementality ---------------- *)

let test_incremental_reuse () =
  let g = diamond_graph ~feeder:false () in
  let origins =
    [
      { PV.org_device = 0; org_prefix = Net.Prefix.default_v4;
        org_attr = tagged_attr () };
      { PV.org_device = 0; org_prefix = p4 10 0 0 0 8;
        org_attr = Net.Attr.make () };
    ]
  in
  let steer_10 =
    Rpa.make
      ~path_selection:
        [
          Path_selection.make
            [
              Path_selection.statement ~name:"steer-10"
                ~path_sets:
                  [
                    Path_selection.path_set ~name:"via-eb"
                      (Signature.make ~neighbor_asns:[ asn 64512 ] ());
                  ]
                (Destination.Prefixes [ p4 10 0 0 0 8 ]);
            ];
        ]
      ()
  in
  let plan_v =
    plan ~name:"inc" ~rpas:[ (1, steer_10); (2, steer_10) ]
      ~phases:[ [ 1 ]; [ 2 ] ]
  in
  let r = PV.verify ~origins g plan_v in
  check_int "two classes" 2 r.PV.vr_classes;
  check_bool "clean" true (r.PV.vr_violations = []);
  (* only the 10/8 class recompiles per phase; the default class carries *)
  check_int "compiled" 4 r.PV.vr_compiled;
  check_int "reused" 2 r.PV.vr_reused;
  (* reuse is sound: recompiling the untouched class under the deployed
     engines yields the identical forwarding model *)
  let clss =
    Eq.classes
      (List.map (fun o -> (o.PV.org_device, o.PV.org_prefix, o.PV.org_attr))
         origins)
  in
  let dflt =
    List.find (fun c -> Net.Prefix.is_default c.Eq.cls_prefix) clss
  in
  check_bool "delta does not touch the default class" true
    (Eq.touched_by clss ~rpas:[ (1, steer_10) ]
    |> List.for_all (fun c -> not (Net.Prefix.is_default c.Eq.cls_prefix)));
  let eng = Engine.create steer_10 in
  let base = FM.compile g ~engine_of:(fun _ -> None) ~cls:dflt in
  let after =
    FM.compile g
      ~engine_of:(fun d -> if d = 1 || d = 2 then Some eng else None)
      ~cls:dflt
  in
  check_bool "untouched model identical" true (FM.equal base after)

(* ---------------- prefix-trie properties vs a naive oracle ------------ *)

module Trie = Analysis.Prefix_trie
module Prefix = Net.Prefix

(* Mixed-family generator biased toward collisions: octets from a small
   alphabet, masks 0..24 — /0 and the v6 root are reachable outcomes, not
   corner cases bolted on. *)
let prefix_gen =
  QCheck.Gen.(
    let oct = oneofl [ 0; 10; 128; 192; 255 ] in
    let v4 =
      map3 (fun a b len -> Prefix.v4 a b 0 0 len) oct oct (int_bound 24)
    in
    let v6 =
      map2
        (fun x len -> Prefix.v6 ~hi:(Int64.shift_left (Int64.of_int x) 48) ~lo:0L len)
        (oneofl [ 0; 1; 0x20; 0xfe ])
        (int_bound 16)
    in
    frequency [ (3, v4); (1, v6) ])

let universe_gen = QCheck.Gen.(list_size (int_range 1 20) prefix_gen)

let universe_arb =
  QCheck.make
    ~print:(fun ps -> String.concat " " (List.map Prefix.to_string ps))
    universe_gen

(* Entries tagged with their insertion index so the oracle can reproduce
   the trie's value ordering exactly. *)
let build ps =
  let t = Trie.create () in
  List.iteri (fun i p -> Trie.add t p i) ps;
  t

let indexed ps = List.mapi (fun i p -> (p, i)) ps

let sort_entries l =
  List.sort
    (fun (p, i) (q, j) ->
      match Prefix.compare p q with 0 -> Int.compare i j | c -> c)
    l

let same_entries a b = sort_entries a = sort_entries b

let queries ps = Prefix.default_v4 :: Prefix.default_v6 :: ps

let trie_qcheck =
  let mk name prop =
    QCheck.Test.make ~name ~count:300 universe_arb (fun ps ->
        List.for_all (fun q -> prop (build ps) (indexed ps) q) (queries ps))
  in
  [
    mk "covering = linear scan" (fun t entries q ->
        let oracle = List.filter (fun (p, _) -> Prefix.contains p q) entries in
        let got = Trie.covering t q in
        let masks = List.map (fun (p, _) -> Prefix.mask_length p) got in
        same_entries got oracle
        (* and the documented order: shortest mask first *)
        && List.sort Int.compare masks = masks);
    mk "covered_by = linear scan" (fun t entries q ->
        same_entries (Trie.covered_by t q)
          (List.filter (fun (p, _) -> Prefix.contains q p) entries));
    mk "overlapping = linear scan" (fun t entries q ->
        same_entries (Trie.overlapping t q)
          (List.filter
             (fun (p, _) -> Prefix.contains p q || Prefix.contains q p)
             entries));
    mk "longest_match = linear scan" (fun t entries q ->
        let covers = List.filter (fun (p, _) -> Prefix.contains p q) entries in
        match Trie.longest_match t q with
        | None -> covers = []
        | Some (p, vs) ->
          List.exists (fun (c, _) -> Prefix.equal c p) covers
          && List.for_all
               (fun (c, _) -> Prefix.mask_length c <= Prefix.mask_length p)
               covers
          && vs
             = List.filter_map
                 (fun (c, i) -> if Prefix.equal c p then Some i else None)
                 entries);
  ]

(* ---------------- semi-naive fixpoint vs the naive stepper ------------ *)

module G = Topology.Graph
module Imap = Map.Make (Int)

(* The all-devices synchronous stepper the semi-naive compile must agree
   with: every round re-decides every device from the neighbours'
   previous-round advertisements. Returns (final, round_edges,
   rounds_run, converged). *)
let naive_compile graph ~engine_of ~(cls : Eq.t) =
  let prefix = cls.Eq.cls_prefix in
  let devices = List.map (fun n -> n.Topology.Node.id) (G.nodes graph) in
  let origin_attr =
    List.fold_left (fun acc (d, a) -> Imap.add d a acc) Imap.empty
      cls.Eq.cls_origins
  in
  let asn d = (G.node graph d).Topology.Node.asn in
  let layer_of d = Option.map (fun n -> n.Topology.Node.layer) (G.node_opt graph d) in
  let filters_allow d direction ~peer =
    match engine_of d with
    | None -> true
    | Some eng ->
      List.for_all
        (fun rf -> Route_filter.allows rf direction ~peer ~layer:(layer_of peer) prefix)
        (Engine.rpa eng).Rpa.route_filter
  in
  let ctx_of d : Bgp.Rib_policy.ctx =
    { Bgp.Rib_policy.device = d; prefix; now = 0.0; commit = false;
      peer_layer = layer_of;
      live_peers_in_layer =
        (fun layer ->
          List.length
            (List.filter
               (fun (n, _) -> Topology.Node.layer_equal n.Topology.Node.layer layer)
               (G.neighbors graph d))) }
  in
  let origin_entry = { FM.e_next_hops = []; e_origin = true; e_kept_warm = false } in
  let in_graph = Imap.filter (fun d _ -> G.node_opt graph d <> None) origin_attr in
  let adv = ref in_graph and ent = ref (Imap.map (fun _ -> origin_entry) in_graph) in
  let snapshot () =
    List.filter_map
      (fun (d, e) ->
        if e.FM.e_origin || e.FM.e_next_hops = [] then None
        else Some (d, e.FM.e_next_hops))
      (Imap.bindings !ent)
  in
  let step () =
    let prev = !adv in
    let next_adv = ref Imap.empty and next_ent = ref Imap.empty in
    List.iter
      (fun d ->
        match Imap.find_opt d origin_attr with
        | Some a ->
          next_adv := Imap.add d a !next_adv;
          next_ent := Imap.add d origin_entry !next_ent
        | None ->
          let candidates =
            List.concat_map
              (fun (n, (link : G.link)) ->
                let nid = n.Topology.Node.id in
                match Imap.find_opt nid prev with
                | None -> []
                | Some a ->
                  let a' = Net.Attr.with_prepended (asn nid) a in
                  if Net.As_path.mem (asn d) a'.Net.Attr.as_path then []
                  else if
                    filters_allow nid Route_filter.Egress ~peer:d
                    && filters_allow d Route_filter.Ingress ~peer:nid
                  then
                    List.init (max 1 link.G.sessions) (fun s ->
                        Bgp.Path.make ~peer:nid ~session:s ~attr:a')
                  else [])
              (G.neighbors graph d)
          in
          let native = Bgp.Decision.select ~multipath:true candidates in
          let sel =
            match engine_of d with
            | Some eng -> Engine.evaluate_selection eng ~ctx:(ctx_of d) ~candidates ~native
            | None ->
              let selected, advertise = native in
              { Bgp.Rib_policy.selected; advertise; keep_fib_warm = false }
          in
          Option.iter
            (fun p -> next_adv := Imap.add d p.Bgp.Path.attr !next_adv)
            sel.Bgp.Rib_policy.advertise;
          let hops =
            List.sort_uniq Int.compare
              (List.map (fun p -> p.Bgp.Path.peer) sel.Bgp.Rib_policy.selected)
          in
          if hops <> [] || sel.Bgp.Rib_policy.keep_fib_warm then
            next_ent :=
              Imap.add d
                { FM.e_next_hops = hops; e_origin = false;
                  e_kept_warm = sel.Bgp.Rib_policy.keep_fib_warm }
                !next_ent)
      devices;
    let changed =
      not (Imap.equal Net.Attr.equal prev !next_adv && Imap.equal ( = ) !ent !next_ent)
    in
    adv := !next_adv;
    ent := !next_ent;
    changed
  in
  let max_rounds = (2 * List.length devices) + 8 in
  let rec run rounds snaps =
    if rounds >= max_rounds then (rounds, List.rev snaps, false)
    else if step () then
      let s = snapshot () in
      run (rounds + 1) (match snaps with last :: _ when last = s -> snaps | _ -> s :: snaps)
    else (rounds + 1, List.rev snaps, true)
  in
  let rounds, snaps, converged = run 0 [] in
  let snaps =
    let last = snapshot () in
    match List.rev snaps with l :: _ when l = last -> snaps | _ -> snaps @ [ last ]
  in
  (Imap.bindings !ent, snaps, rounds, converged)

(* A random small fabric slice: a few links down, the backbone default
   (sometimes anycast from two EBs) plus a rack prefix, and every device
   independently native, path-equalized or minimum-next-hop guarded. *)
type fm_case = {
  fc_graph : G.t;
  fc_rpas : (int * Rpa.t) list;
  fc_classes : Eq.t list;
}

let fm_case (pods, fsws, ssws, grids, ebs, seed) =
  let f =
    Topology.Clos.fabric ~pods ~rsws_per_pod:2 ~fsws_per_pod:fsws
      ~ssws_per_plane:ssws ~grids ~fauus_per_grid:2 ~ebs ()
  in
  let g = f.Topology.Clos.graph in
  let rng = Random.State.make [| seed |] in
  List.iter
    (fun (l : G.link) ->
      if Random.State.int rng 100 < 12 then G.set_link_up g l.G.a l.G.b false)
    (G.links g);
  let eb0 = List.hd f.Topology.Clos.ebs in
  let targets =
    f.Topology.Clos.rsws @ f.Topology.Clos.fsws @ f.Topology.Clos.ssws
    @ f.Topology.Clos.fadus @ f.Topology.Clos.fauus
  in
  let bb = Net.Community.Well_known.backbone_default_route in
  let pe =
    Apps.Path_equalize.plan g ~destination:(Destination.Tagged bb)
      ~origin_asn:(G.node g eb0).Topology.Node.asn ~targets
      ~origination_layer:Topology.Node.Eb
  in
  let mnh () =
    let threshold =
      if Random.State.bool rng then Path_selection.Count (1 + Random.State.int rng 3)
      else Path_selection.Fraction (0.25 *. float_of_int (1 + Random.State.int rng 4))
    in
    Apps.Min_next_hop_guard.rpa ~destination:(Destination.Tagged bb) ~threshold
      ~keep_fib_warm:(Random.State.bool rng)
  in
  let rpas =
    List.filter_map
      (fun (d, rpa) ->
        match Random.State.int rng 3 with
        | 0 -> None
        | 1 -> Some (d, rpa)
        | _ -> Some (d, mnh ()))
      pe.Controller.rpas
  in
  let origins =
    (eb0, Net.Prefix.default_v4, tagged_attr ())
    :: (match f.Topology.Clos.ebs with
        | _ :: eb1 :: _ when Random.State.bool rng ->
          [ (eb1, Net.Prefix.default_v4, tagged_attr ()) ]
        | _ -> [])
    @ [ (List.hd f.Topology.Clos.rsws, p4 10 1 0 0 24, Net.Attr.make ()) ]
  in
  { fc_graph = g; fc_rpas = rpas; fc_classes = Eq.classes origins }

let fm_case_arb =
  QCheck.make
    ~print:(fun (p, f, s, g, e, seed) ->
      Printf.sprintf "pods=%d fsws=%d ssws=%d grids=%d ebs=%d seed=%d" p f s g e seed)
    QCheck.Gen.(
      map
        (fun ((p, f, s), (g, e, seed)) -> (p, f, s, g, e, seed))
        (pair
           (triple (int_range 1 2) (int_range 1 3) (int_range 1 2))
           (triple (int_range 1 2) (int_range 1 2) (int_bound 1_000_000))))

let fm_qcheck =
  QCheck.Test.make ~name:"semi-naive compile = naive stepper" ~count:250
    fm_case_arb (fun shape ->
      let c = fm_case shape in
      let engines_of () =
        let tbl = Hashtbl.create 16 in
        List.iter (fun (d, rpa) -> Hashtbl.replace tbl d (Engine.create rpa)) c.fc_rpas;
        Hashtbl.find_opt tbl
      in
      List.for_all
        (fun cls ->
          let m = FM.compile c.fc_graph ~engine_of:(engines_of ()) ~cls in
          let final, edges, rounds, converged =
            naive_compile c.fc_graph ~engine_of:(engines_of ()) ~cls
          in
          FM.final m = final
          && FM.round_edges m = edges
          && FM.rounds_run m = rounds
          && FM.converged m = converged)
        c.fc_classes)

(* ---------------- wiring ---------------- *)

let test_controller_enforce_gate () =
  let net = Bgp.Network.create ~seed:11 (diamond_graph ~feeder:false ()) in
  Bgp.Network.originate net 0 Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  let controller = Controller.create net in
  (match Controller.deploy ~lint:`Off ~verify:`Enforce controller (loop_plan ()) with
   | Ok _ -> Alcotest.fail "enforce gate let a looping plan through"
   | Error reasons ->
     check_bool "names the loop" true
       (List.exists (contains_sub ~sub:"verify forwarding-loop") reasons));
  (* a safe plan clears the same gate: Enforce blocks defects, not deploys *)
  match
    Controller.deploy ~lint:`Off ~verify:`Enforce controller
      (plan ~name:"benign" ~rpas:[ (1, benign_rpa ()) ] ~phases:[ [ 1 ] ])
  with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "benign deploy blocked: %s" (String.concat "; " es)

let test_qualification_verify_pass () =
  let spec =
    {
      Verification.spec_name = "planted loop";
      build =
        (fun () ->
          let net = Bgp.Network.create ~seed:13 (diamond_graph ~feeder:false ()) in
          Bgp.Network.originate net 0 Net.Prefix.default_v4 (tagged_attr ());
          ignore (Bgp.Network.converge net);
          (net, loop_plan (), []));
    }
  in
  let o = Verification.qualify spec in
  check_bool "qualification fails" false (Verification.passed o);
  check_bool "nothing deployed" false o.Verification.deployed;
  check_bool "verifier error surfaced" true
    (List.exists (contains_sub ~sub:"verify forwarding-loop")
       o.Verification.errors)

let test_ops_admission_rejects_unsafe () =
  let net = Bgp.Network.create ~seed:17 (diamond_graph ~feeder:false ()) in
  Bgp.Network.originate net 0 Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  Ops.set_admission_verifier (fun plan_v ->
      match Controller.verifier () with
      | None -> []
      | Some engine ->
        List.filter_map
          (fun f ->
            if f.Controller.lint_error then
              Some
                (Printf.sprintf "%s: %s" f.Controller.lint_code
                   f.Controller.lint_message)
            else None)
          (engine net plan_v));
  Fun.protect ~finally:Ops.clear_admission_verifier @@ fun () ->
  let q = Ops.create (Nsdb.Replicated.create ~replicas:2) in
  (match Ops.submit q ~tenant:"mig" ~cls:Ops.Standard (loop_plan ()) with
   | Ops.Overloaded (Ops.Unsafe_plan { errors }) ->
     check_bool "reasons recorded" true (errors <> []);
     check_bool "loop named" true
       (List.exists (contains_sub ~sub:"forwarding-loop") errors)
   | Ops.Overloaded _ -> Alcotest.fail "shed for the wrong reason"
   | Ops.Admitted _ -> Alcotest.fail "unsafe plan admitted");
  check_bool "rejected before consuming a slot" true (Ops.depth q = 0);
  check_bool "shed audit recorded" true
    (List.exists
       (fun (_, _, name, detail) ->
         name = "loop-plant" && contains_sub ~sub:"unsafe-plan" detail)
       (Ops.shed_log q));
  (* a safe plan from the same queue still admits *)
  match
    Ops.submit q ~tenant:"mig" ~cls:Ops.Standard
      (plan ~name:"benign" ~rpas:[ (1, benign_rpa ()) ] ~phases:[ [ 1 ] ])
  with
  | Ops.Admitted _ -> ()
  | Ops.Overloaded r ->
    Alcotest.failf "benign plan shed: %s" (Ops.overload_reason_to_string r)

let test_verify_once_per_stamp () =
  (* The admission probe and the deploy gate both call [verify_network];
     a report physically equal to an earlier one was reused, not
     recomputed. Between admission and the gate, nothing, an origination
     or a link flip made on the graph alone. *)
  let g = slice_graph () in
  let net = Bgp.Network.create ~seed:19 g in
  Bgp.Network.originate net 0 Net.Prefix.default_v4 (tagged_attr ());
  ignore (Bgp.Network.converge net);
  let reports = ref [] in
  let verify net plan =
    let r = PV.verify_network net plan in
    reports := r :: !reports;
    PV.findings r
  in
  let library = Controller.verifier () in
  Controller.set_verifier verify;
  Ops.set_admission_verifier (fun plan -> ignore (verify net plan); []);
  Fun.protect
    ~finally:(fun () ->
      Option.iter Controller.set_verifier library;
      Ops.clear_admission_verifier ())
  @@ fun () ->
  let controller = Controller.create net in
  let q = Ops.create (Nsdb.Replicated.create ~replicas:2) in
  let verifications name ~between =
    reports := [];
    (match
       Ops.submit q ~tenant:"mig" ~cls:Ops.Standard
         (plan ~name ~rpas:[ (1, benign_rpa ()) ] ~phases:[ [ 1 ] ])
     with
     | Ops.Admitted _ -> ()
     | Ops.Overloaded r ->
       Alcotest.failf "%s shed: %s" name (Ops.overload_reason_to_string r));
    between ();
    (match Ops.next_ready q with
     | None -> Alcotest.failf "%s not ready" name
     | Some (seq, p) ->
       Ops.mark_started q seq;
       (match Controller.deploy ~lint:`Off ~verify:`Enforce controller p with
        | Ok _ -> ()
        | Error es -> Alcotest.failf "%s blocked: %s" name (String.concat "; " es));
       Ops.mark_done q seq);
    check_int (name ^ ": two calls") 2 (List.length !reports);
    List.length
      (List.fold_left
         (fun seen r -> if List.exists (( == ) r) seen then seen else r :: seen)
         [] !reports)
  in
  check_int "unchanged network: verified once" 1
    (verifications "quiet" ~between:ignore);
  check_int "origination in between: verified again" 2
    (verifications "originated" ~between:(fun () ->
         Bgp.Network.originate net 3 (p4 10 3 0 0 24) (tagged_attr ());
         ignore (Bgp.Network.converge net)));
  check_int "graph-side link flip in between: verified again" 2
    (verifications "flipped" ~between:(fun () ->
         Topology.Graph.set_link_up g 2 3 false))

let () =
  Alcotest.run "verifier"
    [
      ( "plants",
        [
          quick "all detected as errors" test_plants_all_detected;
          quick "loop counterexample" test_loop_counterexample;
          quick "blackhole at frontier" test_blackhole_at_frontier;
          quick "reachability loss at feeder" test_reachability_loss_feeder;
        ] );
      ( "soundness",
        [
          quick "standard suite clean" test_standard_suite_clean;
          quick "runtime invariant agreement" test_runtime_invariant_agreement;
        ] );
      ( "determinism", [ quick "json byte-identical" test_json_byte_identical ] );
      ( "prefix-trie",
        List.map (QCheck_alcotest.to_alcotest ~long:false) trie_qcheck );
      ( "incremental", [ quick "delta-net reuse" test_incremental_reuse ] );
      ( "fwd-model", [ QCheck_alcotest.to_alcotest ~long:false fm_qcheck ] );
      ( "wiring",
        [
          quick "controller enforce gate" test_controller_enforce_gate;
          quick "qualification verify pass" test_qualification_verify_pass;
          quick "ops admission rejects unsafe" test_ops_admission_rejects_unsafe;
          quick "verify once per stamp" test_verify_once_per_stamp;
        ] );
    ]
