(* Cross-cutting property tests (qcheck): invariants of the decision
   process, the RPA engine, network convergence, deployment sequencing and
   the TE solver that must hold for arbitrary inputs, not just the paper's
   scenarios. *)

let asn = Net.Asn.of_int

(* ---------------- generators ---------------- *)

let path_gen =
  QCheck.Gen.(
    let* peer = int_range 1 6 in
    let* session = int_range 0 1 in
    let* local_pref = oneofl [ 50; 100; 100; 100; 200 ] in
    let* med = int_range 0 3 in
    let* len = int_range 1 5 in
    let* asns = list_repeat len (int_range 60000 60010) in
    return
      (Bgp.Path.make ~peer ~session
         ~attr:
           (Net.Attr.make ~local_pref ~med
              ~as_path:(Net.As_path.of_asns (List.map asn asns))
              ())))

let print_path p = Format.asprintf "%a" Bgp.Path.pp p

(* Typed equality: selections carry attributes, which polymorphic [=] must
   not compare (see {!Net.Attr.t}). *)
let same_selection (a : Bgp.Rib_policy.selection) (b : Bgp.Rib_policy.selection) =
  List.equal Bgp.Path.equal a.Bgp.Rib_policy.selected b.Bgp.Rib_policy.selected
  && Option.equal Bgp.Path.equal a.Bgp.Rib_policy.advertise
       b.Bgp.Rib_policy.advertise
  && Bool.equal a.Bgp.Rib_policy.keep_fib_warm b.Bgp.Rib_policy.keep_fib_warm

let paths_arb n =
  QCheck.make
    ~print:(fun l -> String.concat " | " (List.map print_path l))
    QCheck.Gen.(list_size (int_range 1 n) path_gen)

(* ---------------- decision process ---------------- *)

let preference_total_order =
  QCheck.Test.make ~name:"preference_compare is a total order" ~count:300
    (QCheck.pair (paths_arb 4) (paths_arb 4))
    (fun (xs, ys) ->
      let all = xs @ ys in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let ab = Bgp.Decision.preference_compare a b in
              let ba = Bgp.Decision.preference_compare b a in
              (* antisymmetry *)
              (ab <= 0 || ba <= 0)
              && ((ab <> 0 || ba = 0)
                  &&
                  (* transitivity over every c *)
                  List.for_all
                    (fun c ->
                      let bc = Bgp.Decision.preference_compare b c in
                      let ac = Bgp.Decision.preference_compare a c in
                      not (ab <= 0 && bc <= 0) || ac <= 0)
                    all))
            all)
        all)

let select_invariants =
  QCheck.Test.make ~name:"select: subset, best membership, equal cost"
    ~count:500 (paths_arb 8) (fun candidates ->
      let selected, best = Bgp.Decision.select ~multipath:true candidates in
      match best with
      | None -> candidates = []
      | Some b ->
        List.memq b selected
        && List.for_all (fun p -> List.memq p candidates) selected
        && List.for_all (Bgp.Decision.equal_cost b) selected
        && List.for_all
             (fun p ->
               List.memq p selected || not (Bgp.Decision.equal_cost b p))
             candidates)

let least_favorable_is_maximum =
  QCheck.Test.make ~name:"least_favorable is the preference maximum" ~count:500
    (paths_arb 8) (fun paths ->
      match Bgp.Decision.least_favorable paths with
      | None -> paths = []
      | Some worst ->
        List.memq worst paths
        && List.for_all
             (fun p -> Bgp.Decision.preference_compare p worst <= 0)
             paths)

(* ---------------- path regex vs reference matcher ---------------- *)

(* A brute-force reference for the anchored subset ^(lit | .)* with
   optional star on each atom: tiny recursive matcher, obviously correct. *)
type ref_atom = R_lit of int | R_any
type ref_item = { atom : ref_atom; starred : bool }

let ref_matches items tokens =
  let atom_ok atom token =
    match atom with R_lit n -> token = n | R_any -> true
  in
  let rec go items tokens =
    match (items, tokens) with
    | [], [] -> true
    | [], _ :: _ -> false
    | { atom; starred = false } :: rest_items, token :: rest_tokens ->
      atom_ok atom token && go rest_items rest_tokens
    | { starred = false; _ } :: _, [] -> false
    | ({ atom; starred = true } :: rest_items as all), tokens ->
      go rest_items tokens
      || (match tokens with
          | token :: rest_tokens -> atom_ok atom token && go all rest_tokens
          | [] -> false)
  in
  go items tokens

let ref_to_source items =
  "^"
  ^ String.concat " "
      (List.map
         (fun { atom; starred } ->
           (match atom with R_lit n -> string_of_int n | R_any -> ".")
           ^ if starred then "*" else "")
         items)
  ^ "$"

let regex_differential =
  let item_gen =
    QCheck.Gen.(
      let* starred = bool in
      let* atom =
        oneof [ return R_any; map (fun n -> R_lit n) (int_range 1 4) ]
      in
      return { atom; starred })
  in
  let arb =
    QCheck.make
      ~print:(fun (items, tokens) ->
        Printf.sprintf "%s vs [%s]" (ref_to_source items)
          (String.concat " " (List.map string_of_int tokens)))
      QCheck.Gen.(
        pair
          (list_size (int_range 0 5) item_gen)
          (list_size (int_range 0 6) (int_range 1 4)))
  in
  QCheck.Test.make ~name:"NFA engine agrees with reference matcher" ~count:2000
    arb
    (fun (items, tokens) ->
      let re = Net.Path_regex.compile_exn (ref_to_source items) in
      Net.Path_regex.matches_asns re (List.map asn tokens)
      = ref_matches items tokens)

(* ---------------- engine ---------------- *)

let bb = Net.Community.Well_known.backbone_default_route

let tagged p =
  { p with
    Bgp.Path.attr =
      Net.Attr.add_community bb p.Bgp.Path.attr }

let engine_ctx =
  {
    Bgp.Rib_policy.device = 0;
    prefix = Net.Prefix.default_v4;
    now = 0.0;
    commit = false;
    peer_layer = (fun _ -> Some (Topology.Node.Other "R"));
    live_peers_in_layer = (fun _ -> 6);
  }

let random_engine_gen =
  (* A random path-selection RPA: 1-2 path sets with assorted signatures. *)
  QCheck.Gen.(
    let* use_regex = bool in
    let* mnh = oneofl [ None; Some (Centralium.Path_selection.Count 2) ] in
    let signature =
      if use_regex then Centralium.Signature.make ~as_path_regex:".* 60005" ()
      else Centralium.Signature.make ~neighbor_asns:[ asn 60001; asn 60002 ] ()
    in
    (* A catch-all final set guarantees some path set matches, so the
       dissemination rule (advertise the least favorable selected path)
       always applies — native fallback would advertise the best instead. *)
    let sets =
      [
        Centralium.Path_selection.path_set ~name:"first" ?min_next_hop:mnh
          signature;
        Centralium.Path_selection.path_set ~name:"catch-all"
          Centralium.Signature.any;
      ]
    in
    return
      (Centralium.Engine.create
         (Centralium.Rpa.make
            ~path_selection:
              [
                Centralium.Path_selection.make
                  [
                    Centralium.Path_selection.statement ~path_sets:sets
                      (Centralium.Destination.Tagged bb);
                  ];
              ]
            ())))

let engine_paths_arb =
  QCheck.make
    ~print:(fun (_, l) -> String.concat " | " (List.map print_path l))
    QCheck.Gen.(
      pair random_engine_gen
        (map (List.map tagged) (list_size (int_range 1 8) path_gen)))

let engine_selection_invariants =
  QCheck.Test.make ~name:"engine: selected subset, advertise in selected"
    ~count:500 engine_paths_arb (fun (engine, candidates) ->
      let native = Bgp.Decision.select ~multipath:true candidates in
      let sel =
        Centralium.Engine.evaluate_selection engine ~ctx:engine_ctx ~candidates
          ~native
      in
      List.for_all (fun p -> List.memq p candidates) sel.Bgp.Rib_policy.selected
      &&
      match sel.Bgp.Rib_policy.advertise with
      | None -> true
      | Some adv -> List.memq adv sel.Bgp.Rib_policy.selected)

let engine_advertises_least_favorable =
  QCheck.Test.make
    ~name:"engine: advertised path is least favorable of selected" ~count:500
    engine_paths_arb (fun (engine, candidates) ->
      let native = Bgp.Decision.select ~multipath:true candidates in
      let sel =
        Centralium.Engine.evaluate_selection engine ~ctx:engine_ctx ~candidates
          ~native
      in
      match (sel.Bgp.Rib_policy.advertise, sel.Bgp.Rib_policy.selected) with
      | Some adv, (_ :: _ as selected) ->
        List.for_all
          (fun p -> Bgp.Decision.preference_compare p adv <= 0)
          selected
      | Some _, [] -> false
      | None, _ -> true)

let engine_cache_transparent =
  QCheck.Test.make ~name:"engine: cache does not change decisions" ~count:300
    engine_paths_arb (fun (engine, candidates) ->
      let uncached =
        Centralium.Engine.create ~cache:false (Centralium.Engine.rpa engine)
      in
      let native = Bgp.Decision.select ~multipath:true candidates in
      let a =
        Centralium.Engine.evaluate_selection engine ~ctx:engine_ctx ~candidates
          ~native
      in
      let a' =
        Centralium.Engine.evaluate_selection engine ~ctx:engine_ctx ~candidates
          ~native
      in
      let b =
        Centralium.Engine.evaluate_selection uncached ~ctx:engine_ctx
          ~candidates ~native
      in
      same_selection a a' && same_selection a b)

(* Cached and uncached engines must agree on every call, on inputs made to
   stress the signature cache: candidates of one length, local-pref and
   community set that differ only in their ASNs (the keys a weak cache hash
   cannot tell apart), evaluated in random order with repeats so that hits,
   misses and history all mix. *)
let asn_pool = [ 60001; 60002; 60003; 60004; 60005 ]
let tag_pool = [ Net.Community.make 65100 7; Net.Community.Well_known.drained ]

let signature_gen =
  QCheck.Gen.(
    let* origin = opt (oneofl asn_pool) in
    let* neighbors = opt (list_size (int_range 1 3) (oneofl asn_pool)) in
    let* regex =
      opt (oneofl [ "^60001"; ".* 60005$"; "^6000[1-2] ."; "60003 60004" ])
    in
    let* communities = list_size (int_range 0 1) (oneofl tag_pool) in
    let* none_of = list_size (int_range 0 1) (oneofl tag_pool) in
    return
      (Centralium.Signature.make ?as_path_regex:regex ~communities ~none_of
         ?origin_asn:(Option.map asn origin)
         ?neighbor_asns:(Option.map (List.map asn) neighbors)
         ()))

let cache_rpa_gen =
  QCheck.Gen.(
    let* sets =
      list_size (int_range 1 3)
        (let* signature = signature_gen in
         let* mnh =
           oneofl
             [ None; Some (Centralium.Path_selection.Count 2);
               Some (Centralium.Path_selection.Fraction 0.5) ]
         in
         return
           (Centralium.Path_selection.path_set ~name:"set" ?min_next_hop:mnh
              signature))
    in
    let* weights =
      list_size (int_range 1 3)
        (let* signature = signature_gen in
         let* weight = int_range 1 9 in
         return (Centralium.Route_attribute.next_hop_weight signature ~weight))
    in
    return
      (Centralium.Rpa.make
         ~path_selection:
           [
             Centralium.Path_selection.make
               [
                 Centralium.Path_selection.statement ~path_sets:sets
                   (Centralium.Destination.Tagged bb);
               ];
           ]
         ~route_attribute:
           [
             Centralium.Route_attribute.make
               [
                 Centralium.Route_attribute.statement
                   (Centralium.Destination.Tagged bb) weights;
               ];
           ]
         ()))

(* A few candidate lists sharing length, local-pref and communities, and a
   random sequence of calls into them. *)
let cache_calls_gen =
  QCheck.Gen.(
    let* len = int_range 1 4 in
    let* local_pref = oneofl [ 100; 200 ] in
    let* tags = list_size (int_range 0 2) (oneofl tag_pool) in
    let communities = Net.Community.Set.of_list (bb :: tags) in
    let candidate peer =
      let* asns = list_repeat len (oneofl asn_pool) in
      return
        (Bgp.Path.make ~peer ~session:0
           ~attr:
             (Net.Attr.make ~local_pref ~communities
                ~as_path:(Net.As_path.of_asns (List.map asn asns))
                ()))
    in
    let candidates =
      let* n = int_range 1 8 in
      flatten_l (List.init n (fun i -> candidate (i + 1)))
    in
    let* lists = list_size (int_range 1 4) candidates in
    let* calls = list_size (int_range 2 12) (int_bound (List.length lists - 1)) in
    return (List.map (List.nth lists) calls))

let cache_arb =
  QCheck.make
    ~print:(fun (rpa, calls) ->
      Format.asprintf "%a@.%s" Centralium.Rpa.pp rpa
        (String.concat "\n"
           (List.map
              (fun l -> String.concat " | " (List.map print_path l))
              calls)))
    QCheck.Gen.(pair cache_rpa_gen cache_calls_gen)

let engine_cache_agrees_on_equal_length_paths =
  QCheck.Test.make
    ~name:"engine: cached and uncached agree on same-length ASN variants"
    ~count:300 cache_arb (fun (rpa, calls) ->
      let cached = Centralium.Engine.create rpa in
      let uncached = Centralium.Engine.create ~cache:false rpa in
      List.for_all
        (fun candidates ->
          let native = Bgp.Decision.select ~multipath:true candidates in
          let eval engine =
            let sel =
              Centralium.Engine.evaluate_selection engine ~ctx:engine_ctx
                ~candidates ~native
            in
            ( sel,
              Centralium.Engine.evaluate_weights engine ~ctx:engine_ctx
                ~selected:sel.Bgp.Rib_policy.selected )
          in
          let sel_a, weights_a = eval cached and sel_b, weights_b = eval uncached in
          same_selection sel_a sel_b
          && Option.equal
               (List.equal (fun (p, w) (q, v) -> Bgp.Path.equal p q && w = v))
               weights_a weights_b)
        calls)

(* ---------------- network convergence ---------------- *)

let fabric_arb =
  QCheck.make
    ~print:(fun (pods, seed) -> Printf.sprintf "pods=%d seed=%d" pods seed)
    QCheck.Gen.(pair (int_range 1 3) (int_range 0 1000))

let convergence_loop_free =
  QCheck.Test.make ~name:"converged fabric is loop-free with full reachability"
    ~count:20 fabric_arb (fun (pods, seed) ->
      let f = Topology.Clos.fabric ~pods ~rsws_per_pod:2 ~grids:2 () in
      let net = Bgp.Network.create ~seed f.Topology.Clos.graph in
      List.iter
        (fun eb ->
          Bgp.Network.originate net eb Net.Prefix.default_v4 (Net.Attr.make ()))
        f.Topology.Clos.ebs;
      ignore (Bgp.Network.converge net);
      let devices =
        List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes f.Topology.Clos.graph)
      in
      let loops =
        Dataplane.Metrics.find_forwarding_loops
          ~lookup:(fun d -> Bgp.Network.fib net d Net.Prefix.default_v4)
          ~devices
      in
      loops = []
      && List.for_all
           (fun d -> Bgp.Network.fib net d Net.Prefix.default_v4 <> None)
           devices)

let convergence_deterministic =
  QCheck.Test.make ~name:"same seed, same converged state" ~count:10 fabric_arb
    (fun (pods, seed) ->
      let run () =
        let f = Topology.Clos.fabric ~pods ~rsws_per_pod:2 () in
        let net = Bgp.Network.create ~seed f.Topology.Clos.graph in
        List.iter
          (fun eb ->
            Bgp.Network.originate net eb Net.Prefix.default_v4 (Net.Attr.make ()))
          f.Topology.Clos.ebs;
        ignore (Bgp.Network.converge net);
        Bgp.Network.fib_snapshot net Net.Prefix.default_v4
      in
      run () = run ())

let churn_consistency =
  (* Failure injection: a random sequence of link flaps and drains, with
     events landing mid-convergence. After quiescence, the forwarding state
     must be loop-free and every device physically connected to the origin
     must hold a route. *)
  QCheck.Test.make ~name:"random churn converges to consistent state" ~count:15
    (QCheck.make
       ~print:(fun (seed, flips) ->
         Printf.sprintf "seed=%d flips=%d" seed flips)
       QCheck.Gen.(pair (int_range 0 1000) (int_range 1 8)))
    (fun (seed, flips) ->
      let f = Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 () in
      let g = f.Topology.Clos.graph in
      let net = Bgp.Network.create ~seed g in
      let origin = List.nth f.Topology.Clos.ebs 0 in
      Bgp.Network.originate net origin Net.Prefix.default_v4 (Net.Attr.make ());
      let rng = Dsim.Rng.create (seed + 7) in
      let links = Topology.Graph.links g in
      (* Schedule overlapping flaps: down then up while other updates are
         still in flight. *)
      for k = 1 to flips do
        let link = Dsim.Rng.pick rng links in
        let delay = Dsim.Rng.float rng 0.01 in
        Bgp.Network.set_link ~delay net link.Topology.Graph.a
          link.Topology.Graph.b ~up:false;
        Bgp.Network.set_link ~delay:(delay +. Dsim.Rng.float rng 0.01) net
          link.Topology.Graph.a link.Topology.Graph.b ~up:true;
        if k mod 3 = 0 then begin
          let victim = Dsim.Rng.pick rng f.Topology.Clos.fadus in
          Bgp.Network.drain_device ~delay net victim;
          Bgp.Network.undrain_device ~delay:(delay +. 0.02) net victim
        end
      done;
      ignore (Bgp.Network.converge net);
      let devices =
        List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes g)
      in
      let loops =
        Dataplane.Metrics.find_forwarding_loops
          ~lookup:(fun d -> Bgp.Network.fib net d Net.Prefix.default_v4)
          ~devices
      in
      loops = []
      && List.for_all
           (fun d -> Bgp.Network.fib net d Net.Prefix.default_v4 <> None)
           devices)

(* ---------------- deployment ---------------- *)

let deployment_phases_partition =
  QCheck.Test.make ~name:"phases partition targets and are safe" ~count:50
    (QCheck.make
       ~print:(fun n -> string_of_int n)
       QCheck.Gen.(int_range 1 3))
    (fun pods ->
      let f = Topology.Clos.fabric ~pods ~rsws_per_pod:2 () in
      let targets = f.Topology.Clos.fsws @ f.Topology.Clos.ssws @ f.Topology.Clos.fadus in
      let phases =
        Centralium.Deployment.phases f.Topology.Clos.graph ~targets
          ~origination_layer:Topology.Node.Eb Centralium.Deployment.Install
      in
      List.sort Int.compare (List.concat phases)
      = List.sort Int.compare targets
      && Centralium.Deployment.is_safe_order f.Topology.Clos.graph
           ~origination_layer:Topology.Node.Eb Centralium.Deployment.Install
           phases)

(* The all-pairs form of the Section 5.3.2 order check: every device
   against every other, a device listed twice counting in its last
   phase. [Deployment.is_safe_order] must give the same verdict. *)
let pairwise_safe_order graph ~origination_layer direction phase_list =
  let position = Hashtbl.create 16 in
  List.iteri
    (fun i phase -> List.iter (fun d -> Hashtbl.replace position d i) phase)
    phase_list;
  let devices = List.concat phase_list in
  let dist =
    Centralium.Deployment.distance_from_origination graph ~origination_layer
  in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          let pa = Hashtbl.find position a and pb = Hashtbl.find position b in
          match direction with
          | Centralium.Deployment.Install -> (not (dist a > dist b)) || pa <= pb
          | Centralium.Deployment.Remove -> (not (dist a < dist b)) || pa <= pb)
        devices)
    devices

(* Safe phase lists from [Deployment.phases] on a random Clos slice, then
   up to three edits that may break them: two phases swapped, an empty
   phase inserted, a device copied into another phase. *)
let deployment_safe_order_oracle =
  QCheck.Test.make ~name:"safe order = pairwise check" ~count:300
    (QCheck.make
       ~print:(fun (pods, fsws, seed) ->
         Printf.sprintf "pods=%d fsws=%d seed=%d" pods fsws seed)
       QCheck.Gen.(triple (int_range 1 2) (int_range 1 3) (int_bound 1_000_000)))
    (fun (pods, fsws, seed) ->
      let f = Topology.Clos.fabric ~pods ~rsws_per_pod:2 ~fsws_per_pod:fsws () in
      let g = f.Topology.Clos.graph in
      let rng = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let origination_layer = pick (Topology.Graph.layers g) in
      let direction =
        if Random.State.bool rng then Centralium.Deployment.Install
        else Centralium.Deployment.Remove
      in
      let targets =
        List.filter_map
          (fun n ->
            if Random.State.int rng 3 = 0 then Some n.Topology.Node.id else None)
          (Topology.Graph.nodes g)
      in
      let edit phases =
        let k = List.length phases in
        let at = Random.State.int rng (k + 1) in
        match Random.State.int rng 3 with
        | 0 when k >= 2 ->
          let i = Random.State.int rng (k - 1) in
          List.mapi
            (fun j p ->
              if j = i then List.nth phases (i + 1)
              else if j = i + 1 then List.nth phases i
              else p)
            phases
        | 1 | 0 ->
          List.filteri (fun j _ -> j < at) phases
          @ [ [] ]
          @ List.filteri (fun j _ -> j >= at) phases
        | _ when targets <> [] ->
          let d = pick targets in
          List.mapi (fun j p -> if j = at then d :: p else p) phases
        | _ -> phases
      in
      let rec edits n phases =
        if n = 0 then phases else edits (n - 1) (edit phases)
      in
      let phases =
        edits (Random.State.int rng 4)
          (Centralium.Deployment.phases g ~targets ~origination_layer direction)
      in
      Centralium.Deployment.is_safe_order g ~origination_layer direction phases
      = pairwise_safe_order g ~origination_layer direction phases)

(* ---------------- invariant checker ---------------- *)

let has_kind kind vs =
  List.exists (fun v -> v.Centralium.Invariant.kind = kind) vs

let test_invariant_seeded_loop () =
  (* A two-node forwarding loop fed straight into the checker. *)
  let entry nh =
    Bgp.Speaker.Entries [ { Bgp.Speaker.next_hop = nh; session = 0; weight = 1 } ]
  in
  let lookup = function
    | 0 -> Some (entry 1)
    | 1 -> Some (entry 0)
    | _ -> None
  in
  let vs =
    Centralium.Invariant.check_forwarding ~lookup ~devices:[ 0; 1; 2 ] ()
  in
  Alcotest.(check bool)
    "loop flagged" true
    (has_kind Centralium.Invariant.Forwarding_loop vs);
  (* Loop-free forwarding over the same devices is not flagged. *)
  let chain = function 0 -> Some (entry 1) | 1 -> Some (entry 2) | _ -> None in
  Alcotest.(check int)
    "chain is clean" 0
    (List.length
       (Centralium.Invariant.check_forwarding ~lookup:chain
          ~devices:[ 0; 1; 2 ] ()))

let test_invariant_catches_network_loop () =
  (* The Figure 9 ablation: an RPA that advertises its most preferred path
     (instead of the least favorable, Section 5.3.1) seeds a persistent
     R5-R6 forwarding loop. The network-level checker must flag it. *)
  let prefix_d = Net.Prefix.of_string_exn "203.0.113.0/24" in
  let m = Topology.Clos.mixed_dissemination () in
  let net = Bgp.Network.create ~seed:42 m.Topology.Clos.mgraph in
  let r = m.Topology.Clos.r in
  let asn_of d = (Topology.Graph.node m.mgraph d).Topology.Node.asn in
  let rpa =
    Centralium.Rpa.make ~advertise_least_favorable:false
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
  Bgp.Network.set_hooks net r.(6)
    (Centralium.Engine.hooks (Centralium.Engine.create rpa));
  Bgp.Network.originate net m.origin prefix_d (Net.Attr.make ());
  ignore (Bgp.Network.converge net);
  let vs = Centralium.Invariant.check ~prefixes:[ prefix_d ] net in
  Alcotest.(check bool)
    "network loop flagged" true
    (has_kind Centralium.Invariant.Forwarding_loop vs);
  (* The violations land in the trace with the current queue time. *)
  let trace = Bgp.Network.trace net in
  let before = Bgp.Trace.violation_count trace in
  Centralium.Invariant.record net vs;
  Alcotest.(check int)
    "violations recorded" (before + List.length vs)
    (Bgp.Trace.violation_count trace)

let test_invariant_clean_fabric () =
  (* A converged fabric with no faults satisfies every invariant. *)
  let f = Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 () in
  let net = Bgp.Network.create ~seed:7 f.Topology.Clos.graph in
  List.iter
    (fun eb ->
      Bgp.Network.originate net eb Net.Prefix.default_v4 (Net.Attr.make ()))
    f.Topology.Clos.ebs;
  ignore (Bgp.Network.converge net);
  Alcotest.(check int)
    "zero violations" 0
    (List.length (Centralium.Invariant.check net))

let test_invariant_flags_dead_next_hop () =
  (* Cutting a link under the FIB without letting BGP react leaves entries
     pointing at a dead next hop; the checker must notice both the dead
     member and (at quiescence re-evaluation) the staleness. *)
  let f = Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 () in
  let g = f.Topology.Clos.graph in
  let net = Bgp.Network.create ~seed:7 g in
  List.iter
    (fun eb ->
      Bgp.Network.originate net eb Net.Prefix.default_v4 (Net.Attr.make ()))
    f.Topology.Clos.ebs;
  ignore (Bgp.Network.converge net);
  (* Find a link some FIB entry actually uses, and kill it graph-side only
     (bypassing Network.set_link, so no session events fire). *)
  let devices = List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes g) in
  let used =
    List.find_map
      (fun d ->
        match Bgp.Network.fib net d Net.Prefix.default_v4 with
        | Some (Bgp.Speaker.Entries (e :: _)) -> Some (d, e.Bgp.Speaker.next_hop)
        | _ -> None)
      devices
  in
  match used with
  | None -> Alcotest.fail "no multihop FIB entry found"
  | Some (a, b) ->
    Topology.Graph.set_link_up g a b false;
    Alcotest.(check bool)
      "dead next hop flagged" true
      (has_kind Centralium.Invariant.Dead_next_hop
         (Centralium.Invariant.check ~prefixes:[ Net.Prefix.default_v4 ] net))

let tagged_default () =
  Net.Attr.make
    ~communities:
      (Net.Community.Set.singleton
         Net.Community.Well_known.backbone_default_route)
    ()

(* The fabric's network, converged with its EBs originating the tagged
   default route. *)
let converged ~seed (f : Topology.Clos.fabric) =
  let net = Bgp.Network.create ~seed f.Topology.Clos.graph in
  List.iter
    (fun eb -> Bgp.Network.originate net eb Net.Prefix.default_v4 (tagged_default ()))
    f.Topology.Clos.ebs;
  ignore (Bgp.Network.converge net);
  net

let sweep_spans f =
  let recorder = Obs.Span.create () in
  Obs.Span.with_recorder recorder f;
  List.length (Obs.Span.durations_s recorder ~name:"invariant.sweep")

let test_sweeps_record_no_guard_firings () =
  (* A guard no SSW can meet withdraws the default route on every SSW, and
     a callback records each firing in the trace, as
     [Scenarios.deploy_rpa] does. A sweep re-decides every prefix without
     committing anything, so it must record nothing. *)
  let s = Topology.Clos.sev () in
  let g = s.Topology.Clos.sgraph in
  let net = Bgp.Network.create ~seed:42 g in
  let trace = Bgp.Network.trace net in
  let fired = ref 0 in
  let plan =
    Centralium.Apps.Min_next_hop_guard.plan g
      ~destination:Centralium.Destination.backbone_default
      ~threshold:(Centralium.Path_selection.Fraction 1.1) ~keep_fib_warm:false
      ~targets:s.Topology.Clos.sssws ~origination_layer:Topology.Node.Eb
  in
  List.iter
    (fun (device, rpa) ->
      let engine = Centralium.Engine.create rpa in
      Centralium.Engine.set_on_withdraw engine
        (Some
           (fun ~prefix ~statement ->
             incr fired;
             Bgp.Trace.record trace
               (Bgp.Trace.Violation
                  {
                    time = Bgp.Network.now net;
                    device = Some device;
                    prefix = Some prefix;
                    kind = "mnh-withdraw";
                    detail = statement;
                  })));
      Bgp.Network.set_hooks net device (Centralium.Engine.hooks engine))
    plan.Centralium.Controller.rpas;
  Bgp.Network.originate net s.Topology.Clos.sbackbone Net.Prefix.default_v4
    (tagged_default ());
  ignore (Bgp.Network.converge net);
  let converged = Bgp.Trace.violation_count trace in
  Alcotest.(check bool) "committed decisions fire the guard" true (!fired > 0);
  ignore (Centralium.Invariant.check net);
  Alcotest.(check int) "one sweep records nothing" converged
    (Bgp.Trace.violation_count trace);
  (* A stamp that moved forces a second sweep. *)
  ignore (Bgp.Network.run_until net ~time:(Bgp.Network.now net +. 0.001));
  Alcotest.(check int) "sweep ran" 1
    (sweep_spans (fun () -> ignore (Centralium.Invariant.check net)));
  Alcotest.(check int) "a second sweep records nothing" converged
    (Bgp.Trace.violation_count trace)

let test_monitor_stops_at_until () =
  (* The first sample is due one period from now, past [until]: none. *)
  let net = converged ~seed:7 (Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 ()) in
  let now = Bgp.Network.now net in
  Alcotest.(check int) "no sweep after until" 0
    (sweep_spans (fun () ->
         Centralium.Invariant.monitor ~period:0.01 ~until:(now +. 0.005) net;
         ignore (Bgp.Network.run_until net ~time:(now +. 0.05))));
  Alcotest.(check int) "one sweep when until allows it" 1
    (sweep_spans (fun () ->
         let now = Bgp.Network.now net in
         Centralium.Invariant.monitor ~period:0.01 ~until:(now +. 0.015) net;
         ignore (Bgp.Network.run_until net ~time:(now +. 0.05))))

let test_one_sweep_per_stamp () =
  let f = Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 () in
  let net = converged ~seed:7 f in
  let registry = Obs.Metrics.default in
  let checks = Obs.Metrics.counter "invariant.checks" in
  let violations = Obs.Metrics.counter "invariant.violations" in
  Obs.Metrics.set_enabled registry true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled registry false;
      Obs.Metrics.reset registry)
  @@ fun () ->
  Obs.Metrics.reset registry;
  (* A link cut on the graph alone leaves dead next hops to report. *)
  let link = List.hd (Topology.Graph.links f.Topology.Clos.graph) in
  Topology.Graph.set_link_up f.Topology.Clos.graph link.Topology.Graph.a
    link.Topology.Graph.b false;
  let first = ref [] and second = ref [] in
  Alcotest.(check int) "two checks, one sweep" 1
    (sweep_spans (fun () ->
         first := Centralium.Invariant.check net;
         second := Centralium.Invariant.check net));
  Alcotest.(check bool) "violations found" true (!first <> []);
  Alcotest.(check bool) "the same answer" true (!first == !second);
  Alcotest.(check int) "every call counted" 2 (Obs.Metrics.value checks);
  Alcotest.(check int) "every violation counted"
    (2 * List.length !first)
    (Obs.Metrics.value violations);
  (* Other prefixes, a graph flip, a clock advance: each sweeps again. *)
  Alcotest.(check int) "each change sweeps" 3
    (sweep_spans (fun () ->
         ignore (Centralium.Invariant.check ~prefixes:[] net);
         Topology.Graph.set_link_up f.Topology.Clos.graph link.Topology.Graph.a
           link.Topology.Graph.b true;
         ignore (Centralium.Invariant.check ~prefixes:[] net);
         ignore (Bgp.Network.run_until net ~time:(Bgp.Network.now net +. 0.001));
         ignore (Centralium.Invariant.check ~prefixes:[] net)))

(* One step of a random timeline. Devices and links are indices into the
   slice's node and link lists, taken modulo their lengths. *)
type judge_step =
  | Advance of int  (* run the queue for this many ms: deliveries, or a bare
                       clock advance once it is empty *)
  | Settle  (* converge *)
  | Weights of int * int * int
      (* device, weight seed, expiry in ms: an RPA whose statement expires *)
  | Flap of int * bool  (* Network.set_link *)
  | Cut of int * bool  (* Topology.Graph.set_link_up, behind the network's back *)
  | Restart of int  (* under graceful restart *)
  | Mode of bool  (* full-table decisions *)
  | Originate of int  (* a /24 per device *)

let judge_step_to_string = function
  | Advance ms -> Printf.sprintf "advance %dms" ms
  | Settle -> "settle"
  | Weights (d, w, ms) -> Printf.sprintf "weights %d/%d expiring %dms" d w ms
  | Flap (l, up) -> Printf.sprintf "flap %d %b" l up
  | Cut (l, up) -> Printf.sprintf "cut %d %b" l up
  | Restart d -> Printf.sprintf "restart %d" d
  | Mode full -> Printf.sprintf "mode full=%b" full
  | Originate d -> Printf.sprintf "originate %d" d

let judge_step_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun ms -> Advance ms) (int_range 0 8));
        (2, return Settle);
        ( 2,
          map3
            (fun d w ms -> Weights (d, w, ms))
            (int_range 0 99) (int_range 0 99) (int_range 0 6) );
        (1, map2 (fun l up -> Flap (l, up)) (int_range 0 99) bool);
        (1, map2 (fun l up -> Cut (l, up)) (int_range 0 99) bool);
        (1, map (fun d -> Restart d) (int_range 0 99));
        (1, map (fun full -> Mode full) bool);
        (1, map (fun d -> Originate d) (int_range 0 99));
      ])

let judges_reuse_invisible =
  (* The invariant checker and the phase verifier reuse their last answer
     while the network's stamp stands still. On one network, judged after
     every step so that each judgment follows another, the answers must
     equal those on an identically seeded network whose every judgment is
     fresh (a third network is judged in between to evict the reuse). *)
  QCheck.Test.make ~name:"reused judgments equal fresh ones" ~count:200
    (QCheck.make
       ~print:(fun ((pods, rsws, fsws, ssws), seed, steps) ->
         Printf.sprintf "pods=%d rsws=%d fsws=%d ssws=%d seed=%d [%s]" pods
           rsws fsws ssws seed
           (String.concat "; " (List.map judge_step_to_string steps)))
       QCheck.Gen.(
         triple
           (quad (int_range 1 2) (int_range 1 2) (int_range 1 2) (int_range 1 3))
           (int_range 0 1000)
           (list_size (int_range 4 14) judge_step_gen)))
    (fun ((pods, rsws_per_pod, fsws_per_pod, ssws_per_plane), seed, steps) ->
      let build () =
        let f =
          Topology.Clos.fabric ~pods ~rsws_per_pod ~fsws_per_pod ~ssws_per_plane
            ~grids:1 ~fauus_per_grid:1 ~ebs:2 ()
        in
        (f, converged ~seed f)
      in
      let f, _ = build () in
      let plan =
        Centralium.Apps.Path_equalize.plan f.Topology.Clos.graph
          ~destination:Centralium.Destination.backbone_default
          ~origin_asn:
            (Topology.Graph.node f.Topology.Clos.graph (List.hd f.Topology.Clos.ebs))
              .Topology.Node.asn
          ~targets:(f.Topology.Clos.rsws @ f.Topology.Clos.fsws)
          ~origination_layer:Topology.Node.Eb
      in
      let judge net =
        ( List.map
            (Format.asprintf "%a" Centralium.Invariant.pp_violation)
            (Centralium.Invariant.check net),
          Obs.Json.to_string
            (Analysis.Phase_verifier.report_json
               (Analysis.Phase_verifier.verify_network net plan)) )
      in
      let _, bystander = build () in
      let run ~fresh =
        let f, net = build () in
        let g = f.Topology.Clos.graph in
        let nodes = Array.of_list (Topology.Graph.nodes g) in
        let links = Array.of_list (Topology.Graph.links g) in
        let node i = nodes.(i mod Array.length nodes).Topology.Node.id in
        let link i = links.(i mod Array.length links) in
        Bgp.Network.enable_liveness
          ~config:(Bgp.Liveness.with_gr Bgp.Liveness.default)
          ~until:(Bgp.Network.now net +. 0.05)
          net;
        let apply = function
          | Advance ms ->
            ignore
              (Bgp.Network.run_until net
                 ~time:(Bgp.Network.now net +. (float_of_int ms /. 1000.)))
          | Settle -> ignore (Bgp.Network.converge net)
          | Weights (d, w, ms) ->
            let device = node d in
            let weights =
              List.mapi
                (fun i ((n : Topology.Node.t), _) ->
                  (n.Topology.Node.id, 1 + ((w + i) mod 3)))
                (Topology.Graph.all_neighbors g device)
            in
            let rpa =
              Centralium.Apps.Te_weights.rpa_for_device g
                ~destination:Centralium.Destination.backbone_default ~device
                ~weights
                ~expires_at:(Bgp.Network.now net +. (float_of_int ms /. 1000.))
                ()
            in
            Bgp.Network.set_hooks net device
              (Centralium.Engine.hooks (Centralium.Engine.create rpa))
          | Flap (l, up) ->
            let l = link l in
            Bgp.Network.set_link net l.Topology.Graph.a l.Topology.Graph.b ~up
          | Cut (l, up) ->
            let l = link l in
            Topology.Graph.set_link_up g l.Topology.Graph.a l.Topology.Graph.b up
          | Restart d -> Bgp.Network.restart_device net (node d) ~recovery:0.002
          | Mode full ->
            Bgp.Network.set_eval_mode net
              (if full then Bgp.Speaker.Full_table else Bgp.Speaker.Incremental)
          | Originate d ->
            Bgp.Network.originate net (node d)
              (Net.Prefix.of_string_exn
                 (Printf.sprintf "10.%d.0.0/24" (d mod 256)))
              (Net.Attr.make ())
        in
        List.map
          (fun step ->
            apply step;
            if fresh then ignore (judge bystander);
            judge net)
          steps
      in
      let reused = run ~fresh:false in
      let fresh = run ~fresh:true in
      reused = fresh)

(* ---------------- TE solver ---------------- *)

let te_instance_arb =
  QCheck.make
    ~print:(fun (caps, demand) ->
      Printf.sprintf "caps=[%s] demand=%.1f"
        (String.concat ";" (List.map string_of_float caps))
        demand)
    QCheck.Gen.(
      pair
        (list_size (int_range 2 5) (map float_of_int (int_range 1 9)))
        (map (fun d -> float_of_int d /. 2.0) (int_range 1 10)))

let te_optimal_beats_ecmp =
  QCheck.Test.make ~name:"optimal max-util <= ecmp max-util" ~count:100
    te_instance_arb (fun (caps, demand) ->
      (* A star: source 0, uplink i to node i+1, all draining to sink. *)
      let n = List.length caps in
      let sink = n + 1 in
      let edges =
        List.concat (List.mapi (fun i c -> [ (0, i + 1, c); (i + 1, sink, c) ]) caps)
      in
      let instance =
        { Te.Solver.node_count = n + 2; edges; demands = [ (0, demand) ];
          destination = sink }
      in
      let u_opt, weights = Te.Solver.optimal instance in
      let u_ecmp =
        Te.Solver.max_utilization instance (Te.Solver.ecmp_weights instance)
      in
      (* The binary search stops within 1e-4 relative tolerance, so the
         extracted optimum may exceed a coinciding ECMP optimum by that
         margin. *)
      u_opt <= (u_ecmp *. 1.001) +. 1e-9
      && Te.Solver.max_utilization instance weights <= u_opt +. 1e-9)

(* ---------------- NSDB schema ---------------- *)

module Schema = Centralium.Nsdb_schema

(* Renewal compare-and-sets on the exact stored lease string, so
   decoding must give back the very float, and re-encoding the very
   string. *)
let lease_roundtrip =
  let expiry =
    QCheck.Gen.(oneof [ float; map Int64.float_of_bits ui64 ])
  in
  QCheck.Test.make ~name:"lease decode inverts encode bit-exactly" ~count:1000
    QCheck.(triple int int (make ~print:Print.float expiry))
    (fun (holder, epoch, expiry) ->
      QCheck.assume (not (Float.is_nan expiry));
      let s = Schema.encode_lease ~holder ~epoch ~expiry in
      match Schema.decode_lease s with
      | Some (h, e, x) ->
        h = holder && e = epoch
        && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float expiry)
        && String.equal (Schema.encode_lease ~holder:h ~epoch:e ~expiry:x) s
      | None -> false)

(* Tenants and plans hold no ':'; a reason quoting a verifier error may
   hold any number. *)
let shed_roundtrip =
  let text chars =
    QCheck.make ~print:(Printf.sprintf "%S")
      QCheck.Gen.(string_size ~gen:(oneofl chars) (int_range 0 8))
  in
  let name = text [ 'a'; 'z'; '-'; '0'; '/'; ' ' ] in
  QCheck.Test.make ~name:"shed record decode inverts encode" ~count:1000
    QCheck.(triple name name (text [ ':'; 'a'; '('; ','; ' ' ]))
    (fun (tenant, plan, reason) ->
      Schema.decode_shed (Schema.encode_shed ~tenant ~plan reason)
      = Some (tenant, plan, reason))

let sequence_roundtrip =
  QCheck.Test.make ~name:"queue and shed keys carry their %08d number"
    ~count:1000
    QCheck.(pair (int_bound 2_000_000_000)
              (oneofl [ `Plan; `Tenant; `Class; `State ]))
    (fun (n, field) ->
      Schema.queue_seq (Schema.queue_key n field) = Some n
      && Schema.shed_index (Schema.shed n) = Some n)

(* ---------------- suite ---------------- *)

let () =
  Alcotest.run "properties"
    [
      ( "decision",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ preference_total_order; select_invariants; least_favorable_is_maximum ] );
      ( "regex",
        List.map (QCheck_alcotest.to_alcotest ~long:false) [ regex_differential ] );
      ( "engine",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            engine_selection_invariants;
            engine_advertises_least_favorable;
            engine_cache_transparent;
            engine_cache_agrees_on_equal_length_paths;
          ] );
      ( "network",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ convergence_loop_free; convergence_deterministic; churn_consistency ] );
      ( "deployment",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ deployment_phases_partition; deployment_safe_order_oracle ] );
      ( "invariant",
        [
          Alcotest.test_case "seeded loop is flagged" `Quick
            test_invariant_seeded_loop;
          Alcotest.test_case "network loop is flagged" `Quick
            test_invariant_catches_network_loop;
          Alcotest.test_case "clean fabric has zero violations" `Quick
            test_invariant_clean_fabric;
          Alcotest.test_case "dead next hop is flagged" `Quick
            test_invariant_flags_dead_next_hop;
          Alcotest.test_case "sweeps record no guard firings" `Quick
            test_sweeps_record_no_guard_firings;
          Alcotest.test_case "monitor stops at until" `Quick
            test_monitor_stops_at_until;
          Alcotest.test_case "one sweep per stamp" `Quick
            test_one_sweep_per_stamp;
          QCheck_alcotest.to_alcotest ~long:false judges_reuse_invisible;
        ] );
      ( "te",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ te_optimal_beats_ecmp ] );
      ( "nsdb",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ lease_roundtrip; shed_roundtrip; sequence_roundtrip ] );
    ]
