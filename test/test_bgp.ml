(* Tests for lib/bgp: decision process, policies, speaker transitions, and
   event-driven network convergence. *)

open Net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let asn = Asn.of_int
let p10 = Prefix.of_string_exn "10.0.0.0/8"

let path ?(peer = 1) ?(session = 0) ?(local_pref = 100) ?(med = 0)
    ?(origin = Attr.Igp) ?link_bandwidth asns =
  Bgp.Path.make ~peer ~session
    ~attr:
      (Attr.make ~origin ~as_path:(As_path.of_asns (List.map asn asns))
         ~local_pref ~med ?link_bandwidth ())

(* ---------------- Decision ---------------- *)

let test_decision_local_pref_wins () =
  let a = path ~peer:1 ~local_pref:200 [ 1; 2; 3 ] in
  let b = path ~peer:2 ~local_pref:100 [ 1 ] in
  check_bool "higher local pref preferred despite longer path" true
    (Bgp.Decision.preference_compare a b < 0)

let test_decision_shorter_path_wins () =
  let a = path ~peer:1 [ 1 ] in
  let b = path ~peer:2 [ 1; 2 ] in
  check_bool "shorter wins" true (Bgp.Decision.preference_compare a b < 0)

let test_decision_origin_then_med () =
  let igp = path ~peer:1 ~origin:Attr.Igp [ 1 ] in
  let egp = path ~peer:2 ~origin:Attr.Egp [ 1 ] in
  check_bool "igp beats egp" true (Bgp.Decision.preference_compare igp egp < 0);
  let low_med = path ~peer:1 ~med:5 [ 1 ] in
  let high_med = path ~peer:2 ~med:10 [ 1 ] in
  check_bool "lower med wins" true
    (Bgp.Decision.preference_compare low_med high_med < 0)

let test_decision_multipath_set () =
  let candidates =
    [ path ~peer:1 [ 1; 9 ]; path ~peer:2 [ 2; 9 ]; path ~peer:3 [ 3; 4; 9 ] ]
  in
  let selected, best = Bgp.Decision.select candidates in
  check_int "two equal-cost" 2 (List.length selected);
  match best with
  | Some b -> check_int "best is lowest peer" 1 b.Bgp.Path.peer
  | None -> Alcotest.fail "no best"

let test_decision_empty () =
  let selected, best = Bgp.Decision.select [] in
  check_int "empty" 0 (List.length selected);
  check_bool "no best" true (best = None)

let test_decision_least_favorable () =
  let a = path ~peer:1 [ 1 ] in
  let b = path ~peer:2 [ 1; 2; 3 ] in
  (match Bgp.Decision.least_favorable [ a; b ] with
   | Some worst -> check_int "longest advertised" 2 worst.Bgp.Path.peer
   | None -> Alcotest.fail "none");
  check_bool "empty none" true (Bgp.Decision.least_favorable [] = None)

let test_decision_deterministic_total_order () =
  let candidates =
    [ path ~peer:3 [ 1 ]; path ~peer:1 [ 1 ]; path ~peer:2 [ 1 ] ]
  in
  let sorted = List.sort Bgp.Decision.preference_compare candidates in
  Alcotest.(check (list int))
    "peer tie-break" [ 1; 2; 3 ]
    (List.map (fun p -> p.Bgp.Path.peer) sorted)

(* ---------------- Policy ---------------- *)

let attr_with ?(communities = []) asns =
  List.fold_left
    (fun a c -> Attr.add_community c a)
    (Attr.make ~as_path:(As_path.of_asns (List.map asn asns)) ())
    communities

let test_policy_default_accepts () =
  check_bool "empty accepts" true
    (Bgp.Policy.apply Bgp.Policy.empty ~self:(asn 9) p10 (attr_with [ 1 ]) <> None)

let test_policy_reject () =
  check_bool "reject_all rejects" true
    (Bgp.Policy.apply Bgp.Policy.reject_all ~self:(asn 9) p10 (attr_with [ 1 ]) = None)

let test_policy_first_match_wins () =
  let c = Community.make 65100 1 in
  let policy =
    [
      Bgp.Policy.rule ~communities:[ c ] [ Bgp.Policy.Set_local_pref 200 ];
      Bgp.Policy.rule [ Bgp.Policy.Set_local_pref 50 ];
    ]
  in
  (match Bgp.Policy.apply policy ~self:(asn 9) p10 (attr_with ~communities:[ c ] [ 1 ]) with
   | Some a -> check_int "tagged gets 200" 200 a.Attr.local_pref
   | None -> Alcotest.fail "rejected");
  (match Bgp.Policy.apply policy ~self:(asn 9) p10 (attr_with [ 1 ]) with
   | Some a -> check_int "untagged gets 50" 50 a.Attr.local_pref
   | None -> Alcotest.fail "rejected")

let test_policy_prepend_self () =
  let policy = [ Bgp.Policy.rule [ Bgp.Policy.Prepend_self 2 ] ] in
  match Bgp.Policy.apply policy ~self:(asn 9) p10 (attr_with [ 1 ]) with
  | Some a ->
    check_int "padded" 3 (As_path.length a.Attr.as_path);
    check_bool "self first" true
      (As_path.first_asn a.Attr.as_path = Some (asn 9))
  | None -> Alcotest.fail "rejected"

let test_policy_prefix_match () =
  let policy =
    [
      Bgp.Policy.rule ~prefixes:[ Prefix.of_string_exn "10.0.0.0/8" ]
        [ Bgp.Policy.Reject ];
    ]
  in
  check_bool "in range rejected" true
    (Bgp.Policy.apply policy ~self:(asn 9)
       (Prefix.of_string_exn "10.1.0.0/16")
       (attr_with [ 1 ])
     = None);
  check_bool "out of range accepted" true
    (Bgp.Policy.apply policy ~self:(asn 9)
       (Prefix.of_string_exn "11.0.0.0/16")
       (attr_with [ 1 ])
     <> None)

let test_policy_as_path_regex_match () =
  let policy =
    [ Bgp.Policy.rule ~as_path:"^7" [ Bgp.Policy.Set_med 99 ] ]
  in
  (match Bgp.Policy.apply policy ~self:(asn 9) p10 (attr_with [ 7; 1 ]) with
   | Some a -> check_int "matched med" 99 a.Attr.med
   | None -> Alcotest.fail "rejected");
  match Bgp.Policy.apply policy ~self:(asn 9) p10 (attr_with [ 1; 7 ]) with
  | Some a -> check_int "unmatched med" 0 a.Attr.med
  | None -> Alcotest.fail "rejected"

let test_policy_drain_makes_less_preferred () =
  match Bgp.Policy.apply Bgp.Policy.drain ~self:(asn 9) p10 (attr_with [ 1 ]) with
  | Some drained ->
    check_bool "longer" true (As_path.length drained.Attr.as_path > 1);
    check_bool "tagged" true
      (Attr.has_community Community.Well_known.drained drained)
  | None -> Alcotest.fail "drain must not reject"

(* ---------------- Network: line and diamond convergence ---------------- *)

(* Builds a chain 0 - 1 - ... - (n-1); returns (graph). *)
let line n =
  let g = Topology.Graph.create () in
  for i = 0 to n - 1 do
    Topology.Graph.add_node g
      (Topology.Node.make ~id:i ~name:(Printf.sprintf "r%d" i)
         ~layer:(Topology.Node.Other "R") ())
  done;
  for i = 0 to n - 2 do
    Topology.Graph.add_link g i (i + 1)
  done;
  g

let diamond () =
  (* 0 -(1,2)- 3 : two equal paths. *)
  let g = Topology.Graph.create () in
  List.iter
    (fun i ->
      Topology.Graph.add_node g
        (Topology.Node.make ~id:i ~name:(Printf.sprintf "d%d" i)
           ~layer:(Topology.Node.Other "R") ()))
    [ 0; 1; 2; 3 ];
  Topology.Graph.add_link g 0 1;
  Topology.Graph.add_link g 0 2;
  Topology.Graph.add_link g 1 3;
  Topology.Graph.add_link g 2 3;
  g

let originate_default net device =
  Bgp.Network.originate net device p10 (Attr.make ())

let test_line_propagation () =
  let g = line 4 in
  let net = Bgp.Network.create ~seed:5 g in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  (* Every node has a route; AS-path grows along the line. *)
  for i = 1 to 3 do
    match Bgp.Network.fib net i p10 with
    | Some (Bgp.Speaker.Entries [ e ]) ->
      check_int (Printf.sprintf "node %d next hop" i) (i - 1)
        e.Bgp.Speaker.next_hop
    | Some (Bgp.Speaker.Entries _) -> Alcotest.fail "expected one entry"
    | Some Bgp.Speaker.Local -> Alcotest.fail "not local"
    | None -> Alcotest.fail (Printf.sprintf "node %d missing route" i)
  done;
  match Bgp.Network.fib net 0 p10 with
  | Some Bgp.Speaker.Local -> ()
  | Some (Bgp.Speaker.Entries _) | None -> Alcotest.fail "origin not local"

let test_line_as_path_length () =
  let g = line 4 in
  let net = Bgp.Network.create ~seed:5 g in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  let sp = Bgp.Network.speaker net 3 in
  match Bgp.Speaker.candidates sp p10 with
  | [ c ] -> check_int "3 hops" 3 (As_path.length c.Bgp.Path.attr.Attr.as_path)
  | _ -> Alcotest.fail "expected one candidate"

let test_diamond_multipath () =
  let net = Bgp.Network.create ~seed:5 (diamond ()) in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  match Bgp.Network.fib net 3 p10 with
  | Some (Bgp.Speaker.Entries entries) ->
    check_int "ecmp over both" 2 (List.length entries);
    List.iter (fun e -> check_int "weight 1" 1 e.Bgp.Speaker.weight) entries
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "missing multipath"

let test_withdraw_propagates () =
  let g = line 3 in
  let net = Bgp.Network.create ~seed:5 g in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  Bgp.Network.withdraw_origin net 0 p10;
  ignore (Bgp.Network.converge net);
  check_bool "withdrawn everywhere" true
    (Bgp.Network.fib net 1 p10 = None && Bgp.Network.fib net 2 p10 = None)

let test_link_failure_reroutes () =
  let net = Bgp.Network.create ~seed:5 (diamond ()) in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  Bgp.Network.set_link net 1 3 ~up:false;
  ignore (Bgp.Network.converge net);
  (match Bgp.Network.fib net 3 p10 with
   | Some (Bgp.Speaker.Entries [ e ]) ->
     check_int "only via 2" 2 e.Bgp.Speaker.next_hop
   | Some (Bgp.Speaker.Entries _) | Some Bgp.Speaker.Local | None ->
     Alcotest.fail "expected single path via 2");
  Bgp.Network.set_link net 1 3 ~up:true;
  ignore (Bgp.Network.converge net);
  match Bgp.Network.fib net 3 p10 with
  | Some (Bgp.Speaker.Entries entries) ->
    check_int "restored ecmp" 2 (List.length entries)
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "route lost after recovery"

let test_loop_prevention () =
  (* A triangle: routes must not loop; every node ends with a route and no
     candidate contains its own ASN. *)
  let g = Topology.Graph.create () in
  List.iter
    (fun i ->
      Topology.Graph.add_node g
        (Topology.Node.make ~id:i ~name:(Printf.sprintf "t%d" i)
           ~layer:(Topology.Node.Other "R") ()))
    [ 0; 1; 2 ];
  Topology.Graph.add_link g 0 1;
  Topology.Graph.add_link g 1 2;
  Topology.Graph.add_link g 2 0;
  let net = Bgp.Network.create ~seed:9 g in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  List.iter
    (fun i ->
      let sp = Bgp.Network.speaker net i in
      let own = Bgp.Speaker.asn sp in
      List.iter
        (fun c ->
          check_bool "no own asn in candidate" false
            (As_path.mem own c.Bgp.Path.attr.Attr.as_path))
        (Bgp.Speaker.candidates sp p10))
    [ 1; 2 ];
  (* No forwarding loop. *)
  let loops =
    Dataplane.Metrics.find_forwarding_loops
      ~lookup:(fun d -> Bgp.Network.fib net d p10)
      ~devices:[ 0; 1; 2 ]
  in
  check_int "loop free" 0 (List.length loops)

let test_drain_shifts_traffic () =
  let net = Bgp.Network.create ~seed:5 (diamond ()) in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  Bgp.Network.drain_device net 1;
  ignore (Bgp.Network.converge net);
  (match Bgp.Network.fib net 3 p10 with
   | Some (Bgp.Speaker.Entries [ e ]) ->
     check_int "drained path avoided" 2 e.Bgp.Speaker.next_hop
   | Some (Bgp.Speaker.Entries _) | Some Bgp.Speaker.Local | None ->
     Alcotest.fail "expected single live path");
  Bgp.Network.undrain_device net 1;
  ignore (Bgp.Network.converge net);
  match Bgp.Network.fib net 3 p10 with
  | Some (Bgp.Speaker.Entries entries) ->
    check_int "restored" 2 (List.length entries)
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "route lost after undrain"

let test_wcmp_link_bandwidth () =
  (* Diamond with wcmp: node 3 weighs paths by advertised capacity. Nodes 1
     and 2 aggregate different fan-ins: give node 1 two upstream links by
     adding an extra origin-adjacent node. Here we simply set an ingress
     policy on 3 that overrides the link bandwidth per peer. *)
  let net = Bgp.Network.create ~seed:5 ~wcmp:true (diamond ()) in
  Bgp.Network.set_ingress_policy net ~node:3 ~peer:1
    [ Bgp.Policy.rule [ Bgp.Policy.Set_link_bandwidth (Some 3) ] ];
  Bgp.Network.set_ingress_policy net ~node:3 ~peer:2
    [ Bgp.Policy.rule [ Bgp.Policy.Set_link_bandwidth (Some 1) ] ];
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  match Bgp.Network.fib net 3 p10 with
  | Some (Bgp.Speaker.Entries entries) ->
    let weight_of peer =
      match List.find_opt (fun e -> e.Bgp.Speaker.next_hop = peer) entries with
      | Some e -> e.Bgp.Speaker.weight
      | None -> 0
    in
    check_int "peer 1 weight" 3 (weight_of 1);
    check_int "peer 2 weight" 1 (weight_of 2)
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "missing wcmp entries"

let test_session_multiplicity () =
  (* Two parallel sessions between 0 and 1: receiver sees both in the
     multipath set. *)
  let g = Topology.Graph.create () in
  List.iter
    (fun i ->
      Topology.Graph.add_node g
        (Topology.Node.make ~id:i ~name:(Printf.sprintf "s%d" i)
           ~layer:(Topology.Node.Other "R") ()))
    [ 0; 1 ];
  Topology.Graph.add_link ~sessions:2 g 0 1;
  let net = Bgp.Network.create ~seed:5 g in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  match Bgp.Network.fib net 1 p10 with
  | Some (Bgp.Speaker.Entries entries) ->
    check_int "both sessions" 2 (List.length entries);
    Alcotest.(check (list int))
      "sessions 0 and 1" [ 0; 1 ]
      (List.sort Int.compare (List.map (fun e -> e.Bgp.Speaker.session) entries))
  | Some Bgp.Speaker.Local | None -> Alcotest.fail "missing entries"

let test_dual_stack () =
  (* v4 and v6 defaults are distinct routes end to end. *)
  let g = line 3 in
  let net = Bgp.Network.create ~seed:5 g in
  Bgp.Network.originate net 0 Prefix.default_v4 (Attr.make ());
  Bgp.Network.originate net 2 Prefix.default_v6 (Attr.make ());
  ignore (Bgp.Network.converge net);
  (match Bgp.Network.fib net 1 Prefix.default_v4 with
   | Some (Bgp.Speaker.Entries [ e ]) -> check_int "v4 via 0" 0 e.Bgp.Speaker.next_hop
   | _ -> Alcotest.fail "v4 default missing");
  (match Bgp.Network.fib net 1 Prefix.default_v6 with
   | Some (Bgp.Speaker.Entries [ e ]) -> check_int "v6 via 2" 2 e.Bgp.Speaker.next_hop
   | _ -> Alcotest.fail "v6 default missing");
  (* LPM never crosses families. *)
  let v6_host = Prefix.of_string_exn "2001:db8::1/128" in
  match Bgp.Speaker.fib_longest_match (Bgp.Network.speaker net 1) v6_host with
  | Some (matched, _) ->
    check_bool "v6 host matches v6 default" true
      (Prefix.equal matched Prefix.default_v6)
  | None -> Alcotest.fail "no v6 match"

let test_route_attribute_expiration_live () =
  (* A Route-Attribute RPA with an expiration: before expiry the prescribed
     weights hold; a re-evaluation after expiry reverts to native. *)
  let net = Bgp.Network.create ~seed:5 (diamond ()) in
  let rpa =
    Centralium.Rpa.make
      ~route_attribute:
        [
          Centralium.Route_attribute.make
            [
              Centralium.Route_attribute.statement ~expires_at:100.0
                (Centralium.Destination.Prefixes [ p10 ])
                [
                  Centralium.Route_attribute.next_hop_weight
                    (Centralium.Signature.make
                       ~neighbor_asn:(Net.Asn.of_int 64513) ())
                    ~weight:7;
                ];
            ];
        ]
      ()
  in
  Bgp.Network.set_hooks net 3
    (Centralium.Engine.hooks (Centralium.Engine.create rpa));
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  let weight_via peer =
    match Bgp.Network.fib net 3 p10 with
    | Some (Bgp.Speaker.Entries entries) ->
      (match List.find_opt (fun e -> e.Bgp.Speaker.next_hop = peer) entries with
       | Some e -> e.Bgp.Speaker.weight
       | None -> -1)
    | Some Bgp.Speaker.Local | None -> -1
  in
  check_int "prescribed weight before expiry" 7 (weight_via 1);
  (* Jump virtual time past the expiration, then force a re-evaluation by
     flapping the other uplink. *)
  ignore (Bgp.Network.run_until net ~time:200.0);
  Bgp.Network.set_link net 2 3 ~up:false;
  ignore (Bgp.Network.converge net);
  Bgp.Network.set_link net 2 3 ~up:true;
  ignore (Bgp.Network.converge net);
  check_int "native weight after expiry" 1 (weight_via 1)

let test_trace_records_fib_changes () =
  let g = line 3 in
  let net = Bgp.Network.create ~seed:5 g in
  originate_default net 0;
  ignore (Bgp.Network.converge net);
  let trace = Bgp.Network.trace net in
  check_bool "fib changes recorded" true (Bgp.Trace.fib_change_count trace >= 3);
  check_bool "messages recorded" true (Bgp.Trace.messages_sent trace >= 2)

let test_fib_timeline_simultaneous () =
  let tr = Bgp.Trace.create () in
  let p20 = Prefix.of_string_exn "20.0.0.0/8" in
  let entry nh =
    Bgp.Speaker.Entries [ { Bgp.Speaker.next_hop = nh; session = 0; weight = 1 } ]
  in
  let change ~time ~device ?(prefix = p10) state =
    Bgp.Trace.record tr (Bgp.Trace.Fib_change { time; device; prefix; state })
  in
  change ~time:1.0 ~device:1 (Some (entry 10));
  (* Three changes at the same instant, one device changing twice: the
     timeline must collapse them into a single snapshot reflecting all of
     them, not emit intermediate states. *)
  change ~time:2.0 ~device:1 (Some (entry 20));
  change ~time:2.0 ~device:2 (Some (entry 30));
  change ~time:2.0 ~device:1 None;
  change ~time:2.0 ~device:9 ~prefix:p20 (Some (entry 99));
  change ~time:3.0 ~device:3 (Some Bgp.Speaker.Local);
  let timeline =
    Bgp.Trace.fib_timeline tr ~prefix:p10 ~initial:[ (0, entry 7) ]
  in
  check_int "one snapshot per distinct instant" 3 (List.length timeline);
  let rec increasing = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 < t2 && increasing rest
    | [ _ ] | [] -> true
  in
  check_bool "times strictly increasing" true (increasing timeline);
  (match timeline with
   | [ (t1, s1); (t2, s2); (t3, s3) ] ->
     check_bool "instants" true (t1 = 1.0 && t2 = 2.0 && t3 = 3.0);
     check_bool "initial state carried" true (Hashtbl.find_opt s1 0 = Some (entry 7));
     check_bool "first change applied" true (Hashtbl.find_opt s1 1 = Some (entry 10));
     (* t=2 snapshot: device 1's two changes net out to a removal, device 2's
        change is present, the other prefix never leaks in. *)
     check_bool "same-instant removal wins" true (Hashtbl.find_opt s2 1 = None);
     check_bool "same-instant sibling applied" true
       (Hashtbl.find_opt s2 2 = Some (entry 30));
     check_bool "other prefix filtered" true (Hashtbl.find_opt s2 9 = None);
     check_bool "later change applied" true
       (Hashtbl.find_opt s3 3 = Some Bgp.Speaker.Local)
   | _ -> Alcotest.fail "expected exactly three snapshots")

let test_convergence_deterministic () =
  let run seed =
    let net = Bgp.Network.create ~seed (diamond ()) in
    originate_default net 0;
    let events = Bgp.Network.converge net in
    (events, Bgp.Network.fib_snapshot net p10)
  in
  let e1, s1 = run 42 and e2, s2 = run 42 in
  check_int "same events" e1 e2;
  check_bool "same fibs" true (s1 = s2)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bgp"
    [
      ( "decision",
        [
          quick "local pref wins" test_decision_local_pref_wins;
          quick "shorter path wins" test_decision_shorter_path_wins;
          quick "origin then med" test_decision_origin_then_med;
          quick "multipath set" test_decision_multipath_set;
          quick "empty" test_decision_empty;
          quick "least favorable" test_decision_least_favorable;
          quick "deterministic order" test_decision_deterministic_total_order;
        ] );
      ( "policy",
        [
          quick "default accepts" test_policy_default_accepts;
          quick "reject" test_policy_reject;
          quick "first match wins" test_policy_first_match_wins;
          quick "prepend self" test_policy_prepend_self;
          quick "prefix match" test_policy_prefix_match;
          quick "as-path regex" test_policy_as_path_regex_match;
          quick "drain less preferred" test_policy_drain_makes_less_preferred;
        ] );
      ( "network",
        [
          quick "line propagation" test_line_propagation;
          quick "as-path length" test_line_as_path_length;
          quick "diamond multipath" test_diamond_multipath;
          quick "withdraw propagates" test_withdraw_propagates;
          quick "link failure reroutes" test_link_failure_reroutes;
          quick "loop prevention" test_loop_prevention;
          quick "drain shifts traffic" test_drain_shifts_traffic;
          quick "wcmp link bandwidth" test_wcmp_link_bandwidth;
          quick "session multiplicity" test_session_multiplicity;
          quick "dual stack" test_dual_stack;
          quick "rpa expiration live" test_route_attribute_expiration_live;
          quick "trace records" test_trace_records_fib_changes;
          quick "fib timeline simultaneous" test_fib_timeline_simultaneous;
          quick "deterministic" test_convergence_deterministic;
        ] );
    ]
