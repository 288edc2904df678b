(* Causal provenance DAG: hand-checked critical path on a line topology,
   byte-identical DAGs across runs at the same seed (chaos, both GR
   modes) and equal to pinned digests, blackhole attribution accounting
   for 100% of the loss integral's blackhole-seconds, and provenance
   neutrality (switching it on changes no simulation outcome and no trace
   view). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let default_pid = Net.Intern.Prefix_id.id Net.Prefix.default_v4

(* A chain 0 - 1 - ... - (n-1) of plain routers. *)
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

(* ---------------- Hand-checked critical path ---------------- *)

(* 0 - 1 - 2, constant 1 ms links, one origin announce at node 0. The
   critical path must be the literal hop chain, its wire edges exactly
   1 ms each, and the per-edge delays must telescope to the convergence
   time (terminal FIB time - origin time = 2 ms). *)
let test_line_hand_check () =
  let log, _ =
    Bgp.Trace.with_provenance (fun () ->
        let net =
          Bgp.Network.create ~seed:1 ~latency:(fun _ -> 0.001) (line 3)
        in
        Bgp.Network.originate net 0 Net.Prefix.default_v4 (Net.Attr.make ());
        ignore (Bgp.Network.converge net);
        Bgp.Network.trace net)
  in
  let causal = Bgp.Trace.dag log in
  match Obs.Causal.critical_path causal ~prefix:default_pid with
  | None -> Alcotest.fail "no critical path recorded"
  | Some chain ->
    let kinds = List.map (fun (e : Obs.Causal.event) -> e.kind) chain.c_events in
    checkb "chain is the literal hop chain" true
      (kinds
       = [
           Obs.Causal.Origin; Decide; Send; Recv; Decide; Send; Recv; Decide;
           Fib;
         ]);
    (match (List.hd chain.c_events, List.rev chain.c_events) with
     | root, terminal :: _ ->
       checki "rooted at the originator" 0 root.device;
       checki "terminates at the far end" 2 terminal.device;
       checkb "total = terminal - root" true
         (chain.c_total = terminal.time -. root.time)
     | _ -> Alcotest.fail "empty chain");
    Alcotest.(check (float 1e-12)) "convergence time is two 1 ms hops" 0.002
      chain.c_total;
    let edge_sum =
      List.fold_left
        (fun acc (e : Obs.Causal.edge) -> acc +. e.e_delay)
        0.0 chain.c_edges
    in
    checkb "per-edge delays telescope exactly to the total" true
      (edge_sum = chain.c_total);
    let wires =
      List.filter (fun (e : Obs.Causal.edge) -> e.e_label = "wire") chain.c_edges
    in
    checki "two wire hops" 2 (List.length wires);
    List.iter
      (fun (e : Obs.Causal.edge) ->
        Alcotest.(check (float 1e-12)) "wire edge is the drawn latency" 0.001
          e.e_delay;
        checkb "wire delay decomposes into prop/fault/queue" true
          (List.fold_left (fun a (_, v) -> a +. v) 0.0 e.e_parts = e.e_delay))
      wires;
    checkb "rendering works" true
      (Obs.Causal.chain_lines chain <> [])

(* ---------------- Determinism across runs ---------------- *)

let chaos_traced ~seed ~gr =
  match
    Bgp.Trace.with_provenance (fun () ->
        Experiments.Scenarios.Chaos.run_mode ~seed ~gr ())
  with
  | m, [ log ] -> (Bgp.Trace.dag log, m)
  | _, logs ->
    Alcotest.failf "chaos ran %d networks, not one" (List.length logs)

(* Digests of the chaos DAGs' JSON, recorded when provenance had its own
   global recorder: any change to which acts are nodes, or to their ids,
   parents or fields, shows up here. *)
let pinned_dags =
  [
    ((7, false), "b0cb28b81e7103410e753aad73d3d5fb");
    ((42, true), "94c08429056a47b7108b6af411a1a781");
    ((42, false), "892b9e05df0cd291c32e6ffa62c33e90");
  ]

let check_pinned ~seed ~gr json =
  match List.assoc_opt (seed, gr) pinned_dags with
  | Some want ->
    Alcotest.(check string)
      (Printf.sprintf "DAG digest pinned (seed %d, gr=%b)" seed gr)
      want
      (Digest.to_hex (Digest.string json))
  | None -> ()

let render causal =
  let json = Obs.Json.to_string (Obs.Causal.to_json causal) in
  let chain =
    match Obs.Causal.critical_path causal ~prefix:default_pid with
    | Some c -> String.concat "\n" (Obs.Causal.chain_lines c)
    | None -> ""
  in
  (json, chain)

(* Chaos scenario (severe message faults, liveness timers, mid-window
   restarts), both GR modes: two runs at the same seed must produce
   byte-identical causal DAGs and critical-path renderings. *)
let test_chaos_determinism () =
  List.iter
    (fun gr ->
      let c1, _ = chaos_traced ~seed:42 ~gr in
      let c2, _ = chaos_traced ~seed:42 ~gr in
      let j1, r1 = render c1 and j2, r2 = render c2 in
      checkb "log non-empty" true (Obs.Causal.length c1 > 0)
      ;
      checkb
        (Printf.sprintf "causal DAG byte-identical (gr=%b)" gr)
        true (j1 = j2);
      check_pinned ~seed:42 ~gr j1;
      checkb "critical path found" true (r1 <> "");
      checkb
        (Printf.sprintf "critical path byte-identical (gr=%b)" gr)
        true (r1 = r2))
    [ true; false ]

(* ---------------- Blackhole attribution ---------------- *)

let test_blackhole_attribution () =
  let causal, m = chaos_traced ~seed:42 ~gr:false in
  let segments =
    List.map
      (fun (s : Dataplane.Metrics.loss_segment) ->
        (s.seg_from, s.seg_until, s.seg_blackholed))
      m.Experiments.Scenarios.Chaos.loss_segments
  in
  let attribution =
    Obs.Causal.attribute causal ~prefix:default_pid ~segments
  in
  checkb "chaos run blackholes traffic" true
    (m.Experiments.Scenarios.Chaos.blackhole_seconds > 0.0);
  checkb "attribution non-empty" true (attribution <> []);
  let sum =
    List.fold_left
      (fun acc (a : Obs.Causal.attributed) -> acc +. a.a_seconds)
      0.0 attribution
  in
  (* Bit-exact, not approximate: the attribution folds the same clamped
     segments in the same order as the loss integral. *)
  checkb "accounts for 100% of blackhole-seconds" true
    (sum = m.Experiments.Scenarios.Chaos.blackhole_seconds);
  checkb "intervals cite causal FIB events" true
    (List.exists
       (fun (a : Obs.Causal.attributed) -> a.a_opened_by <> [])
       attribution);
  List.iter
    (fun (a : Obs.Causal.attributed) ->
      List.iter
        (fun id ->
          match Obs.Causal.event causal id with
          | Some ev -> checkb "cited event is a FIB change" true (ev.kind = Fib)
          | None -> Alcotest.failf "dangling event id %d" id)
        (a.a_opened_by @ a.a_closed_by))
    attribution

(* ---------------- Instrumentation neutrality ---------------- *)

(* Recording draws no RNG and schedules nothing, and the trace views skip
   provenance: the whole chaos result — FIB digest, loss integrals and
   segments, every count read from the trace views — is identical with
   provenance on and off. *)
let test_instrumentation_neutral () =
  List.iter
    (fun gr ->
      let bare = Experiments.Scenarios.Chaos.run_mode ~seed:7 ~gr () in
      let causal, traced = chaos_traced ~seed:7 ~gr in
      checkb "events were recorded" true (Obs.Causal.length causal > 0);
      check_pinned ~seed:7 ~gr (Obs.Json.to_string (Obs.Causal.to_json causal));
      checkb
        (Printf.sprintf "chaos result identical with provenance on (gr=%b)" gr)
        true (bare = traced))
    [ true; false ]

let () =
  Alcotest.run "causal"
    [
      ( "critical-path",
        [ Alcotest.test_case "hand-checked line" `Quick test_line_hand_check ]
      );
      ( "determinism",
        [
          Alcotest.test_case "chaos, both GR modes" `Quick
            test_chaos_determinism;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "100% of blackhole-seconds" `Quick
            test_blackhole_attribution;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "tracing changes nothing" `Quick
            test_instrumentation_neutral;
        ] );
    ]
