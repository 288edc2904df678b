(* Oracle-parity tests for the incremental decision pipeline.

   [Bgp.Speaker.Incremental] (dirty-set decisions, duplicate-update skip)
   must be bit-identical to [Full_table] (the original re-decide-everything
   behavior, kept as the debug oracle) in everything observable — traces,
   FIB digests, advertised state — at every quiescent point; the two may
   differ only in how many decisions they run. *)

open Net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Traces compared through their exact JSON rendering: messages carry
   attributes, which polymorphic [=] must not compare (see
   {!Net.Attr.t}). *)
let trace_json events = List.map Bgp.Trace.event_to_json events

(* ---------------- fixtures ---------------- *)

let node id =
  Topology.Node.make ~id ~name:(Printf.sprintf "r%d" id)
    ~layer:(Topology.Node.Other "R") ()

(* 4 leaves (0-3) x 2 spines (4-5), two sessions per link: enough path
   multiplicity for ECMP churn, session resends, and flap cascades. *)
let fabric () =
  let g = Topology.Graph.create () in
  List.iter (fun i -> Topology.Graph.add_node g (node i)) [ 0; 1; 2; 3; 4; 5 ];
  for leaf = 0 to 3 do
    Topology.Graph.add_link ~sessions:2 g leaf 4;
    Topology.Graph.add_link ~sessions:2 g leaf 5
  done;
  g

let pool =
  Array.map Prefix.of_string_exn
    [| "10.0.0.0/8"; "10.1.0.0/16"; "10.2.0.0/16"; "172.16.0.0/12";
       "192.168.0.0/24"; "0.0.0.0/0" |]

(* Advertised (Adj-RIB-Out mirror) state of every (device, peer) pair. *)
let advertised_state net devices =
  List.map
    (fun d ->
      let sp = Bgp.Network.speaker net d in
      List.map (fun peer -> Bgp.Speaker.advertised_to sp ~peer) devices)
    devices

let same_advertised =
  List.equal
    (List.equal
       (List.equal (fun (p, a) (q, b) -> Prefix.equal p q && Attr.equal a b)))

(* ---------------- randomized oracle ---------------- *)

type op =
  | Originate of int * int * int (* device, prefix index, med *)
  | Withdraw of int * int (* device, prefix index *)
  | Flap of int * int (* leaf, spine *)

let gen_ops seed n =
  let rng = Dsim.Rng.create seed in
  List.init n (fun _ ->
      match Dsim.Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        Originate
          (Dsim.Rng.int rng 6, Dsim.Rng.int rng (Array.length pool),
           Dsim.Rng.int rng 4)
      | 4 | 5 | 6 ->
        Withdraw (Dsim.Rng.int rng 6, Dsim.Rng.int rng (Array.length pool))
      | _ -> Flap (Dsim.Rng.int rng 4, 4 + Dsim.Rng.int rng 2))

let apply_op net = function
  | Originate (device, pi, med) ->
    Bgp.Network.originate net device pool.(pi) (Attr.make ~med ())
  | Withdraw (device, pi) -> Bgp.Network.withdraw_origin net device pool.(pi)
  | Flap (a, b) ->
    Bgp.Network.set_link net a b ~up:false;
    Bgp.Network.set_link ~delay:0.002 net a b ~up:true

(* Splits [ops] into chunks of [k]: each chunk ends at a quiescent point. *)
let chunks k ops =
  let rec go acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
      if n = k then go (List.rev current :: acc) [ x ] 1 rest
      else go acc (x :: current) (n + 1) rest
  in
  go [] [] 0 ops

let run_oracle_sequence seed =
  (* Under provenance, so the logs keep the message records compared below. *)
  let make mode =
    let net, _ =
      Bgp.Trace.with_provenance (fun () ->
          Bgp.Network.create ~seed (fabric ()))
    in
    Bgp.Network.set_eval_mode net mode;
    net
  in
  let incr = make Bgp.Speaker.Incremental in
  let full = make Bgp.Speaker.Full_table in
  let devices = [ 0; 1; 2; 3; 4; 5 ] in
  List.iteri
    (fun i chunk ->
      List.iter
        (fun op ->
          apply_op incr op;
          apply_op full op)
        chunk;
      ignore (Bgp.Network.converge incr);
      ignore (Bgp.Network.converge full);
      let tag = Printf.sprintf "seed %d, quiescent point %d" seed i in
      (* Bit-identical message/FIB-change streams... *)
      check_bool (tag ^ ": traces identical") true
        (trace_json (Bgp.Trace.events (Bgp.Network.trace incr))
        = trace_json (Bgp.Trace.events (Bgp.Network.trace full)));
      (* ...forwarding state... *)
      check_string (tag ^ ": fib digests") (Bgp.Network.fib_digest full)
        (Bgp.Network.fib_digest incr);
      (* ...and advertised (Adj-RIB-Out) state. *)
      check_bool (tag ^ ": advertised state") true
        (same_advertised (advertised_state incr devices)
           (advertised_state full devices)))
    (chunks 4 (gen_ops seed 32))

let test_randomized_oracle () = List.iter run_oracle_sequence [ 7; 21; 1234 ]

(* ---------------- chaos parity ---------------- *)

(* The full chaos gauntlet — message-level faults, hold timers, graceful
   restart, speaker crashes, stale sweeps — produces the identical result
   record (trace counts, violation lists, loss integrals, FIB digest) in
   both evaluation modes at the same seed. *)
let test_chaos_parity () =
  List.iter
    (fun gr ->
      let incr =
        Experiments.Scenarios.Chaos.run_mode ~seed:11 ~eval_mode:Bgp.Speaker.Incremental
          ~gr ()
      in
      let full =
        Experiments.Scenarios.Chaos.run_mode ~seed:11 ~eval_mode:Bgp.Speaker.Full_table ~gr
          ()
      in
      let tag = Printf.sprintf "gr=%b" gr in
      check_string (tag ^ ": fib digest")
        full.Experiments.Scenarios.Chaos.fib_digest incr.Experiments.Scenarios.Chaos.fib_digest;
      check_int (tag ^ ": trace events")
        full.Experiments.Scenarios.Chaos.trace_events incr.Experiments.Scenarios.Chaos.trace_events;
      check_bool (tag ^ ": whole result record") true (incr = full))
    [ true; false ]

(* ---------------- decision-count reduction ---------------- *)

(* The point of the incremental pipeline: on the chaos scenario (dominated
   by full-table resyncs whose updates change nothing) the number of
   decision-process runs drops by at least 5x. Counted via the shared
   metrics registry, which by contract cannot perturb the simulation. *)
let test_decision_count_reduction () =
  let registry = Obs.Metrics.default in
  let decisions = Obs.Metrics.counter "bgp.speaker.decisions" in
  let count_for mode =
    Obs.Metrics.reset registry;
    ignore (Experiments.Scenarios.Chaos.run_mode ~seed:42 ~eval_mode:mode ~gr:true ());
    Obs.Metrics.value decisions
  in
  Obs.Metrics.set_enabled registry true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled registry false;
      Obs.Metrics.reset registry)
    (fun () ->
      let incremental = count_for Bgp.Speaker.Incremental in
      let full = count_for Bgp.Speaker.Full_table in
      check_bool "incremental ran some decisions" true (incremental > 0);
      check_bool
        (Printf.sprintf "full-table (%d) >= 5x incremental (%d)" full
           incremental)
        true
        (full >= 5 * incremental))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "incremental"
    [
      ( "oracle",
        [
          quick "randomized sequences, 3 seeds" test_randomized_oracle;
          quick "chaos parity" test_chaos_parity;
        ] );
      ( "performance",
        [ quick "chaos decisions drop 5x" test_decision_count_reduction ] );
    ]
