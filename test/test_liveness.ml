(* Session liveness, graceful restart, and chaos accounting: keepalive/hold
   timers over the event queue, RFC 4724 stale retention and sweeps,
   in-flight loss on connection teardown, and the GR-on vs GR-off
   blackhole-seconds comparison. Everything is seeded and asserted
   bit-reproducible. *)

open Net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p10 = Prefix.of_string_exn "10.0.0.0/8"

(* Traces compared through their exact JSON rendering: messages carry
   attributes, which polymorphic [=] must not compare (see
   {!Net.Attr.t}). *)
let trace_json events = List.map Bgp.Trace.event_to_json events

(* Chain 0 - 1 - ... - (n-1). *)
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

let count_session_events net event =
  Bgp.Trace.count
    (function
      | Bgp.Trace.Session_event { event = e; _ } -> e = event
      | _ -> false)
    (Bgp.Network.trace net)

let blackout = { Dsim.Fault.none with drop_prob = 1.0 }

(* ---------------- hold-timer expiry ---------------- *)

let test_hold_expiry_tears_down_session () =
  (* A 100% drop fault starves both ends of keepalives; the hold timer must
     fire and tear the session down, flushing the learned route (legacy
     liveness, no graceful restart). *)
  let net = Bgp.Network.create ~seed:11 (line 2) in
  Bgp.Network.originate net 0 p10 (Attr.make ());
  ignore (Bgp.Network.converge net);
  let t0 = Bgp.Network.now net in
  check_bool "route learned" true (Bgp.Network.fib net 1 p10 <> None);
  Bgp.Trace.clear (Bgp.Network.trace net);
  Bgp.Network.set_fault net (Some (Dsim.Fault.create ~seed:12 blackout));
  Bgp.Network.enable_liveness ~until:(t0 +. 0.05) net;
  (* Just past the first hold firing: checks run every keepalive interval
     (2 ms), so the 6 ms hold time first trips at the 8 ms check. The
     reconnect loop bounces the session at the same instant, but its
     full-table resend is eaten by the blackout too — the route stays
     gone. *)
  ignore (Bgp.Network.run_until net ~time:(t0 +. 0.009));
  check_bool "hold timer fired" true
    (count_session_events net "hold-expired" >= 1);
  check_bool "route flushed on expiry" true (Bgp.Network.fib net 1 p10 = None);
  (* Keepalives are real messages through the fault model: the blackout
     must be dropping them. *)
  check_bool "keepalives were sent" true
    (Bgp.Trace.keepalives_sent (Bgp.Network.trace net) >= 2);
  (* Heal: the transport recovers and every session is force-resynced
     ([~all]: the last reconnect bounce left the session nominally up at
     both ends, but its resend was eaten — a blinded session a plain
     re-establishment would skip). *)
  ignore (Bgp.Network.run_until net ~time:(t0 +. 0.05));
  Bgp.Network.set_fault net None;
  Bgp.Network.reestablish_sessions ~all:true net;
  ignore (Bgp.Network.converge net);
  check_bool "route restored after heal" true (Bgp.Network.fib net 1 p10 <> None);
  check_int "clean quiescence" 0
    (List.length (Centralium.Invariant.check net))

let test_hold_expiry_deterministic () =
  let run () =
    (* Under provenance, so the compared traces keep their messages. *)
    let net, _ =
      Bgp.Trace.with_provenance (fun () ->
          Bgp.Network.create ~seed:11 (line 3))
    in
    Bgp.Network.originate net 0 p10 (Attr.make ());
    ignore (Bgp.Network.converge net);
    let t0 = Bgp.Network.now net in
    Bgp.Trace.clear (Bgp.Network.trace net);
    Bgp.Network.set_fault net (Some (Dsim.Fault.create ~seed:12 blackout));
    Bgp.Network.enable_liveness ~until:(t0 +. 0.05) net;
    ignore (Bgp.Network.run_until net ~time:(t0 +. 0.05));
    Bgp.Network.set_fault net None;
    Bgp.Network.reestablish_sessions net;
    ignore (Bgp.Network.converge net);
    ( count_session_events net "hold-expired",
      count_session_events net "reconnected",
      Bgp.Trace.events (Bgp.Network.trace net) )
  in
  let h1, r1, e1 = run () in
  let h2, r2, e2 = run () in
  check_bool "some expiries" true (h1 >= 1);
  check_int "expiries reproducible" h1 h2;
  check_int "reconnects reproducible" r1 r2;
  check_bool "trace bit-identical" true (trace_json e1 = trace_json e2)

(* ---------------- stale-path sweep ---------------- *)

let test_stale_path_sweep () =
  (* Graceful restart: hold expiry marks the learned route stale but keeps
     forwarding on it (fail-static); if the peer never refreshes it, the
     stale-path timer sweeps it. *)
  let net = Bgp.Network.create ~seed:11 (line 2) in
  Bgp.Network.originate net 0 p10 (Attr.make ());
  ignore (Bgp.Network.converge net);
  let t0 = Bgp.Network.now net in
  Bgp.Trace.clear (Bgp.Network.trace net);
  Bgp.Network.set_fault net (Some (Dsim.Fault.create ~seed:12 blackout));
  let config = Bgp.Liveness.with_gr Bgp.Liveness.default in
  Bgp.Network.enable_liveness ~config ~until:(t0 +. 0.03) net;
  ignore (Bgp.Network.run_until net ~time:(t0 +. 0.009));
  (* Hold expired, but under GR the route is stale-retained, not flushed. *)
  check_bool "hold timer fired" true
    (count_session_events net "hold-expired" >= 1);
  check_bool "still forwarding on stale route" true
    (Bgp.Network.fib net 1 p10 <> None);
  check_bool "marked stale" true
    (Bgp.Speaker.is_stale (Bgp.Network.speaker net 1) p10 ~peer:0 ~session:0);
  (* Let the liveness window close and the pending stale-path timers
     (stale_path_time after each loss) drain: the peer stayed silent, so
     the sweep must remove the route. *)
  ignore (Bgp.Network.converge net);
  check_bool "sweep happened" true
    (count_session_events net "stale-swept" >= 1);
  check_bool "stale route swept" true (Bgp.Network.fib net 1 p10 = None);
  check_int "no marks leaked" 0
    (List.length (Bgp.Speaker.stale_routes (Bgp.Network.speaker net 1)));
  (* Heal and verify clean quiescence. *)
  Bgp.Network.set_fault net None;
  Bgp.Network.reestablish_sessions ~all:true net;
  ignore (Bgp.Network.converge net);
  check_bool "route restored" true (Bgp.Network.fib net 1 p10 <> None);
  check_int "clean quiescence" 0
    (List.length (Centralium.Invariant.check net))

(* ---------------- blinded session (legacy-mode bugfix) ---------------- *)

let test_blinded_session_detected_without_timers () =
  (* Without liveness timers a 100% drop fault leaves the session nominally
     up at both ends while their RIBs silently diverge. Only the cross-end
     session-staleness check can see it. *)
  let net = Bgp.Network.create ~seed:11 (line 2) in
  Bgp.Network.originate net 0 p10 (Attr.make ());
  ignore (Bgp.Network.converge net);
  Bgp.Network.set_fault net (Some (Dsim.Fault.create ~seed:12 blackout));
  Bgp.Network.withdraw_origin net 0 p10;
  ignore (Bgp.Network.converge net);
  (* The withdraw was eaten: node 1 still forwards to a route the origin
     no longer advertises, and both ends still consider the session up. *)
  check_bool "ghost route held" true (Bgp.Network.fib net 1 p10 <> None);
  check_bool "session nominally up" true
    (Bgp.Speaker.session_up (Bgp.Network.speaker net 1) ~peer:0 ~session:0);
  let vs = Centralium.Invariant.check_session_staleness net in
  check_bool "divergence detected" true (vs <> []);
  List.iter
    (fun (v : Centralium.Invariant.violation) ->
      check_bool "kind is session-stale" true
        (v.kind = Centralium.Invariant.Session_stale))
    vs;
  check_bool "full check reports it too" true
    (List.exists
       (fun (v : Centralium.Invariant.violation) ->
         v.kind = Centralium.Invariant.Session_stale)
       (Centralium.Invariant.check net));
  (* Repair: heal the transport and force a full resync of every session —
     the blinded session cannot be found by looking at session state, which
     is exactly why [~all:true] exists. *)
  Bgp.Network.set_fault net None;
  Bgp.Network.reestablish_sessions ~all:true net;
  ignore (Bgp.Network.converge net);
  check_bool "ghost gone after resync" true (Bgp.Network.fib net 1 p10 = None);
  check_int "clean quiescence" 0
    (List.length (Centralium.Invariant.check net))

(* ---------------- in-flight loss on connection teardown ---------------- *)

let test_inflight_message_dies_with_connection () =
  (* A message in flight when its session drops must not be delivered into
     the re-established session: here a delayed Update would resurrect a
     route whose origin was withdrawn while the link was down, leaving a
     permanently divergent ghost. *)
  let slow _rng = 0.5 in
  let net = Bgp.Network.create ~seed:11 ~latency:slow (line 2) in
  (* t=2.0: originate — the Update is in flight until t=2.5. *)
  Bgp.Network.originate ~delay:2.0 net 0 p10 (Attr.make ());
  (* t=2.2: the link flaps; t=2.3: the origin is withdrawn while down
     (nothing to send — the session is down); t=2.4: link back up, the
     resync finds no route to resend. *)
  Bgp.Network.set_link ~delay:2.2 net 0 1 ~up:false;
  Bgp.Network.withdraw_origin ~delay:2.3 net 0 p10;
  Bgp.Network.set_link ~delay:2.4 net 0 1 ~up:true;
  ignore (Bgp.Network.converge net);
  (* The t=2.5 delivery belongs to the dead connection. *)
  check_bool "no ghost from the dead connection" true
    (Bgp.Network.fib net 1 p10 = None);
  check_int "clean quiescence" 0
    (List.length (Centralium.Invariant.check net))

(* ---------------- GR on vs off: the acceptance comparison ------------- *)

let test_chaos_gr_strictly_reduces_blackhole_seconds () =
  let r = Experiments.Scenarios.Chaos.run ~seed:7 () in
  let on = r.Experiments.Scenarios.Chaos.gr_on
  and off = r.Experiments.Scenarios.Chaos.gr_off in
  check_bool "identical windows" true (on.window = off.window);
  check_bool "gr strictly reduces blackhole-seconds" true
    (on.blackhole_seconds < off.blackhole_seconds);
  check_bool "gr_wins agrees" true r.Experiments.Scenarios.Chaos.gr_wins;
  check_int "gr-on quiesces violation-free" 0
    (List.length on.final_violations);
  check_int "gr-off quiesces violation-free" 0
    (List.length off.final_violations);
  check_bool "stale machinery exercised" true (on.stale_sweeps > 0);
  check_bool "hold timers exercised" true
    (on.hold_expiries > 0 && off.hold_expiries > 0);
  (* The sweep verdicts hold, and fail when any one of their conditions is
     flipped. *)
  let module C = Experiments.Scenarios.Chaos in
  let unclean m = { m with C.final_violations = [ (Some 1, None, "loop") ] } in
  check_bool "both modes quiesced" true (C.quiesced on && C.quiesced off);
  check_bool "one final violation: not quiesced" false
    (C.quiesced (unclean on));
  check_bool "sweep verdict passes" true (C.passed r);
  List.iter
    (fun (what, r) ->
      check_bool ("sweep verdict fails: " ^ what) false (C.passed r))
    [
      ("GR does not win", { r with C.gr_wins = false });
      ("a final violation with GR on", { r with C.gr_on = unclean on });
      ("a final violation with GR off", { r with C.gr_off = unclean off });
    ]

let test_chaos_bit_reproducible () =
  let r1 = Experiments.Scenarios.Chaos.run ~seed:7 () in
  let r2 = Experiments.Scenarios.Chaos.run ~seed:7 () in
  check_bool "identical results across runs" true (r1 = r2);
  check_bool "fib digests equal" true
    (r1.Experiments.Scenarios.Chaos.gr_on.fib_digest
    = r2.Experiments.Scenarios.Chaos.gr_on.fib_digest)

(* ---------------- message counts without message records ---------------- *)

(* One seeded run with light message faults, GR liveness and a restart, so
   that every message counter is non-zero. *)
let counted_run () =
  let net = Bgp.Network.create ~seed:11 (line 4) in
  Bgp.Network.originate net 0 p10 (Attr.make ());
  ignore (Bgp.Network.converge net);
  let t0 = Bgp.Network.now net in
  Bgp.Network.set_fault net
    (Some (Dsim.Fault.create ~seed:12 Dsim.Fault.light));
  let config = Bgp.Liveness.with_gr Bgp.Liveness.default in
  Bgp.Network.enable_liveness ~config ~until:(t0 +. 0.1) net;
  Bgp.Network.restart_device ~delay:0.02 net 1 ~recovery:0.01;
  ignore (Bgp.Network.run_until net ~time:(t0 +. 0.1));
  Bgp.Network.set_fault net None;
  Bgp.Network.reestablish_sessions ~all:true net;
  ignore (Bgp.Network.converge net);
  Bgp.Network.trace net

let counters log =
  Bgp.Trace.
    [ messages_sent log; messages_dropped log; keepalives_sent log;
      length log ]

let is_message = function
  | Bgp.Trace.Message_sent _ | Bgp.Trace.Message_dropped _ -> true
  | _ -> false

let test_messages_counted_not_stored () =
  let bare = counted_run () in
  let traced =
    match Bgp.Trace.with_provenance counted_run with
    | log, [ _ ] -> log
    | _, logs -> Alcotest.failf "%d logs, not one" (List.length logs)
  in
  check_bool "every counter non-zero" true
    (List.for_all (fun n -> n > 0) (counters bare));
  check_int "no message record without provenance" 0
    (Bgp.Trace.count is_message bare);
  check_bool "message records under provenance" true
    (Bgp.Trace.count is_message traced > 0);
  Alcotest.(check (list int)) "counters agree with provenance on and off"
    (counters traced) (counters bare);
  check_int "length counts what is not stored"
    (Bgp.Trace.length traced)
    (Bgp.Trace.count (fun _ -> true) bare
    + Bgp.Trace.messages_sent bare + Bgp.Trace.messages_dropped bare);
  List.iter Bgp.Trace.clear [ bare; traced ];
  Alcotest.(check (list int)) "clear zeroes the counters" [ 0; 0; 0; 0 ]
    (counters bare);
  Alcotest.(check (list int)) "clear zeroes the counters under provenance"
    [ 0; 0; 0; 0 ] (counters traced)

(* ---------------- footprint ---------------- *)

let test_two_timers_whatever_the_sessions () =
  (* Liveness runs on two network timers, a keepalive-and-hold tick and a
     reconnect sweep: enabling it on the expansion fabric's 42 sessions
     queues two events, not one loop per session. *)
  let x = Topology.Clos.expansion () in
  let g = x.Topology.Clos.xgraph in
  check_int "sessions" 42
    (List.fold_left
       (fun n (l : Topology.Graph.link) -> n + l.Topology.Graph.sessions)
       0 (Topology.Graph.links g));
  let net = Bgp.Network.create ~seed:42 g in
  Bgp.Network.originate net x.Topology.Clos.backbone Prefix.default_v4
    (Attr.make ());
  ignore (Bgp.Network.converge net);
  let queue = Bgp.Network.queue net in
  let before = Dsim.Event_queue.pending queue in
  Bgp.Network.enable_liveness ~until:(Bgp.Network.now net +. 0.05) net;
  check_int "events queued by enable_liveness" 2
    (Dsim.Event_queue.pending queue - before)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "liveness"
    [
      ( "hold-timer",
        [
          quick "expiry tears down session" test_hold_expiry_tears_down_session;
          quick "deterministic" test_hold_expiry_deterministic;
        ] );
      ("graceful-restart", [ quick "stale-path sweep" test_stale_path_sweep ]);
      ( "blinded-session",
        [
          quick "detected without timers"
            test_blinded_session_detected_without_timers;
        ] );
      ( "connection",
        [
          quick "in-flight dies with session"
            test_inflight_message_dies_with_connection;
        ] );
      ( "chaos",
        [
          quick "gr strictly reduces blackhole-seconds"
            test_chaos_gr_strictly_reduces_blackhole_seconds;
          quick "bit-reproducible" test_chaos_bit_reproducible;
        ] );
      ( "event-log",
        [
          quick "messages counted, not stored"
            test_messages_counted_not_stored;
        ] );
      ( "footprint",
        [
          quick "two timers, whatever the sessions"
            test_two_timers_whatever_the_sessions;
        ] );
    ]
