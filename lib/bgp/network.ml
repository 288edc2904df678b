(* Observability instruments (shared registry; no-ops until enabled). *)
let m_messages_sent = Obs.Metrics.counter "bgp.messages.sent"
let m_messages_dropped = Obs.Metrics.counter "bgp.messages.dropped"
let m_fib_changes = Obs.Metrics.counter "bgp.fib.changes"
let m_restarts = Obs.Metrics.counter "bgp.speaker.restarts"
let m_converge_events = Obs.Metrics.counter "bgp.converge.events"
let m_keepalives = Obs.Metrics.counter "bgp.keepalives.sent"
let m_hold_expiries = Obs.Metrics.counter "bgp.session.hold_expiries"
let m_reconnects = Obs.Metrics.counter "bgp.session.reconnects"

type latency_model = Dsim.Rng.t -> float

module Tbl = Net.Int_table
module Triple = Net.Int_table.Triple

(* A session channel's last scheduled delivery time (an all-float record,
   so updating it allocates nothing). *)
type channel = { mutable last : float }

let default_latency rng = 0.0001 +. Dsim.Rng.exponential rng ~mean:0.001

type t = {
  id : int;  (* unique per network, so a stamp names the network it read *)
  mutable generation : int;  (* bumped by every change to speaker state *)
  topo : Topology.Graph.t;
  event_queue : Dsim.Event_queue.t;
  rng : Dsim.Rng.t;
  latency : latency_model;
  (* Keyed by device id. The folds over it sort or are order-free. *)
  speakers : Speaker.t Tbl.t;
  (* what a speaker's env reports for a device's layer, built once *)
  peer_layer : int -> Topology.Node.layer option;
  (* (src, dst, session) -> last scheduled delivery time, for FIFO order *)
  channels : channel Triple.t;
  (* (min end, max end, session) -> incarnation of the underlying transport
     connection. A session going down at either end kills the connection,
     and with it every message still in flight — in both directions. *)
  epochs : int Triple.t;
  trace_log : Trace.t;
  mutable fault : Dsim.Fault.t option;
  (* Session liveness (keepalive/hold/reconnect timers), opt-in via
     [enable_liveness]. [None] preserves the legacy behaviour exactly:
     sessions have no liveness detection and silent transport loss goes
     unnoticed. *)
  mutable liveness : Liveness.config option;
  mutable liveness_until : float;
  (* (device, peer, session) -> last time the device heard anything —
     keepalive or routing message — from the peer over the session. *)
  last_heard : float Triple.t;
}

(* What a judge of the network's state reads: the speakers (through the
   chokepoints that bump [generation]), the graph (its own version counter)
   and the clock ([Route_attribute.expired] reads it). *)
type stamp = { network : int; changes : int; topology : int; clock : float }

let graph t = t.topo
let queue t = t.event_queue
let trace t = t.trace_log
let now t = Dsim.Event_queue.now t.event_queue

let stamp t =
  {
    network = t.id;
    changes = t.generation;
    topology = Topology.Graph.version t.topo;
    clock = now t;
  }

let stamp_equal a b =
  Int.equal a.network b.network
  && Int.equal a.changes b.changes
  && Int.equal a.topology b.topology
  && Float.equal a.clock b.clock

let changed t = t.generation <- t.generation + 1

let speaker t device =
  match Tbl.find_opt t.speakers device with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Network.speaker: unknown device %d" device)

let env t : Speaker.env =
  { Speaker.now = now t; peer_layer = t.peer_layer; log = t.trace_log }

let networks_created = ref 0

let create ?(seed = 42) ?(wcmp = false) ?(latency = default_latency) topo =
  incr networks_created;
  let t =
    {
      id = !networks_created;
      generation = 0;
      topo;
      event_queue = Dsim.Event_queue.create ();
      rng = Dsim.Rng.create seed;
      latency;
      speakers = Tbl.create 64;
      peer_layer =
        (fun peer ->
          Option.map
            (fun n -> n.Topology.Node.layer)
            (Topology.Graph.node_opt topo peer));
      channels = Triple.create 256;
      epochs = Triple.create 256;
      trace_log = Trace.create ();
      fault = None;
      liveness = None;
      liveness_until = 0.0;
      last_heard = Triple.create 256;
    }
  in
  List.iter
    (fun node ->
      Tbl.replace t.speakers node.Topology.Node.id
        (Speaker.create ~wcmp node))
    (Topology.Graph.nodes topo);
  List.iter
    (fun (link : Topology.Graph.link) ->
      let sa = speaker t link.a and sb = speaker t link.b in
      Speaker.add_peer sa ~peer:link.b ~sessions:link.sessions;
      Speaker.add_peer sb ~peer:link.a ~sessions:link.sessions)
    (Topology.Graph.links topo);
  (* Spans recorded while this network runs are stamped with its virtual
     clock (a no-op unless a span recorder is installed). *)
  Obs.Span.set_sim_clock (fun () -> Dsim.Event_queue.now t.event_queue);
  (* The current cause must not leak across queue events: a hold-timer
     firing right after a delivery is not caused by that delivery. *)
  Dsim.Event_queue.set_on_step t.event_queue
    (Some (fun () -> Trace.set_cause t.trace_log (-1)));
  t

(* ---------------- FIB changes ---------------- *)

(* The network reports what its own acts change: an act starts by dropping
   whatever the speaker recorded since its last report (a caller driving
   the speaker directly), and ends by logging what the speaker reports. *)
let begin_act sp = ignore (Speaker.take_fib_changes sp)

let log_fib_changes t device sp =
  match Speaker.take_fib_changes sp with
  | [] -> ()
  | changes ->
    let time = now t in
    List.iter
      (fun (prefix, state) ->
        Obs.Metrics.incr m_fib_changes;
        Trace.fib_change t.trace_log ~time ~device prefix state)
      changes

(* ---------------- Message dispatch ---------------- *)

let channel t key =
  match Triple.find_opt t.channels key with
  | Some c -> c
  | None ->
    let c = { last = 0.0 } in
    Triple.replace t.channels key c;
    c

let session_alive t src dst =
  match Topology.Graph.find_link t.topo src dst with
  | Some link -> link.Topology.Graph.up
  | None -> false

(* The transport connection is shared by both directions of a session. *)
let conn_key a b session = if a < b then (a, b, session) else (b, a, session)

let connection_epoch t a b session =
  Option.value (Triple.find_opt t.epochs (conn_key a b session)) ~default:0

(* Invalidates every message currently in flight on the session, both
   directions: the TCP connection died with the session. A delayed message
   dispatched into the old connection must not be delivered into a
   re-established one — it would resurrect state the sender has since
   withdrawn, with no correction ever coming. *)
let close_connection t a b session =
  Triple.replace t.epochs (conn_key a b session)
    (connection_epoch t a b session + 1)

let rec send_one t src (dst, session, msg) =
  Obs.Metrics.incr m_messages_sent;
  (* The base latency is drawn before consulting the fault model so the
     latency stream is identical with and without faults installed — only
     the fault model's own RNG differs between the two runs. *)
  let delay = t.latency t.rng in
  let fate =
    match t.fault with
    | None -> Dsim.Fault.pass
    | Some f -> Dsim.Fault.fate f
  in
  if fate.Dsim.Fault.dropped then begin
    Obs.Metrics.incr m_messages_dropped;
    Trace.dropped t.trace_log ~time:(now t) ~src ~dst ~session msg
  end
  else begin
    let arrival = now t +. delay +. fate.Dsim.Fault.extra_delay in
    let chan = channel t (src, dst, session) in
    let delivery =
      if fate.Dsim.Fault.reorder then
        (* Allowed to overtake earlier in-flight messages. *)
        arrival
      else Float.max arrival (chan.last +. 1e-9) (* FIFO within a session *)
    in
    chan.last <- Float.max chan.last delivery;
    let send =
      Trace.sent t.trace_log ~time:(now t) ~src ~dst ~session msg ~prop:delay
        ~queue:(delivery -. arrival) ~fault:fate.Dsim.Fault.extra_delay
    in
    let epoch = connection_epoch t src dst session in
    Dsim.Event_queue.schedule_at t.event_queue ~time:delivery (fun () ->
        (* Lost with its connection if the session dropped in between —
           even if it has since been re-established. *)
        if connection_epoch t src dst session = epoch then
          deliver t ~src ~dst ~session ~send msg
        else
          Trace.lost t.trace_log ~time:(now t) ~src ~dst ~session msg ~send
            ~reason:"conn-closed")
  end

and dispatch t src (outbox : Speaker.outbox) =
  List.iter (send_one t src) outbox

and deliver t ~src ~dst ~session ~send msg =
  let lost reason =
    Trace.lost t.trace_log ~time:(now t) ~src ~dst ~session msg ~send ~reason
  in
  (* A message in flight when the session goes down is lost. *)
  if session_alive t src dst then begin
    let sp = speaker t dst in
    if Speaker.session_up sp ~peer:src ~session then begin
      (* Anything heard from the peer proves the transport alive. *)
      if t.liveness <> None then
        Triple.replace t.last_heard (dst, src, session) (now t);
      match msg with
      | Msg.Keepalive -> () (* liveness proof only; no RIB work *)
      | Msg.Update _ | Msg.Withdraw _ | Msg.Eor ->
        Trace.delivered t.trace_log ~time:(now t) ~src ~dst ~session msg
          ~send;
        changed t;
        begin_act sp;
        let outbox = Speaker.receive sp (env t) ~peer:src ~session msg in
        log_fib_changes t dst sp;
        dispatch t dst outbox
    end
    else lost "session-down"
  end
  else lost "link-down"

(* Runs [f] on the speaker, records FIB changes, dispatches messages. *)
let transition t device f =
  changed t;
  let sp = speaker t device in
  begin_act sp;
  let outbox = f sp (env t) in
  log_fib_changes t device sp;
  dispatch t device outbox

let schedule ?(delay = 0.0) t f =
  Dsim.Event_queue.schedule t.event_queue ~delay f

let set_eval_mode t mode =
  changed t;
  Tbl.iter (fun _ sp -> Speaker.set_eval_mode sp mode) t.speakers

(* ---------------- Session liveness ---------------- *)

let liveness t = t.liveness

let heard t device ~peer ~session =
  Triple.replace t.last_heard (device, peer, session) (now t)

(* Takes the session down at [device] with graceful-restart semantics when
   enabled (routes marked stale, sweep bounded by the stale-path timer)
   and a hard flush otherwise. *)
let session_loss t device ~peer ~session ~reason ~parent =
  close_connection t device peer session;
  (* The session act parents the context that caused the loss (restart,
     bounce; a hold expiry is a root) and becomes the cause of the flush /
     stale marks — and, under GR, of the sweep its timer fires later. Only
     liveness logs it as a trace event. *)
  let sev =
    Trace.session t.trace_log ~logged:(Option.is_some t.liveness)
      ~time:(now t) ~device ~peer ~session ~parent reason
  in
  (match t.liveness with
   | Some c when c.Liveness.graceful_restart ->
     let marked_at = now t in
     transition t device (fun sp env ->
         Speaker.set_session ~stale:true sp env ~peer ~session ~up:false);
     (* Stale-path timer: bound retention of exactly the marks made now —
        routes re-marked by a later loss get their own timer. *)
     Dsim.Event_queue.schedule t.event_queue
       ~delay:c.Liveness.stale_path_time (fun () ->
         let sp = speaker t device in
         let pending =
           List.exists
             (fun (_, p, s, m) -> p = peer && s = session && m <= marked_at)
             (Speaker.stale_routes sp)
         in
         if pending then begin
           Trace.sweep t.trace_log ~time:(now t) ~device ~peer ~session
             ~parent:sev "stale-swept";
           transition t device (fun sp env ->
               Speaker.sweep_stale sp env ~peer ~session ~before:marked_at)
         end)
   | Some _ | None ->
     transition t device (fun sp env ->
         Speaker.set_session sp env ~peer ~session ~up:false))

(* Re-establishes one session from scratch on both ends: any end still up is
   bounced down first (marking stale under graceful restart) so that both
   directions replay the full-table resend (+ End-of-RIB under GR). A
   one-sided re-up would leave the fresh end believing its Adj-RIB-Out is
   current while the other end holds nothing. *)
let bounce_session t a b session =
  Obs.Metrics.incr m_reconnects;
  (* A root: bounces come from timers or heal actions, not from route
     propagation. It parents each per-end step, so sibling steps don't
     chain to each other. *)
  let bev =
    Trace.session t.trace_log ~logged:true ~time:(now t) ~device:a ~peer:b
      ~session ~parent:(-1) "reconnected"
  in
  List.iter
    (fun (d, p) ->
      if Speaker.session_up (speaker t d) ~peer:p ~session then
        session_loss t d ~peer:p ~session ~reason:"bounced" ~parent:bev)
    [ (a, b); (b, a) ];
  List.iter
    (fun (d, p) ->
      Trace.set_cause t.trace_log bev;
      transition t d (fun sp env -> Speaker.set_session sp env ~peer:p ~session ~up:true);
      if t.liveness <> None then heard t d ~peer:p ~session)
    [ (a, b); (b, a) ]

(* Runs [f a b session] for every session over an up link, in
   [Topology.Graph.links] order. *)
let iter_live_sessions t f =
  List.iter
    (fun (link : Topology.Graph.link) ->
      if link.Topology.Graph.up then
        for session = 0 to link.Topology.Graph.sessions - 1 do
          f link.a link.b session
        done)
    (Topology.Graph.links t.topo)

let reconnect t ~all =
  iter_live_sessions t (fun a b session ->
      let a_up = Speaker.session_up (speaker t a) ~peer:b ~session
      and b_up = Speaker.session_up (speaker t b) ~peer:a ~session in
      (* [all] also bounces sessions that are nominally up: a session
         blinded by message loss (divergent RIBs, hold timer never fired)
         can only be repaired by a full resync. *)
      if all || not (a_up && b_up) then bounce_session t a b session)

let reestablish_sessions ?(all = false) t =
  schedule t (fun () -> reconnect t ~all)

let enable_liveness ?(config = Liveness.default) ~until t =
  changed t;
  t.liveness <- Some config;
  t.liveness_until <- until;
  if config.Liveness.graceful_restart then
    Tbl.iter (fun _ sp -> Speaker.set_graceful_restart sp true) t.speakers;
  let start = now t in
  (* Everyone has just been heard: the hold clock starts now. *)
  List.iter
    (fun (link : Topology.Graph.link) ->
      for session = 0 to link.Topology.Graph.sessions - 1 do
        Triple.replace t.last_heard (link.a, link.b, session) start;
        Triple.replace t.last_heard (link.b, link.a, session) start
      done)
    (Topology.Graph.links t.topo);
  (* Keepalives are ordinary messages: they share the session's FIFO channel
     and are subject to the installed fault model, which is precisely what
     lets hold timers detect silent transport loss. *)
  let keepalive src dst session =
    if Speaker.session_up (speaker t src) ~peer:dst ~session then begin
      Obs.Metrics.incr m_keepalives;
      dispatch t src [ (dst, session, Msg.Keepalive) ]
    end
  in
  let hold_check device peer session =
    if Speaker.session_up (speaker t device) ~peer ~session then
      let last =
        Option.value
          (Triple.find_opt t.last_heard (device, peer, session))
          ~default:start
      in
      if now t -. last > config.Liveness.hold_time then begin
        Obs.Metrics.incr m_hold_expiries;
        session_loss t device ~peer ~session ~reason:"hold-expired"
          ~parent:(-1)
      end
  in
  (* A network timer: one queued event that runs [f], then reschedules
     itself one [interval] later, until [liveness_until]. Nothing [f]
     schedules lands on its own instant (messages have positive latency),
     so when both timers fall on one instant the one queued earlier runs
     first. *)
  let every interval f =
    let rec at time =
      if time <= t.liveness_until then
        Dsim.Event_queue.schedule_at t.event_queue ~time (fun () ->
            f ();
            at (now t +. interval))
    in
    at (start +. interval)
  in
  every config.Liveness.keepalive_interval (fun () ->
      iter_live_sessions t (fun a b session ->
          keepalive a b session;
          keepalive b a session;
          hold_check a b session;
          hold_check b a session));
  every config.Liveness.reconnect_interval (fun () -> reconnect t ~all:false)

(* ---------------- Scheduled operations ---------------- *)

let originate ?delay t device prefix attr =
  schedule ?delay t (fun () ->
      Trace.originated t.trace_log ~time:(now t) ~device prefix ~withdraw:false;
      transition t device (fun sp env -> Speaker.originate sp env prefix attr))

let withdraw_origin ?delay t device prefix =
  schedule ?delay t (fun () ->
      Trace.originated t.trace_log ~time:(now t) ~device prefix ~withdraw:true;
      transition t device (fun sp env -> Speaker.withdraw_origin sp env prefix))

let set_link ?delay t a b ~up =
  schedule ?delay t (fun () ->
      match Topology.Graph.find_link t.topo a b with
      | None -> invalid_arg (Printf.sprintf "Network.set_link: no link %d-%d" a b)
      | Some link ->
        if link.Topology.Graph.up <> up then begin
          Trace.configured t.trace_log ~time:(now t) ~device:a ~peer:b
            (if up then "link-up" else "link-down");
          Topology.Graph.set_link_up t.topo a b up;
          for session = 0 to link.Topology.Graph.sessions - 1 do
            if not up then close_connection t a b session;
            transition t a (fun sp env ->
                Speaker.set_session sp env ~peer:b ~session ~up);
            transition t b (fun sp env ->
                Speaker.set_session sp env ~peer:a ~session ~up);
            if up && t.liveness <> None then begin
              heard t a ~peer:b ~session;
              heard t b ~peer:a ~session
            end
          done
        end)

let configured t device peer note =
  Trace.configured t.trace_log ~time:(now t) ~device ~peer note

let set_hooks t device hooks =
  schedule t (fun () ->
      configured t device (-1) "set-hooks";
      transition t device (fun sp env -> Speaker.set_hooks sp env hooks))

let set_egress_policy_all ?delay t device policy =
  schedule ?delay t (fun () ->
      configured t device (-1) "egress-policy";
      transition t device (fun sp env ->
          Speaker.set_egress_policy_all sp env policy))

let set_ingress_policy t ~node ~peer policy =
  schedule t (fun () ->
      configured t node peer "ingress-policy";
      transition t node (fun sp env ->
          Speaker.set_ingress_policy sp env ~peer policy))

let drain_device ?delay t device = set_egress_policy_all ?delay t device Policy.drain

let undrain_device ?delay t device =
  set_egress_policy_all ?delay t device Policy.empty

(* ---------------- Fault injection ---------------- *)

let set_fault t fault = t.fault <- fault
let fault t = t.fault

let restart_device ?(delay = 0.0) t device ~recovery =
  schedule ~delay t (fun () ->
      let sp = speaker t device in
      begin_act sp;
      (* The crash itself: no goodbye messages, state just vanishes.
         In-flight messages addressed to the device are discarded on
         arrival because its sessions are marked down. *)
      Speaker.reset sp;
      changed t;
      Obs.Metrics.incr m_restarts;
      (* A causal root: everything that follows — peer session losses,
         stale marks and sweeps, the eventual recovery resync — parents to
         it. *)
      let rev = Trace.restarted t.trace_log ~time:(now t) ~device in
      log_fib_changes t device sp;
      let incident = Topology.Graph.all_neighbors t.topo device in
      (* Peers detect the dead sessions (holdtime expiry, modeled as
         immediate). Legacy: they flush routes learned from the device.
         Graceful restart: they mark them stale and keep forwarding,
         bounded by the stale-path timer (inside [session_loss]). *)
      List.iter
        (fun ((peer : Topology.Node.t), (link : Topology.Graph.link)) ->
          for session = 0 to link.Topology.Graph.sessions - 1 do
            session_loss t peer.Topology.Node.id ~peer:device ~session
              ~reason:"peer-restarted" ~parent:rev
          done)
        incident;
      (* Restarting-speaker side: FIB entries preserved by [Speaker.reset]
         (graceful restart) that are never re-learned expire on the same
         stale-path bound. *)
      (match t.liveness with
       | Some c when c.Liveness.graceful_restart ->
         Dsim.Event_queue.schedule t.event_queue
           ~delay:c.Liveness.stale_path_time (fun () ->
             let sp = speaker t device in
             if Speaker.fib_stale_prefixes sp <> [] then begin
               Trace.sweep t.trace_log ~time:(now t) ~device ~peer:device
                 ~session:(-1) ~parent:rev "fib-stale-swept";
               transition t device Speaker.sweep_own_stale
             end)
       | Some _ | None -> ());
      (* Recovery: re-establish every session whose link is up, both ends,
         which triggers a full-table resend from the peers and
         re-origination by the restarted device (followed by End-of-RIB
         markers under graceful restart, sweeping surviving stale marks). *)
      Dsim.Event_queue.schedule t.event_queue ~delay:recovery (fun () ->
          (* The recovery resync (full-table resends, re-origination, EoR
             markers) chains to the restart through this act. *)
          let recov =
            Trace.session t.trace_log ~logged:false ~time:(now t) ~device
              ~peer:(-1) ~session:(-1) ~parent:rev "recovered"
          in
          List.iter
            (fun ((peer : Topology.Node.t), (link : Topology.Graph.link)) ->
              if link.Topology.Graph.up then
                for session = 0 to link.Topology.Graph.sessions - 1 do
                  Trace.set_cause t.trace_log recov;
                  transition t device (fun sp env ->
                      Speaker.set_session sp env ~peer:peer.Topology.Node.id
                        ~session ~up:true);
                  Trace.set_cause t.trace_log recov;
                  transition t peer.Topology.Node.id (fun sp env ->
                      Speaker.set_session sp env ~peer:device ~session ~up:true);
                  if t.liveness <> None then begin
                    heard t device ~peer:peer.Topology.Node.id ~session;
                    heard t peer.Topology.Node.id ~peer:device ~session
                  end
                done)
            incident))

let apply_schedule t (sched : Dsim.Fault.schedule) =
  Obs.Span.with_span "fault.apply_schedule"
    ~attrs:(fun () -> [ ("actions", string_of_int (List.length sched)) ])
  @@ fun () ->
  List.iter
    (function
      | Dsim.Fault.Flap_link { a; b; at; duration } ->
        set_link ~delay:at t a b ~up:false;
        set_link ~delay:(at +. duration) t a b ~up:true
      | Dsim.Fault.Restart_speaker { device; at; recovery } ->
        restart_device ~delay:at t device ~recovery)
    sched

(* ---------------- Running ---------------- *)

let converge ?(max_events = 2_000_000) t =
  Obs.Span.with_span "network.converge" @@ fun () ->
  let executed = Dsim.Event_queue.run ~max_events t.event_queue in
  Obs.Metrics.incr ~by:executed m_converge_events;
  if not (Dsim.Event_queue.is_empty t.event_queue) then
    failwith
      (Printf.sprintf
         "Network.converge: %d events executed without quiescence (persistent \
          oscillation?)"
         executed);
  executed

let run_until t ~time = Dsim.Event_queue.run_until t.event_queue ~time

(* ---------------- Inspection ---------------- *)

let fib t device prefix = Speaker.fib_lookup (speaker t device) prefix

let fib_snapshot t prefix =
  Tbl.fold
    (fun device sp acc ->
      match Speaker.fib_lookup sp prefix with
      | Some state -> (device, state) :: acc
      | None -> acc)
    t.speakers []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The union is order-free; the list is sorted by prefix, never by id. *)
let known_pids t =
  let set = Tbl.create 64 in
  Tbl.iter
    (fun _ sp -> Speaker.iter_known (fun p -> Tbl.replace set p ()) sp)
    t.speakers;
  Tbl.fold (fun p () acc -> p :: acc) set []
  |> List.sort (fun a b ->
         Net.Prefix.compare (Net.Intern.Prefix_id.value a)
           (Net.Intern.Prefix_id.value b))

let known_prefixes t = List.map Net.Intern.Prefix_id.value (known_pids t)

(* Next hops and weights are plain ints, so Marshal is
   representation-stable. *)
let fib_digest t =
  let snapshot = List.map (fun p -> (p, fib_snapshot t p)) (known_prefixes t) in
  Digest.to_hex (Digest.string (Marshal.to_string snapshot []))
