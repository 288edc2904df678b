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

let default_latency rng = 0.0001 +. Dsim.Rng.exponential rng ~mean:0.001

(* Causal-trace helpers. Keepalives prove liveness but never carry routes,
   so they are not causally recorded (hold expiry shows up as its own
   Session root event instead). *)
let causal_msg = function
  | Msg.Keepalive -> false
  | Msg.Update _ | Msg.Withdraw _ | Msg.Eor -> true

let msg_pid msg =
  match Msg.prefix msg with
  | Some p -> Net.Intern.Prefix_id.id p
  | None -> -1

type t = {
  id : int;  (* unique per network, so a stamp names the network it read *)
  mutable generation : int;  (* bumped by every change to speaker state *)
  topo : Topology.Graph.t;
  event_queue : Dsim.Event_queue.t;
  rng : Dsim.Rng.t;
  latency : latency_model;
  speakers : (int, Speaker.t) Hashtbl.t;
  (* (src, dst, session) -> last scheduled delivery time, for FIFO order *)
  channels : (int * int * int, float ref) Hashtbl.t;
  (* (min end, max end, session) -> incarnation of the underlying transport
     connection. A session going down at either end kills the connection,
     and with it every message still in flight — in both directions. *)
  epochs : (int * int * int, int) Hashtbl.t;
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
  last_heard : (int * int * int, float) Hashtbl.t;
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
  match Hashtbl.find_opt t.speakers device with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Network.speaker: unknown device %d" device)

let env t : Speaker.env =
  {
    Speaker.now = now t;
    peer_layer =
      (fun peer ->
        Option.map
          (fun n -> n.Topology.Node.layer)
          (Topology.Graph.node_opt t.topo peer));
  }

let networks_created = ref 0

let create ?(seed = 42) ?(config = Speaker.default_config)
    ?(latency = default_latency) topo =
  incr networks_created;
  let t =
    {
      id = !networks_created;
      generation = 0;
      topo;
      event_queue = Dsim.Event_queue.create ();
      rng = Dsim.Rng.create seed;
      latency;
      speakers = Hashtbl.create 64;
      channels = Hashtbl.create 256;
      epochs = Hashtbl.create 256;
      trace_log = Trace.create ();
      fault = None;
      liveness = None;
      liveness_until = 0.0;
      last_heard = Hashtbl.create 256;
    }
  in
  List.iter
    (fun node ->
      Hashtbl.replace t.speakers node.Topology.Node.id
        (Speaker.create ~config node))
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
  (* The causal cursor must not leak across queue events: a hold-timer
     firing right after a delivery is not caused by that delivery. The
     hook is one option match per event when tracing is off. *)
  Dsim.Event_queue.set_on_step t.event_queue (Some Obs.Causal.new_turn);
  t

(* ---------------- FIB tracking ---------------- *)

let fib_assoc speaker = Speaker.fib speaker

let record_fib_diff t device before after =
  let time = now t in
  let find prefix l =
    Option.map snd (List.find_opt (fun (p, _) -> Net.Prefix.equal p prefix) l)
  in
  let change prefix state =
    Obs.Metrics.incr m_fib_changes;
    if Obs.Causal.on () then
      ignore
        (Obs.Causal.fib ~time ~device
           ~prefix:(Net.Intern.Prefix_id.id prefix)
           ~note:(match state with None -> "remove" | Some _ -> "install"));
    Trace.record t.trace_log (Trace.Fib_change { time; device; prefix; state })
  in
  (* Removed or changed entries. Typed comparison: polymorphic [<>] on
     attribute-bearing state would walk (or miscompare) interned values. *)
  List.iter
    (fun (prefix, state_before) ->
      match find prefix after with
      | None -> change prefix None
      | Some state_after ->
        if not (Speaker.fib_state_equal state_after state_before) then
          change prefix (Some state_after))
    before;
  (* New entries. *)
  List.iter
    (fun (prefix, state_after) ->
      if Option.is_none (find prefix before) then change prefix (Some state_after))
    after

(* ---------------- Message dispatch ---------------- *)

let channel t key =
  match Hashtbl.find_opt t.channels key with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.replace t.channels key r;
    r

let session_alive t src dst =
  match Topology.Graph.find_link t.topo src dst with
  | Some link -> link.Topology.Graph.up
  | None -> false

(* The transport connection is shared by both directions of a session. *)
let conn_key a b session = if a < b then (a, b, session) else (b, a, session)

let connection_epoch t a b session =
  Option.value (Hashtbl.find_opt t.epochs (conn_key a b session)) ~default:0

(* Invalidates every message currently in flight on the session, both
   directions: the TCP connection died with the session. A delayed message
   dispatched into the old connection must not be delivered into a
   re-established one — it would resurrect state the sender has since
   withdrawn, with no correction ever coming. *)
let close_connection t a b session =
  Hashtbl.replace t.epochs (conn_key a b session)
    (connection_epoch t a b session + 1)

let rec send_one t src (dst, session, msg) =
  Obs.Metrics.incr m_messages_sent;
      Trace.record t.trace_log
        (Trace.Message_sent { time = now t; src; dst; session; msg });
      (* The base latency is drawn before consulting the fault model so the
         latency stream is identical with and without faults installed —
         only the fault model's own RNG differs between the two runs. *)
      let delay = t.latency t.rng in
      let fate =
        match t.fault with
        | None -> Dsim.Fault.pass
        | Some f -> Dsim.Fault.fate f
      in
      let parent_hint = Obs.Causal.cause () in
      if fate.Dsim.Fault.dropped then begin
        Obs.Metrics.incr m_messages_dropped;
        (if Obs.Causal.on () && causal_msg msg then
           ignore
             (Obs.Causal.drop_at_send ~time:(now t) ~src ~dst ~session
                ~prefix:(msg_pid msg) ~note:(Msg.kind_label msg) ~parent_hint));
        Trace.record t.trace_log
          (Trace.Message_dropped { time = now t; src; dst; session; msg })
      end
      else begin
        let arrival = now t +. delay +. fate.Dsim.Fault.extra_delay in
        let chan = channel t (src, dst, session) in
        let delivery =
          if fate.Dsim.Fault.reorder then
            (* Allowed to overtake earlier in-flight messages. *)
            arrival
          else Float.max arrival (!chan +. 1e-9) (* FIFO within a session *)
        in
        chan := Float.max !chan delivery;
        let cid =
          if Obs.Causal.on () && causal_msg msg then
            Obs.Causal.send ~time:(now t) ~src ~dst ~session
              ~prefix:(msg_pid msg) ~note:(Msg.kind_label msg) ~parent_hint
              ~d_prop:delay ~d_fault:fate.Dsim.Fault.extra_delay
              ~d_queue:(delivery -. arrival)
          else -1
        in
        let epoch = connection_epoch t src dst session in
        Dsim.Event_queue.schedule_at t.event_queue ~time:delivery (fun () ->
            (* Lost with its connection if the session dropped in between —
               even if it has since been re-established. *)
            if connection_epoch t src dst session = epoch then
              deliver t ~src ~dst ~session ~cause:cid msg
            else if cid >= 0 then
              ignore
                (Obs.Causal.drop_in_flight ~time:(now t) ~device:dst ~peer:src
                   ~session ~prefix:(msg_pid msg) ~note:"conn-closed"
                   ~parent:cid))
      end

and dispatch t src (outbox : Speaker.outbox) =
  List.iter (send_one t src) outbox

and deliver t ~src ~dst ~session ~cause msg =
  let causal_drop note =
    if Obs.Causal.on () && causal_msg msg then
      ignore
        (Obs.Causal.drop_in_flight ~time:(now t) ~device:dst ~peer:src
           ~session ~prefix:(msg_pid msg) ~note ~parent:cause)
  in
  (* A message in flight when the session goes down is lost. *)
  if session_alive t src dst then begin
    let sp = speaker t dst in
    if Speaker.session_up sp ~peer:src ~session then begin
      (* Anything heard from the peer proves the transport alive. *)
      if t.liveness <> None then
        Hashtbl.replace t.last_heard (dst, src, session) (now t);
      match msg with
      | Msg.Keepalive -> () (* liveness proof only; no RIB work *)
      | Msg.Update _ | Msg.Withdraw _ | Msg.Eor ->
        (if Obs.Causal.on () then
           ignore
             (Obs.Causal.recv ~time:(now t) ~device:dst ~peer:src ~session
                ~prefix:(msg_pid msg) ~note:(Msg.kind_label msg) ~parent:cause));
        changed t;
        let before = fib_assoc sp in
        let outbox = Speaker.receive sp (env t) ~peer:src ~session msg in
        record_fib_diff t dst before (fib_assoc sp);
        dispatch t dst outbox
    end
    else causal_drop "session-down"
  end
  else causal_drop "link-down"

(* Runs [f] on the speaker, records FIB changes, dispatches messages. *)
let transition t device f =
  changed t;
  let sp = speaker t device in
  let before = fib_assoc sp in
  let outbox = f sp (env t) in
  record_fib_diff t device before (fib_assoc sp);
  dispatch t device outbox

let schedule ?(delay = 0.0) t f =
  Dsim.Event_queue.schedule t.event_queue ~delay f

let set_eval_mode t mode =
  changed t;
  Hashtbl.iter (fun _ sp -> Speaker.set_eval_mode sp mode) t.speakers

(* ---------------- Session liveness ---------------- *)

let liveness t = t.liveness

let heard t device ~peer ~session =
  Hashtbl.replace t.last_heard (device, peer, session) (now t)

let record_session_event t device ~peer ~session event =
  Trace.record t.trace_log
    (Trace.Session_event { time = now t; device; peer; session; event })

(* Takes the session down at [device] with graceful-restart semantics when
   enabled (routes marked stale, sweep bounded by the stale-path timer)
   and a hard flush otherwise. *)
let session_loss t device ~peer ~session ~reason =
  close_connection t device peer session;
  (* The Session event parents whatever context caused the loss (restart,
     bounce, hold expiry = root) and becomes the cause of the flush /
     stale marks — and, under GR, of the sweep its timer fires later. *)
  let sev =
    if Obs.Causal.on () then
      Obs.Causal.session_event ~time:(now t) ~device ~peer ~session
        ~note:reason ~parent:(Obs.Causal.cause ())
    else -1
  in
  (match t.liveness with
   | Some c when c.Liveness.graceful_restart ->
     record_session_event t device ~peer ~session reason;
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
           record_session_event t device ~peer ~session "stale-swept";
           (if Obs.Causal.on () then
              ignore
                (Obs.Causal.sweep ~time:(now t) ~device ~peer ~session
                   ~note:"stale-swept" ~parent:sev));
           transition t device (fun sp env ->
               Speaker.sweep_stale sp env ~peer ~session ~before:marked_at)
         end)
   | Some _ ->
     record_session_event t device ~peer ~session reason;
     transition t device (fun sp env ->
         Speaker.set_session sp env ~peer ~session ~up:false)
   | None ->
     transition t device (fun sp env ->
         Speaker.set_session sp env ~peer ~session ~up:false))

(* Re-establishes one session from scratch on both ends: any end still up is
   bounced down first (marking stale under graceful restart) so that both
   directions replay the full-table resend (+ End-of-RIB under GR). A
   one-sided re-up would leave the fresh end believing its Adj-RIB-Out is
   current while the other end holds nothing. *)
let bounce_session t a b session =
  Obs.Metrics.incr m_reconnects;
  record_session_event t a ~peer:b ~session "reconnected";
  (* A root event: bounces come from timers or heal actions, not from
     route propagation. Re-set as the cause before each per-end step so
     sibling session_loss calls don't chain to each other. *)
  let bev =
    if Obs.Causal.on () then
      Obs.Causal.session_event ~time:(now t) ~device:a ~peer:b ~session
        ~note:"reconnected" ~parent:(-1)
    else -1
  in
  List.iter
    (fun (d, p) ->
      if Speaker.session_up (speaker t d) ~peer:p ~session then begin
        Obs.Causal.set_cause bev;
        session_loss t d ~peer:p ~session ~reason:"bounced"
      end)
    [ (a, b); (b, a) ];
  List.iter
    (fun (d, p) ->
      Obs.Causal.set_cause bev;
      transition t d (fun sp env -> Speaker.set_session sp env ~peer:p ~session ~up:true);
      if t.liveness <> None then heard t d ~peer:p ~session)
    [ (a, b); (b, a) ]

let reestablish_sessions ?(all = false) ?delay t =
  schedule ?delay t (fun () ->
      List.iter
        (fun (link : Topology.Graph.link) ->
          if link.Topology.Graph.up then
            for session = 0 to link.Topology.Graph.sessions - 1 do
              let a_up =
                Speaker.session_up (speaker t link.a) ~peer:link.b ~session
              and b_up =
                Speaker.session_up (speaker t link.b) ~peer:link.a ~session
              in
              (* [all] also bounces sessions that are nominally up: a session
                 blinded by message loss (divergent RIBs, hold timer never
                 fired) can only be repaired by a full resync. *)
              if all || not (a_up && b_up) then
                bounce_session t link.a link.b session
            done)
        (Topology.Graph.links t.topo))

let enable_liveness ?(config = Liveness.default) ~until t =
  changed t;
  t.liveness <- Some config;
  t.liveness_until <- until;
  if config.Liveness.graceful_restart then
    Hashtbl.iter (fun _ sp -> Speaker.set_graceful_restart sp true) t.speakers;
  let start = now t in
  let links = Topology.Graph.links t.topo in
  (* Everyone has just been heard: the hold clock starts now. *)
  List.iter
    (fun (link : Topology.Graph.link) ->
      for session = 0 to link.Topology.Graph.sessions - 1 do
        Hashtbl.replace t.last_heard (link.a, link.b, session) start;
        Hashtbl.replace t.last_heard (link.b, link.a, session) start
      done)
    links;
  let reschedule time f =
    if time <= t.liveness_until then
      Dsim.Event_queue.schedule_at t.event_queue ~time f
  in
  (* One keepalive loop per session direction. Keepalives are ordinary
     messages: they share the session's FIFO channel and are subject to the
     installed fault model, which is precisely what lets hold timers detect
     silent transport loss. *)
  let rec keepalive_loop src dst session () =
    (if session_alive t src dst
     && Speaker.session_up (speaker t src) ~peer:dst ~session
    then begin
      Obs.Metrics.incr m_keepalives;
      dispatch t src [ (dst, session, Msg.Keepalive) ]
    end);
    reschedule (now t +. config.Liveness.keepalive_interval)
      (keepalive_loop src dst session)
  in
  (* One hold-check loop per session direction (receiver side). *)
  let rec hold_loop device peer session () =
    (if session_alive t device peer
     && Speaker.session_up (speaker t device) ~peer ~session
    then
      let last =
        Option.value
          (Hashtbl.find_opt t.last_heard (device, peer, session))
          ~default:start
      in
      if now t -. last > config.Liveness.hold_time then begin
        Obs.Metrics.incr m_hold_expiries;
        session_loss t device ~peer ~session ~reason:"hold-expired"
      end);
    reschedule (now t +. config.Liveness.keepalive_interval)
      (hold_loop device peer session)
  in
  (* One reconnect loop per link and session: torn-down sessions over a
     healthy link are periodically re-established. *)
  let rec reconnect_loop a b session () =
    (if session_alive t a b then
       let a_up = Speaker.session_up (speaker t a) ~peer:b ~session
       and b_up = Speaker.session_up (speaker t b) ~peer:a ~session in
       if not (a_up && b_up) then bounce_session t a b session);
    reschedule (now t +. config.Liveness.reconnect_interval)
      (reconnect_loop a b session)
  in
  List.iter
    (fun (link : Topology.Graph.link) ->
      for session = 0 to link.Topology.Graph.sessions - 1 do
        reschedule
          (start +. config.Liveness.keepalive_interval)
          (keepalive_loop link.a link.b session);
        reschedule
          (start +. config.Liveness.keepalive_interval)
          (keepalive_loop link.b link.a session);
        reschedule
          (start +. config.Liveness.keepalive_interval)
          (hold_loop link.a link.b session);
        reschedule
          (start +. config.Liveness.keepalive_interval)
          (hold_loop link.b link.a session);
        reschedule
          (start +. config.Liveness.reconnect_interval)
          (reconnect_loop link.a link.b session)
      done)
    links

(* ---------------- Scheduled operations ---------------- *)

let originate ?delay t device prefix attr =
  schedule ?delay t (fun () ->
      (if Obs.Causal.on () then
         ignore
           (Obs.Causal.origin ~time:(now t) ~device
              ~prefix:(Net.Intern.Prefix_id.id prefix) ~withdraw:false));
      transition t device (fun sp env -> Speaker.originate sp env prefix attr))

let withdraw_origin ?delay t device prefix =
  schedule ?delay t (fun () ->
      (if Obs.Causal.on () then
         ignore
           (Obs.Causal.origin ~time:(now t) ~device
              ~prefix:(Net.Intern.Prefix_id.id prefix) ~withdraw:true));
      transition t device (fun sp env -> Speaker.withdraw_origin sp env prefix))

let set_link ?delay t a b ~up =
  schedule ?delay t (fun () ->
      match Topology.Graph.find_link t.topo a b with
      | None -> invalid_arg (Printf.sprintf "Network.set_link: no link %d-%d" a b)
      | Some link ->
        if link.Topology.Graph.up <> up then begin
          (if Obs.Causal.on () then
             ignore
               (Obs.Causal.config ~time:(now t) ~device:a ~peer:b
                  ~note:(if up then "link-up" else "link-down")));
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

let causal_config t device peer note =
  if Obs.Causal.on () then
    ignore (Obs.Causal.config ~time:(now t) ~device ~peer ~note)

let set_hooks ?delay t device hooks =
  schedule ?delay t (fun () ->
      causal_config t device (-1) "set-hooks";
      transition t device (fun sp env -> Speaker.set_hooks sp env hooks))

let set_egress_policy_all ?delay t device policy =
  schedule ?delay t (fun () ->
      causal_config t device (-1) "egress-policy";
      transition t device (fun sp env ->
          Speaker.set_egress_policy_all sp env policy))

let set_ingress_policy ?delay t ~node ~peer policy =
  schedule ?delay t (fun () ->
      causal_config t node peer "ingress-policy";
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
      let before = fib_assoc sp in
      (* The crash is a causal root: everything that follows — peer session
         losses, stale marks and sweeps, the eventual recovery resync —
         parents to this event. *)
      let rev =
        if Obs.Causal.on () then Obs.Causal.restart ~time:(now t) ~device
        else -1
      in
      (* The crash itself: no goodbye messages, state just vanishes.
         In-flight messages addressed to the device are discarded on
         arrival because its sessions are marked down. *)
      Speaker.reset sp;
      changed t;
      Obs.Metrics.incr m_restarts;
      Trace.record t.trace_log
        (Trace.Speaker_restarted { time = now t; device });
      record_fib_diff t device before (fib_assoc sp);
      let incident = Topology.Graph.all_neighbors t.topo device in
      (* Peers detect the dead sessions (holdtime expiry, modeled as
         immediate). Legacy: they flush routes learned from the device.
         Graceful restart: they mark them stale and keep forwarding,
         bounded by the stale-path timer (inside [session_loss]). *)
      List.iter
        (fun ((peer : Topology.Node.t), (link : Topology.Graph.link)) ->
          for session = 0 to link.Topology.Graph.sessions - 1 do
            (* Each peer's loss chains to the restart, not to whatever the
               previous peer's loss left as the cursor. *)
            Obs.Causal.set_cause rev;
            session_loss t peer.Topology.Node.id ~peer:device ~session
              ~reason:"peer-restarted"
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
               record_session_event t device ~peer:device ~session:(-1)
                 "fib-stale-swept";
               (if Obs.Causal.on () then
                  ignore
                    (Obs.Causal.sweep ~time:(now t) ~device ~peer:device
                       ~session:(-1) ~note:"fib-stale-swept" ~parent:rev));
               transition t device Speaker.sweep_own_stale
             end)
       | Some _ | None -> ());
      (* Recovery: re-establish every session whose link is up, both ends,
         which triggers a full-table resend from the peers and
         re-origination by the restarted device (followed by End-of-RIB
         markers under graceful restart, sweeping surviving stale marks). *)
      Dsim.Event_queue.schedule t.event_queue ~delay:recovery (fun () ->
          (* The recovery resync (full-table resends, re-origination, EoR
             markers) chains to the restart via this event. *)
          let recov =
            if Obs.Causal.on () then
              Obs.Causal.session_event ~time:(now t) ~device ~peer:(-1)
                ~session:(-1) ~note:"recovered" ~parent:rev
            else -1
          in
          List.iter
            (fun ((peer : Topology.Node.t), (link : Topology.Graph.link)) ->
              if link.Topology.Graph.up then
                for session = 0 to link.Topology.Graph.sessions - 1 do
                  Obs.Causal.set_cause recov;
                  transition t device (fun sp env ->
                      Speaker.set_session sp env ~peer:peer.Topology.Node.id
                        ~session ~up:true);
                  Obs.Causal.set_cause recov;
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
  Hashtbl.fold
    (fun device sp acc ->
      match Speaker.fib_lookup sp prefix with
      | Some state -> (device, state) :: acc
      | None -> acc)
    t.speakers []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let known_prefixes t =
  let set = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ sp ->
      List.iter (fun p -> Hashtbl.replace set p ()) (Speaker.known_prefixes sp))
    t.speakers;
  Hashtbl.fold (fun p () acc -> p :: acc) set []
  |> List.sort Net.Prefix.compare

(* Next hops and weights are plain ints, so Marshal is
   representation-stable. *)
let fib_digest t =
  let snapshot = List.map (fun p -> (p, fib_snapshot t p)) (known_prefixes t) in
  Digest.to_hex (Digest.string (Marshal.to_string snapshot []))
