(* The benchmark's one door into the library: every call the workloads make
   into a layer goes through this module.

   A call that does work runs inside an [Obs.Span] named
   [<layer>.<operation>], so in a traced run it nests with the spans the
   library emits itself (controller.deploy, agent.reconcile,
   network.converge, speaker.decision, engine.select, invariant.sweep) and
   the self-time table charges it to the layer its name starts with. With
   no recorder installed a span costs one ref read.

   The controller's lint and verify hooks and the queue's admission
   verifier are re-registered here so that their calls are timed too. When
   the library replaces those link-time hooks with explicit gates, this is
   the file to update. *)

module C = Centralium

let span = Obs.Span.with_span

(* Counts no library instrument keeps. They are kept with tracing off as
   well; they are integer writes and never feed back into the run. *)
type counts = {
  mutable lint_calls : int;
  mutable lint_minor_words : float;
  mutable verify_calls : int;
  mutable verify_minor_words : float;
  mutable verify_compiled : int;
  mutable verify_reused : int;
  mutable verify_wasted : int;
  mutable submit_calls : int;
  mutable shed : int;
  mutable run_until_events : int;  (* [converge] counts its own *)
}

let counts =
  {
    lint_calls = 0;
    lint_minor_words = 0.;
    verify_calls = 0;
    verify_minor_words = 0.;
    verify_compiled = 0;
    verify_reused = 0;
    verify_wasted = 0;
    submit_calls = 0;
    shed = 0;
    run_until_events = 0;
  }

(* (plan name, virtual time) of every verification so far: a second
   verification of the same plan at the same instant re-proves what the
   first one proved, because the network can only change by running
   events, which advances the clock. *)
let verified : (string * float, unit) Hashtbl.t = Hashtbl.create 64

(* Verifier violations per plan name, in the order found. *)
let violations : (string, string list) Hashtbl.t = Hashtbl.create 16

let reset_counts () =
  counts.lint_calls <- 0;
  counts.lint_minor_words <- 0.;
  counts.verify_calls <- 0;
  counts.verify_minor_words <- 0.;
  counts.verify_compiled <- 0;
  counts.verify_reused <- 0;
  counts.verify_wasted <- 0;
  counts.submit_calls <- 0;
  counts.shed <- 0;
  counts.run_until_events <- 0;
  Hashtbl.reset verified;
  Hashtbl.reset violations

let verifier_violations plan_name =
  Option.value (Hashtbl.find_opt violations plan_name) ~default:[]

let minor_words_of f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* {1 Topology and network} *)

let tagged_attr =
  Net.Attr.make
    ~communities:
      (Net.Community.Set.singleton
         Net.Community.Well_known.backbone_default_route)
    ()

let default_prefix = Net.Prefix.default_v4

(* The Section 6.2 full data centre: 48 pods of 48 RSWs, 2,828 devices. *)
let fulldc_fabric () =
  Topology.Clos.fabric ~pods:48 ~rsws_per_pod:48 ~fsws_per_pod:4
    ~ssws_per_plane:36 ~grids:4 ~fauus_per_grid:9 ~ebs:8 ()

let default_fabric () = Topology.Clos.fabric ()

(* A network whose [origins] originate their prefixes; nothing has run
   yet. *)
let network ~seed graph ~origins =
  span "network.build" @@ fun () ->
  let net = Bgp.Network.create ~seed graph in
  List.iter
    (fun (device, prefix) -> Bgp.Network.originate net device prefix tagged_attr)
    origins;
  net

let converge net = ignore (Bgp.Network.converge net)

let run_until net time =
  span "network.run_until" @@ fun () ->
  counts.run_until_events <-
    counts.run_until_events + Bgp.Network.run_until net ~time

let now = Bgp.Network.now
let messages_sent net = Bgp.Trace.messages_sent (Bgp.Network.trace net)

(* One digest over every device's FIB for every known prefix: equal
   digests mean bit-identical forwarding state. *)
let fib_digest net =
  span "network.digest" @@ fun () ->
  let snapshot =
    List.map
      (fun p -> (p, Bgp.Network.fib_snapshot net p))
      (Bgp.Network.known_prefixes net)
  in
  Digest.to_hex (Digest.string (Marshal.to_string snapshot []))

(* {1 Plans} *)

let asn_of graph device = (Topology.Graph.node graph device).Topology.Node.asn

(* Path equalization toward the EB-originated default route on [targets],
   and the plan that removes it again: the same devices set to the empty
   RPA, in the removal order of Section 5.3.2 (closest to the origin
   first). *)
let path_equalize graph ~origin ~targets ~install ~remove =
  let plan =
    C.Apps.Path_equalize.plan graph
      ~destination:C.Destination.backbone_default ~origin_asn:(asn_of graph origin)
      ~targets ~origination_layer:Topology.Node.Eb
  in
  ( { plan with C.Controller.plan_name = install },
    {
      plan with
      C.Controller.plan_name = remove;
      rpas = List.map (fun (d, _) -> (d, C.Rpa.empty)) plan.C.Controller.rpas;
      phases =
        C.Deployment.phases graph ~targets ~origination_layer:Topology.Node.Eb
          C.Deployment.Remove;
    } )

(* A min-next-hop guard whose [Fraction 1.1] threshold no SSW can meet: the
   SSWs withdraw the default route and the racks below black-hole, which
   the watchdog must catch and roll back. An admission verifier would shed
   it first: the phase verifier proves the blackhole. *)
let canary graph ~ssws ~name =
  let p =
    C.Apps.Min_next_hop_guard.plan graph
      ~destination:(C.Destination.Tagged Net.Community.Well_known.backbone_default_route)
      ~threshold:(C.Path_selection.Fraction 1.1) ~keep_fib_warm:false
      ~targets:ssws ~origination_layer:Topology.Node.Eb
  in
  { p with C.Controller.plan_name = name }

let rename (plan : C.Controller.plan) name = { plan with C.Controller.plan_name = name }

(* {1 Safety gates} *)

(* The linter [Analysis.Lint] registered at link time, captured before
   [install_gates] wraps it. *)
let library_linter =
  match C.Controller.linter () with
  | Some lint -> lint
  | None -> failwith "the analysis library did not register its linter"

(* Exactly the verifier [Analysis.Lint] registers, called here so the
   report's compile and reuse counts are kept. *)
let verify net (plan : C.Controller.plan) =
  span "verify.plan" @@ fun () ->
  let key = (plan.C.Controller.plan_name, Bgp.Network.now net) in
  if Hashtbl.mem verified key then counts.verify_wasted <- counts.verify_wasted + 1
  else Hashtbl.replace verified key ();
  let report, words =
    minor_words_of (fun () -> Analysis.Phase_verifier.verify_network net plan)
  in
  counts.verify_calls <- counts.verify_calls + 1;
  counts.verify_minor_words <- counts.verify_minor_words +. words;
  counts.verify_compiled <- counts.verify_compiled + report.vr_compiled;
  counts.verify_reused <- counts.verify_reused + report.vr_reused;
  if report.vr_violations <> [] then
    Hashtbl.replace violations plan.C.Controller.plan_name
      (List.map
         (fun (v : Analysis.Phase_verifier.violation) -> v.v_message)
         report.vr_violations);
  Analysis.Phase_verifier.findings report

let install_gates ~admission net =
  C.Ops.set_conflict_probe Analysis.Lint.plans_conflict;
  C.Controller.set_linter (fun graph plan ->
      span "lint.plan" @@ fun () ->
      let findings, words = minor_words_of (fun () -> library_linter graph plan) in
      counts.lint_calls <- counts.lint_calls + 1;
      counts.lint_minor_words <- counts.lint_minor_words +. words;
      findings);
  C.Controller.set_verifier verify;
  if admission then
    C.Ops.set_admission_verifier (fun plan ->
        List.filter_map
          (fun (f : C.Controller.lint_finding) ->
            if f.lint_error then Some f.lint_message else None)
          (verify net plan))
  else C.Ops.clear_admission_verifier ()

(* {1 The rollout stack: queue, controller, agent, watchdog} *)

type stack = {
  net : Bgp.Network.t;
  controller : C.Controller.t;
  ops : C.Ops.t;
  watchdog : C.Ops.Watchdog.t;
  fault : Dsim.Mgmt_fault.t option;
  policy : C.Controller.retry_policy;
  submitted_at : (int, float) Hashtbl.t;  (* queue seq -> virtual time *)
}

(* The controller and queue that own [net]. [admission] makes the queue
   shed plans the phase verifier proves unsafe. [flaky] attaches the flaky
   management-plane fault model to the agent and to the deploy loop, so
   RPCs and journal writes fail and are retried. The watchdog guards the
   default route for traffic sourced at [demand_sources]. *)
let stack ~seed ~admission ~flaky ~demand_sources net =
  let controller = C.Controller.create ~seed:(seed + 7) net in
  let fault =
    if flaky then Some (Dsim.Mgmt_fault.create ~seed:(seed + 13) Dsim.Mgmt_fault.flaky)
    else None
  in
  C.Switch_agent.set_mgmt_fault (C.Controller.agent controller) fault;
  let nsdb = C.Controller.nsdb controller in
  install_gates ~admission net;
  {
    net;
    controller;
    ops = C.Ops.create nsdb;
    watchdog =
      C.Ops.Watchdog.create ~net ~nsdb
        ~demands:(List.map (fun d -> (d, 1.0)) demand_sources)
        ~prefix:default_prefix ();
    fault;
    (* Eight attempts, not the default four: the flaky profile fails 11% of
       RPCs, so four leave a device failed about once in 7,000 RPCs and a
       run's rollback count would hang on the seed. With eight it is once
       in 50 million, and rollbacks come from the canaries. *)
    policy =
      { C.Controller.default_retry_policy with max_attempts = 8; jitter_seed = seed + 17 };
    submitted_at = Hashtbl.create 64;
  }

type admission = Admitted | Shed

let submit s ~tenant ~cls plan =
  counts.submit_calls <- counts.submit_calls + 1;
  let verified_before = counts.verify_calls in
  match span "ops.submit" (fun () -> C.Ops.submit s.ops ~tenant ~cls plan) with
  | C.Ops.Admitted seq ->
    Hashtbl.replace s.submitted_at seq (Bgp.Network.now s.net);
    Admitted
  | C.Ops.Overloaded reason ->
    counts.shed <- counts.shed + 1;
    (match reason with
     | C.Ops.Unsafe_plan _ -> ()
     | Queue_full _ | Tenant_limit _ | Class_limit _ ->
       (* The verification ran before the capacity check that shed it. *)
       counts.verify_wasted <-
         counts.verify_wasted + (counts.verify_calls - verified_before));
    Shed

type outcome = Completed | Rolled_back | Crashed | Fenced | Aborted

let outcome_name = function
  | Completed -> "completed"
  | Rolled_back -> "rolled-back"
  | Crashed -> "crashed"
  | Fenced -> "fenced"
  | Aborted -> "aborted"

type run = {
  plan_name : string;
  outcome : outcome;
  queue_wait_s : float;  (* virtual: admission to start *)
  virtual_s : float;  (* virtual: admission to the end of the deploy *)
  messages : int;  (* BGP messages sent during the deploy *)
  remediation : string option;  (* the watchdog's, from the journal *)
}

(* Dispatches the next ready plan and rolls it out: [Ops.next_ready] and
   [mark_started], a watchdog window, [deploy_resilient] with an invariant
   sweep between phases and the watchdog as its SLO hook, then
   [mark_done]. [None] once the queue has drained. *)
let run_next s =
  match
    span "ops.dispatch" @@ fun () ->
    Option.map
      (fun (seq, plan) ->
        C.Ops.mark_started s.ops seq;
        (seq, plan))
      (C.Ops.next_ready s.ops)
  with
  | None -> None
  | Some (seq, plan) ->
    let admitted = Hashtbl.find s.submitted_at seq in
    Hashtbl.remove s.submitted_at seq;
    let started = Bgp.Network.now s.net in
    span "watchdog.arm" (fun () ->
        C.Ops.Watchdog.arm s.watchdog ~plan_name:plan.C.Controller.plan_name);
    let outcome =
      C.Controller.deploy_resilient ~policy:s.policy ?fault:s.fault
        ~between_phases:(fun _ -> ignore (C.Invariant.check s.net))
        ~watchdog:(fun phase ->
          span "watchdog.probe" (fun () -> C.Ops.Watchdog.probe s.watchdog phase))
        s.controller plan
    in
    (* Read before the next window's [arm] clears the trace. *)
    let messages = messages_sent s.net in
    let finished = Bgp.Network.now s.net in
    span "ops.complete" (fun () ->
        C.Ops.Watchdog.disarm s.watchdog;
        C.Ops.mark_done s.ops seq;
        ignore (C.Ops.gc s.ops);
        C.Nsdb.Replicated.flush (C.Controller.nsdb s.controller));
    Some
      {
        plan_name = plan.C.Controller.plan_name;
        outcome =
          (match outcome with
           | C.Controller.Completed _ -> Completed
           | Rolled_back _ -> Rolled_back
           | Crashed _ -> Crashed
           | Fenced _ -> Fenced
           | Aborted _ -> Aborted);
        queue_wait_s = started -. admitted;
        virtual_s = finished -. admitted;
        messages;
        remediation = C.Controller.journal_remediation s.controller plan;
      }

let blackhole_seconds s = C.Ops.Watchdog.blackhole_seconds s.watchdog

(* {1 Data-plane chaos} *)

type episode = {
  ep_net : Bgp.Network.t;
  ep_graph : Topology.Clos.expansion;
  ep_t0 : float;  (* virtual time the chaos window opens *)
  ep_initial : (int * Bgp.Speaker.fib_state) list;  (* default-route FIBs at t0 *)
}

let chaos_horizon = 0.12

(* The converged pre-chaos network: the expansion Clos with the default
   route at the backbone and one /24 per FSW. *)
let episode_setup ~seed =
  let x = Topology.Clos.expansion () in
  let racks =
    List.mapi
      (fun i fsw ->
        (fsw, Net.Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/24" (i land 0xff))))
      x.Topology.Clos.xfsws
  in
  let net =
    network ~seed x.Topology.Clos.xgraph
      ~origins:((x.Topology.Clos.backbone, default_prefix) :: racks)
  in
  converge net;
  (* The trace then holds the episode's chaos window only. *)
  Bgp.Trace.clear (Bgp.Network.trace net);
  {
    ep_net = net;
    ep_graph = x;
    ep_t0 = Bgp.Network.now net;
    ep_initial = Bgp.Network.fib_snapshot net default_prefix;
  }

(* Light message faults, session liveness with graceful restart, a
   restart of the origin and of one FA, and invariant sampling, for
   [chaos_horizon] virtual seconds; then heal and converge.

   Light, not severe: with severe (or heavy) faults and the rack prefixes,
   the converge after the heal explores paths for more than 300k events in
   about one episode in a hundred, and a few in a thousand exceed
   [Bgp.Network.converge]'s 2M-event limit, which fails the run. With light
   faults each of 1,200 scanned seeds converged within 1,000 events, and
   episodes 0 to 4,999 all ended clean. *)
let episode_chaos ~seed e =
  let net = e.ep_net and x = e.ep_graph in
  let until = e.ep_t0 +. chaos_horizon in
  span "network.schedule" (fun () ->
      Bgp.Network.set_fault net (Some (Dsim.Fault.create ~seed:(seed + 1) Dsim.Fault.light));
      Bgp.Network.enable_liveness ~config:(Bgp.Liveness.with_gr Bgp.Liveness.default)
        ~until net;
      Bgp.Network.restart_device ~delay:0.01 net x.Topology.Clos.backbone ~recovery:0.02;
      (match x.Topology.Clos.fav1 with
       | fa :: _ -> Bgp.Network.restart_device ~delay:0.05 net fa ~recovery:0.015
       | [] -> ());
      C.Invariant.monitor ~period:0.01 ~until net);
  run_until net until;
  span "network.schedule" (fun () ->
      Bgp.Network.set_fault net None;
      Bgp.Network.reestablish_sessions ~all:true net);
  converge net

(* Blackhole-seconds of the default route over the chaos window plus the
   longest stale-path tail, with one unit of demand per FSW. *)
let episode_blackhole_s e =
  span "dataplane.loss" @@ fun () ->
  let timeline =
    Bgp.Trace.fib_timeline (Bgp.Network.trace e.ep_net) ~prefix:default_prefix
      ~initial:e.ep_initial
  in
  let until =
    e.ep_t0 +. chaos_horizon +. (Bgp.Liveness.with_gr Bgp.Liveness.default).stale_path_time
  in
  (Dataplane.Metrics.loss_integrals ~initial:e.ep_initial ~timeline
     ~demands:(List.map (fun f -> (f, 1.0)) e.ep_graph.Topology.Clos.xfsws)
     ~from_time:e.ep_t0 ~until)
    .blackhole_seconds

let final_violations net =
  List.map (fun (v : C.Invariant.violation) -> C.Invariant.kind_name v.kind)
    (C.Invariant.check net)

(* {1 Tracing} *)

let metric_count name =
  (* Instruments are keyed by (name, labels): asking again returns the one
     the library's instrumentation site holds. *)
  Obs.Metrics.value (Obs.Metrics.counter name)

let reset_metrics () = Obs.Metrics.reset Obs.Metrics.default
let record_metrics on = Obs.Metrics.set_enabled Obs.Metrics.default on

let git_rev = Experiments.Observe.git_rev
