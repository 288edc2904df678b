(** The symbolic phase verifier: proves a migration plan loop- and
    blackhole-free before deployment.

    Runtime {!Centralium.Invariant} sweeps catch violations after they
    happen; the lint pass ({!Lint}) catches syntactic defects. This module
    closes the gap between them: it compiles the {e planned} state of
    every deployment phase — and every mixed old/new device frontier
    within a phase — into per-device symbolic forwarding functions
    ({!Fwd_model}, running the real {!Centralium.Engine} selection code)
    over destination equivalence classes ({!Eq_class}), then walks each
    class's forwarding graph to prove:

    - {b loop-freedom}: no FIB cycle in any propagation round of any
      checked state (transient Figure 9 loops included);
    - {b no blackholes}: no device with a surviving physical path to an
      origin but no forwarding entry — the static twin of
      {!Centralium.Invariant.Blackhole};
    - {b reachability preservation}: every device that delivered a class
      in the baseline state still delivers it in every later state.

    Every violation carries a concrete counterexample path. Verification
    is incremental delta-net style: a state only re-verifies the classes
    its policy delta can influence ({!Eq_class.touched_by}); everything
    else reuses the previous state's forwarding graphs. Output is
    deterministic — {!report_json} is byte-identical across runs for the
    same input.

    Loading the [analysis] library registers {!verify_network} with
    {!Centralium.Controller.set_verifier}, arming the verify gate of
    [Controller.deploy*] and the verification pass of
    [Verification.qualify]. The {!Centralium.Ops.set_admission_verifier}
    probe is bound by the queue's owner instead — admission needs the
    verifier closed over the target network, which only the owner has. *)

type origin = {
  org_device : int;
  org_prefix : Net.Prefix.t;
  org_attr : Net.Attr.t;
}

type violation = {
  v_code : Diagnostic.code;
      (** [Forwarding_loop_static], [Blackhole_static] or
          [Reachability_loss] *)
  v_state : string;
      (** the deployment state, e.g. ["baseline"], ["phase 2"],
          ["phase 2 frontier device 7"] *)
  v_prefix : Net.Prefix.t;  (** the destination class *)
  v_device : int;  (** where the violation anchors *)
  v_path : int list;
      (** concrete counterexample: the device walk exhibiting the cycle,
          the surviving physical path to an origin, or the forwarding walk
          to the failure point *)
  v_message : string;
}

type report = {
  vr_plan : string;
  vr_classes : int;
  vr_states : int;  (** baseline + phase boundaries + frontiers checked *)
  vr_compiled : int;  (** (class, state) forwarding graphs computed *)
  vr_reused : int;
      (** (class, state) pairs reused unchanged from the previous state —
          the delta-net savings *)
  vr_rounds : int;  (** total propagation rounds across compilations *)
  vr_converged : bool;  (** every compiled fixpoint converged *)
  vr_violations : violation list;
  vr_diagnostics : Diagnostic.t list;  (** sorted; one per violation, plus
                                           Info notes *)
}

val verify :
  ?origins:origin list ->
  ?incremental:bool ->
  Topology.Graph.t ->
  Centralium.Controller.plan ->
  report
(** Verifies the plan against the topology: the baseline, every phase
    boundary, and the single-device frontier states inside each
    multi-device phase: each of the first 8 devices of a phase (in id
    order) is checked deployed alone ahead of its peers, and a larger
    phase gets an Info diagnostic naming the unmodelled devices rather
    than a silent cap. Without [origins], every device of the topmost
    populated layer originates the v4 default route tagged
    [backbone_default_route] (the standard-suite convention).
    [incremental] (default [true]) enables the delta-net reuse of
    untouched classes across states; [false] recompiles every class in
    every state — same verdicts, strictly more work (the bench's
    full-verification reference point).

    Each call builds one {!Fwd_model.frame} of the graph and shares it
    across every class and state it compiles and checks; the report keeps
    no reference to it. The graph must not change during the call. *)

val verify_network : Bgp.Network.t -> Centralium.Controller.plan -> report
(** {!verify} with the routes the network's speakers originate (falling
    back to {!verify}'s default origins for a network that originates
    nothing yet).

    It reads only the graph's links, the speakers' origins and the plan,
    so it keeps its last report, keyed by the plan (physically equal) and
    the network's {!Bgp.Network.stamp}, and returns it again while
    neither changes — e.g. when the admission probe and the deploy gate
    verify one plan with no event in between. The plan is held weakly
    (its health checks may close over a network), and nothing kept
    refers to the network. *)

val report_json : report -> Obs.Json.t
(** Fixed field order, no wall-clock content: byte-identical across runs
    for the same input. *)

val findings : report -> Centralium.Controller.lint_finding list
(** The report's diagnostics in the controller's hook currency. *)
