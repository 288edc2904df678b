(** Executable reproductions of the paper's scenario figures.

    Each [run] builds the figure's topology, drives the migration through
    the event-simulated BGP network twice — native BGP versus
    RPA-protected — and returns the observable the paper argues about
    (funneling share, next-hop-group count, loop presence, black-holed
    fraction). Both the integration tests and the benchmark harness consume
    these. All runs are deterministic given [seed]. *)

(** Section 3.2 / Figure 2: first-router problem in topology expansion. *)
module Fig2 : sig
  type result = {
    baseline_funnel : float;
        (** steady-state max FA share before FAv2 exists *)
    native_fav2_share : float;
        (** share of traffic through the first FAv2, native BGP (the
            first-router collapse: expect 1.0) *)
    rpa_fav2_share : float;  (** same with path-equalize RPAs (expect 1/n) *)
    balanced_share : float;  (** 1 / (#FAv1 + 1), the ideal *)
    rpa_loss : float;        (** loss fraction under RPA (expect 0) *)
  }

  val run : ?seed:int -> unit -> result
end

(** Section 3.3 / Figure 4: last-router problem in decommission. *)
module Fig4 : sig
  type result = {
    steady_share : float;
        (** per-FADU-1 share before any drain (1 / (#planes x per)) *)
    native_worst_funnel : float;
        (** worst transient share of any FADU-1 while FADU-1s drain
            asynchronously under native BGP (expect ~#grids x steady) *)
    rpa_worst_funnel : float;
        (** same with the BgpNativeMinNextHop guard on SSW-1s *)
  }

  val run : ?seed:int -> unit -> result

  val sweep :
    ?seed:int -> thresholds:float option list -> unit -> (float option * float) list
  (** Ablation of the guard threshold: for each entry ([None] = no guard,
      [Some f] = [BgpNativeMinNextHop] fraction [f]) the worst transient
      funnel over the drain. Shows where the design choice of Section 4.4.2
      sits: too low a threshold behaves like native BGP, 1.0 withdraws on
      the first drain. *)
end

(** Section 3.4 / Figure 5: transient next-hop-group explosion during
    distributed WCMP convergence. *)
module Fig5 : sig
  type result = {
    prefixes : int;
    du_nhg_native : int;
        (** peak distinct NHG objects on the DU during EB[1:2] maintenance
            under distributed WCMP *)
    du_nhg_rpa : int;
        (** same with weights prescribed a priori by Route Attribute RPA *)
    theoretical_bound : int;  (** s^m per-UU states to the #sessions: 4^8 *)
  }

  val run : ?seed:int -> ?prefixes:int -> unit -> result
end

(** Section 5.3.1 / Figure 9: dissemination rule and routing loops. *)
module Fig9 : sig
  type result = {
    loops_with_best_advertised : int list list;
        (** forwarding cycles when the RPA speaker advertises its best
            selected path (expect the persistent R5-R6 loop) *)
    circulating_bad : float;
        (** traffic crossing the R5-R6 link in {e both} directions — the
            signature of a forwarding loop: min(load R5->R6, load R6->R5) *)
    ttl_loss_bad : float;
        (** fraction of discrete flows (hash-forwarded, TTL 64) that die in
            the loop — the paper's "packets dropped during this time" *)
    loops_with_rule : int list list;  (** expect none *)
    circulating_good : float;  (** expect 0 *)
    ttl_loss_good : float;  (** expect 0 *)
  }

  val run : ?seed:int -> unit -> result
end

(** Section 5.3.2 / Figure 10: RPA deployment sequencing. *)
module Fig10 : sig
  type result = {
    funnel_top_down : float;
        (** worst transient FA share when the RPA lands on FA1 first
            (uncoordinated; expect ~1.0 through FA2) *)
    funnel_bottom_up : float;
        (** worst transient FA share under the safe order (expect ~0.5) *)
    balanced : float;  (** 1 / #FAs *)
  }

  val run : ?seed:int -> unit -> result
end

(** Section 7.2 / Figure 14: the KeepFibWarmIfMnhViolated SEV. *)
module Fig14 : sig
  type result = {
    blackholed_with_knob : float;
        (** fraction of host-bound traffic terminating at the
            not-production-ready FA when KeepFibWarm was (incorrectly) set *)
    blackholed_without_knob : float;  (** expect 0 *)
    propagated_past_ssw : bool;
        (** whether the new route leaked below SSWs (expect false — the
            guard withheld advertisement either way) *)
  }

  val run : ?seed:int -> unit -> result
end

(** Fault-injection scenario: a Clos fabric converging while the transport
    misbehaves (message loss / delay / reorder per {!Dsim.Fault.profile})
    and a seeded schedule of link flaps and speaker restarts executes, with
    the {!Centralium.Invariant} checker sampling the network throughout.
    Everything — fates, schedule, latencies — derives from [seed], so the
    entire run (including the recorded trace) is reproducible bit for
    bit. *)
module Faulted : sig
  type result = {
    schedule : Dsim.Fault.schedule;  (** the control faults that executed *)
    events_executed : int;
    messages_dropped : int;
    speaker_restarts : int;
    transient_violations : (float * string) list;
        (** (time, kind) of every violation the periodic monitor observed
            while the network was converging — the paper's transient
            phenomena, now machine-checked *)
    final_violations : (int option * Net.Prefix.t option * string) list;
        (** invariant violations persisting at quiescence; loss of BGP
            messages can legitimately strand state (no retransmission is
            modeled), so this reports rather than asserts emptiness *)
    trace : Bgp.Trace.event list;
        (** full event trace, message records included (the network is
            created under {!Bgp.Trace.with_provenance}), for
            bit-determinism comparisons *)
  }

  val run :
    ?seed:int ->
    ?profile:Dsim.Fault.profile ->
    ?flaps:int ->
    ?restarts:int ->
    unit ->
    result
end

(** Management-plane chaos around a phased RPA rollout: the expansion
    equalizer deployed through a {!Dsim.Mgmt_fault} fate model (lossy RPCs,
    lost NSDB writes, a scheduled controller crash) with the resilient
    controller loop — retries, backoff, journaled resume — while
    {!Centralium.Invariant} sweeps verify the network stays loop- and
    blackhole-free whenever the controller is degraded (the paper's
    fail-static claim, machine-checked). *)
module Faulted_deploy : sig
  type result = {
    outcome : string;  (** completed | rolled-back | crashed | aborted *)
    applied : int;
    skipped_in_sync : int;
    retries : int;
    backoff_seconds : float list;
        (** the retry schedule; deterministic per seed *)
    gave_up : int list;  (** devices whose RPCs never went through *)
    unreachable : int list;
    crashed : bool;  (** the initial deploy hit the scheduled crash *)
    resumed : bool;  (** a replacement controller resumed from the journal *)
    journal_status : string option;
    stragglers_during_outage : int list;
        (** agent's intended≠current view before any healing *)
    unexpected_unreachable : int list;
    phase_violations : (int * string) list;
        (** invariant violations at phase boundaries (should be empty) *)
    transient_violations : (float * string) list;
        (** violations the periodic monitor saw during the outage window *)
    final_violations : string list;
    fib_digest : string;
        (** digest over every device's FIB for every known prefix —
            bit-identity of forwarding state *)
  }

  val run :
    ?seed:int ->
    ?profile:Dsim.Mgmt_fault.profile ->
    ?crash_after_ops:int ->
    ?resume:bool ->
    ?partition_devices:int ->
    unit ->
    result
  (** [partition_devices] cuts the first N plan devices off the out-of-band
      management star for the duration of the deploy (healed afterwards):
      they fail static and surface as stragglers. *)

  type comparison = {
    interrupted : result;
    uninterrupted : result;
    digests_match : bool;
  }

  val crash_vs_uninterrupted :
    ?seed:int ->
    ?profile:Dsim.Mgmt_fault.profile ->
    ?crash_after_ops:int ->
    unit ->
    comparison
  (** The acceptance experiment: the same seeded deployment run twice —
      once interrupted by a scheduled controller crash and resumed from the
      NSDB journal, once uninterrupted — and their final forwarding state
      compared bit for bit. [crash_after_ops] defaults to mid-flight of the
      first phase. *)

  val violations : result -> int
  (** Transient, phase-boundary and final invariant violations, summed. *)

  val passed : comparison -> bool
  (** The sweep verdict: the digests match, the interrupted run crashed
      and resumed, both runs completed, and neither saw a violation. *)

  val comparison_json : comparison -> (string * Obs.Json.t) list
  (** The [chaos_seed] JSONL fields after the caller's context, in their
      pinned order: [interrupted_outcome], [uninterrupted_outcome],
      [crashed], [resumed], [applied], [retries], [backoffs], [gave_up]
      (counts), [violations_interrupted], [violations_uninterrupted],
      [digests_match], [fib_digest] (the interrupted run's). *)
end

(** Controller HA failover: the {!Faulted_deploy} fixture driven by an
    {!Centralium.Ha} cluster instead of a lone controller. The fault
    model's {!type:Dsim.Mgmt_fault.ha_profile} kills the leader at seeded
    offsets mid-rollout; the standbys race for the lease, the winner
    resumes from the shared NSDB journal under a higher fencing epoch,
    and the scenario audits the grant/commit trails with
    {!Centralium.Invariant.check_ha}. *)
module Failover : sig
  type result = {
    outcome : string;
        (** terminal outcome of the rollout: completed | rolled-back |
            aborted | none (leadership never re-established) *)
    attempts : (int * string) list;
        (** every (member id, outcome) deployment attempt, in order —
            crashed/fenced entries are the interrupted leaders *)
    completed_by : int option;  (** member that landed the final phase *)
    elections : int;  (** successful lease acquisitions *)
    takeover_ms : float list;
        (** simulated ms from each leader loss to the next acquisition *)
    fenced_attempts : int;
        (** attempts that fail-stopped on a lost lease (vs crashing) *)
    dead_members : int;
    grants : (int * int * float * float) list;
        (** lease-grant audit: (holder, epoch, start, expiry) *)
    applied : int;  (** RPA applies summed over every attempt *)
    skipped_in_sync : int;
    journal_status : string option;
    ha_violations : string list;
        (** {!Centralium.Invariant.check_ha} over grants and epoch-stamped
            commits — dual-leader / stale-epoch-write; must be empty *)
    phase_violations : (int * string) list;
    final_violations : string list;
    fib_digest : string;
  }

  val run :
    ?seed:int ->
    ?profile:Dsim.Mgmt_fault.profile ->
    ?members:int ->
    ?leader_crash_offsets:float list ->
    ?lease_partition_offsets:(float * float) list ->
    unit ->
    result
  (** [leader_crash_offsets] (seconds after cluster start — relative, so
      the caller need not know the virtual clock) schedules leader
      fail-stops; [lease_partition_offsets] are half-open windows during
      which the lease store is unreachable. Defaults: 3 members, no
      chaos — the degenerate single-leader run every comparison baselines
      against. The cluster runs {!Centralium.Ha}'s fixed lease timing
      (50 ms TTL, 10 ms ticks). *)

  type comparison = {
    interrupted : result;
    uninterrupted : result;
    digests_match : bool;
  }

  val crash_vs_uninterrupted :
    ?seed:int ->
    ?profile:Dsim.Mgmt_fault.profile ->
    ?members:int ->
    ?leader_crash_offsets:float list ->
    unit ->
    comparison
  (** The HA acceptance experiment: the same seeded rollout run twice —
      once with the leader killed mid-deployment (default: one crash
      20 ms in) and completed by a standby, once untouched — and the
      final forwarding state compared bit for bit. *)

  val violations : result -> int
  (** HA-audit, phase-boundary and final invariant violations, summed. *)

  val passed : comparison -> bool
  (** The sweep verdict: the digests match, both runs completed, the
      interrupted run held at least two elections (the kill forced a real
      takeover), and neither run saw a violation. *)

  val stagger : crash_at:float -> int -> float
  (** The leader-kill offset of sweep position [k] (from 0): [crash_at]
      plus 7 ms per position, wrapping every 64 positions, so a sweep
      kills at different phase offsets of the same rollout and the latest
      kill lands 441 ms after [crash_at], before the rollout ends at the
      default 20 ms base. *)

  val comparison_json : comparison -> (string * Obs.Json.t) list
  (** The [chaos_ha_seed] JSONL fields after the caller's context, in
      their pinned order: [interrupted_outcome], [uninterrupted_outcome],
      [completed_by], [elections], [takeover_ms], [fenced_attempts],
      [dead_members], [applied], [skipped_in_sync], [journal_status],
      [ha_violations] (a count), [violations_interrupted],
      [violations_uninterrupted], [digests_match], [fib_digest].
      [uninterrupted_outcome] and [violations_uninterrupted] describe the
      uninterrupted run, [digests_match] both, every other field the
      interrupted run; an absent value is [null]. *)
end

(** Data-plane chaos with and without graceful restart: the expansion Clos
    under the {!Dsim.Fault.severe} message-fault profile plus mid-window
    speaker restarts (the route origin itself, then an FA), with session
    liveness timers running ({!Bgp.Network.enable_liveness}) and the
    {!Centralium.Invariant} monitor sampling throughout. Traffic loss is
    integrated over the FIB timeline into blackhole-seconds / loss-seconds
    ({!Dataplane.Metrics.loss_integrals}). Running both modes at identical
    seeds isolates the effect of RFC 4724 stale retention: the GR run's
    blackhole-seconds must be strictly lower (fail-static, quantified).
    After the chaos window the transport is healed and all sessions
    re-established, so both modes must reach a violation-free quiescent
    state. *)
module Chaos : sig
  type mode_result = {
    gr : bool;
    blackhole_seconds : float;
        (** integral of the black-holed demand fraction over the window *)
    loss_seconds : float;  (** same, for dropped + looped demand *)
    window : float;  (** width of the integration window, seconds *)
    messages_dropped : int;
    keepalives_sent : int;  (** dropped ones included *)
    hold_expiries : int;  (** sessions torn down by the hold timer *)
    reconnects : int;
    stale_sweeps : int;  (** stale-path timer sweeps that removed routes *)
    speaker_restarts : int;
    transient_violations : (float * string) list;
    final_violations : (int option * Net.Prefix.t option * string) list;
        (** must be empty: the healed network has no excuse *)
    trace_events : int;  (** {!Bgp.Trace.length} of the chaos window *)
    fib_digest : string;
    loss_segments : Dataplane.Metrics.loss_segment list;
        (** the piecewise decomposition the integrals summed (default
            route), for joining loss intervals to causal events *)
  }

  type result = {
    gr_on : mode_result;
    gr_off : mode_result;
    gr_wins : bool;
        (** gr_on.blackhole_seconds < gr_off.blackhole_seconds — the
            acceptance criterion *)
  }

  val horizon : float

  val run_mode :
    ?seed:int ->
    ?eval_mode:Bgp.Speaker.eval_mode ->
    gr:bool ->
    unit ->
    mode_result
  (** [eval_mode] selects the speakers' decision pipeline (default
      {!Bgp.Speaker.Incremental}); results are bit-identical across modes
      at the same seed — the oracle-parity tests rely on this. *)

  val run : ?seed:int -> unit -> result
  (** Both GR modes at the same seed. *)

  val quiesced : mode_result -> bool
  (** No final violation: the one-mode sweep verdict. *)

  val passed : result -> bool
  (** The both-modes sweep verdict: [gr_wins], and both modes
      {!quiesced}. *)

  val mode_json : mode_result -> (string * Obs.Json.t) list
  (** The [chaos_gr_seed] JSONL fields after the caller's context (type,
      seed, [gr], ok), in their pinned order: [blackhole_seconds],
      [loss_seconds], [window], [messages_dropped], [keepalives_sent],
      [hold_expiries], [reconnects], [stale_sweeps], [speaker_restarts],
      [transient_violations], [final_violations] (counts), [fib_digest]. *)
end

(** Section 6.4 / Figure 13: effective capacity of ECMP vs RPA-TE vs ideal
    WCMP across maintenance events. *)
module Fig13 : sig
  type event = {
    event_id : int;
    drained_links : int;
    ecmp_capacity : float;
    rpa_capacity : float;
    ideal_capacity : float;
  }

  type result = {
    events : event list;
    mean_rpa_over_ideal : float;   (** expect close to 1.0 *)
    mean_ecmp_over_ideal : float;  (** expect well below 1.0 *)
    unblocked_fraction : float;
        (** fraction of events where the demand fits under RPA-TE but not
            under ECMP — maintenance that TE unblocks (Section 6.4 reports
            up to 45%) *)
  }

  val run : ?seed:int -> ?events:int -> ?levels:int -> unit -> result
  (** [levels] is the link-bandwidth quantization granularity used for the
      RPA-TE comparator (default 64). Sweeping it shows how much expressive
      precision the RPA weight encoding needs to track the ideal. *)
end

(** The 24/7 fleet: back-to-back seeded migrations with admission control,
    queueing, replica catch-up and the SLO watchdog, over a compressed
    simulated day (0.5 virtual seconds per represented hour). The queue is
    deliberately small ([max_queue = 4], [per_tenant = 2],
    [per_class = 3]) so hourly bursts exercise real backpressure. Every
    third job (3 is coprime with the default [jobs_per_hour], so canaries
    cycle through burst positions instead of always landing on the shed
    slot) is a deliberately unsatisfiable min-next-hop guard whose
    blackhole the watchdog must catch and auto-roll-back.
    Deterministic: the same seed yields a bit-identical report — queue
    order, shed set and final FIB digest — with or without a leader crash
    from [leader_crash_offsets]. *)
module Continuous : sig
  type job = {
    job_index : int;  (** submission index, in submission order *)
    job_name : string;
    job_tenant : string;
    job_class : string;
    job_canary : bool;
    job_seq : int option;  (** queue ticket; [None] when shed *)
    job_shed_reason : string option;
    job_outcome : string option;  (** terminal outcome of executed jobs *)
    job_queue_wait_s : float;
        (** virtual submit-to-start wait, in whole nanoseconds *)
    job_convergence_s : float;
        (** virtual start-to-converged duration, in whole nanoseconds *)
    job_remediation : string option;
        (** the journal's remediation record when the watchdog rolled the
            job back *)
  }

  type report = {
    hours : int;
    submitted : int;
    admitted : int;
    shed : int;
    completed : int;
    rolled_back : int;
    shed_rate : float;
    rollback_rate : float;
    plans_per_hour : float;
    convergence_p50_s : float;
    convergence_p99_s : float;
    queue_wait_p99_s : float;
    blackhole_seconds_per_day : float;
        (** normalized to a represented 24h day *)
    replica_lag_p99 : float;  (** ops behind, sampled before every flush *)
    replica_lag_peak : int;
    snapshot_ships : int;
    elections : int;
    queue_recoveries : int;
        (** queue rebuilds from the opsq journal after a takeover *)
    remediations : int;
    unremediated_violations : int;
        (** invariant violations left standing by a job that was not
            rolled back, plus any at the end of the horizon — the
            acceptance gate is zero *)
    queue_order : int list;  (** queue seq of every started job, in order *)
    shed_set : int list;  (** submission indices shed, in order *)
    fib_digest : string;
    jobs : job list;
  }

  val run :
    ?seed:int ->
    ?hours:int ->
    ?jobs_per_hour:int ->
    ?members:int ->
    ?profile:Dsim.Mgmt_fault.profile ->
    ?leader_crash_offsets:float list ->
    unit ->
    report
  (** Defaults: seed 42, 24 hours, 5 jobs/hour, 2 members, flaky
      management profile, no crashes. *)

  val job_json : job -> (string * Obs.Json.t) list
  (** The [ops_job] JSONL fields after the type tag, in their pinned
      order: [index], [name], [tenant], [class], [canary], [seq],
      [shed_reason], [outcome] ([null] when absent), [queue_wait_s],
      [convergence_s], [remediated] (whether a remediation was recorded). *)

  val report_json : report -> (string * Obs.Json.t) list
  (** The [ops_slo] JSONL fields after the caller's context (type, seed,
      hours, members, profile, crash offset), in their pinned order: every
      field of {!report} from [submitted] to [fib_digest], in declaration
      order; [jobs] is left to {!job_json}. *)
end
