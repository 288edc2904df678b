(** The Centralium controller: applications over NSDB over Switch Agent
    (Figure 8), providing the five critical functions of Section 5:
    pre-deployment health checks, per-switch RPA generation, coordinated
    phased deployment, post-deployment checks, and fleet consistency.

    Applications compile an operator intent into a {!plan}; {!deploy}
    executes it safely: pre-checks, write intended state, reconcile phase
    by phase with BGP convergence in between, post-checks.

    {!deploy_resilient} is the fault-tolerant deployment loop: bounded
    retries with exponential backoff + jitter, a per-phase failure budget
    that triggers reverse-order rollback, and a journal persisted to the
    replicated NSDB so a controller crashed mid-deploy can be replaced and
    {!resume} the rollout idempotently. Unreachable devices fail static:
    their installed RPA engines keep running and distributed BGP keeps
    routing while the controller is degraded.

    {!deploy_resilient} and {!resume} (and {!deploy}, through
    {!deploy_resilient}) run one rollout body: validate, lint gate, verify
    gate, pre-checks, setup writes, phases. {!resume} is a journal
    dispatch followed by that body, started at the journalled cursor and
    without the pre-checks. *)

type plan = {
  plan_name : string;
  rpas : (int * Rpa.t) list;  (** per-device generated RPAs *)
  phases : int list list;
      (** deployment order, from {!Deployment.phases}; every device in
          [rpas] must appear in exactly one phase *)
  pre_checks : Health.check list;
  post_checks : Health.check list;
}

val plan_loc : plan -> int
(** Total rendered LOC of the distinct RPAs in the plan (Table 3's
    "RPA LOC"). Identical per-device RPAs are counted once, matching how
    operators author one RPA template per layer. *)

(** {1 Lint hook}

    The static analyzer (lib/analysis) depends on this library, so the
    controller cannot call it directly; instead the analysis library
    registers its engine here at link time. Deployments then run a
    pre-flight lint pass controlled by the [?lint] mode: [`Off] skips it,
    [`Warn] (the default) logs findings, [`Enforce] aborts the deployment
    when any error-severity finding is present. *)

type lint_finding = {
  lint_error : bool;  (** error severity (vs warning/info) *)
  lint_code : string;  (** stable diagnostic slug *)
  lint_message : string;
}

type lint_mode = [ `Off | `Warn | `Enforce ]

val set_linter : (Topology.Graph.t -> plan -> lint_finding list) -> unit
(** Registers the lint engine. Called by the analysis library's
    initializer; the last registration wins. *)

val linter : unit -> (Topology.Graph.t -> plan -> lint_finding list) option
(** The registered engine, if any — e.g. for {!Verification} to run the
    analyzer over every spec's plan. *)

(** {1 Verifier hook}

    The symbolic phase verifier (lib/analysis) registers here the same
    way. Unlike the linter it takes the network, not just the graph: the
    destination classes it proves loop- and blackhole-freedom for come
    from what the speakers actually originate. Deployments run it as a
    second pre-flight gate controlled by [?verify] (same modes and
    default as [?lint]). *)

val set_verifier : (Bgp.Network.t -> plan -> lint_finding list) -> unit
(** Registers the phase-verifier engine. Called by the analysis library's
    initializer; the last registration wins. *)

val verifier : unit -> (Bgp.Network.t -> plan -> lint_finding list) option
(** The registered verifier, if any — e.g. for {!Verification} and
    {!Ops} admission control. *)

type device_failure = {
  failed_device : int;
  attempts : int;
  last_error : string;
}
(** A device whose RPC kept failing after every allowed attempt. *)

type report = {
  applied : int;
  skipped_in_sync : int;
  unreachable : int list;
      (** Devices that stayed management-unreachable through all attempts.
          They fail static — whatever RPA they run keeps running — and are
          {e not} counted against the failure budget. *)
  deploy_seconds : float list;  (** per applied device (Figure 12 samples) *)
  retries : int;
  backoff_seconds : float list;
      (** Every backoff wait, in order — the retry schedule. Deterministic
          for a given [jitter_seed]. *)
  gave_up : device_failure list;
  resumed_from_phase : int option;
      (** [Some n] when this report comes from {!resume} restarting at
          phase [n]. *)
}

type outcome =
  | Completed of report
  | Rolled_back of { partial : report; reasons : string list }
      (** The failure budget was exceeded (or post-checks failed); the
          phases applied so far were undone in reverse order and the NSDB
          plan record cleared. *)
  | Crashed of { partial : report; completed_phases : int }
      (** A scheduled controller crash stopped the rollout. The journal
          still says in-progress; call {!resume}. [completed_phases] is the
          journalled cursor, or the phase the rollout started at when the
          crash hit its setup writes (0 for a fresh deploy). *)
  | Fenced of { partial : report; completed_phases : int }
      (** The controller was deposed mid-rollout: its [?fence] reported the
          lease lost, or an agent/NSDB rejected a stale-epoch write. It
          fail-stopped (abandoned the phase, touched nothing further); the
          journal still says in-progress and the {e new} leader resumes.
          [completed_phases] as for [Crashed]. *)
  | Aborted of string list
      (** Validation or pre-checks failed; nothing was touched. *)

val outcome_name : outcome -> string
(** ["completed"], ["rolled-back"], ["crashed"], ["fenced"] or
    ["aborted"]: the name reports and JSONL records use. *)

type fence_status =
  | Fence_held of int
      (** The caller holds a valid lease; the int is its fencing epoch,
          stamped onto every agent RPC and NSDB write. *)
  | Fence_lost  (** Lease lost or superseded: fail-stop ([Fenced]). *)
  | Fence_crashed  (** The HA layer scheduled this member's crash. *)

type retry_policy = {
  max_attempts : int;  (** per device, >= 1 *)
  base_backoff_s : float;
  backoff_multiplier : float;
  max_backoff_s : float;
  jitter : float;
      (** Extra wait as a fraction of the capped backoff, drawn uniformly
          from a dedicated RNG stream seeded with [jitter_seed]. *)
  jitter_seed : int;
  failure_budget : int;
      (** Hard failures (exhausted RPC retries) tolerated per phase before
          the deployment rolls itself back. *)
}

val default_retry_policy : retry_policy
(** 4 attempts, 2 ms base backoff doubling to a 50 ms cap, 50% jitter,
    zero failure budget. *)

type t

val create :
  ?seed:int -> ?agent:Switch_agent.t -> ?nsdb:Nsdb.Replicated.t ->
  Bgp.Network.t -> t
(** [agent] and [nsdb] let several controller replicas share one switch
    agent and one replicated NSDB — the HA deployment shape, where the
    fleet's device state and the journal are common infrastructure and
    only the controller process is replicated. By default each controller
    gets a private agent and a fresh 2-replica NSDB (single-controller
    operation, unchanged). *)

val network : t -> Bgp.Network.t
val agent : t -> Switch_agent.t
val nsdb : t -> Nsdb.Replicated.t

val epoch_writes : t -> (float * int) list
(** Audit trail for {!Invariant.check_ha}: (virtual time, epoch) of every
    committed NSDB write made under a fence, in commit order. *)

val services : t -> Service.t list
(** All service tasks of this controller deployment (for Figure 11). *)

val deploy :
  ?lint:lint_mode -> ?verify:lint_mode -> t -> plan ->
  (report, string list) result
(** Single-shot deployment (one attempt per device, no failure budget):
    pre-checks (failures abort with their messages), write intended state,
    reconcile phase by phase letting the network converge after each
    phase, post-checks. Post-check failures now roll the deployment back
    (reverse phase order) and clear the recorded intent, so the NSDB and
    the devices agree the plan is not live. *)

val deploy_resilient :
  ?policy:retry_policy ->
  ?fault:Dsim.Mgmt_fault.t ->
  ?fence:(unit -> fence_status) ->
  ?between_phases:(int -> unit) ->
  ?watchdog:(int -> [ `Ok | `Breach of string list ]) ->
  ?lint:lint_mode ->
  ?verify:lint_mode ->
  t ->
  plan ->
  outcome
(** The fault-tolerant deployment loop. [fault] injects per-RPC and
    per-NSDB-write fates and scheduled controller crashes (attach the same
    model to the agent with {!Switch_agent.set_mgmt_fault}).
    [between_phases] runs after each phase has converged — the hook for
    {!Invariant} sweeps while the controller is degraded. Backoff waits
    advance {e virtual} time, so BGP keeps converging while the controller
    sleeps.

    [fence] is the HA hook (see {!Ha.fence}): it is evaluated before every
    agent RPC, intent update and NSDB write. While it returns
    [Fence_held epoch], that epoch stamps the operation; [Fence_lost]
    makes the deployment fail-stop with the [Fenced] outcome, and
    [Fence_crashed] with [Crashed]. Unfenced deployments (the default)
    behave exactly as before.

    [watchdog] is the runtime SLO hook (see {!Ops.Watchdog}): evaluated
    after [between_phases] at every phase boundary, on the converged
    network. [`Breach reasons] records a remediation event at
    [journal/<plan>/remediation] and triggers the same reverse-order
    rollback as a blown failure budget; the outcome is [Rolled_back] with
    the breach reasons. The default never breaches. *)

val resume :
  ?policy:retry_policy ->
  ?fault:Dsim.Mgmt_fault.t ->
  ?fence:(unit -> fence_status) ->
  ?between_phases:(int -> unit) ->
  ?watchdog:(int -> [ `Ok | `Breach of string list ]) ->
  ?lint:lint_mode ->
  ?verify:lint_mode ->
  t ->
  plan ->
  outcome
(** Picks a crashed deployment up from the NSDB journal. It first
    dispatches on the journal: none or rolled-back gives [Aborted]; a
    completed one gives an empty [Completed] with [resumed_from_phase =
    Some (number of phases)] and runs no gate. An in-progress journal runs
    the {!deploy_resilient} body without its pre-checks: re-record the
    intent, then re-run phases from the journalled cursor. Idempotent —
    devices already in sync are no-ops, so resuming converges to the same
    state as an uninterrupted deploy. *)

val journal_status : t -> plan -> string option
(** ["in-progress"], ["completed"] or ["rolled-back"], if a journal
    exists for this plan. *)

val journal_next_phase : t -> plan -> int option
(** The journalled phase cursor: first phase not yet fully applied. *)

val journal_remediation : t -> plan -> string option
(** The remediation event a watchdog breach recorded for this plan, if
    any — kept with the (never-pruned) rolled-back journal as audit. *)

val ops_queue_root : string
(** Root of the admission-queue journal ({!Ops} schema: [opsq/<seq>/plan],
    [opsq/<seq>/state], ...). The journal GC consults it so that a plan
    with a queued-but-not-started submission keeps its journal. *)

val queued_in_ops : t -> string -> bool
(** Whether the admission queue currently holds a [queued] (not yet
    started) entry for this plan name. Such plans are protected from
    {!journal_gc} and defer their [completed_seq] stamp on completion. *)

val set_journal_retention : t -> int -> unit
(** How many completed [journal/<plan>/] subtrees to keep (default 8).
    Older completed journals are pruned by the GC pass that runs after
    every successful deployment. In-progress and rolled-back journals are
    never pruned. *)

val journal_gc : ?retain:int -> t -> int
(** Prunes completed journals beyond the [retain] most recent (default:
    the controller's retention setting), ordered by their completion
    sequence numbers. Returns how many subtrees were pruned. Also runs
    automatically after each successful deployment. *)

val remove : t -> plan -> (report, string list) result
(** Removes the plan's RPAs in the {e reverse} phase order (the
    Section 5.3.2 removal rule), restoring native BGP. Honors the plan's
    health checks like {!deploy}: pre-check failures abort the removal;
    post-check failures are returned as [Error] but the removal is kept
    (re-installing a possibly-broken RPA is worse than paging). *)

val validate_plan : t -> plan -> (unit, string) result
(** Structural validation: phases cover exactly the plan's devices, and
    every device exists in the network. *)
