(** Control-plane high availability: lease-based leader election with
    fencing epochs and deterministic takeover.

    Centralium's centralized authority is its single point of failure; the
    deployment journal (see {!Controller.resume}) made one controller
    crash-{e resumable}, and this module makes the controller {e replicated}:
    a cluster of controller members shares one {!Switch_agent}, one
    {!Nsdb.Replicated} and one network, and elects a leader through a
    lease key in the NSDB.

    {2 Lease protocol}

    The lease lives at [ha/lease] as ["holder:epoch:expiry"] and is only
    ever written through {!Nsdb.Replicated.compare_and_set} — acquisition
    CASes from the observed (absent or expired) value, renewal CASes from
    the exact current value. The epoch is a monotonic counter: each
    successful acquisition takes [max granted epoch + 1] and publishes the
    new floor at [ha/epoch]. On contention the CAS linearizes: members
    tick at staggered times, so the first to observe the expiry wins and
    the rest see their expected value superseded — deterministic
    tie-break, no randomness.

    {2 Fencing}

    A leader runs deployments with a {!fence} evaluated before {e every}
    agent RPC, intent update and NSDB write: while the lease is valid the
    fence stamps the member's epoch onto the operation; once it is lost
    the deployment fail-stops with {!Controller.Fenced} (abandoning its
    phase). Independently, agents reject RPCs below their accepted epoch
    ([ha.fenced_rpcs]) and the NSDB write path rejects writes below
    [ha/epoch] ([ha.fenced_writes]) — a deposed leader whose local check
    is stale is still stopped at the receivers.

    {2 Timers and determinism}

    All timers (member ticks, which acquire or renew the lease, and the
    chaos schedule from {!type:Dsim.Mgmt_fault.ha_profile}) live on the Dsim
    virtual clock as a lazily-pumped agenda rather than event-queue events
    — {!Bgp.Network.converge} runs the queue to quiescence, so timer
    events there would never let it terminate. The agenda is replayed up
    to the current instant at every fence evaluation and from the takeover
    wait loop; each firing depends only on HA-owned state and its own
    logical time, so the replay is bit-identical however coarsely it is
    pumped. Killing the leader at a seeded point mid-deployment therefore
    yields a standby takeover whose final forwarding state is
    bit-identical to the uninterrupted run. *)

type t

val create :
  ?fault:Dsim.Mgmt_fault.t ->
  members:int ->
  Bgp.Network.t ->
  Switch_agent.t ->
  Nsdb.Replicated.t ->
  t
(** A cluster of [members] controller replicas sharing the given network,
    switch agent and NSDB. A lease lives 50 ms without renewal; each
    member ticks every 10 ms (an acquire attempt or a renewal), and the
    ticks are staggered 0.5 ms apart so contention resolves in member-id
    order. [fault] supplies the HA chaos schedule
    ({!type:Dsim.Mgmt_fault.ha_profile}: leader crashes, lease-store
    partitions) and is the per-op fate model of every {!run_plan}
    attempt. *)

val start : t -> unit
(** Starts the member timers at the current virtual instant. *)

val stop : t -> unit
(** Stops all timers; pending agenda entries are dropped. *)

val advance : t -> unit
(** Replays every timer firing up to the current virtual instant. Called
    internally by {!fence}, {!current_leader} and {!run_plan}; exposed for
    tests that drive time by hand. *)

(** {1 Leadership} *)

val current_leader_epoch : t -> (int * int) option
(** [(member id, epoch)] of the currently valid lease holder, if any. *)

val leader_id : t -> int option
(** Member id of the currently valid lease holder, if any. *)

val kill : t -> int -> unit
(** Fail-stops member [i] immediately (test hook — scheduled crashes
    normally come from the fault model). If it was leading, the takeover
    clock starts now. *)

val wait_for_leader : t -> int option
(** Advances virtual time in tick-sized steps (in-flight BGP events keep
    draining — the fleet fails static) until some member holds a valid
    lease; returns its id, or [None] after 60 simulated seconds or once
    every member is dead. *)

(** {1 Running plans} *)

val run_plan :
  ?policy:Controller.retry_policy ->
  ?between_phases:(int -> unit) ->
  ?watchdog:(int -> [ `Ok | `Breach of string list ]) ->
  t ->
  Controller.plan ->
  (int * Controller.outcome) list * Controller.outcome option
(** The HA deployment driver: wait for a leader, have it deploy (fresh
    plan) or resume (journal present) under its fence, and on a [Crashed]
    or [Fenced] outcome loop — the next leader picks the rollout up from
    the journal. Returns every (member id, outcome) attempt in order plus
    the terminal outcome ([None] if leadership was never re-established
    or 64 attempts were exhausted). Every attempt runs the default lint
    mode under the cluster's [fault], which is also attached to the shared
    agent.

    [watchdog] is forwarded to every deploy/resume attempt as the runtime
    SLO hook (see {!Ops.Watchdog}). *)

(** {1 Introspection} *)

val members : t -> int
val controller : t -> int -> Controller.t
val member_alive : t -> int -> bool

val elections : t -> int
(** Successful lease acquisitions so far. *)

val takeover_ms : t -> float list
(** Simulated milliseconds from each leader loss to the next successful
    acquisition, in order. *)

val grants : t -> (int * int * float * float) list
(** The lease-grant audit: (holder, epoch, start, expiry) per granted
    epoch, chronological, renewals folded into the epoch's expiry — the
    [grants] input of {!Invariant.check_ha}. *)

val epoch_commits : t -> (float * int) list
(** Every epoch-stamped committed mutation — agent RPA applies plus the
    member controllers' fenced NSDB writes — sorted by time: the
    [commits] input of {!Invariant.check_ha}. *)
