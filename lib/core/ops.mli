(** Overload robustness for continuous operations: admission control with
    a bounded priority plan queue, and the runtime SLO watchdog.

    The paper's controller serves a fleet that never stops churning.
    Under overload the centralized component must degrade gracefully:
    submissions beyond capacity are {e shed} with a typed {!Overloaded}
    verdict (never silently dropped), admitted plans wait in a bounded
    priority queue whose state is journaled to the replicated NSDB — so
    an HA takeover (PR 8) rebuilds exactly the same queue — and plans
    whose targets conflict are serialized rather than interleaved.

    {2 Queue journal schema}

    Everything needed to rebuild the queue lives under
    {!Controller.ops_queue_root} in the replicated NSDB:

    {v
      opsq/<seq>/plan     String  plan name
      opsq/<seq>/tenant   String
      opsq/<seq>/class    String  interactive | standard | bulk
      opsq/<seq>/state    String  queued | started | done
      opsq_meta/subs      Int     submissions so far (admitted + shed)
      opsq_meta/shed/<n>  String  "<tenant>:<plan>:<reason>" audit records
    v}

    Plan {e bodies} are not serialized (health checks are code): recovery
    takes a [lookup] from plan name to plan, which a deterministic driver
    regenerates from its seed. *)

type plan_class = Interactive | Standard | Bulk

val class_name : plan_class -> string
val class_of_string : string -> plan_class option

val class_rank : plan_class -> int
(** Dispatch priority: [Interactive] (0) before [Standard] (1) before
    [Bulk] (2). Ties dispatch in submission order. *)

type overload_reason =
  | Queue_full of { limit : int }
  | Tenant_limit of { tenant : string; limit : int }
  | Class_limit of { cls : plan_class; limit : int }
  | Unsafe_plan of { errors : string list }
      (** the registered admission verifier proved the plan unsafe
          (forwarding loop, blackhole or reachability loss in some
          deployment state); rejected before consuming any queue slot *)

val overload_reason_to_string : overload_reason -> string

type admit_result =
  | Admitted of int  (** the queue sequence number (the ticket) *)
  | Overloaded of overload_reason
      (** shed at admission: nothing was enqueued or journaled except the
          shed audit record *)

type config = {
  max_queue : int;  (** queued + started entries, fleet-wide *)
  per_tenant : int;  (** queued + started entries per tenant *)
  per_class : int;  (** queued + started entries per plan class *)
}

val default_config : config
(** [max_queue = 8], [per_tenant = 4], [per_class = 6]. *)

type t

val create : ?config:config -> Nsdb.Replicated.t -> t
(** A fresh, empty queue over (and journaled to) this NSDB. *)

val recover :
  ?config:config ->
  lookup:(string -> Controller.plan option) ->
  Nsdb.Replicated.t ->
  t
(** Rebuilds the queue a predecessor journaled: every [opsq/<seq>] entry
    that is not [done], in seq order, bound to its plan via [lookup]
    (entries whose plan the lookup no longer knows are dropped with a
    warning). Deterministic: two recoveries from the same NSDB state
    yield the same queue. *)

val submit :
  t -> tenant:string -> cls:plan_class -> Controller.plan -> admit_result
(** Admission control. Checked in order: the admission verifier (an
    unsafe plan is shed with {!Unsafe_plan} whatever the queue looks
    like), then {!config.max_queue}, {!config.per_tenant},
    {!config.per_class}; the first exceeded limit sheds the submission
    with its typed reason and an [opsq_meta/shed] audit record. Admission
    journals the entry before returning, so a takeover between submit and
    start loses nothing. *)

val next_ready : t -> (int * Controller.plan) option
(** The entry to run next: a [started] entry left behind by a crashed
    predecessor first (resume before new work); otherwise the queued
    entry with the best (class rank, seq) among those no {e earlier}
    submission conflicts with — a conflicting pair executes in submission
    order regardless of priority (serialized, not interleaved), while
    non-conflicting plans may overtake. *)

val mark_started : t -> int -> unit
val mark_done : t -> int -> unit
(** State transitions, mirrored to the journal. [mark_done] lifts the
    plan's GC protection ({!Controller.queued_in_ops}). *)

val depth : t -> int
(** Queued + started entries. *)

val queued_names : t -> string list
(** Plan names with state [queued], in seq order. *)

val shed_log : t -> (int * string * string * string) list
(** Every shed submission: (submission index, tenant, plan name, reason),
    in submission order — rebuilt from the journal on {!recover}. *)

val submissions : t -> int
(** Total submit calls observed (admitted + shed), surviving recovery. *)

val gc : ?retain:int -> t -> int
(** Prunes [done] queue entries beyond the [retain] (default 16) most
    recent, returning how many were pruned. Queued/started entries are
    never pruned. *)

val set_conflict_probe :
  (Controller.plan -> Controller.plan -> bool) -> unit
(** Registers the cross-plan conflict predicate. The analysis library's
    initializer installs a destination-prefix/target-overlap probe built
    on its merge/overlap machinery; without it (binary not linked against
    lib/analysis) the queue falls back to {!plans_conflict}'s structural
    device-overlap check. *)

val plans_conflict : Controller.plan -> Controller.plan -> bool
(** The conflict predicate in force: the registered probe, or the
    built-in check (plans sharing a target device conflict). *)

val set_admission_verifier : (Controller.plan -> string list) -> unit
(** Registers the admission safety probe: given a plan, return the
    error-severity verification findings (empty = safe to queue).
    Typically bound by the queue's owner as
    [fun plan -> errors of (Controller.verifier ()) net plan] against the
    network the queue deploys to; unregistered, admission stays purely
    capacity-based. *)

val clear_admission_verifier : unit -> unit
(** Removes the admission safety probe (tests; queue re-targeting). *)

(** {1 The runtime watchdog}

    Samples {!Invariant} sweeps and
    {!Dataplane.Metrics.loss_integrals} between the phases of an
    in-flight plan. The SLO is zero tolerance: any invariant violation in
    the armed window, or any black-holed demand since {!arm}, is a
    breach. Pass {!probe} as the [?watchdog] of
    {!Controller.deploy_resilient} (or {!Ha.run_plan}): a breach triggers
    the controller's reverse-order rollback and records a remediation
    event in the journal. *)
module Watchdog : sig
  type t

  val create :
    net:Bgp.Network.t ->
    nsdb:Nsdb.Replicated.t ->
    demands:(int * float) list ->
    prefix:Net.Prefix.t ->
    unit ->
    t

  val arm : t -> plan_name:string -> unit
  (** Start a health window for this plan: snapshot the FIB baseline,
      clear the trace (bounding its growth over a long-horizon run), and
      subscribe to the plan's journal subtree so remediation events are
      observed. Re-arming first disarms. *)

  val probe : t -> int -> [ `Ok | `Breach of string list ]
  (** The [?watchdog] callback: integrates blackhole-seconds from arm
      time to now over the FIB timeline and sweeps the invariants;
      returns [`Breach] with human-readable reasons once the window has
      seen any invariant violation (counted over its phase boundaries;
      the count resets at {!arm}) or any blackhole-seconds. *)

  val disarm : t -> unit
  (** Ends the window and {e unsubscribes} the journal watch — the leak
      fix: long-horizon loops arm/disarm per plan without accumulating
      dead callbacks. *)

  val remediations : t -> (string * string) list
  (** (plan, remediation detail) events observed via the journal
      subscription, in order. *)

  val violations_seen : t -> int
  (** Cumulative invariant violations across all probes since creation. *)

  val blackhole_seconds : t -> float
  (** Blackhole-seconds accumulated over the armed windows so far. *)
end
