(** Management-plane fault model (controller-side chaos).

    {!Fault} makes the {e data} plane adversarial (BGP message loss, link
    flaps, speaker restarts). This module does the same for the
    {e management} plane: the controller→agent RPCs and controller→NSDB
    writes that implement RPA deployment, plus scheduled controller
    crashes. Management-network {e partitions} are expressed through the
    Open/R out-of-band network (see
    [Switch_agent.attach_management_network]), not here — reachability is
    topology state, while this module models per-operation fates.

    Every draw comes from a dedicated seeded {!Rng} stream, so a chaos run
    is bit-reproducible: same seed, same fates, same retry schedule.

    Time is counted in {e management operations} (RPCs issued + NSDB
    writes attempted), not in simulated seconds: the deployment loop is
    synchronous from the controller's point of view, so "crash after N
    operations" is the deterministic analogue of "crash at time T". *)

type profile = {
  rpc_loss_prob : float;      (** RPC never reaches the agent. *)
  rpc_timeout_prob : float;
      (** RPC reaches the agent and is {e applied}, but the ack is lost —
          the ambiguous failure that forces idempotent retry. *)
  rpc_transient_prob : float; (** Agent answers with a retryable error. *)
  nsdb_loss_prob : float;     (** NSDB write is dropped before any replica. *)
}

val none : profile
(** The ideal management plane: every operation succeeds. *)

val flaky : profile
(** Mild chaos: a few percent of operations fail, deployments succeed
    after bounded retries. *)

val hostile : profile
(** Heavy chaos: enough failures to exhaust small retry budgets. *)

type rpc_fate =
  | Deliver
  | Lose  (** Request lost; the device applied nothing. *)
  | Time_out
      (** Applied but unacknowledged: the device now runs the new RPA,
          the controller cannot know. *)
  | Transient of string  (** Retryable agent-side error. *)

(** {1 High-availability chaos}

    The HA layer is driven by {e simulated time} (lease TTLs, renewal
    timers), so its fault schedule is time-based where the per-op model
    above is count-based. It draws nothing from the RNG: enabling it never
    perturbs the per-operation fate schedule. *)

type ha_profile = {
  leader_crash_times : float list;
      (** Virtual times at which the {e current} leader fail-stops. Each
          entry fires once, in sorted order (see {!leader_crash_due}). *)
  lease_partitions : (float * float) list;
      (** Half-open [\[start, stop)] windows during which the lease store
          is unreachable: acquires and renewals fail, standing leases keep
          expiring. *)
}

val ha_none : ha_profile
(** No HA chaos: leaders never crash and the lease store is always
    reachable. *)

type t

val create : ?crash_after_ops:int -> ?ha:ha_profile -> seed:int -> profile -> t
(** [crash_after_ops] schedules a controller crash: once that many
    management operations have been issued, {!crashed} turns true and the
    deployment loop must stop mid-flight (to be resumed from the journal
    by a restarted controller). [ha] (default {!ha_none}) adds the
    time-based HA chaos schedule. *)

val profile : t -> profile

val ops : t -> int
(** Management operations drawn so far (RPC fates + NSDB write fates). *)

val rpc_fate : t -> rpc_fate
(** Draws the fate of one agent RPC and advances the operation clock. *)

val nsdb_write_ok : t -> bool
(** Draws the fate of one NSDB write and advances the operation clock.
    [false] means the write was lost and should be retried. *)

val crashed : t -> bool
(** True once the scheduled crash point has been reached. *)

val ha_profile : t -> ha_profile

val leader_crash_due : t -> now:float -> bool
(** [leader_crash_due t ~now] consumes and reports the next scheduled
    leader crash whose time is [<= now]. Each scheduled crash fires
    exactly once; the HA driver polls this from its timer loop and
    fail-stops whichever member currently leads. *)

val lease_reachable : t -> now:float -> bool
(** False while [now] falls inside a configured lease-store partition
    window: the member cannot acquire or renew (its standing lease keeps
    aging toward expiry). *)
