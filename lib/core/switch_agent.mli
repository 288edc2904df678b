(** The Switch Agent: Centralium's I/O layer (Section 5.1).

    Continuously reconciles intended state with current state by writing
    RPAs into the distributed control plane (here: installing
    {!Engine}-backed hooks into the {!Bgp.Network} speakers) and by
    polling device state back into the current view.

    A device's RPAs live only in the agent's {!Service} views, as Figure 8
    draws it: the intended view holds what the controller wants and the
    current view what reconciliation installed, each as an {!Nsdb.Rpa}
    value under ["devices/<id>/rpa"]. A device with no current entry runs
    {!Rpa.empty}; it is in sync when {!Rpa.equal} holds. Reconciliation
    applies the diff; each application is timed (simulated RPC latency +
    apply cost), producing the Figure 12 deployment-time distribution.
    Unreachable devices become stragglers unless their intended
    operational state says they are down for maintenance (Section 5.2,
    Device Failures).

    The agent RPC path can be made adversarial with
    {!set_mgmt_fault}: RPCs then draw a per-call fate (loss / timeout /
    transient error) from a seeded {!Dsim.Mgmt_fault} model, and
    {!reconcile_device} reports those fates as typed failures for the
    controller's retry loop. *)

type t

val create : ?seed:int -> Bgp.Network.t -> t
(** The apply cost of each RPA is sampled from the RNG seeded by [seed],
    so deploy-time reports are bit-reproducible across hosts. *)

val service : t -> Service.t
val network : t -> Bgp.Network.t

(** {1 Intended state} *)

val set_intended : t -> device:int -> Rpa.t -> unit
(** Writes the intended view once. {!Rpa.empty} intends no RPA. *)

val current_rpa : t -> device:int -> Rpa.t option

val set_maintenance : t -> device:int -> bool -> unit
(** Marks the device's intended operational state as down-for-maintenance. *)

(** {1 Reachability} *)

val set_reachable : t -> device:int -> bool -> unit

val attach_management_network :
  t -> Openr.Network.t -> controller_host:int -> unit
(** After this, a device also counts as reachable only while the Open/R
    management plane has a route from [controller_host] to it — the
    production design where Centralium accesses devices via routes provided
    by Open/R, avoiding circular dependency on the BGP state it manipulates
    (Appendix A.2). *)

val unexpected_unreachable : t -> int list
(** Unreachable devices that are {e not} intended to be in maintenance —
    the ones operators must be alerted about. *)

(** {1 Management-plane faults} *)

val set_mgmt_fault : t -> Dsim.Mgmt_fault.t option -> unit
(** Attaches (or clears) a management-plane fault model. While attached,
    every reconcile RPC draws a fate from it. *)

(** {1 Reconciliation} *)

type rpc_failure = [ `Rpc_lost | `Rpc_timeout | `Transient of string ]
(** Typed RPC failures, reported instead of silent success so the
    controller can retry with backoff:
    - [`Rpc_lost]: the request never reached the device — nothing applied.
    - [`Rpc_timeout]: the device {e applied} the RPA but the ack was lost
      (a [Time_out] fate); a retry observes [`In_sync].
    - [`Transient reason]: the agent answered with a retryable error. *)

type outcome = [ `Applied | `In_sync | `Unreachable | `Fenced | rpc_failure ]
(** [`Fenced]: the RPC was stamped with an epoch older than one this agent
    has already accepted — it came from a deposed leader and was rejected
    without touching the device. Not retryable under the same epoch. *)

val reconcile_device : ?epoch:int -> t -> int -> outcome
(** Applies the intended RPA of one device to its BGP speaker (via the
    network's event queue at the current virtual instant) and updates the
    current view. The simulated deployment time is recorded.

    [epoch] stamps the RPC with the caller's fencing epoch: a value below
    the highest epoch this agent has accepted yields [`Fenced] (and bumps
    the [ha.fenced_rpcs] counter); an equal-or-higher value ratchets the
    acceptance floor before the RPC proceeds. Unstamped RPCs (single-
    controller operation) bypass the fence. *)

val accepted_epoch : t -> int
(** Highest fencing epoch this agent has accepted (0 until any stamped
    RPC arrives). *)

val epoch_commits : t -> (float * int) list
(** Audit trail for {!Invariant.check_ha}: (virtual time, epoch) of every
    committed RPA apply, in commit order. Unstamped applies record the
    acceptance floor at commit time. *)

val reconcile : t -> devices:int list -> int
(** Reconciles the given devices (in the given order); returns how many
    changed. RPC failures are left for the next sweep (the agent loop is a
    level-triggered reconciler). Does not run the network — callers decide
    when to let BGP converge (e.g. between deployment phases). *)

val stragglers : t -> int list
(** Devices whose current RPA does not equal the intended one. Unlike
    {!Service.out_of_sync}, a device cleared but never applied is in
    sync, and maintenance keys do not count. *)

val deploy_time_samples : t -> float list
(** Seconds per applied RPA update, most recent last (Figure 12 data). *)

val clear_deploy_times : t -> unit
