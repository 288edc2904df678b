(** Runtime invariant checker for simulated networks.

    The paper's safety argument rests on properties that must hold of the
    {e programmed} forwarding state — no loops, no blackholes where a
    physical path survives, FIBs consistent with the RIBs that justify
    them. This module checks those properties against a live
    {!Bgp.Network.t}, either once (e.g. after convergence) or periodically
    through the event queue while faults and migrations are in flight.

    Violations observed {e during} convergence are expected — they are the
    transient phenomena the paper quantifies. Violations that persist at
    quiescence are bugs, either in the route plan or in the
    implementation. Callers distinguish the two by when they run
    {!check}: {!monitor} samples the transient window, a final {!check}
    after {!Bgp.Network.converge} judges the steady state. *)

type kind =
  | Forwarding_loop
      (** following FIB next hops for a prefix revisits a device *)
  | Blackhole
      (** a device has a surviving physical path (over up links) to an
          origin of the prefix but no FIB entry for it *)
  | Rib_inconsistency
      (** a FIB entry references a (next hop, session) with no
          corresponding route in the Adj-RIB-In — the Loc-RIB is not a
          subset of what was learned *)
  | Dead_next_hop
      (** a FIB entry's next hop is unusable: the session is down or the
          underlying link is down or gone — an ECMP group referencing a
          dead member *)
  | Unstable
      (** re-running the decision process (through whatever hooks — native
          or RPA — the speaker currently has) yields a different FIB or
          advertisement than what is installed; at quiescence the two must
          agree *)
  | Session_stale
      (** both ends consider the session established, yet what the sender's
          Adj-RIB-Out holds differs from what the receiver heard — the
          transport silently ate messages (e.g. a 100% drop fault with no
          liveness timers). Each end is internally converged, so only this
          cross-end comparison can see it. Routes marked stale by graceful
          restart are exempt (they are {e known} to be old). *)
  | Stale_route
      (** graceful-restart stale state — a stale-marked Adj-RIB-In route or
          a FIB entry preserved across a restart — still present. Expected
          mid-restart; at quiescence it means the End-of-RIB / stale-path
          sweep machinery leaked. *)
  | Dual_leader
      (** two controller lease grants with different epochs have
          overlapping validity windows (or one epoch was granted to two
          holders) — at some instant two leaders both held the fleet *)
  | Stale_epoch_write
      (** a device or NSDB mutation was committed under a fencing epoch
          after a higher epoch had already been granted — the fence let a
          deposed leader's write through *)

val kind_name : kind -> string
(** Stable machine-readable tag, e.g. ["forwarding-loop"]. *)

type violation = {
  device : int option;  (** the device at fault, when attributable *)
  prefix : Net.Prefix.t option;
  kind : kind;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** {1 Checking} *)

val check : ?prefixes:Net.Prefix.t list -> Bgp.Network.t -> violation list
(** Runs every network-level check ({!Forwarding_loop}, {!Blackhole},
    {!Rib_inconsistency}, {!Dead_next_hop}, {!Unstable}, {!Session_stale},
    {!Stale_route}) over the given prefixes (default: every prefix any
    speaker knows; the session and stale checks are prefix-independent and
    always run). Empty list = all invariants hold right now.

    A sweep is pure: it reads the speakers, the graph and the clock, and
    changes nothing (its re-decisions are dry runs, so no hook side effect
    fires). [check] therefore keeps its last result, keyed by the network's
    {!Bgp.Network.stamp} and the prefixes asked about, and returns it when
    asked the same about a network whose stamp has not moved — e.g. a
    between-phases hook and a watchdog probe at one phase boundary. Only a
    sweep that runs opens an [invariant.sweep] span; the [invariant.checks]
    and [invariant.violations] counters count every call. The kept result
    holds no reference to the network.

    {b Cost.} A sweep builds one frame: the graph in dense positions
    ({!Topology.Frame}) with each device's speaker, and the network's
    known prefix ids sorted by prefix ({!Bgp.Network.known_pids}). Every
    check then probes speaker tables by prefix id through {!Bgp.Speaker}'s
    read-only accessors: one multi-source breadth-first search per prefix
    for blackholes, one walk over the known ids per session direction,
    and, for stability, one dry-run decision per prefix each device
    {!Bgp.Speaker.knows}. Besides the frame and those decisions, what a
    sweep allocates is its violations. The frame is dropped when the sweep
    returns. *)

val check_session_staleness : Bgp.Network.t -> violation list
(** The cross-end session check alone, the same code a sweep runs: for
    every session both ends consider up, the receiver's raw Adj-RIB-In
    must mirror the sender's Adj-RIB-Out (stale-marked routes exempt).
    Works with liveness timers disabled — this is the only detector for
    silently blinded sessions in legacy mode. *)

val check_stale : Bgp.Network.t -> int list -> violation list
(** The graceful-restart leak check alone, over the given device ids, the
    same code a sweep runs per device. *)

val check_forwarding :
  ?prefix:Net.Prefix.t ->
  lookup:(int -> Bgp.Speaker.fib_state option) ->
  devices:int list ->
  unit ->
  violation list
(** The loop check alone, over an arbitrary forwarding function — no
    network required. Lets tests seed a known-bad FIB directly and assert
    the checker flags it. *)

val check_ha :
  grants:(int * int * float * float) list ->
  commits:(float * int) list ->
  violation list
(** The control-plane HA invariants, over audit trails rather than the
    network: [grants] is the lease-grant history ((holder, epoch, start,
    expiry) — {!Ha.grants}) and [commits] the epoch-stamped committed
    mutations ((time, epoch) — {!Ha.epoch_commits}). Reports
    {!Dual_leader} for any overlap between different epochs' validity
    windows (or one epoch with two holders) and {!Stale_epoch_write} for
    any commit made under an epoch after a higher one was granted.
    Commits with epoch 0 (unfenced single-controller operation) are
    exempt. *)

(** {1 Recording} *)

val record : Bgp.Network.t -> violation list -> unit
(** Appends each violation to the network's trace as
    {!Bgp.Trace.Violation}, stamped with the current event-queue time. *)

val monitor : ?period:float -> until:float -> Bgp.Network.t -> unit
(** Schedules a repeating check every [period] seconds (default 5 ms) of
    virtual time until [until], recording whatever it finds into the
    trace. Install before running the event queue; the sampled violations
    are the transient ones. *)
