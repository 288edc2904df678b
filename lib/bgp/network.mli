(** An event-driven network of BGP speakers over a topology.

    Every device of the graph gets a speaker; every graph link becomes one
    or more eBGP sessions. Messages are delivered through the discrete-event
    queue with randomized per-message latency but FIFO order within a
    session (BGP runs over TCP), which is exactly the asynchrony that
    produces the paper's transient states. All operations below merely
    {e schedule} work; call {!converge} (or {!run_until}) to let the
    network react. *)

type latency_model = Dsim.Rng.t -> float
(** Samples a one-way message latency in seconds. *)

type t

val create :
  ?seed:int ->
  ?wcmp:bool ->
  ?latency:latency_model ->
  Topology.Graph.t ->
  t
(** Builds a speaker per node and sessions per link (respecting the link's
    [sessions] count). [wcmp] (default false) applies to every speaker: see
    {!Speaker.create}. [latency] defaults to 100 µs base + exponential with
    1 ms mean. *)

val graph : t -> Topology.Graph.t
val queue : t -> Dsim.Event_queue.t
val trace : t -> Trace.t
(** The network's event log: every act below recorded once, with its
    causal DAG when the network was created under
    {!Trace.with_provenance}. Only such a log stores message records;
    any other counts its messages ({!Trace.messages_sent},
    {!Trace.messages_dropped}, {!Trace.keepalives_sent}) and stores the
    rest.

    Its FIB events come from the speakers' own reports
    ({!Speaker.take_fib_changes}): after each delivered Update, Withdraw or
    End-of-RIB, each speaker transition and each {!restart_device} crash,
    the network logs one {!Trace.Fib_change} per entry the speaker reports,
    in the report's order. The network reports only changes made by its
    own acts: whatever a caller did to a speaker directly (see {!speaker})
    is dropped from the speaker's record when the next act on it starts. *)

val now : t -> float

val speaker : t -> int -> Speaker.t
(** For inspection. Mutating the speaker directly bypasses the change
    stamp (see {!stamp}), and its FIB changes never reach the event log
    (see {!trace}). *)

(** {1 Change stamp}

    A stamp changes whenever anything a judge of the network's state can
    read may have changed:
    - the network's change counter, bumped by every speaker state
      transition (originations, withdrawals, hook and policy changes,
      session changes, stale sweeps), by every delivered Update, Withdraw
      or End-of-RIB (keepalives only prove liveness), by the state reset
      of {!restart_device}, by {!set_eval_mode} and by {!enable_liveness};
    - the graph's {!Topology.Graph.version}, bumped by every graph
      mutation, including link flips made on the graph directly;
    - the virtual clock, since a time-bounded RPA statement can expire
      with no event at all.

    The contract: every state change goes through this module or through
    {!Topology.Graph}. Two equal stamps then mean the same network in the
    same state, and a pure function of that state (an invariant sweep, a
    verification against the network's origins) may return its previous
    answer. The event log, the fault model and liveness bookkeeping are not
    part of the state a stamp covers. *)

type stamp

val stamp : t -> stamp
(** The network's stamp now. It holds no reference to the network. *)

val stamp_equal : stamp -> stamp -> bool
(** Same network, no change since. *)

(** {1 Scheduled operations} *)

val originate : ?delay:float -> t -> int -> Net.Prefix.t -> Net.Attr.t -> unit
val withdraw_origin : ?delay:float -> t -> int -> Net.Prefix.t -> unit

val set_link : ?delay:float -> t -> int -> int -> up:bool -> unit
(** Brings all sessions of the link up or down (and updates the graph). *)

val set_hooks : t -> int -> Rib_policy.hooks -> unit
(** Deploys an RPA (or restores native behaviour) on one device, as an
    event at the current instant. *)

val set_egress_policy_all : ?delay:float -> t -> int -> Policy.t -> unit
(** E.g. applies a maintenance drain export policy on a device. *)

val set_ingress_policy : t -> node:int -> peer:int -> Policy.t -> unit
(** Scheduled at the current instant, like {!set_hooks}. *)

val drain_device : ?delay:float -> t -> int -> unit
(** Shorthand: applies {!Policy.drain} as the device's global export
    policy. *)

val undrain_device : ?delay:float -> t -> int -> unit

(** {1 Evaluation mode} *)

val set_eval_mode : t -> Speaker.eval_mode -> unit
(** Switches every speaker between the incremental dirty-set decision
    pipeline (the default) and the full-table-per-transition oracle. Both
    modes converge to bit-identical FIBs, Adj-RIB-Outs, traces, and message
    sequences at every quiescent point (enforced by the test suite); only
    the decision count differs. Switch before scheduling work — an
    in-flight dirty set is not migrated. *)

(** {1 Session liveness & graceful restart}

    Entirely opt-in: without {!enable_liveness} the network behaves exactly
    as before — no keepalives, no hold timers, and silent transport loss
    (e.g. a 100% drop fault) leaves sessions nominally up with divergent
    RIBs forever (detectable only by {!Centralium.Invariant}'s
    session-staleness check). *)

val enable_liveness : ?config:Liveness.config -> until:float -> t -> unit
(** Starts two network timers on the event queue, one queued event each
    whatever the number of sessions. The liveness tick, every
    [config.keepalive_interval], walks the sessions over up links in
    {!Topology.Graph.links} order; for each session [(a, b)] it sends the
    a→b keepalive, then the b→a keepalive, then runs the hold check at [a],
    then at [b]. The reconnect sweep, every [config.reconnect_interval], is
    the walk of {!reestablish_sessions} without [~all]: it re-establishes
    torn-down sessions over up links.

    Keepalives are real {!Msg.t}s: they share FIFO channels with updates
    and are subject to the installed fault model, so enough consecutive
    drops expire the hold timer and tear the session down
    ({!Trace.Session_event} ["hold-expired"]; without liveness a session
    loss is not a trace event). When [config.graceful_restart] is set,
    every speaker switches to RFC 4724 semantics (stale retention on
    session loss, End-of-RIB resync, bounded by [config.stale_path_time]).
    Both timers stop at [until] (simulated time) so {!converge} still
    quiesces; stale-path timers started before [until] may fire up to one
    stale-path time after it. *)

val liveness : t -> Liveness.config option

val reestablish_sessions : ?all:bool -> t -> unit
(** Schedules, at the current instant, a bounce of every session over an
    up link where either end is down, in
    {!Topology.Graph.links} order — down (stale under graceful restart)
    then up on both ends, replaying the full-table resync. [~all:true]
    bounces every session regardless of state, which also repairs sessions
    blinded by message loss (divergent RIBs with both ends nominally up).
    Used to heal a network after a chaos window so it can reach a
    violation-free quiescent state. *)

(** {1 Fault injection}

    Entirely opt-in: a network without a fault model installed behaves
    exactly as before (and draws the same latency sequence as a faulty run
    with the same seed — the fault model uses its own RNG stream). *)

val set_fault : t -> Dsim.Fault.t option -> unit
(** Installs (or removes) a message-level fault model. Once installed,
    every transmitted message's fate — dropped, extra-delayed, or allowed
    to overtake earlier messages of its session — is drawn from the model.
    A drop counts as a send and a drop; under provenance it is logged as
    a {!Trace.Message_sent} followed by a {!Trace.Message_dropped}, one
    drop node in the causal DAG. *)

val fault : t -> Dsim.Fault.t option

val restart_device : ?delay:float -> t -> int -> recovery:float -> unit
(** Crashes the device's speaker at [delay] from now: its RIBs are cleared
    ({!Speaker.reset}), peers flush the routes they learned from it, and
    in-flight messages addressed to it are lost. [recovery] seconds later
    every session over an up link is re-established on both ends,
    replaying session establishment (full-table resend, re-origination).
    Logged as {!Trace.Speaker_restarted}, a causal root of everything the
    crash sets off. *)

val apply_schedule : t -> Dsim.Fault.schedule -> unit
(** Schedules every action of a fault schedule: link flaps via {!set_link}
    down/up pairs, speaker restarts via {!restart_device}. *)

(** {1 Running} *)

val converge : ?max_events:int -> t -> int
(** Runs the event queue to quiescence; returns the number of events
    executed. Raises [Failure] if [max_events] (default 2_000_000) is
    reached, which indicates a persistent control-plane oscillation. *)

val run_until : t -> time:float -> int

(** {1 Inspection} *)

val fib : t -> int -> Net.Prefix.t -> Speaker.fib_state option
val fib_snapshot : t -> Net.Prefix.t -> (int * Speaker.fib_state) list
(** FIB state of every device for the prefix (devices without a route are
    omitted). *)

val known_pids : t -> int list
(** Union of every speaker's known prefixes ({!Speaker.iter_known}) as
    prefix ids, sorted by prefix (never by id). *)

val known_prefixes : t -> Net.Prefix.t list
(** {!known_pids} as prefixes. *)

val fib_digest : t -> string
(** One digest over every speaker's installed FIB for every known prefix:
    two runs converged to bit-identical forwarding state iff their digests
    match. *)

val env : t -> Speaker.env
(** The environment handed to speakers (for direct speaker manipulation in
    tests, which bypasses the change stamp). *)
