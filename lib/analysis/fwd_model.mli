(** Symbolic per-class forwarding model: what the fleet's FIBs look like
    for one destination class under one policy state, without running
    Dsim.

    The model is a synchronous-rounds fixpoint of BGP route propagation
    with the {e real} selection semantics plugged in: candidates are built
    from neighbours' round [r-1] advertisements (AS-path loop prevention
    and route-filter gates included), native selection is
    {!Bgp.Decision.select}, and a device carrying an RPA evaluates it
    through {!Centralium.Engine.evaluate_selection} — the same code path
    the simulated speakers run. Each round is therefore a legal transient
    snapshot of an asynchronous convergence, and the final round (if the
    iteration converges) is the steady state.

    The rounds are evaluated semi-naively: round 1 decides every device,
    and round [r+1] re-decides only the devices importing from one whose
    advertisement changed in round [r]; the rest keep their advertisement
    and entry. This is exact — a decision reads only the importers'
    previous-round advertisements, while the graph, the route-filter
    verdicts, the ctx ([now = 0.0]) and the engines are fixed for the
    compile — so every round, {!round_edges}, {!rounds_run} and
    {!converged} match re-deciding all devices every round. Engines
    passed in must not carry an [on_withdraw] callback, which would
    observe the skipped decisions.

    The verifier checks loop-freedom on {e every} round — transient
    forwarding loops (the Figure 9 hazard) appear as FIB cycles in
    intermediate rounds even when the iteration oscillates — and
    blackholes / reachability on the final state. *)

type entry = {
  e_next_hops : int list;
      (** forwarding next-hop device ids, sorted, deduplicated over
          parallel sessions; empty = no forwarding state *)
  e_origin : bool;  (** the device originates the class (walk terminates) *)
  e_kept_warm : bool;
      (** entries surviving a minimum-next-hop withdraw
          ([KeepFibWarmIfMnhViolated]) *)
}

type frame
(** What every compile on one graph shares, built once by {!frame}: the
    sorted device ids and an id→position table, the ASNs, each device's
    up-neighbour list (one {!Topology.Graph.neighbors} call per device),
    the [peer_layer] and per-device [live_peers_in_layer] functions of the
    decision ctx, and the unfiltered imports — for each device, every
    up neighbour's position with [max 1 sessions] — with the importer lists
    and per-exporter session maxima derived from them. It depends on the
    graph alone, not on the policy state or the class.

    A frame is meant to live for one verification: {!Phase_verifier.verify}
    builds one per call and shares it across every class and state, and
    nothing reachable after the call holds it. Keeping the last frame
    across calls would save one set-up per verification but keep a
    2,828-device frame alive between plans, which raised the
    [fulldc_rollout] benchmark's live heap from 56.6 to 60.3 MB. *)

val frame : Topology.Graph.t -> frame
(** Snapshots the graph at its current {!Topology.Graph.version}. Device
    ids index an array, so they must be non-negative: a negative id raises
    [Invalid_argument]. *)

val devices : frame -> int list
(** Every device of the frame's graph, sorted by id. *)

val index : frame -> int -> int
(** The device's position in {!devices}, from [0] to its length minus one:
    callers index their own per-device arrays with it. Raises [Not_found]
    for a device not in the frame. *)

val neighbors : frame -> int -> int list
(** The device's neighbours over up links, sorted by id: the ids of
    {!Topology.Graph.neighbors} when the frame was built. Raises
    [Not_found] for a device not in the frame. *)

type t

val compile :
  frame ->
  engine_of:(int -> Centralium.Engine.t option) ->
  cls:Eq_class.t ->
  t
(** Runs the fixpoint for one class. [engine_of] returns the RPA engine a
    device runs in the modelled policy state ([None] = native BGP); the
    caller owns engine creation so it can share engines across classes.
    Only what depends on the state or the class is built here: the
    engines, the class's origins and a ctx per RPA-bearing device. When
    some engine carries a route filter with statements, the imports are
    re-filtered through its verdicts; otherwise the frame's unfiltered
    imports are exact and used as they are.

    Raises [Invalid_argument] when the graph's version has moved since the
    frame was built: the frame would describe links that no longer hold. *)

val entry : t -> int -> entry option
(** Final-state forwarding entry; [None] when the device never obtained
    one (equivalent to [e_next_hops = []] for the checks). *)

val final : t -> (int * entry) list
(** Final state, sorted by device id. *)

val round_edges : t -> (int * int list) list list
(** Per-round FIB edge snapshots — [(device, next_hops)] sorted by device,
    origins and empty entries omitted — with consecutive duplicates
    collapsed. The final state is the last element. *)

val converged : t -> bool
(** Whether a fixpoint was reached within the round budget. [false] means
    the control plane oscillates for this class (a dispute wheel); the
    snapshots then cover one full period of the oscillation. *)

val rounds_run : t -> int

val equal : t -> t -> bool
(** Structural equality of the final states (used by tests to confirm
    incremental reuse is sound). *)
