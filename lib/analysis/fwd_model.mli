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

type t

val compile :
  Topology.Graph.t ->
  engine_of:(int -> Centralium.Engine.t option) ->
  cls:Eq_class.t ->
  t
(** Runs the fixpoint for one class. [engine_of] returns the RPA engine a
    device runs in the modelled policy state ([None] = native BGP); the
    caller owns engine creation so it can share engines across classes. *)

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
