(** Traffic-engineering solvers: ECMP baseline, ideal WCMP (minimum
    achievable maximum link utilization), and RPA-quantized WCMP.

    An {!instance} is a single-destination routing problem on a DAG: demand
    enters at some devices and must reach [destination] over directed,
    capacitated edges. The three policies of Figure 13 are:
    - {!ecmp_weights}: split equally over all outgoing edges — what
      distributed BGP multipath does;
    - {!optimal}: the theoretical optimum ("ideal WCMP") from a max-flow
      based binary search on the utilization bound;
    - {!quantize}d optimal weights: what the RPA-carried integer
      link-bandwidth weights can express. *)

type instance = {
  node_count : int;           (** nodes are [0 .. node_count - 1] *)
  edges : (int * int * float) list;
      (** directed (src, dst, capacity); must form a DAG toward
          [destination] *)
  demands : (int * float) list;
  destination : int;
}

val total_demand : instance -> float

type weights = int -> (int * float) list
(** Per-device weighted next hops; empty for the destination and for
    devices that carry no traffic. *)

val ecmp_weights : instance -> weights
(** Weight 1 on every outgoing edge. *)

val max_utilization : instance -> weights -> float
(** Propagates the demands along the weights and returns max over edges of
    load / capacity. Raises [Failure] if traffic reaches a device with no
    outgoing weight (other than the destination) — the instance is
    malformed. *)

val optimal : instance -> float * weights
(** The minimum achievable max utilization together with fractional
    weights attaining it (up to a relative tolerance of 1e-4, via binary
    search on the utilization bound with one max-flow check per step). *)

val quantize : ?levels:int -> weights -> weights
(** Rounds fractional weights to integers in [1 .. levels] (default 64 —
    the granularity of a link-bandwidth community in this codebase),
    preserving ratios as well as the budget allows. *)

val effective_capacity : instance -> max_util:float -> float
(** The total demand the network could carry at utilization 1 if scaled
    proportionally: [total_demand / max_util]. The paper's Figure 13
    y-axis. *)
