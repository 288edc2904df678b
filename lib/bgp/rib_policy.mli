(** The RIB-policy plug-in interface — the protocol side of the Route
    Planning Abstraction (Figure 6 of the paper).

    RPAs {e influence rather than take over} BGP's decision making: route
    exchange between peers is untouched, but four points of the control
    plane workflow are hookable:

    + ingress route filtering (after standard sanity checks and ingress
      policy, before admission to the RIB);
    + path selection (given the candidates {e and} the native selection, so
      an RPA can fall back to native behaviour);
    + UCMP/WCMP weight assignment on the selected multipath set;
    + egress route filtering (after egress policy, before advertisement).

    [lib/bgp] defines the interface and its native (identity) instance;
    [lib/core] (Centralium) provides the RPA-evaluating instance. This
    direction of dependency mirrors the production system: the BGP daemon
    ships the plug-in mechanism, the controller ships plans. *)

(** A forwarding decision produced by the selection hook. *)
type selection = {
  selected : Path.t list;
      (** the forwarding multipath set (installed to FIB unless empty) *)
  advertise : Path.t option;
      (** path advertised to peers; [None] withdraws. The paper's
          dissemination rule picks the least favorable selected path. *)
  keep_fib_warm : bool;
      (** when [advertise = None] because a minimum-next-hop constraint is
          violated, keep the previous FIB entries so in-flight packets are
          not dropped (the [KeepFibWarmIfMnhViolated] knob). *)
}

(** Per-evaluation context handed to every hook. *)
type ctx = {
  device : int;
  prefix : Net.Prefix.t;
  now : float;  (** virtual time, for RPA expiration *)
  commit : bool;
      (** the speaker installs this evaluation's outcome. [false] in a dry
          run — the invariant checker's recomputation
          ({!Speaker.divergences}), a static model, an explanation — where
          a hook must have no side effect *)
  peer_layer : int -> Topology.Node.layer option;
      (** layer of a peer device, [None] if unknown *)
  live_peers_in_layer : Topology.Node.layer -> int;
      (** how many of this device's peers in the given layer have at least
          one established session — the denominator for fractional
          minimum-next-hop thresholds *)
}

type hooks = {
  name : string;
  ingress_accept : ctx -> peer:int -> Net.Attr.t -> bool;
  select : ctx -> candidates:Path.t list ->
           native:(Path.t list * Path.t option) -> selection;
  weights : ctx -> selected:Path.t list -> (Path.t * int) list option;
      (** [None] = use native weighting (link-bandwidth WCMP or plain
          ECMP) *)
  egress_accept : ctx -> peer:int -> Net.Attr.t -> bool;
}

val native : hooks
(** Identity hooks: accept everything, keep the native selection, native
    weights. A speaker with [native] hooks is a plain BGP speaker. *)

val is_native : hooks -> bool
