(** Traffic propagation over forwarding state.

    Injects demand volumes at source devices and lets them flow along
    weighted FIB entries (WCMP hashing is modeled fluidly: volume splits in
    proportion to weights). The propagation is round-based; volume still in
    flight after the round budget is classified as {e looped}, which is how
    persistent forwarding loops (Figure 9) show up quantitatively. *)

type result = {
  delivered : float;
  dropped : float;  (** reached a device without a route *)
  looped : float;   (** never terminated: circulating in a forwarding loop *)
  transit : (int, float) Hashtbl.t;
      (** total volume that entered each device (sources included) *)
  link_load : (int * int, float) Hashtbl.t;  (** directed (from, to) volume *)
  delivered_at : (int, float) Hashtbl.t;
      (** volume that terminated at each originating device *)
}

val route :
  ?max_rounds:int ->
  lookup:(int -> Bgp.Speaker.fib_state option) ->
  demands:(int * float) list ->
  unit ->
  result
(** [lookup device] is the device's forwarding decision for the destination
    under study — typically [Speaker.fib_lookup] for a single prefix or
    [Speaker.fib_longest_match] for a concrete destination address.
    [max_rounds] defaults to 64 (far above any Clos diameter). *)

val route_prefix :
  ?max_rounds:int ->
  Bgp.Network.t -> Net.Prefix.t -> demands:(int * float) list -> result
(** Exact-match propagation of the converged network state. *)

val route_destination :
  ?max_rounds:int ->
  Bgp.Network.t -> Net.Prefix.t -> demands:(int * float) list -> result
(** Longest-prefix-match propagation toward a host prefix — required for
    the Figure 14 scenario where a more-specific route hijacks traffic from
    the default route. *)

val route_snapshot :
  ?max_rounds:int ->
  (int, Bgp.Speaker.fib_state) Hashtbl.t -> demands:(int * float) list -> result
(** Propagation over a historical FIB snapshot from {!Bgp.Trace.fib_timeline}
    (single-prefix, exact match). *)

(** The loss totals of {!route_snapshot}, without its per-device and
    per-link accounting. *)
type loss = {
  loss_dropped : float;  (** = [(route_snapshot ...).dropped] *)
  loss_looped : float;  (** = [(route_snapshot ...).looped] *)
}

val loss_snapshot :
  (int, Bgp.Speaker.fib_state) Hashtbl.t -> demands:(int * float) list -> loss
(** {!route_snapshot} (default round budget) reduced to what a loss
    integral reads. Both run the
    same propagation in the same order, so the two totals are
    bit-identical to [route_snapshot]'s; only the [transit], [link_load]
    and [delivered_at] bookkeeping is skipped. *)

val total_demand : (int * float) list -> float
