(** Forwarding-plane health metrics: funneling, loss, loops, utilization.

    These are the observables the paper's scenarios are judged by: the
    first/last-router problems are "one device carries (nearly) all
    traffic" (Figures 2 and 4), bad dissemination is a persistent loop
    (Figure 9), the SEV is black-holed volume (Figure 14), and TE quality is
    maximum link utilization (Figure 13). *)

val funneling :
  Traffic.result -> members:int list -> total:float -> float
(** The largest share of [total] demand transiting any single device of
    [members] (e.g. all switches of one layer). 1.0 = perfect funnel,
    [1 / length members] = perfectly balanced. 0 if no traffic crossed the
    layer. *)

val transit_share : Traffic.result -> device:int -> total:float -> float

val loss_fraction : Traffic.result -> total:float -> float
(** (dropped + looped) / total. *)

val blackholed_fraction : Traffic.result -> total:float -> float
(** dropped / total. *)

val looped_fraction : Traffic.result -> total:float -> float

val canonical_cycle : int list -> int list
(** The cycle rotated so its smallest device comes first: one form for a
    loop found from several entry points or in several snapshots. *)

val find_forwarding_loops :
  lookup:(int -> Bgp.Speaker.fib_state option) -> devices:int list -> int list list
(** Cycles in the forwarding graph induced by [lookup], each reported once
    as the list of devices on the cycle, in {!canonical_cycle} form. Empty
    = loop-free. *)

val max_funneling_over_timeline :
  timeline:(float * (int, Bgp.Speaker.fib_state) Hashtbl.t) list ->
  demands:(int * float) list ->
  members:int list ->
  float * float
(** Routes the demands over every transient FIB snapshot and returns
    [(worst_funneling, time_of_worst)] — the paper's transient-state
    exposure for Figures 2, 4 and 10. Returns [(0., 0.)] on an empty
    timeline. *)

val max_link_utilization :
  Traffic.result -> capacity:(int * int -> float) -> float
(** Max over directed links of load / capacity. *)

(** Time-integrated data-plane loss over a FIB timeline. *)
type loss_integral = {
  blackhole_seconds : float;
      (** integral of the black-holed demand fraction: "one blackhole-second"
          = all demand black-holed for one simulated second *)
  loss_seconds : float;
      (** same integral for dropped + looped demand (loss_fraction) *)
  duration : float;  (** width of the integration window actually covered *)
}

(** One piecewise-constant piece of the loss integral: the FIB snapshot in
    force over [[seg_from, seg_until)] black-holed / lost these demand
    fractions. *)
type loss_segment = {
  seg_from : float;
  seg_until : float;
  seg_blackholed : float;
  seg_lost : float;
}

val loss_segments :
  initial:(int * Bgp.Speaker.fib_state) list ->
  timeline:(float * (int, Bgp.Speaker.fib_state) Hashtbl.t) list ->
  demands:(int * float) list ->
  from_time:float ->
  until:float ->
  loss_segment list
(** The decomposition {!loss_integrals} integrates: segments clamped to
    [[from_time, until)], zero-width ones dropped, in timeline order.
    Summing [seg_blackholed x width] in order reproduces
    [blackhole_seconds] bit for bit — the causal blackhole attribution
    ({!Obs.Causal.attribute}) relies on this to account for 100% of the
    integral. *)

val loss_integrals :
  initial:(int * Bgp.Speaker.fib_state) list ->
  timeline:(float * (int, Bgp.Speaker.fib_state) Hashtbl.t) list ->
  demands:(int * float) list ->
  from_time:float ->
  until:float ->
  loss_integral
(** Routes [demands] over every piecewise-constant segment of the FIB
    timeline (as produced by {!Bgp.Trace.fib_timeline}, with [initial] the
    snapshot in force at [from_time]) and integrates the black-holed and
    lost fractions over [[from_time, until)]. This is the paper-style
    "data-plane loss during convergence" observable: GR on/off runs at
    identical seeds are compared by their blackhole-seconds. *)
