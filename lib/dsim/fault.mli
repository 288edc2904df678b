(** Deterministic fault injection for the discrete-event simulator.

    The paper's transient problems — blackholes, forwarding loops, capacity
    violations — arise from {e asynchronous} convergence, and asynchrony is
    at its worst when the transport misbehaves: messages delayed past their
    peers, delivered out of order, or lost outright, sessions flapping and
    speakers restarting mid-migration. This module is the adversarial
    substrate: a seeded model of exactly those faults, drawing every
    decision from its own {!Rng} stream so that a faulty run is
    reproducible bit-for-bit from its seed, independent of the simulation's
    other random draws.

    Two layers:
    - a {e message-level} model ({!profile} / {!fate}) sampled once per
      transmitted message by the network layer;
    - a {e control-level} {!schedule} of link flaps and speaker restarts,
      executed through the event queue. *)

(** Per-message fault probabilities. *)
type profile = {
  drop_prob : float;  (** probability the message is lost in transit *)
  delay_prob : float;
      (** probability the message suffers an extra delivery delay *)
  delay_mean : float;
      (** mean of the exponential extra delay, in seconds *)
  reorder_prob : float;
      (** probability the message may overtake earlier in-flight messages
          of its session (the FIFO delivery clamp is bypassed) *)
}

val none : profile
(** All probabilities zero: a model with this profile is transparent. *)

val light : profile
(** Mild degradation: 1% loss, 10% extra delay (5 ms mean), 5% reorder. *)

val heavy : profile
(** Severe degradation: 10% loss, 30% extra delay (20 ms mean), 20%
    reorder. *)

val severe : profile
(** Chaos-grade degradation: 25% loss, 40% extra delay (30 ms mean), 25%
    reorder — enough sustained loss to expire hold timers (see
    {!Bgp.Liveness}) and exercise graceful-restart retention. *)

(** The sampled outcome for one message. *)
type fate = {
  dropped : bool;
  extra_delay : float;  (** seconds added on top of the base latency *)
  reorder : bool;
}

val pass : fate
(** The no-fault outcome (delivered, no extra delay, in order). *)

type t

val create : seed:int -> profile -> t
(** A fault model with its own splitmix64 stream. Two models created with
    the same seed and profile produce identical fate sequences. *)

val profile : t -> profile

val fate : t -> fate
(** Draws the fate of one message. Consumes only the model's own RNG, so
    installing a fault model never perturbs latency or topology draws made
    elsewhere in the simulation. *)

(** {1 Scheduled control-plane faults}

    Times are relative to the moment the schedule is applied (delays into
    the event queue). *)

type action =
  | Flap_link of { a : int; b : int; at : float; duration : float }
      (** take the [a]-[b] link down at [at], back up [duration] later *)
  | Restart_speaker of { device : int; at : float; recovery : float }
      (** crash the device's BGP speaker at [at] — its RIBs are cleared and
          every session drops without a goodbye — then re-establish all
          sessions [recovery] later, replaying session establishment *)

type schedule = action list

val random_schedule :
  seed:int ->
  links:(int * int) list ->
  devices:int list ->
  horizon:float ->
  ?flaps:int ->
  ?restarts:int ->
  unit ->
  schedule
(** A reproducible random schedule: [flaps] link flaps (default 4) drawn
    from [links] and [restarts] speaker restarts (default 1) drawn from
    [devices], with start times uniform in [\[0, horizon)] and durations
    uniform in [\[1 ms, 10 ms)]. Sorted by start time. Empty [links] or
    [devices] simply yield no actions of that kind. *)

val pp_action : Format.formatter -> action -> unit
