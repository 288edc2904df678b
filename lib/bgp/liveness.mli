(** Session liveness and graceful-restart timer configuration.

    All durations are in simulated seconds ({!Dsim.Event_queue} time). The
    defaults are scaled to the simulator's millisecond-order link latencies
    rather than the wall-clock seconds of production BGP: a keepalive every
    2 ms with a 6 ms hold time plays the role of the classic 60 s / 180 s
    pair. Keepalives are real {!Msg.t} values dispatched through
    {!Network.t}, so they share FIFO channels with updates and are subject
    to {!Dsim.Fault} drop/delay/reorder like any other message. *)

type config = {
  keepalive_interval : float;
      (** Period between keepalives on each session direction, and also the
          granularity of the receiver-side hold check. *)
  hold_time : float;
      (** A session is torn down when nothing (keepalive or update) has been
          heard from the peer for this long. Conventionally 3x the keepalive
          interval. *)
  reconnect_interval : float;
      (** How often a torn-down session over a healthy link attempts
          re-establishment. *)
  graceful_restart : bool;
      (** When true, session loss (hold expiry or peer crash) marks learned
          routes stale and keeps forwarding on them (RFC 4724) instead of
          flushing; a full resync ending in {!Msg.Eor} sweeps the marks. *)
  stale_path_time : float;
      (** Upper bound on how long a stale route may be retained after the
          session loss that marked it, if no End-of-RIB arrives first. *)
}

val default : config
(** [{ keepalive_interval = 0.002; hold_time = 0.006;
      reconnect_interval = 0.008; graceful_restart = false;
      stale_path_time = 0.05 }] *)

val with_gr : config -> config
(** Enable graceful restart on a config. *)

val pp : Format.formatter -> config -> unit
