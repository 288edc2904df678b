(** The [centralium trace] runner: causal route-propagation tracing.

    Executes a scenario under {!Bgp.Trace.with_provenance} (and an
    {!Obs.Span} recorder, consumed by the Perfetto export), then renders
    the network's provenance DAG, the traced prefix's convergence critical
    path ({!Obs.Causal.critical_path}), and — for the chaos scenario — the
    blackhole attribution joining {!Dataplane.Metrics.loss_segments}
    intervals to the causal FIB events that opened and closed them.

    Scenarios:
    - ["converge"]: a small Clos slice with constant 1 ms link latency and
      a single origin announce — hand-checkable: the critical path is the
      literal hop chain and its per-edge delays sum to the convergence
      time.
    - ["chaos"]: {!Scenarios.Chaos.run_mode} (severe faults, liveness
      timers, mid-window restarts) — the attributed blackhole-seconds
      account for exactly the run's [loss_integrals] total.

    [Human] and [Json] outputs carry only virtual-time data and are
    byte-identical across runs at the same seed; [Perfetto] adds the span
    tree (wall-clock fallbacks, not deterministic). *)

type format = Human | Json | Perfetto

type summary = {
  scenario : string;
  seed : int;
  prefix : string;
  causal_events : int;
  critical_events : int;  (** events on the critical path; 0 = none found *)
  convergence_s : float option;  (** critical-path total, virtual seconds *)
  blackhole_seconds : float;
  attributed_seconds : float;
      (** sums bit-exactly to [blackhole_seconds] *)
  attributed_segments : int;
}

val scenarios : string list

val run :
  ?seed:int ->
  ?gr:bool ->
  ?prefix:Net.Prefix.t ->
  scenario:string ->
  format:format ->
  write:(string -> unit) ->
  unit ->
  (summary, string) result
(** [gr] selects the chaos run's graceful-restart mode (default on);
    ignored by ["converge"]. [prefix] defaults to the default route.
    [Error] reports an unknown scenario name. *)
