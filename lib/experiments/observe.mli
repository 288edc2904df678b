(** Structured run export: replay a scenario under full instrumentation and
    stream the run as JSONL.

    One call to {!run} enables the shared {!Obs.Metrics.default} registry,
    installs a fresh span recorder, executes the named scenario, and emits
    one JSON object per line in this order:

    - a [manifest] line: [schema_version], [scenario], [seed], [topology]
      (human description), [git_rev] (read from [.git/HEAD], ["unknown"]
      outside a checkout);
    - zero or more trace-event lines ({!Bgp.Trace.event_to_json}: type tags
      [fib_change], [message_sent], [message_dropped], [speaker_restarted],
      [violation]) — currently only the [faulted] scenario retains its full
      trace, from a network created under {!Bgp.Trace.with_provenance}
      (no other log stores message records);
    - one [span] line per completed span ({!Obs.Span.span_to_json} plus the
      type tag), in start order;
    - one [metrics] line carrying {!Obs.Metrics.snapshot};
    - one final [summary] line with the scenario's headline figures.

    Every line is self-describing via its ["type"] field, so consumers can
    filter with nothing but a JSON parser. *)

type run_summary = {
  scenario : string;
  seed : int;
  lines : int;  (** total JSONL lines emitted *)
  events : int;  (** trace-event lines *)
  spans : int;  (** completed spans recorded *)
  dropped_spans : int;  (** spans beyond the recorder cap *)
  headline : (string * Obs.Json.t) list;
      (** the scenario's key figures (same content as the summary line) *)
}

val scenario_names : string list
(** Every name {!run} accepts, in order: the figure reproductions
    ([fig2], [fig4], [fig5], [fig9], [fig10], [fig13], [fig14]),
    [faulted], [faulted_deploy] and [chaos_gr]. The [chaos_gr] headline
    is [gr_on] and [gr_off], each {!Scenarios.Chaos.mode_json} of its
    mode, and [passed] ({!Scenarios.Chaos.passed}). *)

val git_rev : unit -> string
(** The commit the working directory is on, resolved by reading
    [.git/HEAD] (and the ref file or [.git/packed-refs] it points to);
    ["unknown"] when not run from a checkout root. *)

val run :
  ?seed:int ->
  scenario:string ->
  write:(string -> unit) ->
  unit ->
  (run_summary, string) result
(** [run ~scenario ~write ()] replays [scenario] (default [seed] 42) and
    calls [write] once per JSONL line (line content only, no newline).
    [Error] names the unknown scenario and lists the valid ones. The shared
    metrics registry is reset, enabled for the duration, and restored to
    its previous enablement afterwards. *)
