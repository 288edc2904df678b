(** Metrics registry: named, labelled counters, gauges and histograms.

    Instrumentation sites across the stack hold an instrument obtained once
    (usually at module initialization) from the shared {!default} registry
    and bump it on the hot path. A disabled registry (the initial state)
    makes every bump a single boolean test — near-zero cost — and no
    instrument ever draws from {!Dsim.Rng} or perturbs the event queue, so
    enabling metrics cannot change a simulation's outcome (a property the
    test suite asserts bit-for-bit).

    Instruments are identified by [(name, labels)]: asking for the same
    pair twice returns the same instrument. Histogram summaries reuse
    {!Dsim.Stats.summarize} so exported percentiles match the benchmark
    harness exactly. *)

type t
(** A registry. *)

val create : ?enabled:bool -> unit -> t
(** A fresh registry, disabled unless [enabled] says otherwise. *)

val default : t
(** The shared ambient registry every built-in instrumentation site uses.
    Starts disabled. *)

val set_enabled : t -> bool -> unit
val is_enabled : t -> bool

val reset : t -> unit
(** Zeroes every counter and gauge and clears every histogram, {e keeping}
    the instrument objects alive (sites hold them by reference). *)

(** {1 Counters} *)

type counter

val counter : ?registry:t -> ?labels:(string * string) list -> string -> counter
(** [registry] defaults to {!default}; [labels] to []. *)

val incr : ?by:int -> counter -> unit
(** No-op when the owning registry is disabled. [by] defaults to 1. *)

val value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?registry:t -> ?labels:(string * string) list -> string -> gauge
val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : ?registry:t -> ?labels:(string * string) list -> string -> histogram

val observe : histogram -> float -> unit
(** Appends a sample (amortized O(1), growable array). No-op when the
    owning registry is disabled. *)

val samples : histogram -> float list

val summary : histogram -> Dsim.Stats.summary option
(** [None] when no samples were recorded. *)

(** {1 Export} *)

val summary_fields : Dsim.Stats.summary -> (string * Json.t) list
(** [count], [mean], [min], [max], [p50], [p90], [p95], [p99], in that
    order: how {!snapshot} exports a histogram, and how the benchmark
    harness exports its own samples. *)

val snapshot : t -> Json.t
(** [{"counters": [...], "gauges": [...], "histograms": [...]}], each
    instrument as an object with [name], [labels], and its value(s) —
    histograms export count/mean/min/max and the p50/p90/p95/p99
    percentiles. Instruments are sorted by (name, labels) so snapshots are
    stable across runs. *)
