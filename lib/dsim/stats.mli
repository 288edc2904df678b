(** Sample statistics: percentiles, CDFs, and summaries.

    Used by the benchmark harness to report distributions the way the paper
    does (Table 2 percentiles; Figure 11/12 CDFs). *)

type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list. *)

val percentile : float array -> float -> float
(** [percentile sorted q] with [q] in [\[0, 100\]] using linear
    interpolation. [sorted] must be sorted ascending and non-empty. *)

val cdf : ?points:int -> float list -> (float * float) list
(** [cdf samples] is a list of [(value, fraction <= value)] pairs suitable
    for plotting, down-sampled to at most [points] (default 50) evenly
    spaced quantiles. *)

val mean : float list -> float
val stddev : float list -> float

val pp_cdf_ascii :
  ?width:int -> ?unit_label:string -> Format.formatter -> (float * float) list -> unit
(** Renders a CDF as an ASCII chart, one row per (value, cumfrac) point. *)

val histogram : buckets:float list -> float list -> (float * int) list * int
(** [histogram ~buckets samples] is [(counts, overflow)]: per sorted bucket
    upper bound, the number of samples in ((previous bound, bound]] (found
    by binary search over the sorted bounds), plus an explicit overflow
    count of samples above the largest bound. Overflow used to be silently
    folded into the last in-range bucket, conflating it with real counts. *)
