(** A device's full set of Route Planning Abstractions.

    In practice a switch carries multiple orthogonal RPAs (footnote of
    Section 5.3): several path-selection statements over disjoint prefix
    groups, traffic-engineering weights, boundary filters. This module
    bundles them, defines their identity ({!equal}), renders them in the
    paper's configuration syntax, and measures their size (Table 3
    reports "RPA LOC" per migration). *)

type t = {
  path_selection : Path_selection.t list;
  route_attribute : Route_attribute.t list;
  route_filter : Route_filter.t list;
  advertise_least_favorable : bool;
      (** the Section 5.3.1 dissemination rule. Always [true] in
          production; exposed so the Figure 9 ablation can show the routing
          loop it prevents *)
}

val empty : t

val is_empty : t -> bool

val make :
  ?path_selection:Path_selection.t list ->
  ?route_attribute:Route_attribute.t list ->
  ?route_filter:Route_filter.t list ->
  ?advertise_least_favorable:bool ->
  unit ->
  t

val merge : t -> t -> t
(** Concatenates the statement lists (orthogonal RPAs co-exist on a
    switch), dropping blocks of [b] that are structurally equal to one
    already present — merging the same RPA twice is idempotent, so the
    Table 3 RPA-LOC metric is not inflated by duplicates.
    [advertise_least_favorable] is and-ed. *)

val equal : t -> t -> bool
(** The one RPA identity: the three block lists compared block by block,
    plus [advertise_least_favorable]. *)

val config_lines : t -> string list
(** The Figure 7 rendering, for display and {!loc}, never identity: it
    omits [advertise_least_favorable], rounds [Fraction] thresholds to
    whole percent and expiry times to milliseconds. *)

val loc : t -> int
(** Lines of rendered configuration — the Table 3 "RPA LOC" metric. *)

val pp : Format.formatter -> t -> unit

val statement_count : t -> int
