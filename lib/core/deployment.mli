(** Safe RPA deployment sequencing (Section 5.3.2).

    Because RPAs influence path selection and hence dissemination, rollout
    order matters: "a new RPA must be deployed starting from the layer
    furthest from the source of the route origination; removal of an
    existing RPA must start from the layer closest to the source". For
    northbound intents originated at the backbone this means bottom-up
    installs (FSW before SSW before FA) and top-down removals. *)

type direction = Install | Remove

val distance_from_origination :
  Topology.Graph.t -> origination_layer:Topology.Node.layer -> int -> int
(** Layer-rank distance between the device's layer and the origination
    layer. *)

val phases :
  Topology.Graph.t ->
  targets:int list ->
  origination_layer:Topology.Node.layer ->
  direction ->
  int list list
(** Groups the targets into deployment phases. Devices within a phase are
    equidistant from the origination layer and may deploy concurrently;
    phases must complete in order. [Install] orders furthest-first,
    [Remove] closest-first. *)

val is_safe_order :
  Topology.Graph.t ->
  origination_layer:Topology.Node.layer ->
  direction ->
  int list list ->
  bool
(** Checks the invariant: for [Install], every device must be deployed no
    earlier than all targets strictly further from the origination layer;
    for [Remove], the reverse. A device listed in several phases counts
    in the last of them. One pass: each phase's distance range is compared
    with that of all earlier phases. Raises [Not_found] when a listed
    device is not in the graph. *)

val flatten : int list list -> int list

val rollback_order : int list list -> int list list
(** Undo order for a (possibly partial) list of already-applied install
    phases: the Section 5.3.2 removal rule applied to exactly what was
    installed — last phase first, and within each phase last device
    first. *)
