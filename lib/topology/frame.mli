(** A graph snapshot in dense positions.

    Judges that walk a graph many times in one call (the phase verifier's
    compiles and searches, an invariant sweep's per-prefix checks) index
    their own per-device arrays by position instead of hashing device ids.
    A frame holds what they share: the device ids sorted, an id→position
    table, and each device's neighbours over up links, both as
    {!Graph.neighbors} gave them and as positions.

    A frame describes the graph at the {!Graph.version} it was built at and
    is meant to live for one call: nothing here notices a later mutation. *)

type t

val make : Graph.t -> t
(** One {!Graph.nodes} and one {!Graph.neighbors} call per device. Device
    ids index an array, so they must be non-negative: a negative id raises
    [Invalid_argument]. *)

val graph : t -> Graph.t

val version : t -> int
(** The graph's {!Graph.version} when the frame was built. *)

val size : t -> int
(** The number of devices. *)

val nodes : t -> Node.t array
(** Every node, sorted by id. The frame's own array; do not mutate it. *)

val ids : t -> int array
(** Every device id, sorted, at its position. The frame's own array; do
    not mutate it. *)

val devices : t -> int list
(** {!ids} as a list. *)

val position : t -> int -> int
(** The device's position, from [0] to [size - 1], or [-1] for an id not
    in the frame. *)

val index : t -> int -> int
(** {!position}, raising [Not_found] for an id not in the frame. *)

val neighbors : t -> int -> (Node.t * Graph.link) list
(** The neighbours over up links of the device at position [i], in id
    order: what {!Graph.neighbors} returned when the frame was built. *)

val up : t -> int -> int array
(** The positions of {!neighbors} of the device at position [i], in the
    same order. The frame's own array; do not mutate it. *)
