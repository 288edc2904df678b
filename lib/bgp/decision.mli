(** The native BGP decision process (RFC 4271 section 9.1, restricted to the
    attributes this codebase models) with multipath.

    Preference order: highest LOCAL_PREF, then shortest AS-path, then lowest
    ORIGIN, then lowest MED, with (peer id, session) as the deterministic
    tie-break (standing in for lowest router id). Multipath ("ECMP group")
    gathers every path equal to the best on the first four criteria. *)

val preference_compare : Path.t -> Path.t -> int
(** Negative when the first path is {e more} preferred. Total order. *)

val equal_cost : Path.t -> Path.t -> bool
(** Equal on (local-pref, AS-path length, origin, MED) — the multipath
    criterion. *)

val select : Path.t list -> Path.t list * Path.t option
(** [select candidates] is [(forwarding_set, best)]: the forwarding set is
    every candidate of equal cost with the best path ({!equal_cost}), in
    candidate order. [([], None)] when there are no candidates. *)

val least_favorable : Path.t list -> Path.t option
(** The path that the RPA dissemination rule advertises (Section 5.3.1):
    the one with the {e least} favorable attributes among those selected
    for forwarding, e.g. the longest AS-path. *)
