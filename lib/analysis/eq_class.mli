(** Destination equivalence classes for the symbolic phase verifier.

    Veriflow partitions the destination space into equivalence classes so
    that one forwarding-graph check covers every address with identical
    behaviour. In this codebase routes exist only for originated prefixes
    (no aggregation), and every RPA construct — path-selection and
    route-attribute destinations, route-filter allow rules — matches a
    route's prefix {e wholly}: behaviour is therefore uniform per
    originated prefix, and the classes are exactly the distinct originated
    prefixes, each carrying its origin devices and origination
    attributes.

    The delta-net style incrementality lives in {!touched_by}: a
    deployment phase only re-verifies the classes its delta's RPAs can
    influence, found through a {!Prefix_trie} over the class prefixes
    rather than a class-by-rule scan. *)

type t = {
  cls_prefix : Net.Prefix.t;
  cls_origins : (int * Net.Attr.t) list;
      (** (device, origination attributes), sorted by device; several
          devices originating the same prefix (anycast) share a class *)
}

val classes : (int * Net.Prefix.t * Net.Attr.t) list -> t list
(** Groups origins by prefix. Classes come back sorted by
    {!Net.Prefix.compare}; origins within a class sorted by device. *)

val communities : t -> Net.Community.Set.t
(** Union of the origination communities across the class's origins — the
    set a [Tagged] destination is matched against. *)

val selectors : Centralium.Rpa.t -> Net.Prefix.t list * Net.Community.t list
(** Every destination the RPA's path-selection and route-attribute
    statements steer or weight: the explicit prefixes and the tagged
    communities. Order unspecified. *)

val touched_by : t list -> rpas:(int * Centralium.Rpa.t) list -> t list
(** The classes any of the given per-device RPAs can influence — the
    delta-net re-verification set for a phase delta. Result preserves the
    input class order. *)
