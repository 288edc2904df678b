(** BGP AS-paths.

    An AS-path is a list of segments; we model [AS_SEQUENCE] and [AS_SET]
    (the latter contributes 1 to path length per RFC 4271 9.1.2.2). In the
    data center all paths are plain sequences, but AS_SET support keeps the
    decision process faithful. *)

type segment =
  | Seq of Asn.t list  (** ordered ASNs, most recent first *)
  | Set of Asn.t list  (** unordered aggregate *)

type t

val empty : t
(** The empty path (locally originated route). *)

val of_asns : Asn.t list -> t
(** A single [Seq] segment. [of_asns []] is {!empty}. *)

val of_segments : segment list -> t

val segments : t -> segment list

val prepend : Asn.t -> t -> t
(** [prepend asn p] adds [asn] at the front, merging into a leading [Seq]. *)

val prepend_n : int -> Asn.t -> t -> t
(** AS-path padding: prepend the same ASN [n] times (the "naive approach" of
    Section 3.2). *)

val length : t -> int
(** RFC 4271 path length: each ASN in a [Seq] counts 1, each [Set] counts 1.
    O(1) — the length is cached in the representation because the decision
    process consults it on every preference comparison. *)

val mem : Asn.t -> t -> bool
(** Loop detection: is the ASN anywhere in the path? It runs for every
    candidate of every decision, and allocates nothing. *)

val origin_asn : t -> Asn.t option
(** The last ASN of the path: the originating AS. *)

val first_asn : t -> Asn.t option
(** The first ASN: the neighbor the route was learned from. *)

val asns : t -> Asn.t list
(** All ASNs in order (sets flattened in their given order). *)

val to_string : t -> string
(** Space separated, e.g. ["65001 65002 {65003 65004}"]. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool
