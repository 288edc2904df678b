(** BGP communities.

    Standard communities are the usual [asn:value] 32-bit tags; the paper
    attaches one to every prefix at its point of origin (e.g.
    ["BACKBONE_DEFAULT_ROUTE"]). The link-bandwidth extended community
    (draft-ietf-idr-link-bandwidth) carries WCMP weights between layers and
    is modeled separately in {!Attr}. *)

type t
(** A standard community. *)

val make : int -> int -> t
(** [make high low]: both halves must fit in 16 bits. *)

val of_string : string -> (t, string) result
(** Parses ["high:low"]. *)

val of_string_exn : string -> t

val high : t -> int
val low : t -> int

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** The community's 32 bits. *)

module Set : sig
  include Set.S with type elt = t

  val pp : Format.formatter -> t -> unit
end

(** Well-known communities used across the paper's case studies. *)
module Well_known : sig
  val backbone_default_route : t
  (** Attached at origination to default routes advertised down from the
      backbone (Section 4.4). *)

  val anycast_load_bearing : t
  (** Marks anycast load-bearing prefixes that get special routing-stability
      treatment (Section 3.1, Differential Traffic Distribution). *)

  val rack_origin : t
  (** Attached to production prefixes at their rack of origin. *)

  val infrastructure : t
  (** Marks infrastructure prefixes (Open/R-routed in production). *)

  val drained : t
  (** Attached by export policy on switches transitioning from LIVE to
      MAINTENANCE (Section 3.4). *)
end
