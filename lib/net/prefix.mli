(** IP prefixes (IPv4 and IPv6).

    A prefix is an address together with a mask length. Prefixes are kept in
    canonical form: all host bits (bits beyond the mask) are zero. The
    representation is address-family aware so IPv4 [0.0.0.0/0] and IPv6 [::/0]
    are distinct values, as required by the paper's dual default routes. *)

type family = V4 | V6

type t
(** A canonical IP prefix. *)

val v4 : int -> int -> int -> int -> int -> t
(** [v4 a b c d len] is the IPv4 prefix [a.b.c.d/len]. Host bits are cleared.
    Raises [Invalid_argument] if any octet or [len] is out of range. *)

val v6 : hi:int64 -> lo:int64 -> int -> t
(** [v6 ~hi ~lo len] is the IPv6 prefix whose 128-bit address is [hi:lo].
    Host bits are cleared. Raises [Invalid_argument] if [len] is not within
    [0, 128]. *)

val of_string : string -> (t, string) result
(** Parses ["a.b.c.d/len"] or an RFC-4291 IPv6 literal with ["/len"]
    (full and [::]-compressed forms are accepted). *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument] on parse errors. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val family : t -> family

val mask_length : t -> int

val default_v4 : t
(** [0.0.0.0/0] *)

val default_v6 : t
(** [::/0] *)

val is_default : t -> bool

val contains : t -> t -> bool
(** [contains outer inner] is [true] iff every address of [inner] is in
    [outer]. Always [false] across families. *)

val subdivide : t -> t * t
(** [subdivide p] splits [p] into its two half-length children. Raises
    [Invalid_argument] on a host prefix. *)

val compare : t -> t -> int
(** Total order: family, then address, then mask length. *)

val equal : t -> t -> bool

val hash : t -> int

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
