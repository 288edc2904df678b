(** BGP path attributes.

    The subset of attributes the paper's decision process and RPA signatures
    operate on: ORIGIN, AS_PATH, LOCAL_PREF, MED, standard communities, and
    the link-bandwidth extended community used for distributed WCMP
    (Section 2, Traffic Distribution). *)

type origin = Igp | Egp | Incomplete

val origin_to_string : origin -> string

val origin_rank : origin -> int
(** Lower is preferred: IGP < EGP < INCOMPLETE. *)

type t = private {
  origin : origin;
  as_path : As_path.t;
  local_pref : int;
  med : int;
  communities : Community.Set.t;
  link_bandwidth : int option;
      (** Relative WCMP weight carried by the link-bandwidth extended
          community; [None] means no weight advertised (pure ECMP). *)
  id : int;
      (** The intern id: [-1] until {!intern} returns the value, then an
          id no other value ever had, which every equal value interned
          while this one is live receives with it. *)
}
(** Private so that every value is built by {!make} or a setter, which
    clear the id: a value can only carry the id of its own contents.

    {b Equality contract.} Compare attributes with {!equal} and {!compare}
    only, never with polymorphic [=], [compare], [Hashtbl.hash] or
    [Marshal]: those read the id, so they would tell an interned value from
    a fresh equal one. Like prefix ids ({!Intern}), attribute ids are
    valid for equality and hashing only, never for ordering: which value
    gets which id depends on what a run interns first, and on when the
    garbage collector runs. *)

val make :
  ?origin:origin ->
  ?as_path:As_path.t ->
  ?local_pref:int ->
  ?med:int ->
  ?communities:Community.Set.t ->
  ?link_bandwidth:int ->
  unit ->
  t
(** Defaults: [Igp], empty path, local-pref 100, MED 0, no communities, no
    link bandwidth. The result is not interned. *)

(** {1 Setters}

    Each returns its argument itself when the field already holds the
    value, and otherwise a new, not interned value. *)

val with_prepended : Asn.t -> t -> t
(** Attributes after crossing an eBGP hop: the sender's ASN is prepended. *)

val set_as_path : As_path.t -> t -> t
val set_local_pref : int -> t -> t
val set_med : int -> t -> t
val add_community : Community.t -> t -> t
val remove_community : Community.t -> t -> t
val set_link_bandwidth : int option -> t -> t

val has_community : Community.t -> t -> bool

(** {1 Interning} *)

val intern : t -> t
(** The hash-consed canonical representative: structurally equal to the
    argument, with an id [>= 0]. Two live, equal, interned attributes are
    physically identical, so {!equal} on them is a pointer check. An
    interned argument is returned at once, with no lookup; any other costs
    one {!hash} and one probe of the intern set.

    The set holds its values weakly: a value stays canonical exactly as
    long as something outside the set holds it. An equal value interned
    after it was collected gets a new id, since ids come from a counter
    and are never reused. A cache keyed by the id must therefore hold the
    attribute next to its answer, as the RPA engine's signature cache
    does, or whether it hits would depend on when collections ran.
    Speakers intern every attribute they store; interning never changes
    semantics. *)

val id : t -> int
(** The intern id, [-1] for a value not returned by {!intern}. *)

val hash : t -> int
(** The hash {!intern} files a value under. It reads the fields, not the
    id, so equal values hash equally. The AS path's first nine ASNs count,
    so paths that differ only in one of them spread over a table. Like the
    id, it is for hash tables only, never an order. *)

val compare : t -> t -> int
(** Structural order on the attribute fields; ignores the id. *)

val equal : t -> t -> bool
(** [equal a b] exactly when [compare a b = 0]. Two interned values are
    equal only if physically equal (both are live while the caller holds
    them), so on them this is a pointer check. *)

val pp : Format.formatter -> t -> unit
