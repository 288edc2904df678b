(** Route Attribute RPA (Figure 7b).

    Prescribes the desired traffic-distribution ratio across paths toward a
    destination, a priori and asynchronously: when BGP observes and selects
    paths, the prescribed weights are applied instead of the distributed
    link-bandwidth derivation — fundamentally eliminating the transient
    next-hop-group explosion of Section 3.4. *)

type next_hop_weight = {
  w_name : string;
  w_signature : Signature.t;
  weight : int;  (** relative WCMP weight of paths matching the signature *)
}

type statement = {
  st_name : string;
  destination : Destination.t;
  next_hop_weights : next_hop_weight list;
      (** first matching entry wins per path *)
  default_weight : int;
      (** weight of selected paths matching no entry (default 1) *)
  expires_at : float option;
      (** virtual time after which the statement is invalid and BGP falls
          back to native distribution (the [ExpirationTime] operation
          parameter) *)
}

type t = { name : string; statements : statement list }

val next_hop_weight : ?name:string -> Signature.t -> weight:int -> next_hop_weight

val statement :
  ?name:string ->
  ?default_weight:int ->
  ?expires_at:float ->
  Destination.t ->
  next_hop_weight list ->
  statement

val make : ?name:string -> statement list -> t

val weight_of : statement -> Net.Attr.t -> int
(** The prescribed weight for a path with these attributes. *)

val expired : statement -> now:float -> bool

val statement_equal : statement -> statement -> bool

val equal : t -> t -> bool
(** Structural equality; used by {!Rpa.merge} deduplication and the static
    analyzer. *)

val config_lines : t -> string list
val pp : Format.formatter -> t -> unit
