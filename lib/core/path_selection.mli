(** Path Selection RPA (Figure 7a).

    Overrides standard BGP path selection with a priority-based algorithm:
    an ordered list of path sets. For every prefix matching the statement's
    destination, the algorithm walks the list in order and picks the first
    path set with enough matching active routes; all its matching routes
    are selected for forwarding, while the {e least preferred} of them is
    advertised to peers (the Section 5.3.1 dissemination rule). If no path
    set matches, BGP falls back to native selection, optionally constrained
    by [BgpNativeMinNextHop]. *)

type min_next_hop =
  | Count of int        (** at least this many matching routes *)
  | Fraction of float
      (** at least this fraction of the device's live peers in the layer
          the candidate routes come from (e.g. the "75%" of
          Section 4.4.2) *)

type path_set = {
  ps_name : string;
  ps_signature : Signature.t;
  ps_min_next_hop : min_next_hop option;
}

type statement = {
  st_name : string;
  destination : Destination.t;
  path_sets : path_set list;  (** priority order; may be empty *)
  bgp_native_min_next_hop : min_next_hop option;
      (** applies when falling back to native selection; a violation forces
          a withdraw (there is nothing to fall back to) *)
  keep_fib_warm_if_mnh_violated : bool;
      (** keep forwarding entries installed while withdrawn, so in-flight
          packets are not dropped — the knob at the center of the
          Figure 14 SEV *)
}

type t = { name : string; statements : statement list }

val path_set :
  ?min_next_hop:min_next_hop -> name:string -> Signature.t -> path_set

val statement :
  ?name:string ->
  ?path_sets:path_set list ->
  ?bgp_native_min_next_hop:min_next_hop ->
  ?keep_fib_warm_if_mnh_violated:bool ->
  Destination.t ->
  statement

val make : ?name:string -> statement list -> t

val required_count : min_next_hop -> denominator:int -> int
(** Resolves a threshold to an absolute count ([Fraction] rounds up). *)

val statement_equal : statement -> statement -> bool

val equal : t -> t -> bool
(** Structural equality ({!Signature.equal} on signatures); used by
    {!Rpa.merge} to drop duplicate blocks and by the static analyzer. *)

val config_lines : t -> string list
val pp : Format.formatter -> t -> unit
