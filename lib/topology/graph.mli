(** Mutable network topology: nodes, links, liveness.

    Links are bidirectional, carry a capacity (in abstract Gbps units) and a
    session count ([sessions]), because several paper scenarios (Figure 5)
    hinge on multiple parallel BGP sessions between the same two devices.
    Migration operations mutate the graph in place (drain, remove, insert)
    while the BGP layer reacts to change notifications. Every mutation goes
    through the functions below and bumps {!version}; links are read-only
    outside this module, so nothing can change the graph unseen. *)

type link = private {
  a : Net.Route.device;
  b : Net.Route.device;
  capacity : float;
  sessions : int;
  mutable up : bool;
}

type t

val create : unit -> t

val version : t -> int
(** A counter bumped by every mutation ({!add_node}, {!add_link},
    {!set_link_up}, {!remove_node}): two reads that return the same version
    saw the same graph. *)

val add_node : t -> Node.t -> unit
(** Raises [Invalid_argument] on duplicate id. *)

val add_link : ?capacity:float -> ?sessions:int -> t -> int -> int -> unit
(** [add_link g a b]: defaults capacity 1.0, 1 session. Raises
    [Invalid_argument] if either endpoint is unknown, if [a = b], or if the
    link already exists. *)

val node : t -> int -> Node.t
(** Raises [Not_found]. *)

val node_opt : t -> int -> Node.t option

val nodes : t -> Node.t list
(** All nodes, sorted by id. *)

val node_count : t -> int

val links : t -> link list

val find_link : t -> int -> int -> link option

val neighbors : t -> int -> (Node.t * link) list
(** Neighbors reachable over {e up} links, sorted by id. *)

val all_neighbors : t -> int -> (Node.t * link) list
(** Including down links. *)

val set_link_up : t -> int -> int -> bool -> unit
(** Raises [Not_found] if the link does not exist. *)

val remove_node : t -> int -> unit
(** Removes the node and all incident links. *)

val by_layer : t -> Node.layer -> Node.t list

val layers : t -> Node.layer list
(** Distinct layers present, sorted bottom-to-top by {!Node.layer_rank}. *)

val degree_up : t -> int -> int
(** Number of live incident links. *)

val pp_stats : Format.formatter -> t -> unit
