(** Route Filter RPA (Figure 7c).

    Dynamically sets which prefixes may be exchanged between BGP peers,
    without touching routing policy or path selection. Typically enacted at
    network-domain boundaries (data center / backbone). Filters are allow
    lists (the paper: "since our origination and propagation policies are
    deterministic, we choose to apply an allow list"), with optional mask
    length bounds to stop more-specific leaks from overloading switch
    forwarding resources. *)

type peer_signature = {
  peer_layers : Topology.Node.layer list;  (** [[]] = any layer *)
  peer_devices : int list;                 (** [[]] = any device *)
}

val any_peer : peer_signature

type prefix_rule = {
  covering : Net.Prefix.t;
  min_mask_length : int option;
  max_mask_length : int option;
}

type filter =
  | Allow_all
  | Allow_list of prefix_rule list

type statement = {
  st_name : string;
  peer : peer_signature;
  ingress : filter;
  egress : filter;
}

type t = { name : string; statements : statement list }

val prefix_rule :
  ?min_mask_length:int -> ?max_mask_length:int -> Net.Prefix.t -> prefix_rule

val statement :
  ?name:string -> ?ingress:filter -> ?egress:filter -> peer_signature -> statement

val make : ?name:string -> statement list -> t

type direction = Ingress | Egress

val peer_signature_equal : peer_signature -> peer_signature -> bool
val statement_equal : statement -> statement -> bool

val equal : t -> t -> bool
(** Structural equality; used by {!Rpa.merge} deduplication and the static
    analyzer. *)

val allows :
  t -> direction -> peer:int -> layer:Topology.Node.layer option ->
  Net.Prefix.t -> bool
(** The first statement whose peer signature matches decides; a peer
    matching no statement is unrestricted. *)

val config_lines : t -> string list
val pp : Format.formatter -> t -> unit
