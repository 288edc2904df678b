(** Per-session BGP routing policy (the "base BGP policy" of the paper).

    A policy is an ordered list of rules; the first rule whose match clause
    accepts the route fires and its actions are applied (or the route is
    rejected). Routes matching no rule are accepted unchanged. This is the
    conventional low-level mechanism the paper contrasts with RPA: AS-path
    padding, local-pref manipulation, community tagging, maintenance drain
    policies, etc. *)

type match_clause = {
  m_prefixes : Net.Prefix.t list;
      (** Route's prefix must be covered by one of these; [[]] = any. *)
  m_communities : Net.Community.t list;
      (** Route must carry at least one; [[]] = any. *)
  m_as_path : Net.Path_regex.t option;  (** [None] = any *)
}

type action =
  | Accept
  | Reject
  | Set_local_pref of int
  | Set_med of int
  | Prepend_self of int  (** AS-path padding: own ASN, [n] times *)
  | Add_community of Net.Community.t
  | Remove_community of Net.Community.t
  | Set_link_bandwidth of int option

type rule = { matches : match_clause; actions : action list }

type t = rule list

val empty : t
(** Accepts everything unchanged. *)

val reject_all : t

val drain : t
(** A maintenance drain export policy: pad own ASN three times and tag the
    route with the {!Net.Community.Well_known.drained} community, making it
    strictly less favorable than any live path (Section 3.4's LIVE to
    MAINTENANCE transition). *)

val rule :
  ?prefixes:Net.Prefix.t list ->
  ?communities:Net.Community.t list ->
  ?as_path:string ->
  action list ->
  rule
(** Convenience constructor; [as_path] is compiled with
    {!Net.Path_regex.compile_exn}. *)

val matches : match_clause -> Net.Prefix.t -> Net.Attr.t -> bool

val apply : t -> self:Net.Asn.t -> Net.Prefix.t -> Net.Attr.t -> Net.Attr.t option
(** [None] means the route is rejected. *)

val pp : Format.formatter -> t -> unit
