(** A candidate BGP path as seen by one speaker: the attributes of a route
    together with the peer and session it was learned over.

    Sessions matter because several devices run multiple parallel BGP
    sessions to the same peer (Figure 5); hardware next-hop-group objects
    are per-port, i.e. per-session. *)

type t = {
  peer : int;     (** device id of the advertising peer *)
  session : int;  (** session index within the link, from 0 *)
  attr : Net.Attr.t;
}

val make : peer:int -> session:int -> attr:Net.Attr.t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
