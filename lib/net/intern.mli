(** Interned IP prefixes.

    Every speaker table is keyed by a prefix's id: a small integer, dense
    from 0, so hot-path hashing is integer hashing ({!Int_table}). A run
    sees few distinct prefixes, so the table is process-wide and keeps
    every prefix it has seen. Attributes are interned by {!Attr.intern},
    whose table lets go of values nothing else holds.

    {b Ids are valid for equality and hashing only.} Id assignment order
    depends on which prefixes a run encounters first, which differs across
    scenarios and evaluation modes — any {e ordering} of prefixes must go
    through {!Prefix.compare}, never through id comparison, or determinism
    across modes breaks. *)

module Prefix_id : sig
  val id : Prefix.t -> int
  (** The prefix's id, allocating one on first sight. Equal prefixes
      always yield the same id within a process. *)

  val value : int -> Prefix.t
  (** The prefix behind an id. Raises [Invalid_argument] on an id never
      returned by {!id}. *)
end
