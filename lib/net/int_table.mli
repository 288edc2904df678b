(** Hash tables keyed by ints: device ids, interned prefix ids, packed
    cache keys.

    The key hashes to itself and compares with [Int.equal], so a lookup
    costs a mask and a bucket walk. The polymorphic [Hashtbl] would call
    [caml_hash] and [compare_val] on every lookup instead, which dominates
    the simulator's per-message work. Ids are dense from 0 wherever this
    repository assigns them, so the identity hash spreads them evenly over
    the power-of-two bucket array.

    {b Iteration order} is bucket order, which differs from the polymorphic
    [Hashtbl]'s and from insertion order. A fold over one of these tables
    must sort what it returns or be order-free (a sum, a set insertion, an
    independent update per key); DESIGN.md lists the folds that rely on
    this. *)

include Hashtbl.S with type key = int

(** Tables keyed by three ints, such as (device, peer, session) or
    (prefix id, peer, session). The same iteration rule applies. *)
module Triple : Hashtbl.S with type key = int * int * int
