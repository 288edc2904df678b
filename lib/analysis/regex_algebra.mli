(** Language algebra over compiled AS-path regexes.

    The analyzer reasons about path signatures as languages of ASN
    sequences: a signature is the {e intersection} of its conjuncts — the
    AS-path regex, a first-token constraint (neighbor ASNs) and a
    last-token constraint (origin ASN). This module provides the machines
    for those conjuncts and the two decision procedures the lint checks
    need: intersection emptiness (is a signature unmatchable? do two
    signatures overlap?) and subsumption (does an earlier path set shadow a
    later one?).

    Machines are the symbolic NFAs of {!Net.Path_regex.symbolic}: labels
    are inclusive ASN ranges, so a finite set of {e representative tokens}
    (one per boundary interval of all ranges involved) suffices to explore
    the product exactly. Both procedures do a subset-construction BFS over
    the product; a state-count cap bounds the work, and hitting it resolves
    {e conservatively} — "cannot prove empty" / "cannot prove subsumed" —
    so a capped run can suppress a finding but never fabricate one. *)

type machine = Net.Path_regex.sym

val of_regex : Net.Path_regex.t -> machine

val universal : machine
(** Accepts every ASN sequence, including the empty one. *)

val never : machine
(** Accepts nothing. *)

val starts_with_any : int list -> machine
(** Sequences of length >= 1 whose first token is one of the given ASNs —
    the [neighbor_asns] conjunct. The empty list gives {!never}. *)

val ends_with : int -> machine
(** Sequences of length >= 1 whose last token is the given ASN — the
    [origin_asn] conjunct. *)

val intersection_nonempty : machine list -> bool
(** Is there an ASN sequence accepted by {e every} machine? The empty list
    is universal, hence [true]. At most 4,096 product states are
    explored; hitting that budget returns [true] (cannot prove empty). *)

val subsumes : machine list -> machine list -> bool
(** [subsumes sup sub]: is the intersection language of [sub] contained in
    the intersection language of [sup]? Hitting the state budget returns
    [false] (cannot prove containment). *)

val intersection_nonempty_capped : machine list -> bool * bool
(** Like {!intersection_nonempty}, also reporting whether the state budget
    was hit: [(verdict, capped)]. A [capped = true] verdict is the
    conservative answer, so the caller can surface the suppression (an
    [analysis-capped] diagnostic) instead of staying silent. *)

val subsumes_capped : machine list -> machine list -> bool * bool
(** Like {!subsumes}, also reporting whether the state budget was hit. *)
