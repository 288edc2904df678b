(** The RPA evaluation engine: turns a device's {!Rpa.t} into the
    {!Bgp.Rib_policy.hooks} that plug into the BGP workflow of Figure 6.

    Evaluation walks the priority list of path sets and picks the first one
    with enough matching active routes; all its routes are selected for
    forwarding while the least favorable one is advertised (Section 5.3.1).
    If no path set matches, selection falls back to native BGP, optionally
    guarded by [BgpNativeMinNextHop].

    Matched signatures are cached per (signature, attributes) pair, so
    re-evaluating a route after the first time is much faster — the
    cache-hit/cache-miss split of Table 2. The key is one int that packs
    the signature's index in the RPA with the attributes' intern id
    ({!Net.Attr.id}; an attribute that is not interned yet is interned
    first), and the cache stores the interned attribute next to each
    answer. Holding it keeps it canonical ({!Net.Attr.intern} lets go of
    values nothing holds), so an attribute this engine has seen keeps its
    id for the engine's lifetime: the cache hits exactly when one keyed by
    {!Net.Attr.equal} would, whenever collections run. A lookup hashes and
    compares one int: a switch's equal-length paths that differ only in
    their ASNs have distinct ids and spread over the buckets. The id is
    never used for ordering. *)

type t

val create : ?cache:bool -> Rpa.t -> t
(** [cache] defaults to [true]. *)

val rpa : t -> Rpa.t

val set_on_withdraw :
  t -> (prefix:Net.Prefix.t -> statement:string -> unit) option -> unit
(** Callback fired whenever a [BgpNativeMinNextHop] guard forces a
    withdrawal (the MNH-violated branch of the native fallback) in a
    decision the speaker commits; dry runs ([ctx.commit = false]) never
    fire it. The scenario layer uses it to surface guard firings as trace
    violations; [None] (the default) disables it. *)

val hooks : t -> Bgp.Rib_policy.hooks
(** The hooks are backed by this engine's mutable cache; one engine should
    serve one device. *)

type stats = {
  hits : int;
  misses : int;
  selections : int;
  max_bucket : int;  (** longest bucket of the signature cache *)
}

val stats : t -> stats

val reset_stats : t -> unit

val clear_cache : t -> unit
(** Drops every cached answer and the attributes the cache held. *)

(** {1 Direct evaluation}

    Used by tests and by the Table 2 benchmark to time evaluation without a
    full network around it. *)

val evaluate_selection :
  t ->
  ctx:Bgp.Rib_policy.ctx ->
  candidates:Bgp.Path.t list ->
  native:(Bgp.Path.t list * Bgp.Path.t option) ->
  Bgp.Rib_policy.selection

val required :
  Bgp.Rib_policy.ctx -> Path_selection.min_next_hop ->
  reference:Bgp.Path.t list -> int
(** How many matching paths a [min_next_hop] threshold asks for, never
    fewer than one. A [Fraction] is of the live peers in the layer of
    [reference]'s first path, or of [reference] when that layer is
    unknown. Selection and {!Debug} both use it. *)

val evaluate_weights :
  t ->
  ctx:Bgp.Rib_policy.ctx ->
  selected:Bgp.Path.t list ->
  (Bgp.Path.t * int) list option
