(** The RPA evaluation engine: turns a device's {!Rpa.t} into the
    {!Bgp.Rib_policy.hooks} that plug into the BGP workflow of Figure 6.

    Evaluation walks the priority list of path sets and picks the first one
    with enough matching active routes; all its routes are selected for
    forwarding while the least favorable one is advertised (Section 5.3.1).
    If no path set matches, selection falls back to native BGP, optionally
    guarded by [BgpNativeMinNextHop].

    Matched signatures are cached per (signature, attributes) pair, so
    re-evaluating a route after the first time is much faster — the
    cache-hit/cache-miss split of Table 2. The cache is a typed table whose
    hash reads the signature id, the AS-path segments and the communities:
    the polymorphic [Hashtbl.hash] gives up after 10 meaningful words,
    which an attribute record carrying a community spends before its first
    ASN, so a switch's equal-length paths that differ only in their ASNs
    would all land in one bucket. Equality is {!Net.Attr.equal}. *)

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

(** {1 Direct evaluation}

    Used by tests and by the Table 2 benchmark to time evaluation without a
    full network around it. *)

val evaluate_selection :
  t ->
  ctx:Bgp.Rib_policy.ctx ->
  candidates:Bgp.Path.t list ->
  native:(Bgp.Path.t list * Bgp.Path.t option) ->
  Bgp.Rib_policy.selection

val evaluate_weights :
  t ->
  ctx:Bgp.Rib_policy.ctx ->
  selected:Bgp.Path.t list ->
  (Bgp.Path.t * int) list option
