(** A single BGP speaker: RIBs, decision process, FIB, advertisement.

    The speaker is a deterministic state machine: feeding it a message (or a
    local event such as an origination, a session flap, a policy or RPA
    change) returns the set of messages it wants to send. Scheduling and
    delivery of those messages is the job of {!Network}; keeping transport
    out of the speaker makes unit testing the protocol logic trivial.

    {b Layout.} Each peer device has one record holding its session flags,
    its list of established sessions and its ingress policy. The records
    sit in an array sorted by device id that changes only when a device is
    first seen, and a decision's fan-out walks it in order.
    Each prefix's Adj-RIB-In is a set of parallel arrays sorted by (peer
    id, session) whose slots point at the peer records: a lookup bisects, a
    refresh replaces the slot in place, and a decision reads its candidates
    in that order with no sort and no hashing of peers or sessions. The
    order is by device id, never by an intern id.

    The speaker keeps one Adj-RIB-Out, not one per peer. Per prefix it
    holds one advert, the one every added peer was last sent, and the
    sorted device ids of the peers withheld from it: the split-horizon
    peer, peers the egress hook rejected, and peers added since the prefix
    was last decided. A peer's {e view} of a prefix is the advert unless
    the peer is withheld, in which case it is nothing; a view changes only
    when its prefix is decided. A decision prepares the advert once and
    compares the whole entry once, and walks the peers only when the entry
    changed. *)

(** What the FIB holds for a prefix (defined in {!Trace}, whose FIB
    events carry it). *)
type fib_state = Trace.fib_state =
  | Local  (** the prefix is originated here *)
  | Entries of entry list
      (** weighted next hops; an empty list never appears — a prefix with no
          entries is simply absent from the FIB *)

and entry = Trace.entry = { next_hop : int; session : int; weight : int }

val fib_state_equal : fib_state -> fib_state -> bool
(** Typed structural equality (no polymorphic compare). *)

type t

val create : ?wcmp:bool -> ?hooks:Rib_policy.hooks -> Topology.Node.t -> t
(** A speaker with no peers. The native decision keeps every equal-cost
    path (ECMP), and every advert carries local-pref 100. With [~wcmp:true]
    (default false) the native weights come from the link-bandwidth
    community and each advert carries the aggregate capacity of its
    forwarding set downstream. *)

val node : t -> Topology.Node.t
val id : t -> int
val asn : t -> Net.Asn.t
val hooks : t -> Rib_policy.hooks

(** {1 Peering} *)

val add_peer : t -> peer:int -> sessions:int -> unit
val peers : t -> (int * int) list
(** (peer id, number of open sessions) for peers with at least one open
    session, sorted by peer id. *)

val session_up : t -> peer:int -> session:int -> bool
(** Is this session established? *)

(** A batch of messages to transmit, produced by every state transition. *)
type outbox = (int * int * Msg.t) list
(** (peer, session, message) *)

(** {1 State transitions}

    Each returns the messages to send. [ctx_of] is supplied by the network
    layer (it knows topology and virtual time). *)

type env = {
  now : float;
  peer_layer : int -> Topology.Node.layer option;
  log : Trace.t;  (** where the speaker records its decisions *)
}

val decision_ctx : t -> env -> Net.Prefix.t -> Rib_policy.ctx
(** The context this speaker's decision hands its hooks for the prefix, as
    a dry run ([commit = false]): an explanation or static model that
    re-runs a hook sees the same live-peers-per-layer count the speaker's
    own decision does. *)

(** How batch transitions (session resets, policy pushes, resyncs) decide
    which prefixes to re-run the decision process on. *)
type eval_mode =
  | Incremental
      (** Mutations mark their prefix dirty; a transition drains the dirty
          set. Duplicate updates and no-op withdraws skip the re-decide
          entirely. The default. *)
  | Full_table
      (** Re-decide every known prefix on every transition — the original
          behavior, kept as the debug oracle. Both modes are bit-identical
          in FIBs, Adj-RIB-Outs, and emitted messages; they differ only in
          decision count. *)

val set_eval_mode : t -> eval_mode -> unit
val eval_mode : t -> eval_mode

val originate : t -> env -> Net.Prefix.t -> Net.Attr.t -> outbox
val withdraw_origin : t -> env -> Net.Prefix.t -> outbox

val receive : t -> env -> peer:int -> session:int -> Msg.t -> outbox
(** [Keepalive] is a no-op at this layer (the network tracks liveness);
    [Eor] sweeps all routes from the session still marked stale; an
    [Update] refreshes (and un-stales) the route; a [Withdraw] removes it
    and clears any stale mark. *)

val set_session :
  ?stale:bool -> t -> env -> peer:int -> session:int -> up:bool -> outbox
(** Session reset. On down, routes learned over the session are flushed —
    unless [~stale:true] (graceful restart, receiver side), in which case
    they are kept as forwarding candidates and marked stale until refreshed,
    swept by {!Msg.Eor}, or expired via {!sweep_stale}. On up, the speaker
    re-advertises its full table over the session, followed by an
    End-of-RIB marker when graceful restart is enabled. *)

val set_graceful_restart : t -> bool -> unit
(** Enables RFC 4724 semantics on this speaker: {!reset} preserves learned
    FIB entries (marked stale) instead of flushing them, and session
    re-establishment ends its resync with {!Msg.Eor}. Off by default. *)

val graceful_restart : t -> bool

val sweep_stale :
  t -> env -> peer:int -> session:int -> before:float -> outbox
(** Stale-path timer: removes routes from the session whose stale mark is at
    or before [before] and re-evaluates the affected prefixes. A finite
    [before] confines the sweep to marks from the session loss that
    scheduled it (routes re-marked by a later flap survive). *)

val sweep_own_stale : t -> env -> outbox
(** Expires FIB entries preserved across this speaker's own graceful
    restart that were never re-derived from fresh RIBs. *)

val reset : t -> unit
(** Crash the speaker: Adj-RIB-Ins, Adj-RIB-Outs, and learned FIB entries
    are cleared and every session is marked down, without emitting any
    message (a crash sends no goodbye). Configuration — originated
    prefixes, policies, hooks — survives, as does the learned FIB when
    {!set_graceful_restart} is on (preserved entries are marked stale; see
    {!sweep_own_stale}). The network layer is responsible for telling the
    peers their sessions dropped and, later, for re-establishing them. *)

val set_ingress_policy : t -> env -> peer:int -> Policy.t -> outbox
val set_egress_policy_all : t -> env -> Policy.t -> outbox
(** Applies to all current and future peers (used for drains). Per-peer
    export decisions belong to the hooks' [egress_accept]. *)

val set_hooks : t -> env -> Rib_policy.hooks -> outbox
(** Deploying or removing an RPA re-evaluates every prefix. *)

(** {1 FIB changes}

    Every write to the FIB goes through one function of the speaker. The
    first write to a prefix since the last report keeps that prefix's
    previous state, so each write costs O(1) with no scan, even when a
    transition rewrites every prefix. *)

val take_fib_changes : t -> (Net.Prefix.t * fib_state option) list
(** The FIB entries whose state differs from the last report (or from
    {!create}), each with its state now ([None] = removed), and clears the
    record. Order: removed or changed entries by prefix, then new entries
    by prefix. That is exactly what diffing a {!fib} snapshot taken at the
    last report against one taken now gives. A prefix written and then
    restored to its old state does not appear.

    The record is kept until someone asks for it: a speaker driven outside
    a {!Network} accumulates the changes of every call since the last
    [take_fib_changes]. *)

(** {1 Inspection} *)

val fib : t -> (Net.Prefix.t * fib_state) list
(** The whole FIB, sorted by prefix. For inspection only: what a call
    changed comes from {!take_fib_changes}, not from diffing two of
    these. *)

val fib_lookup : t -> Net.Prefix.t -> fib_state option
(** Exact-match lookup. *)

val fib_longest_match : t -> Net.Prefix.t -> (Net.Prefix.t * fib_state) option
(** Longest-prefix match for a destination (given as a host prefix). *)

val rib_in_size : t -> int

val advertised_to : t -> peer:int -> (Net.Prefix.t * Net.Attr.t) list
(** The peer's views that are adverts, sorted by prefix. Views are kept
    whether or not a session is open, so this is what an established
    session has been sent. *)

val candidates : ?env:env -> t -> Net.Prefix.t -> Path.t list
(** Post-policy paths currently admitted for the prefix (before selection),
    as used by the decision process. Pass the live [env] when inspecting a
    running network so session-dependent filtering reflects simulated time;
    without it a zero-time placeholder environment is used. *)

val originated : t -> (Net.Prefix.t * Net.Attr.t) list

val is_stale : t -> Net.Prefix.t -> peer:int -> session:int -> bool
(** Is this Adj-RIB-In route currently marked stale (graceful restart)? *)

val stale_routes : t -> (Net.Prefix.t * int * int * float) list
(** Every stale-marked route as (prefix, peer, session, marked_at), sorted.
    Non-empty only transiently: at quiescence a remaining mark is a leak
    (see {!Centralium.Invariant}). *)

val fib_stale_prefixes : t -> Net.Prefix.t list
(** Prefixes whose FIB entry is preserved from before this speaker's own
    restart and not yet re-derived from fresh RIBs. *)

val routes_from : t -> peer:int -> session:int -> (Net.Prefix.t * Net.Attr.t) list
(** Raw Adj-RIB-In contents learned from one (peer, session), sorted by
    prefix — the receiver-side view that should mirror the peer's
    Adj-RIB-Out when the session is healthy. *)

val adj_rib_in : t -> Net.Prefix.t -> (int * int * Net.Attr.t) list
(** Raw routes held in the Adj-RIB-In for the prefix, as (peer, session,
    attributes) before any ingress policy, sorted by (peer, session). *)

val ingress_policy : t -> peer:int -> Policy.t option
(** The ingress policy installed for the peer, if any. *)

(** {1 Reads by prefix id}

    Read-only probes for a judge that walks many prefixes at once (an
    invariant sweep): each takes a prefix id ({!Net.Intern.Prefix_id.id})
    and reads one table slot, building no list and changing nothing. The
    lists above answer the same questions one prefix or one peer at a
    time. *)

val fib_find : t -> int -> fib_state option
(** {!fib_lookup} by prefix id. *)

val fib_preserved : t -> int -> bool
(** Is the prefix's FIB entry preserved from before this speaker's own
    restart and not yet re-derived (one of {!fib_stale_prefixes})? *)

val stale_marked : t -> int -> peer:int -> session:int -> bool
(** {!is_stale} by prefix id. *)

val rib_in_attr : t -> int -> peer:int -> session:int -> Net.Attr.t option
(** The raw Adj-RIB-In attributes of the route from (peer, session), if
    one is held: the entry of {!adj_rib_in} or {!routes_from}. *)

val rib_out_attr : t -> peer:int -> int -> Net.Attr.t option
(** [peer]'s view of the prefix in the Adj-RIB-Out: the entry of
    {!advertised_to}. *)

val has_stale_state : t -> bool
(** Does the speaker hold any stale mark or preserved FIB entry? When it
    does not, {!stale_routes} and {!fib_stale_prefixes} are both empty. *)

val knows : t -> int -> bool
(** Is the prefix present in any RIB (in, origin, FIB, or out)? *)

val iter_known : (int -> unit) -> t -> unit
(** Calls the function on every prefix id present in any RIB, once per
    table holding it (Adj-RIB-In, origin, FIB, and the one Adj-RIB-Out,
    which holds a prefix when some peer's view of it is an advert), in no
    particular order: a caller that needs a set or an order builds it. *)

(** {1 Invariant support}

    A divergence is a prefix whose installed FIB entry or advertised state
    differs from what the decision process would produce right now — i.e.
    the speaker has not (yet) converged on its own inputs. *)

type divergence =
  | Stale_fib of { prefix : Net.Prefix.t }
  | Stale_advert of { prefix : Net.Prefix.t; peer : int }

val divergences : t -> env -> divergence list
(** Recomputes the decision process for every known prefix {e without
    mutating any state} and reports mismatches against the installed FIB
    and Adj-RIB-Out. The hooks see a dry run ([ctx.commit = false]), so
    they fire no side effect either. An empty list means the speaker is
    internally converged. *)

val divergences_at : t -> env -> int list -> divergence list
(** {!divergences} over the given prefix ids, in the given order: the
    caller names the prefixes the speaker {!knows}, sorted by prefix, and
    gets exactly {!divergences}' list. Each id is re-decided afresh,
    as a dry run. *)
