(** A single BGP speaker: RIBs, decision process, FIB, advertisement.

    The speaker is a deterministic state machine: feeding it a message (or a
    local event such as an origination, a session flap, a policy or RPA
    change) returns the set of messages it wants to send. Scheduling and
    delivery of those messages is the job of {!Network}; keeping transport
    out of the speaker makes unit testing the protocol logic trivial. *)

type config = {
  multipath : bool;  (** ECMP across equal-cost paths (default true) *)
  wcmp : bool;
      (** derive weights from the link-bandwidth community and re-advertise
          aggregate capacity downstream (default false) *)
  default_local_pref : int;
}

val default_config : config

(** What the FIB holds for a prefix. *)
type fib_state =
  | Local  (** the prefix is originated here *)
  | Entries of entry list
      (** weighted next hops; an empty list never appears — a prefix with no
          entries is simply absent from the FIB *)

and entry = { next_hop : int; session : int; weight : int }

val fib_state_equal : fib_state -> fib_state -> bool
(** Typed structural equality (no polymorphic compare). *)

type t

val create : ?config:config -> ?hooks:Rib_policy.hooks -> Topology.Node.t -> t

val node : t -> Topology.Node.t
val id : t -> int
val asn : t -> Net.Asn.t
val hooks : t -> Rib_policy.hooks

(** {1 Peering} *)

val add_peer : t -> peer:int -> sessions:int -> unit
val peers : t -> (int * int) list
(** (peer id, session count) for peers with at least one open session. *)

val session_up : t -> peer:int -> session:int -> bool
(** Is this session established? *)

(** A batch of messages to transmit, produced by every state transition. *)
type outbox = (int * int * Msg.t) list
(** (peer, session, message) *)

(** {1 State transitions}

    Each returns the messages to send. [ctx_of] is supplied by the network
    layer (it knows topology and virtual time). *)

type env = { now : float; peer_layer : int -> Topology.Node.layer option }

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
val set_egress_policy : t -> env -> peer:int -> Policy.t -> outbox
val set_egress_policy_all : t -> env -> Policy.t -> outbox
(** Applies to all current and future peers (used for drains). *)

val set_hooks : t -> env -> Rib_policy.hooks -> outbox
(** Deploying or removing an RPA re-evaluates every prefix. *)

(** {1 Inspection} *)

val fib : t -> (Net.Prefix.t * fib_state) list
val fib_lookup : t -> Net.Prefix.t -> fib_state option
(** Exact-match lookup. *)

val fib_longest_match : t -> Net.Prefix.t -> (Net.Prefix.t * fib_state) option
(** Longest-prefix match for a destination (given as a host prefix). *)

val rib_in_size : t -> int
val advertised_to : t -> peer:int -> (Net.Prefix.t * Net.Attr.t) list
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
    attributes) before any ingress policy, sorted. *)

val ingress_policy : t -> peer:int -> Policy.t option
(** The ingress policy installed for the peer, if any. *)

val known_prefixes : t -> Net.Prefix.t list
(** Every prefix present in any RIB (in, origin, FIB, or out), sorted. *)

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
