(** Causal provenance DAG for route propagation.

    The causal chain behind every routing state change: origin
    announce/withdraw -> per-hop message send/receive (through the fault
    and batching layers) -> decision -> Adj-RIB-Out flush -> FIB install.
    Each event carries the id of the event that caused it, so the DAG is a
    forest of paths rooted at origin/config/restart events.

    On top of the DAG sit two analyses: {!critical_path}, the longest
    causal chain ending at a prefix's final FIB change with per-edge delay
    attribution (link propagation, fault delay, FIFO queue wait, decision
    and flush time), and {!attribute}, which joins blackhole intervals
    from {!Dataplane.Metrics.loss_integrals} to the FIB events that opened
    and closed them.

    This module records nothing: {!Bgp.Trace.dag} builds a DAG from a
    network's event log when that log holds provenance. Ids are assigned in
    deterministic simulation order and only virtual time is stamped, so at
    a fixed seed the DAG is bit-reproducible.

    The obs library sits below net, so devices and prefixes are plain
    ints: prefixes are [Net.Intern.Prefix_id.id] values, rendered through
    a [prefix_name] callback at export time. *)

type kind =
  | Origin
  | Origin_withdraw
  | Recv
  | Decide
  | Send
  | Drop
  | Fib
  | Restart
  | Session
  | Sweep
  | Config

val kind_label : kind -> string

type event = {
  id : int;       (** position in the DAG; assigned in simulation order *)
  parent : int;   (** causing event id, [-1] for roots *)
  kind : kind;
  time : float;   (** virtual seconds *)
  device : int;
  peer : int;     (** [-1] when not applicable *)
  session : int;  (** [-1] when not applicable *)
  prefix : int;   (** interned prefix id, [-1] when not prefix-scoped *)
  note : string;
  d_prop : float;   (** Send only: drawn propagation latency *)
  d_queue : float;  (** Send only: FIFO head-of-line wait *)
  d_fault : float;  (** Send only: extra delay from the fault model *)
}

type t
(** A DAG snapshot. *)

val of_array : event array -> t
(** The DAG of the events, whose ids must be their positions. *)

(** {1 Inspection & export} *)

val length : t -> int
val events : t -> event list
val event : t -> int -> event option

val default_prefix_name : int -> string
(** ["pfx#<id>"], or ["-"] for [-1] — the fallback when no resolver is
    supplied. *)

val event_to_json : ?prefix_name:(int -> string) -> event -> Json.t
val to_json : ?prefix_name:(int -> string) -> t -> Json.t
(** The whole DAG as a JSON array, in id order. Deterministic at a fixed
    seed. *)

(** {1 Critical path} *)

type edge = {
  e_from : int;
  e_to : int;
  e_label : string;  (** wire | decision | emit | install | ... *)
  e_delay : float;   (** child time - parent time, virtual seconds *)
  e_parts : (string * float) list;
      (** wire edges: prop / fault / queue components *)
}

type chain = {
  c_prefix : int;
  c_events : event list;  (** root first *)
  c_edges : edge list;    (** between consecutive events; length-1 of events *)
  c_total : float;        (** terminal time - root time; the per-edge
                              delays telescope to exactly this *)
}

val critical_path : ?device:int -> t -> prefix:int -> chain option
(** The causal chain ending at the last FIB change for [prefix] (at
    [device], when given) — the convergence critical path to quiescence.
    [None] when the prefix never changed any FIB. *)

val chain_lines : ?prefix_name:(int -> string) -> chain -> string list
(** Human rendering: one line per event with relative time and the delay
    of the edge that led to it. *)

val chain_to_json : ?prefix_name:(int -> string) -> chain -> Json.t

(** {1 Blackhole attribution} *)

type attributed = {
  a_from : float;
  a_until : float;
  a_fraction : float;  (** blackholed demand fraction over the interval *)
  a_seconds : float;   (** fraction x width — sums to exactly the
                           [loss_integrals] blackhole-seconds *)
  a_opened_by : int list;
      (** FIB event ids at the interval's opening instant (or the latest
          FIB event before it; empty for pre-existing state) *)
  a_closed_by : int list;  (** FIB event ids at the closing instant *)
}

val attribute :
  t -> prefix:int -> segments:(float * float * float) list -> attributed list
(** [segments] are [(from, until, blackholed_fraction)] pieces of the loss
    integral (see {!Dataplane.Metrics.loss_segments}). Zero-width and
    zero-fraction segments are dropped; the remaining [a_seconds] sum
    bit-exactly to the integral's blackhole-seconds. *)

val attributed_to_json : attributed -> Json.t
