(** The network's event log: every BGP act, recorded once.

    Transient phenomena — first/last-router funneling, next-hop-group
    explosion, momentary loops and black-holes — only exist {e during}
    convergence, so experiments need the full time series of FIB states, not
    just the converged snapshot. Each {!Network} owns one log and records
    each FIB change, message, restart and liveness event by one call.

    Two projections read the log: the {e trace views} ({!events},
    {!count}, {!fib_timeline}, ...) and, for a log created under
    {!with_provenance}, the causal DAG ({!dag}). Provenance adds parent
    ids, the split of each wire delay, and the acts that are not trace
    events: origins, receives, decisions, configuration changes, in-flight
    losses, recoveries and session losses without liveness. Keepalive
    traffic, the send of a dropped message and violations are not DAG
    nodes.

    Message records ({!Message_sent}, {!Message_dropped}) are stored only
    in a log with provenance. Without it the log counts them
    ({!messages_sent}, {!messages_dropped}, {!keepalives_sent}, {!length})
    and stores every other trace event, so {!events}, {!iter} and
    {!count} see no message record. With provenance the trace views
    return every trace event. *)

(** What the FIB holds for a prefix ({!Speaker} re-exports it). *)
type fib_state =
  | Local  (** the prefix is originated here *)
  | Entries of entry list
      (** weighted next hops; an empty list never appears — a prefix with no
          entries is simply absent from the FIB *)

and entry = { next_hop : int; session : int; weight : int }

val fib_state_equal : fib_state -> fib_state -> bool
(** Typed structural equality (no polymorphic compare). *)

type event =
  | Fib_change of {
      time : float;
      device : int;
      prefix : Net.Prefix.t;
      state : fib_state option;  (** [None] = route removed *)
    }
  | Message_sent of {
      time : float;
      src : int;
      dst : int;
      session : int;
      msg : Msg.t;
    }
  | Message_dropped of {
      time : float;
      src : int;
      dst : int;
      session : int;
      msg : Msg.t;
    }  (** the fault model lost the message in transit *)
  | Speaker_restarted of { time : float; device : int }
      (** the device's speaker crashed: RIBs cleared, sessions dropped *)
  | Session_event of {
      time : float;
      device : int;
      peer : int;
      session : int;
      event : string;
    }
      (** session liveness machinery: [event] is a stable tag such as
          ["hold-expired"], ["reconnected"], ["stale-swept"], or
          ["fib-stale-swept"] *)
  | Violation of {
      time : float;
      device : int option;
      prefix : Net.Prefix.t option;
      kind : string;
      detail : string;
    }
      (** a runtime invariant violation (or an RPA guard firing), stamped
          with the event-queue time at which it was observed. [kind] is a
          stable machine-readable tag; [detail] is for humans. *)

type t

val create : unit -> t
(** A fresh log, with provenance when created inside {!with_provenance}. *)

val record : t -> event -> unit
(** Appends a trace event that is not a DAG node: violations, and events
    written by tests. A message record is counted, and stored only under
    provenance. *)

(** {1 Trace views} *)

val events : t -> event list
(** The stored events (no message record without provenance), in
    recording order. Memoized: repeated calls on an unchanged trace
    return the same (physically equal) list — events are stored in an
    append-friendly array, never re-reversed per call. *)

val length : t -> int
(** Every trace event recorded since creation or the last {!clear},
    message records included whether the log stores them or not. *)

val iter : t -> (event -> unit) -> unit
(** The stored events in recording order, without materializing a list. *)

(** The counters cost O(1) and read the same with provenance on or off,
    from creation or the last {!clear}. *)

val messages_sent : t -> int
(** Messages sent, dropped ones included. *)

val messages_dropped : t -> int

val keepalives_sent : t -> int
(** Keepalives sent, dropped ones included. *)

val count : (event -> bool) -> t -> int
(** Number of stored events satisfying the predicate, without
    materializing the event list. Without provenance it sees no message
    record: count those with the counters above. *)

val fib_change_count : t -> int

val violations :
  t -> (float * int option * Net.Prefix.t option * string * string) list
(** All recorded violations as (time, device, prefix, kind, detail), in
    recording order. *)

val violation_count : t -> int

val clear : t -> unit
(** Empties the trace views and zeroes the counters. Provenance is kept:
    DAG ids keep counting from the log's creation. *)

(** Replays the FIB time series for one prefix: for each instant at which
    any device's FIB changed, the map of device -> entries. Used by the
    data plane to evaluate transient forwarding. *)
val fib_timeline :
  t -> prefix:Net.Prefix.t ->
  initial:(int * fib_state) list ->
  (float * (int, fib_state) Hashtbl.t) list

val event_to_json : event -> Obs.Json.t
(** One self-describing object per event (a ["type"] tag plus the event's
    fields; attributes and FIB states rendered structurally) — the JSONL
    line format of [centralium observe]. *)

(** {1 Provenance} *)

val with_provenance : (unit -> 'a) -> 'a * t list
(** Runs the function with provenance switched on and returns its result
    with the logs created meanwhile, oldest first. Calls nest: a log
    created in an inner call is returned by every call around it too.
    Provenance is fixed when a log is created: it stays on for the log's
    lifetime. Recording draws no RNG and schedules nothing, so the run is
    bit-identical to one without provenance. *)

val dag : t -> Obs.Causal.t
(** A snapshot of the causal DAG, ids counted from the log's creation.
    Empty for a log without provenance. *)

(** {1 Acts}

    One call per act of {!Network} and {!Speaker}: each appends the act's
    trace event, if it has one, and under provenance its DAG node. An int
    result is the node's id ([-1] without provenance, or for no node).
    Origins, receives, restarts, session acts, sweeps and configuration
    changes become the current cause; a decision parents to it, and a send
    or FIB change to the device's decision for the prefix at the same
    instant, else to it. *)

val set_cause : t -> int -> unit
(** Sets the current cause; [-1] clears it, as {!Network} does before
    every event its queue runs. *)

val fib_change :
  t -> time:float -> device:int -> Net.Prefix.t -> fib_state option -> unit

val sent :
  t -> time:float -> src:int -> dst:int -> session:int -> Msg.t ->
  prop:float -> queue:float -> fault:float -> int
(** A transmitted message; propagation, FIFO queue wait and fault delay
    sum to its wire delay. *)

val dropped :
  t -> time:float -> src:int -> dst:int -> session:int -> Msg.t -> unit
(** A message the fault model dropped: a send and a drop in the trace,
    and in the counters. *)

(** The provenance-only acts. [send] is the message's send node;
    [decided] takes an interned prefix id. *)

val delivered :
  t -> time:float -> src:int -> dst:int -> session:int -> Msg.t ->
  send:int -> unit

val lost :
  t -> time:float -> src:int -> dst:int -> session:int -> Msg.t ->
  send:int -> reason:string -> unit

val decided : t -> time:float -> device:int -> prefix:int -> unit

val originated :
  t -> time:float -> device:int -> Net.Prefix.t -> withdraw:bool -> unit

val configured : t -> time:float -> device:int -> peer:int -> string -> unit

val restarted : t -> time:float -> device:int -> int
(** A speaker crash, a causal root. *)

val session :
  t -> logged:bool -> time:float -> device:int -> peer:int -> session:int ->
  parent:int -> string -> int
(** A session act and its tag; a trace event only when [logged] (a
    recovery, or a session loss without liveness, is not). *)

val sweep :
  t -> time:float -> device:int -> peer:int -> session:int -> parent:int ->
  string -> unit
(** A stale-path sweep; [parent] armed its timer. *)
