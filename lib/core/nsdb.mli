(** Network State Database: the storage layer of the Centralium controller
    (Section 5.1).

    Current and intended network state share one tree representation rooted
    at a device map, so any node is addressable by a path string like
    ["devices/ssw-1/rpa/path-selection"]. All services use the same generic
    get/set/publish/subscribe API; paths may contain ['*'] wildcard
    segments (Appendix A.3).

    A {!Replicated} wrapper provides the eventual-consistency deployment
    model of Section 5.2: every write is one replication-log entry that
    the elected leader applies at once and the other live replicas replay
    (at once by default, in bounded batches in async mode), reads go to
    the leader, and leader failure transparently re-routes reads. The
    keys the controller, the admission queue and the HA layer keep there
    are spelled in {!Nsdb_schema}. *)

type value =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Rpa of Rpa.t

val value_equal : value -> value -> bool
(** Same constructor and equal payload; RPAs compare with {!Rpa.equal},
    never by their rendered text. *)

type t

val create : unit -> t

val set : t -> path:string -> value -> unit
(** Creates intermediate nodes as needed. Raises [Invalid_argument] on an
    empty path or a path containing ['*']. *)

val get_one : t -> path:string -> value option
(** Exact path, no wildcards. *)

val get : t -> path:string -> (string * value) list
(** [path] may contain ['*'] segments (each matching exactly one concrete
    segment) and ["**"] segments (matching any number, including zero).
    Returns (concrete path, value) pairs, sorted by path. *)

val get_subtree : t -> path:string -> (string * value) list
(** Every value at or under [path] (no wildcards). *)

val delete : t -> path:string -> unit
(** Deletes the node and its subtree; notifies subscribers of every removed
    value. *)

val paths : t -> string list
(** All paths holding a value. *)

val size : t -> int
(** Number of values stored. *)

val memory_estimate_bytes : t -> int
(** A structural estimate of the store's resident size (tree nodes and
    values), used by the Figure 11 memory CDF. *)

val snapshot : t -> (string * value) list
(** Every (path, value) pair, sorted — the serialization used when a
    service restarts or a replica re-syncs. *)

val restore : t -> (string * value) list -> unit
(** Clears the store and loads the snapshot. Subscribers are notified of
    the restored values (not of the clearing). *)

val subscribe : t -> path:string -> (string -> value option -> unit) -> int
(** [subscribe t ~path f] calls [f concrete_path value] on every
    set/delete whose path matches [path] (['*'] and ["**"] wildcards
    allowed). [None] signals deletion. Returns a subscription id. *)

val unsubscribe : t -> int -> unit

(** {1 Replication} *)

module Replicated : sig
  type store = t

  type t

  val create : replicas:int -> t
  (** Raises [Invalid_argument] if [replicas < 1]. *)

  val set : t -> path:string -> value -> unit
  (** Appends one entry to the replication log and applies it at the
      leader (publish path of Section 5.2). By default every live follower
      replays it at once — fan-out is the log drained immediately; in
      async mode ({!enable_async}) followers catch up at {!flush}. Raises
      [Invalid_argument] on a path {!Nsdb.set} refuses, before anything is
      logged. *)

  (** {2 Asynchronous replication with bounded catch-up}

      Both modes write through one replication log. By default every live
      follower replays each entry as it is written. [enable_async] makes
      followers consume the log instead in batches of at most
      [batch_budget] entries per {!flush} (one flush per simulation
      instant, driven by the caller on the Dsim virtual clock). Each
      replica's lag watermark is [head - applied]; a follower beyond
      [lag_threshold] — or whose backlog was truncated — abandons replay
      and catches up via snapshot shipping from the leader. Reads and
      compare-and-set are always served by the leader, which is current by
      construction; a follower promoted on leader failure first drains its
      backlog, so leader-visible semantics are unchanged. *)

  val enable_async : ?lag_threshold:int -> ?batch_budget:int -> t -> unit
  (** Defaults: [lag_threshold = 64], [batch_budget = 32]. Idempotent;
      raises [Invalid_argument] if either bound is < 1. *)

  val flush : t -> unit
  (** One replication + notification round: followers apply up to
      [batch_budget] log entries (or snapshot-ship beyond the threshold),
      the log is truncated below the slowest live replica, and every
      batched subscriber notification is delivered. Before
      {!enable_async} no live follower is behind, so only the
      notifications move. Deterministic — purely a function of store
      state. *)

  val lag : t -> int -> int
  (** Replica [i]'s lag watermark: log entries appended but not yet
      applied there. 0 for the leader, and for every live replica before
      {!enable_async}; a dead replica's counts the writes it missed. *)

  val max_lag : t -> int
  (** Worst lag over the live replicas. *)

  val lag_peak : t -> int
  (** High-water mark of any follower's lag observed at {!flush} time. *)

  val snapshot_ships : t -> int
  (** How many catch-ups abandoned replay for snapshot shipping. *)

  (** {2 Fleet-level pub/sub}

      Unlike the per-store {!Nsdb.subscribe}, these subscriptions observe
      the replicated write path itself and deliver {e batched}:
      notifications coalesce keep-last per path in first-touch order and
      are handed over as one batch per {!flush}. Each subscriber's pending
      queue is bounded by [limit] distinct paths; on overflow the delta
      stream is dropped and the next flush delivers a [`Resync] snapshot
      of the watched paths instead — shed loudly, never silently. *)

  type batch =
    [ `Changes of (string * value option) list
      (** coalesced deltas since the last flush; [None] = deleted *)
    | `Resync of (string * value) list
      (** full snapshot of the watched paths, after a queue overflow *) ]

  val subscribe : ?limit:int -> t -> path:string -> (batch -> unit) -> int
  (** Returns a token for {!unsubscribe}. [path] may contain ['*'] and
      ["**"] wildcards. [limit] (default 256) bounds the pending queue. *)

  val unsubscribe : t -> int -> unit
  (** Tokens are single-use; unsubscribing twice is a no-op. Long-horizon
      loops must pair every {!subscribe} with this — the watchdog and
      replica catch-up paths do. *)

  val subscriber_count : t -> int

  val overflow_resyncs : t -> int
  (** How many flushes downgraded a subscriber to [`Resync]. *)

  val get : t -> path:string -> (string * value) list
  (** Served by the elected leader. Raises [Failure] if no replica is
      alive. *)

  val get_one : t -> path:string -> value option
  (** Exact-path read served by the elected leader. Raises [Failure] if no
      replica is alive. *)

  val delete : t -> path:string -> unit
  (** Removes the subtree rooted at [path]: one log entry, replicated
      like {!set}. *)

  val compare_and_set : t -> path:string -> expected:value option -> value -> bool
  (** [compare_and_set t ~path ~expected v] atomically writes [v] at [path]
      iff the leader's current value equals [expected] ([None] = the path
      must be absent). Returns whether the write happened. On success the
      write is logged and replicated like {!set}. This is the
      linearization point for the HA lease protocol and for journal status
      transitions — it closes the read-modify-write race a separate
      get/set pair leaves open. Raises [Failure] if no replica is alive. *)

  val leader : t -> int option
  (** Index of the current leader (lowest-index live replica). *)

  val fail_replica : t -> int -> unit
  (** Marks a replica dead; reads re-route to the next elected leader. In
      async mode the promoted follower first drains its backlog, so the
      new leader serves current state. *)

  val recover_replica : t -> int -> unit
  (** Brings a replica back and re-synchronizes it from the leader
      (eventual consistency: it may have missed writes while down). The
      resync restores {e in place}, preserving the replica store's own
      subscriptions. *)

  val replica : t -> int -> store
  (** Direct access for tests. *)

  val alive : t -> int list
end
