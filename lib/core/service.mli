(** The common Centralium service template (Section 5.1).

    Every service — NSDB, Switch Agent, applications — is built from the
    same mold and maintains {b two contrasting network views}: an
    {e intended} state (what applications want) and a {e current} state
    (ground truth from the switches). Reconciliation is the only writer of
    current state. The contrast powers consistency guarantees (straggler
    detection), customized rollout gating, and code reuse.

    Services also account their CPU busy-time and structural memory so the
    Figure 11 scalability CDFs can be measured on this implementation. *)

type role = Storage | Io | Application of string

type t

val create : name:string -> role:role -> t

val name : t -> string
val role : t -> role

val intended : t -> Nsdb.t
val current : t -> Nsdb.t

(** {1 Consistency} *)

val out_of_sync : t -> string list
(** Paths whose intended and current values differ (missing counts as
    different) — the stragglers. *)

val sync_fraction : t -> float
(** Fraction of intended paths whose current value matches; 1.0 when fully
    reconciled (and when nothing is intended). Used to gate slow rolls. *)

(** {1 Resource accounting (Figure 11)} *)

val with_work : t -> (unit -> 'a) -> 'a
(** Runs the thunk and adds its CPU time to the service's busy counter. *)

val busy_seconds : t -> float

val cpu_utilization : t -> elapsed:float -> float
(** Single-core-equivalent utilization over an [elapsed] observation
    window. *)

val memory_bytes : t -> int
(** Structural estimate over both views plus a fixed runtime baseline. *)

(** {1 Health} *)

type health = Healthy | Degraded of string list

val health : t -> health
(** Degraded when stragglers exist. *)

val pp_health : Format.formatter -> health -> unit
