(** The keys of the replicated NSDB and the encodings of their values.

    The controller's journal and plan records, the admission queue and
    the HA lease share one {!Nsdb.Replicated} store. This module is the
    only place their paths are spelled; each writer keeps its own write
    path ({!Controller} through its fenced, fault-fated retry loop, {!Ops}
    and {!Ha} directly).

    {v
      journal/<plan>/status         String  in-progress|completed|rolled-back
      journal/<plan>/next_phase     Int     first phase not yet fully applied
      journal/<plan>/total_phases   Int
      journal/<plan>/completed_seq  Int     GC order of completed journals
      journal/<plan>/remediation    String  a watchdog breach, as audit
      journal_meta/seq              Int     last completion number handed out
      plans/<plan>/devices/<d>      Rpa     recorded intent, GC'd with journal
      opsq/<seq>/plan               String  plan name
      opsq/<seq>/tenant             String
      opsq/<seq>/class              String  interactive | standard | bulk
      opsq/<seq>/state              String  queued | started | done
      opsq_meta/subs                Int     submissions so far
      opsq_meta/shed/<n>            String  "<tenant>:<plan>:<reason>"
      ha/lease                      String  "<holder>:<epoch>:<expiry>"
      ha/epoch                      Int     highest granted fencing epoch
    v}

    [<seq>] and [<n>] are printed [%08d]. [journal_watch],
    [journal_statuses], [queue_all] and [sheds] are wildcard patterns;
    [journal_plan], [queue_seq] and [shed_index] read the variable segment
    back out of a concrete key. *)

val string_at : Nsdb.Replicated.t -> string -> string option
(** The value at a key, from the leader; [None] if absent or of another
    type. *)

val int_at : Nsdb.Replicated.t -> string -> int option

(** {1 Deployment journal} *)

type journal_field =
  [ `Status | `Next_phase | `Total_phases | `Completed_seq | `Remediation ]

val journal : string -> string
val journal_key : string -> journal_field -> string
val journal_watch : string -> string
val journal_statuses : string
val journal_plan : string -> string option
val journal_seq : string
val plan_records : string -> string
(** The [plans/<plan>] subtree: the plan's recorded intent.
    {!Controller.journal_gc} deletes it with the plan's journal. *)

val plan_device : string -> int -> string

(** {1 Admission queue} *)

type queue_field = [ `Plan | `Tenant | `Class | `State ]
type queue_state = Queued | Started | Done

val queue_entry : int -> string
val queue_key : int -> queue_field -> string
val queue_all : queue_field -> string
val queue_seq : string -> int option
val encode_queue_state : queue_state -> string
val decode_queue_state : string -> queue_state option
val submissions : string
val shed : int -> string
val sheds : string
val shed_index : string -> int option
val encode_shed : tenant:string -> plan:string -> string -> string

val decode_shed : string -> (string * string * string) option
(** Inverts {!encode_shed} for a tenant and plan without [':']; the
    reason may hold any. *)

(** {1 HA lease} *)

val ha_lease : string
val ha_epoch : string

val encode_lease : holder:int -> epoch:int -> expiry:float -> string
(** The expiry is written with [%.17g], so decoding and re-encoding a
    lease gives back the same string: renewal compare-and-sets on it. *)

val decode_lease : string -> (int * int * float) option
