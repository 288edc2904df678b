(** Discrete-event simulation core.

    A priority queue of timestamped thunks with a stable tie-break (FIFO
    among events scheduled for the same instant), driving a virtual clock.
    Asynchronous BGP convergence — the root cause of every transient problem
    in Section 3 of the paper — is modeled by scheduling message deliveries
    at randomized future times and running the queue to quiescence.

    Events run in (time, seq) order, where seq counts the calls to
    {!schedule_at}: a total order, so the run is fully determined by what
    was scheduled. The queue is a binary min-heap kept as three parallel
    arrays (unboxed times, sequence numbers, thunks). Below, [n] is the
    number of queued events. The arrays start with room for 64 events,
    double when full, and are given back when the queue drains: the
    {!step} that pops the last event replaces grown arrays with fresh
    64-slot ones, so a queue that once held a burst does not keep its peak
    footprint. *)

type t

val create : unit -> t
(** O(1): three 64-slot arrays. *)

val now : t -> float
(** Current virtual time (seconds). O(1). *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule q ~delay f] runs [f] at [now q +. delay]. Negative delays are
    clamped to 0 (execute at the current instant, after already queued
    events for that instant). O(log n); a push into full arrays first
    copies them into arrays twice the size, O(n). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; times before [now] are clamped to [now]. Same
    cost as {!schedule}. *)

val is_empty : t -> bool
(** O(1). *)

val pending : t -> int
(** Number of queued events. O(1). *)

val step : t -> bool
(** Executes the earliest event. Returns [false] if the queue was empty.
    O(log n) before the thunk runs, with no allocation unless the pop
    drained grown arrays (see above). *)

val set_on_step : t -> (unit -> unit) option -> unit
(** Installs (or clears) a hook run by {!step} after the clock advances and
    before the event thunk executes. Instrumentation only: the hook must not
    schedule events or otherwise affect the simulation. Used by the causal
    tracer to reset its ambient cursor at every event boundary so causality
    never leaks between unrelated queue events. *)

val run : ?max_events:int -> t -> int
(** Runs events until the queue is empty or [max_events] have executed
    (default unlimited). Returns the number executed. One {!step} each. *)

val run_until : t -> time:float -> int
(** Runs all events with timestamp [<= time] and advances the clock to
    [time]. Returns the number executed. One {!step} each. *)
