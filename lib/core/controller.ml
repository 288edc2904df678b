(* Observability instruments (shared registry; no-ops until enabled). *)
let m_retries = Obs.Metrics.counter "controller.retries"
let h_backoff_ms = Obs.Metrics.histogram "controller.backoff_ms"
let m_rollbacks = Obs.Metrics.counter "controller.rollbacks"
let m_rollback_devices = Obs.Metrics.counter "controller.rollback_devices"
let m_resumes = Obs.Metrics.counter "controller.resumes"
let g_resume_phase = Obs.Metrics.gauge "controller.resume_phase"
let m_journal_writes = Obs.Metrics.counter "controller.journal_writes"
let m_nsdb_write_failures = Obs.Metrics.counter "controller.nsdb_write_failures"
let m_gave_up = Obs.Metrics.counter "controller.gave_up"
let m_fenced_writes = Obs.Metrics.counter "ha.fenced_writes"
let m_status_conflicts = Obs.Metrics.counter "controller.status_conflicts"
let m_journal_pruned = Obs.Metrics.counter "controller.journal_pruned"
let m_watchdog_rollbacks = Obs.Metrics.counter "controller.watchdog_rollbacks"

type plan = {
  plan_name : string;
  rpas : (int * Rpa.t) list;
  phases : int list list;
  pre_checks : Health.check list;
  post_checks : Health.check list;
}

let plan_loc plan =
  plan.rpas
  |> List.map (fun (_, rpa) -> Rpa.config_lines rpa)
  |> List.sort_uniq compare
  |> List.fold_left (fun acc lines -> acc + List.length lines) 0

let direction plan =
  if List.for_all (fun (_, rpa) -> Rpa.equal rpa Rpa.empty) plan.rpas then
    Deployment.Remove
  else Deployment.Install

let removal plan =
  {
    plan with
    rpas = List.map (fun (device, _) -> (device, Rpa.empty)) plan.rpas;
    phases = Deployment.rollback_order plan.phases;
  }

(* {1 Lint hook}

   The static analyzer lives in lib/analysis, which depends on this
   library; the dependency cycle is broken with a registration hook. When
   the analysis library is linked, its initializer installs the engine
   here and every deployment gets a pre-flight lint pass. *)

type lint_finding = {
  lint_error : bool;
  lint_code : string;
  lint_message : string;
}

type lint_mode = [ `Off | `Warn | `Enforce ]

let linter_ref : (Topology.Graph.t -> plan -> lint_finding list) option ref =
  ref None

let set_linter f = linter_ref := Some f
let linter () = !linter_ref

(* The symbolic phase verifier registers here the same way. It needs the
   network (not just the graph): the destination classes it proves things
   about come from what the speakers actually originate. *)
let verifier_ref : (Bgp.Network.t -> plan -> lint_finding list) option ref =
  ref None

let set_verifier f = verifier_ref := Some f
let verifier () = !verifier_ref

type device_failure = { failed_device : int; attempts : int; last_error : string }

type report = {
  applied : int;
  skipped_in_sync : int;
  unreachable : int list;
  deploy_seconds : float list;
  retries : int;
  backoff_seconds : float list;
  gave_up : device_failure list;
  resumed_from_phase : int option;
}

type outcome =
  | Completed of report
  | Rolled_back of { partial : report; reasons : string list }
  | Crashed of { partial : report; completed_phases : int }
  | Fenced of { partial : report; completed_phases : int }
  | Aborted of string list

let outcome_name = function
  | Completed _ -> "completed"
  | Rolled_back _ -> "rolled-back"
  | Crashed _ -> "crashed"
  | Fenced _ -> "fenced"
  | Aborted _ -> "aborted"

type fence_status = Fence_held of int | Fence_lost | Fence_crashed

type retry_policy = {
  max_attempts : int;
  base_backoff_s : float;
  backoff_multiplier : float;
  max_backoff_s : float;
  jitter : float;
  jitter_seed : int;
  failure_budget : int;
}

let default_retry_policy =
  {
    max_attempts = 4;
    base_backoff_s = 0.002;
    backoff_multiplier = 2.0;
    max_backoff_s = 0.05;
    jitter = 0.5;
    jitter_seed = 97;
    failure_budget = 0;
  }

(* The pre-existing single-shot semantics: one attempt per device, no
   failure budget (unreachable devices are reported, not rolled back). *)
let single_shot_policy =
  { default_retry_policy with max_attempts = 1; failure_budget = max_int }

type t = {
  net : Bgp.Network.t;
  switch_agent : Switch_agent.t;
  state_db : Nsdb.Replicated.t;
  nsdb_service : Service.t;
  mutable journal_retain : int;
  (* Audit trail for Invariant.Stale_epoch_write: (virtual time, epoch) of
     every committed fenced NSDB write, most recent first. *)
  mutable epoch_writes : (float * int) list;
}

let create ?seed ?agent ?nsdb net =
  {
    net;
    switch_agent =
      (match agent with
       | Some a -> a
       | None -> Switch_agent.create ?seed net);
    state_db =
      (match nsdb with Some db -> db | None -> Nsdb.Replicated.create ~replicas:2);
    nsdb_service = Service.create ~name:"nsdb" ~role:Service.Storage;
    journal_retain = 8;
    epoch_writes = [];
  }

let set_journal_retention t n = t.journal_retain <- max 0 n
let epoch_writes t = List.rev t.epoch_writes

let network t = t.net
let agent t = t.switch_agent
let nsdb t = t.state_db

let services t = [ t.nsdb_service; Switch_agent.service t.switch_agent ]

let validate_plan t plan =
  let plan_devices = List.sort Int.compare (List.map fst plan.rpas) in
  let phase_devices =
    List.sort Int.compare (Deployment.flatten plan.phases)
  in
  if plan_devices <> phase_devices then
    Error
      (Printf.sprintf "plan %s: phases do not cover exactly the plan devices"
         plan.plan_name)
  else
    match
      List.find_opt
        (fun d -> Topology.Graph.node_opt (Bgp.Network.graph t.net) d = None)
        plan_devices
    with
    | Some d -> Error (Printf.sprintf "plan %s: unknown device %d" plan.plan_name d)
    | None ->
      (* the smallest repeated device: copies sit together in the sorted list *)
      let rec repeated = function
        | a :: (b :: _ as rest) -> if a = b then Some a else repeated rest
        | [] | [ _ ] -> None
      in
      (match repeated plan_devices with
       | Some d ->
         Error (Printf.sprintf "plan %s: device %d has multiple RPAs (merge them)"
                  plan.plan_name d)
       | None -> Ok ())

(* {1 Pre-flight gates} *)

let ( let* ) = Result.bind

let fmt_failures kind failures =
  List.map (fun (name, e) -> Printf.sprintf "%s %s: %s" kind name e) failures

(* The lint pass and the symbolic verification pass share one contract:
   [`Warn] logs findings, [`Enforce] refuses plans with error-severity
   findings. With no engine registered (binary not linked against
   lib/analysis) [`Warn] is a no-op and [`Enforce] refuses every plan: a
   check that cannot run must not pass. [input] is what the engine reads
   besides the plan: the graph for lint; the network for the phase
   verifier, which proves the plan loop- and blackhole-free across every
   phase boundary and mixed frontier before anything touches a device. *)
let gate ~label mode engine input plan =
  match (mode, engine) with
  | `Off, _ | `Warn, None -> Ok ()
  | `Enforce, None ->
    Error
      [
        Printf.sprintf
          "%s: enforced, but no %s engine is registered (lib/analysis is \
           not linked)"
          label label;
      ]
  | ((`Warn | `Enforce) as mode), Some engine ->
    let findings = engine input plan in
    let errors = List.filter (fun f -> f.lint_error) findings in
    (match mode with
     | `Enforce when errors <> [] ->
       Error
         (List.map
            (fun f ->
              Printf.sprintf "%s %s: %s" label f.lint_code f.lint_message)
            errors)
     | _ ->
       List.iter
         (fun f ->
           if f.lint_error then
             Logs.warn (fun m ->
                 m "plan %s: %s %s: %s" plan.plan_name label f.lint_code
                   f.lint_message)
           else
             Logs.info (fun m ->
                 m "plan %s: %s %s: %s" plan.plan_name label f.lint_code
                   f.lint_message))
         findings;
       Ok ())

let run_pre_checks plan =
  match Health.failures plan.pre_checks with
  | [] -> Ok ()
  | failures -> Error (fmt_failures "pre-check" failures)

(* {1 Retry machinery} *)

exception Crash_signal
exception Budget_exceeded of int
exception Fenced_signal
exception Watchdog_breach of int * string list

(* Evaluate the fence before every externally-visible mutation. A leader
   that has lost its lease fail-stops right here: no RPC, no NSDB write,
   no intent update gets out under a superseded epoch. *)
let fence_epoch fence =
  match fence with
  | None -> None
  | Some f -> (
    match f () with
    | Fence_held epoch -> Some epoch
    | Fence_lost -> raise Fenced_signal
    | Fence_crashed -> raise Crash_signal)

(* Mutable accumulation across phases, rollback and resume. *)
type progress = {
  mutable p_applied : int;
  mutable p_in_sync : int;
  mutable p_unreachable : int list;  (* reverse *)
  mutable p_retries : int;
  mutable p_backoffs : float list;  (* reverse *)
  mutable p_gave_up : device_failure list;  (* reverse *)
}

let fresh_progress () =
  {
    p_applied = 0;
    p_in_sync = 0;
    p_unreachable = [];
    p_retries = 0;
    p_backoffs = [];
    p_gave_up = [];
  }

let report_of_progress t prog ~resumed_from_phase =
  {
    applied = prog.p_applied;
    skipped_in_sync = prog.p_in_sync;
    unreachable = List.rev prog.p_unreachable;
    deploy_seconds = Switch_agent.deploy_time_samples t.switch_agent;
    retries = prog.p_retries;
    backoff_seconds = List.rev prog.p_backoffs;
    gave_up = List.rev prog.p_gave_up;
    resumed_from_phase;
  }

(* Everything one rollout threads through its retry, journal and phase
   machinery, built once per rollout. *)
type ctx = {
  ctl : t;
  policy : retry_policy;
  fault : Dsim.Mgmt_fault.t option;
  fence : (unit -> fence_status) option;
  jrng : Dsim.Rng.t;  (* backoff jitter, seeded by [policy.jitter_seed] *)
  prog : progress;
  between_phases : int -> unit;
  watchdog : int -> [ `Ok | `Breach of string list ];
}

let check_crash c =
  match c.fault with
  | Some f when Dsim.Mgmt_fault.crashed f -> raise Crash_signal
  | Some _ | None -> ()

(* Exponential backoff, capped, with jitter from a dedicated seeded RNG
   stream: identical seeds yield identical retry schedules. The wait is
   spent in {e virtual} time — BGP keeps converging while the controller
   sleeps, which is exactly the fail-static story. *)
let backoff c ~attempt =
  let policy = c.policy and net = c.ctl.net in
  let base =
    policy.base_backoff_s
    *. (policy.backoff_multiplier ** float_of_int (attempt - 1))
  in
  let capped = Float.min base policy.max_backoff_s in
  let wait = capped +. (capped *. policy.jitter *. Dsim.Rng.float c.jrng 1.0) in
  c.prog.p_retries <- c.prog.p_retries + 1;
  c.prog.p_backoffs <- wait :: c.prog.p_backoffs;
  Obs.Metrics.incr m_retries;
  Obs.Metrics.observe h_backoff_ms (wait *. 1000.0);
  ignore (Bgp.Network.run_until net ~time:(Bgp.Network.now net +. wait))

(* The NSDB side of fencing: the HA layer records the maximum granted
   epoch at ha/epoch; a write stamped below it comes from a deposed leader
   and is rejected before touching any replica. *)
let nsdb_fence_guard t ~epoch =
  match epoch with
  | None -> ()
  | Some e -> (
    match Nsdb_schema.int_at t.state_db Nsdb_schema.ha_epoch with
    | Some granted when e < granted ->
      Obs.Metrics.incr m_fenced_writes;
      raise Fenced_signal
    | Some _ | None -> ())

let record_epoch_write t ~epoch =
  match epoch with
  | None -> ()
  | Some e -> t.epoch_writes <- (Bgp.Network.now t.net, e) :: t.epoch_writes

(* NSDB writes go through the same fate model and retry loop as agent
   RPCs: fence, epoch guard, write fate, then the write itself or a
   backoff. [write] reports whether it took effect (a status CAS can
   lose); only writes that did enter the epoch audit trail. A write that
   exhausts its attempts is dropped (and counted): the journal may then
   lag reality, which resume tolerates because re-running a phase is a
   no-op for in-sync devices. *)
let nsdb_attempt c write =
  let rec attempt n =
    let epoch = fence_epoch c.fence in
    nsdb_fence_guard c.ctl ~epoch;
    let ok =
      match c.fault with
      | None -> true
      | Some f -> Dsim.Mgmt_fault.nsdb_write_ok f
    in
    if ok then begin
      let took_effect = Service.with_work c.ctl.nsdb_service write in
      if took_effect then record_epoch_write c.ctl ~epoch;
      took_effect
    end
    else if n >= c.policy.max_attempts then begin
      Obs.Metrics.incr m_nsdb_write_failures;
      false
    end
    else begin
      backoff c ~attempt:n;
      attempt (n + 1)
    end
  in
  attempt 1

let nsdb_set c ~path value =
  ignore
    (nsdb_attempt c (fun () ->
         Nsdb.Replicated.set c.ctl.state_db ~path value;
         true))

(* The replicated NSDB keeps the fleet-wide intent for audit/consistency. *)
let record_plan c plan =
  List.iter
    (fun (device, rpa) ->
      nsdb_set c ~path:(Nsdb_schema.plan_device plan.plan_name device)
        (Nsdb.Rpa rpa))
    plan.rpas

(* {1 Deployment journal}

   Persisted to the replicated NSDB so that a controller crashed
   mid-deploy can be replaced by a fresh process that picks the rollout up
   where it stopped. {!Nsdb_schema} spells the layout.

   The [next_phase] cursor has phase granularity: resuming re-runs the
   phase that was in flight, which is safe because reconciliation is
   level-triggered — devices already in sync are no-ops. *)

let journal_key plan field = Nsdb_schema.journal_key plan.plan_name field

let journal_write c plan field value =
  Obs.Metrics.incr m_journal_writes;
  nsdb_set c ~path:(journal_key plan field) value

(* Status transitions go through compare-and-set: the terminal states
   (completed / rolled-back) are only reachable from "in-progress", so two
   controllers racing the same plan cannot both claim the transition — the
   loser observes the conflict instead of silently overwriting. *)
let journal_transition c plan ~expected status =
  Obs.Metrics.incr m_journal_writes;
  nsdb_attempt c (fun () ->
      let won =
        Nsdb.Replicated.compare_and_set c.ctl.state_db
          ~path:(journal_key plan `Status)
          ~expected:(Some (Nsdb.String expected))
          (Nsdb.String status)
      in
      if not won then Obs.Metrics.incr m_status_conflicts;
      won)

let journal_status t plan =
  Nsdb_schema.string_at t.state_db (journal_key plan `Status)

let journal_next_phase t plan =
  Nsdb_schema.int_at t.state_db (journal_key plan `Next_phase)

let journal_remediation t plan =
  Nsdb_schema.string_at t.state_db (journal_key plan `Remediation)

let clear_journal t plan =
  Nsdb.Replicated.delete t.state_db ~path:(Nsdb_schema.journal plan.plan_name)

(* {1 Journal garbage collection}

   Each completion stamps a monotonic sequence number (allocated with
   compare-and-set on journal_meta/seq, so concurrent controllers get
   distinct numbers) and GC prunes completed journal/<plan>/ subtrees
   beyond the [journal_retain] most recent, each with the plan's
   plans/<plan>/ intent records — keeping enough history for failover
   tests to inspect while bounding NSDB growth. In-progress and
   rolled-back journals, and their plans' records, are never pruned: the
   former is a rollout to resume, the latter an audit trail operators
   asked to keep. *)

(* {2 Admission-queue protection}

   The admission layer (Ops) journals its queue in the same store
   ({!Nsdb_schema}). A plan that is queued but not yet
   started must keep whatever journal it already has: pruning it would
   make a post-takeover controller mistake a resumable rollout for a
   fresh one. The GC therefore skips such plans, and completion defers
   the completed_seq stamp (the GC eligibility mark) while a queued
   resubmission exists. *)

let queued_in_ops t name =
  Nsdb.Replicated.get t.state_db ~path:(Nsdb_schema.queue_all `State)
  |> List.exists (fun (path, v) ->
         match (v, Nsdb_schema.queue_seq path) with
         | Nsdb.String state, Some seq
           when Nsdb_schema.decode_queue_state state = Some Queued ->
           Nsdb_schema.string_at t.state_db (Nsdb_schema.queue_key seq `Plan)
           = Some name
         | _ -> false)

let next_journal_seq t =
  let path = Nsdb_schema.journal_seq in
  let rec claim () =
    let current = Nsdb.Replicated.get_one t.state_db ~path in
    let n = match current with Some (Nsdb.Int n) -> n | Some _ | None -> 0 in
    if
      Nsdb.Replicated.compare_and_set t.state_db ~path ~expected:current
        (Nsdb.Int (n + 1))
    then n + 1
    else claim ()
  in
  claim ()

let journal_gc t =
  let completed =
    Nsdb.Replicated.get t.state_db ~path:Nsdb_schema.journal_statuses
    |> List.filter_map (fun (path, v) ->
           match (v, Nsdb_schema.journal_plan path) with
           | Nsdb.String "completed", Some name when not (queued_in_ops t name)
             ->
             let seq =
               Nsdb_schema.int_at t.state_db
                 (Nsdb_schema.journal_key name `Completed_seq)
             in
             Some (Option.value seq ~default:0, name)
           | _ -> None)
    |> List.sort compare
  in
  let excess = List.length completed - t.journal_retain in
  if excess > 0 then
    List.iteri
      (fun i (_, name) ->
        if i < excess then begin
          Nsdb.Replicated.delete t.state_db ~path:(Nsdb_schema.journal name);
          Nsdb.Replicated.delete t.state_db
            ~path:(Nsdb_schema.plan_records name);
          Obs.Metrics.incr m_journal_pruned
        end)
      completed;
  max 0 excess

(* {1 The resilient phase runner} *)

(* Reconcile one device, retrying retryable fates with backoff. A device
   that exhausts its attempts while unreachable fails static (recorded,
   not budgeted — its installed RPA keeps running and distributed BGP
   keeps routing); exhausted RPC failures count against the phase's
   failure budget. *)
let reconcile_with_retries c device =
  let prog = c.prog in
  let give_up ~attempts ~last_error =
    Obs.Metrics.incr m_gave_up;
    prog.p_gave_up <-
      { failed_device = device; attempts; last_error } :: prog.p_gave_up
  in
  let rec go attempt =
    check_crash c;
    let epoch = fence_epoch c.fence in
    match Switch_agent.reconcile_device ?epoch c.ctl.switch_agent device with
    | `Applied -> prog.p_applied <- prog.p_applied + 1
    | `In_sync -> prog.p_in_sync <- prog.p_in_sync + 1
    | `Unreachable ->
      if attempt < c.policy.max_attempts then retry attempt
      else prog.p_unreachable <- device :: prog.p_unreachable
    | `Fenced ->
      (* The agent has already accepted a newer epoch: this controller is
         deposed even if its own lease check has not noticed yet. *)
      raise Fenced_signal
    | `Rpc_lost -> retry_or_give_up attempt "rpc lost"
    | `Rpc_timeout -> retry_or_give_up attempt "rpc timeout"
    | `Transient reason -> retry_or_give_up attempt reason
  and retry attempt =
    backoff c ~attempt;
    go (attempt + 1)
  and retry_or_give_up attempt last_error =
    if attempt < c.policy.max_attempts then retry attempt
    else give_up ~attempts:attempt ~last_error
  in
  go 1

(* Run the plan's phases [from_phase ..] (validated: every phased device
   has an RPA); raises [Crash_signal] on a scheduled controller crash and
   [Budget_exceeded phase] when a phase accumulates more hard failures
   than the budget. Each completed phase advances the journal cursor. *)
let run_phases_resilient c plan ~from_phase =
  let agent = c.ctl.switch_agent in
  List.iteri
    (fun idx phase ->
      if idx >= from_phase then begin
        let gave_up_before = List.length c.prog.p_gave_up in
        List.iter
          (fun device ->
            check_crash c;
            ignore (fence_epoch c.fence);
            Switch_agent.set_intended agent ~device
              (List.assoc device plan.rpas);
            reconcile_with_retries c device)
          phase;
        (* Let BGP converge before the next phase picks up the RPA
           (Section 5.3.2: every layer must receive the new RPA after all
           their downstream peers have). *)
        ignore (Bgp.Network.converge c.ctl.net);
        let phase_failures = List.length c.prog.p_gave_up - gave_up_before in
        if phase_failures > c.policy.failure_budget then
          raise (Budget_exceeded idx);
        c.between_phases idx;
        (* The runtime watchdog samples the converged network against its
           SLO budget at every phase boundary; a breach aborts the rollout
           into the same reverse-order rollback as a blown failure budget. *)
        (match c.watchdog idx with
         | `Ok -> ()
         | `Breach reasons -> raise (Watchdog_breach (idx, reasons)));
        journal_write c plan `Next_phase (Nsdb.Int (idx + 1))
      end)
    plan.phases

(* Reverse-order rollback of the install phases applied so far (last
   phase first, last device first — {!Deployment.rollback_order}), then
   clear the recorded intent so NSDB matches device state. Uses a scratch
   progress: the caller's report describes the deployment, not its
   undoing. *)
let rollback c plan ~through_phase =
  Obs.Metrics.incr m_rollbacks;
  let scratch = { c with prog = fresh_progress () } in
  let touched =
    List.filteri (fun idx _ -> idx <= through_phase) plan.phases
  in
  List.iter
    (fun phase ->
      List.iter
        (fun device ->
          Switch_agent.set_intended c.ctl.switch_agent ~device Rpa.empty;
          reconcile_with_retries scratch device;
          Obs.Metrics.incr m_rollback_devices)
        phase;
      ignore (Bgp.Network.converge c.ctl.net))
    (Deployment.rollback_order touched);
  record_plan scratch (removal plan);
  ignore
    (journal_transition scratch plan ~expected:"in-progress" "rolled-back")

(* The controller stops here — crashed, or deposed mid-rollout. Devices
   keep whatever RPA they already run (fail static); the journal still
   says "in-progress", so the next leader can {!resume}.
   [completed_phases] is read once the controller has stopped. *)
let interruptible c ~resumed_from_phase ~completed_phases f =
  let partial () = report_of_progress c.ctl c.prog ~resumed_from_phase in
  try f () with
  | Crash_signal ->
    Crashed { partial = partial (); completed_phases = completed_phases () }
  | Fenced_signal ->
    Fenced { partial = partial (); completed_phases = completed_phases () }

(* Run phases from [from_phase], handle budget/watchdog/interruption,
   post-check, roll back on failure. An interruption reports the
   journalled cursor. *)
let execute_deploy c plan ~from_phase ~resumed_from_phase =
  let t = c.ctl in
  let report () = report_of_progress t c.prog ~resumed_from_phase in
  interruptible c ~resumed_from_phase
    ~completed_phases:(fun () ->
      Option.value (journal_next_phase t plan) ~default:from_phase)
  @@ fun () ->
  match run_phases_resilient c plan ~from_phase with
  | () -> (
    match Health.failures plan.post_checks with
    | [] ->
      if journal_transition c plan ~expected:"in-progress" "completed" then begin
        (* completed_seq is the GC-eligibility stamp. While a queued
           resubmission of this plan exists, defer it: the journal must
           outlive the queue entry so a takeover still sees history. *)
        if not (queued_in_ops t plan.plan_name) then
          journal_write c plan `Completed_seq (Nsdb.Int (next_journal_seq t));
        ignore (journal_gc t)
      end;
      Completed (report ())
    | failures ->
      (* Post-checks failed: undo everything so the recorded intent and
         the device state agree that this plan is not deployed. *)
      rollback c plan ~through_phase:(List.length plan.phases - 1);
      Rolled_back
        { partial = report (); reasons = fmt_failures "post-check" failures })
  | exception Budget_exceeded idx ->
    let reasons =
      Printf.sprintf
        "phase %d exceeded its failure budget (%d failures > budget %d)" idx
        (List.length c.prog.p_gave_up) c.policy.failure_budget
      :: List.rev_map
           (fun f ->
             Printf.sprintf "device %d: gave up after %d attempts (%s)"
               f.failed_device f.attempts f.last_error)
           c.prog.p_gave_up
    in
    rollback c plan ~through_phase:idx;
    Rolled_back { partial = report (); reasons }
  | exception Watchdog_breach (idx, breach_reasons) ->
    (* Automatic remediation: record the event in the journal first —
       rolled-back journals are never pruned, so the remediation trail
       survives as audit — then run the same reverse-order rollback a
       blown failure budget triggers. *)
    Obs.Metrics.incr m_watchdog_rollbacks;
    journal_write c plan `Remediation
      (Nsdb.String
         (Printf.sprintf "watchdog phase %d: %s" idx
            (String.concat "; " breach_reasons)));
    rollback c plan ~through_phase:idx;
    Rolled_back
      {
        partial = report ();
        reasons =
          List.map (fun r -> "watchdog: " ^ r) breach_reasons
          @ [ Printf.sprintf "SLO breach at phase %d; auto-rolled-back" idx ];
      }

(* {1 Entry points} *)

type start = Fresh | Resume

(* Resume first dispatches on the journal. Only an in-progress journal
   leads into the rollout; anything else ends the call here, before any
   gate runs. *)
let finished_journal t plan =
  match journal_status t plan with
  | None ->
    Some
      (Aborted
         [ Printf.sprintf "plan %s: no deployment journal to resume from"
             plan.plan_name ])
  | Some "completed" ->
    (* Nothing in flight; report an empty, already-converged deployment. *)
    Switch_agent.clear_deploy_times t.switch_agent;
    Some
      (Completed
         (report_of_progress t (fresh_progress ())
            ~resumed_from_phase:(Some (List.length plan.phases))))
  | Some "rolled-back" ->
    Some
      (Aborted
         [ Printf.sprintf "plan %s: journal says rolled-back; redeploy instead"
             plan.plan_name ])
  | Some _ -> None

(* The one rollout body: validate, lint, verify, pre-checks (fresh only),
   setup writes, phases. A fresh rollout writes a new journal and starts
   at phase 0. A resumed one starts at the journalled cursor and only
   re-records the intent: a crashed predecessor may have lost some
   plan-record writes, and rewriting the ones that landed is idempotent.
   An interruption during setup reports the start phase, never a stale
   journal's cursor. *)
let rollout ~start ?(policy = default_retry_policy) ?fault ?fence
    ?(between_phases = fun _ -> ()) ?(watchdog = fun _ -> `Ok) ?(lint = `Warn)
    ?(verify = `Warn) t plan =
  Obs.Span.with_span
    (match start with
     | Fresh -> "controller.deploy"
     | Resume -> "controller.resume")
    ~attrs:(fun () -> [ ("plan", plan.plan_name) ])
  @@ fun () ->
  let finished =
    match start with Fresh -> None | Resume -> finished_journal t plan
  in
  let admitted () =
    let* () = Result.map_error (fun e -> [ e ]) (validate_plan t plan) in
    let* () =
      gate ~label:"lint" lint !linter_ref (Bgp.Network.graph t.net) plan
    in
    let* () = gate ~label:"verify" verify !verifier_ref t.net plan in
    match start with Fresh -> run_pre_checks plan | Resume -> Ok ()
  in
  match finished with
  | Some outcome -> outcome
  | None -> (
    match admitted () with
    | Error reasons -> Aborted reasons
    | Ok () ->
      let from_phase =
        match start with
        | Fresh -> 0
        | Resume ->
          let n = Option.value (journal_next_phase t plan) ~default:0 in
          Obs.Metrics.incr m_resumes;
          Obs.Metrics.set_gauge g_resume_phase (float_of_int n);
          n
      in
      let resumed_from_phase =
        match start with Fresh -> None | Resume -> Some from_phase
      in
      let c =
        let jrng = Dsim.Rng.create policy.jitter_seed in
        let prog = fresh_progress () in
        { ctl = t; policy; fault; fence; jrng; prog; between_phases; watchdog }
      in
      Switch_agent.clear_deploy_times t.switch_agent;
      interruptible c ~resumed_from_phase
        ~completed_phases:(fun () -> from_phase)
      @@ fun () ->
      record_plan c plan;
      (match start with
       | Resume -> ()
       | Fresh ->
         journal_write c plan `Status (Nsdb.String "in-progress");
         journal_write c plan `Total_phases
           (Nsdb.Int (List.length plan.phases));
         journal_write c plan `Next_phase (Nsdb.Int 0));
      execute_deploy c plan ~from_phase ~resumed_from_phase)

let deploy_resilient ?policy ?fault ?fence ?between_phases ?watchdog t plan =
  rollout ~start:Fresh ?policy ?fault ?fence ?between_phases ?watchdog t plan

let resume ?policy ?fault ?fence ?between_phases ?watchdog t plan =
  rollout ~start:Resume ?policy ?fault ?fence ?between_phases ?watchdog t plan

(* Single-shot rollouts run with no fault model and no fence. *)
let single_shot_result = function
  | Completed report -> Ok report
  | Rolled_back { reasons; _ } | Aborted reasons -> Error reasons
  | Crashed _ ->
    (* Unreachable without a fault model; kept for exhaustiveness. *)
    Error [ "controller crashed mid-deploy" ]
  | Fenced _ ->
    (* Unreachable without a fence; kept for exhaustiveness. *)
    Error [ "controller fenced mid-deploy" ]

let deploy ?lint ?verify t plan =
  single_shot_result
    (rollout ~start:Fresh ~policy:single_shot_policy ?lint ?verify t plan)

(* Deleting the removal's journal keeps "no journal" meaning "not
   deployed" to {!resume} and [Ha.run_plan]; an aborted removal touched
   nothing and keeps the install's. *)
let remove t plan =
  let outcome =
    rollout ~start:Fresh ~policy:single_shot_policy t (removal plan)
  in
  (match outcome with Aborted _ -> () | _ -> clear_journal t plan);
  single_shot_result outcome
