(* Tests for the management-plane fault model and the resilient
   deployment loop: journaled resume after a controller crash, rollback on
   failure budget, fail-static behaviour under a partitioned management
   network, and backoff determinism. *)

open Centralium

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- Mgmt_fault fate model ---------------- *)

let test_fate_determinism () =
  let draw seed =
    let f = Dsim.Mgmt_fault.create ~seed Dsim.Mgmt_fault.hostile in
    List.init 200 (fun _ -> Dsim.Mgmt_fault.rpc_fate f)
  in
  check_bool "same seed, same fates" true (draw 5 = draw 5);
  check_bool "different seed, different fates" true (draw 5 <> draw 6)

let test_fate_none_profile () =
  let f = Dsim.Mgmt_fault.create ~seed:1 Dsim.Mgmt_fault.none in
  check_bool "ideal plane always delivers" true
    (List.init 100 (fun _ -> Dsim.Mgmt_fault.rpc_fate f)
    |> List.for_all (( = ) Dsim.Mgmt_fault.Deliver));
  check_bool "ideal writes land" true (Dsim.Mgmt_fault.nsdb_write_ok f)

let test_scheduled_crash () =
  let f =
    Dsim.Mgmt_fault.create ~crash_after_ops:3 ~seed:1 Dsim.Mgmt_fault.none
  in
  check_bool "alive before" false (Dsim.Mgmt_fault.crashed f);
  ignore (Dsim.Mgmt_fault.rpc_fate f);
  ignore (Dsim.Mgmt_fault.nsdb_write_ok f);
  check_bool "alive at 2 ops" false (Dsim.Mgmt_fault.crashed f);
  ignore (Dsim.Mgmt_fault.rpc_fate f);
  check_bool "crashed at 3 ops" true (Dsim.Mgmt_fault.crashed f);
  check_int "ops counted" 3 (Dsim.Mgmt_fault.ops f)

(* ---------------- Fixtures ---------------- *)

let expansion_fixture ?(seed = 3) () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4
    (Net.Attr.make
       ~as_path:(Net.As_path.of_asns [ Net.Asn.of_int 65000 ])
       ());
  ignore (Bgp.Network.converge net);
  let controller = Controller.create ~seed:11 net in
  let plan = Apps.Expansion_equalizer.plan x in
  (x, net, controller, plan)

let all_native net =
  Topology.Graph.nodes (Bgp.Network.graph net)
  |> List.for_all (fun (n : Topology.Node.t) ->
         Bgp.Rib_policy.is_native
           (Bgp.Speaker.hooks (Bgp.Network.speaker net n.Topology.Node.id)))

(* ---------------- Typed RPC failures ---------------- *)

let test_reconcile_typed_failures () =
  let _, _, controller, plan = expansion_fixture () in
  let agent = Controller.agent controller in
  let device, rpa = List.hd plan.Controller.rpas in
  Switch_agent.set_intended agent ~device rpa;
  (* Probability-1 profiles force each fate deterministically. *)
  let forced prob =
    Switch_agent.set_mgmt_fault agent
      (Some (Dsim.Mgmt_fault.create ~seed:1 prob));
    Switch_agent.reconcile_device agent device
  in
  check_bool "lost" true
    (forced { Dsim.Mgmt_fault.none with rpc_loss_prob = 1.0 } = `Rpc_lost);
  (match forced { Dsim.Mgmt_fault.none with rpc_transient_prob = 1.0 } with
   | `Transient _ -> ()
   | _ -> Alcotest.fail "expected `Transient");
  check_bool "still a straggler" true
    (List.mem device (Switch_agent.stragglers agent));
  (* A timeout applies the RPA but reports failure; the retry is a no-op. *)
  check_bool "timeout" true
    (forced { Dsim.Mgmt_fault.none with rpc_timeout_prob = 1.0 }
     = `Rpc_timeout);
  check_bool "timeout applied the RPA" true
    (Switch_agent.reconcile_device agent device = `In_sync)

let test_deploy_times_deterministic () =
  let run () =
    let _, _, controller, plan = expansion_fixture () in
    match Controller.deploy controller plan with
    | Ok report -> report.Controller.deploy_seconds
    | Error es -> Alcotest.fail (String.concat "; " es)
  in
  let a = run () and b = run () in
  check_bool "non-empty samples" true (a <> []);
  check_bool "bit-identical deploy times across runs" true (a = b)

(* ---------------- Journaled resume after a crash ---------------- *)

let test_crash_then_resume_converges_identically () =
  let c =
    Experiments.Scenarios.Faulted_deploy.crash_vs_uninterrupted ~seed:5 ()
  in
  let i = c.Experiments.Scenarios.Faulted_deploy.interrupted in
  let u = c.Experiments.Scenarios.Faulted_deploy.uninterrupted in
  check_bool "initial deploy hit the scheduled crash" true i.crashed;
  check_bool "resumed from the journal" true i.resumed;
  check_string "resume completed" "completed" i.outcome;
  check_string "journal closed" "completed"
    (Option.value i.journal_status ~default:"<none>");
  check_string "uninterrupted completed" "completed" u.outcome;
  (* The acceptance criterion: bit-identical forwarding state, and no
     invariant violation while the controller was down. *)
  check_bool "bit-identical FIBs" true
    c.Experiments.Scenarios.Faulted_deploy.digests_match;
  check_int "no transient violations during the outage" 0
    (List.length i.transient_violations);
  check_int "no violations at phase boundaries" 0
    (List.length i.phase_violations);
  check_int "no final violations" 0 (List.length i.final_violations)

(* The sweep verdict holds at the CLI's default seed, and fails when any
   one of its conditions is flipped. *)
let test_sweep_verdict () =
  let module F = Experiments.Scenarios.Faulted_deploy in
  let c = F.crash_vs_uninterrupted ~seed:42 () in
  let i = c.F.interrupted and u = c.F.uninterrupted in
  check_bool "sweep verdict passes" true (F.passed c);
  List.iter
    (fun (what, c) ->
      check_bool ("sweep verdict fails: " ^ what) false (F.passed c))
    [
      ("digests differ", { c with F.digests_match = false });
      ( "interrupted run incomplete",
        { c with F.interrupted = { i with F.outcome = "rolled-back" } } );
      ( "uninterrupted run incomplete",
        { c with F.uninterrupted = { u with F.outcome = "aborted" } } );
      ("no crash", { c with F.interrupted = { i with F.crashed = false } });
      ("no resume", { c with F.interrupted = { i with F.resumed = false } });
      ( "one transient violation",
        {
          c with
          F.interrupted =
            { i with F.transient_violations = [ (0.0, "blackhole") ] };
        } );
      ( "one phase violation",
        {
          c with
          F.uninterrupted = { u with F.phase_violations = [ (1, "loop") ] };
        } );
      ( "one final violation",
        { c with F.interrupted = { i with F.final_violations = [ "loop" ] } } );
    ]

let test_resume_without_journal_aborts () =
  let _, _, controller, plan = expansion_fixture () in
  match Controller.resume controller plan with
  | Controller.Aborted _ -> ()
  | _ -> Alcotest.fail "expected Aborted without a journal"

(* ---------------- Rollback on failure budget ---------------- *)

let test_rollback_on_failure_budget () =
  let _, net, controller, plan = expansion_fixture () in
  let agent = Controller.agent controller in
  (* Every RPC fails with a retryable error: the first phase must exhaust
     its budget and the deployment must undo itself. *)
  let fault =
    Dsim.Mgmt_fault.create ~seed:2
      { Dsim.Mgmt_fault.none with rpc_transient_prob = 1.0 }
  in
  Switch_agent.set_mgmt_fault agent (Some fault);
  (match Controller.deploy_resilient ~fault controller plan with
   | Controller.Rolled_back { partial; reasons } ->
     check_bool "gave up on devices" true (partial.Controller.gave_up <> []);
     check_bool "budget named in reasons" true
       (List.exists
          (fun r ->
            (* matches "...exceeded its failure budget..." *)
            String.length r > 0 && String.contains r 'b')
          reasons);
     check_bool "retried before giving up" true (partial.Controller.retries > 0)
   | _ -> Alcotest.fail "expected Rolled_back");
  Switch_agent.set_mgmt_fault agent None;
  check_string "journal says rolled-back" "rolled-back"
    (Option.value (Controller.journal_status controller plan)
       ~default:"<none>");
  check_bool "all devices back to native BGP" true (all_native net);
  (* NSDB intent matches device state: the recorded plan is cleared. *)
  check_bool "plan record cleared" true
    (Controller.nsdb controller
    |> fun db ->
    Nsdb.Replicated.get db
      ~path:
        (Printf.sprintf "plans/%s/devices/*" plan.Controller.plan_name)
    |> List.for_all (function
         | _, Nsdb.Rpa rpa -> Rpa.is_empty rpa
         | _ -> false))

let test_post_check_failure_rolls_back () =
  let _, net, controller, plan = expansion_fixture () in
  let failing =
    {
      Health.check_name = "always-red";
      run = (fun () -> Error "synthetic failure");
    }
  in
  let plan = { plan with Controller.post_checks = [ failing ] } in
  (match Controller.deploy controller plan with
   | Error reasons ->
     check_bool "post-check named" true
       (List.exists
          (fun r -> String.length r >= 10 && String.sub r 0 10 = "post-check")
          reasons)
   | Ok _ -> Alcotest.fail "expected Error from failing post-check");
  (* The satellite bugfix: the device state and the NSDB record are no
     longer left claiming the plan is deployed. *)
  check_bool "devices rolled back to native" true (all_native net);
  check_string "journal says rolled-back" "rolled-back"
    (Option.value (Controller.journal_status controller plan)
       ~default:"<none>")

(* ---------------- Fail-static under a management partition -------- *)

let test_partitioned_management_fail_static () =
  let r =
    Experiments.Scenarios.Faulted_deploy.run ~seed:9
      ~profile:Dsim.Mgmt_fault.none ~resume:false ~partition_devices:2 ()
  in
  check_string "deploy completes around the partition" "completed" r.outcome;
  check_int "both cut-off devices unreachable" 2 (List.length r.unreachable);
  check_int "they are stragglers while cut off" 2
    (List.length r.stragglers_during_outage);
  check_int "and alerts fire: not in maintenance" 2
    (List.length r.unexpected_unreachable);
  check_bool "same devices" true
    (r.unreachable = r.stragglers_during_outage
    && r.unreachable = r.unexpected_unreachable);
  (* Fail static: the degraded fleet never looped or blackholed. *)
  check_int "no transient violations" 0 (List.length r.transient_violations);
  check_int "no final violations" 0 (List.length r.final_violations)

(* ---------------- Backoff determinism ---------------- *)

let test_backoff_determinism () =
  let run seed =
    let r =
      Experiments.Scenarios.Faulted_deploy.run ~seed
        ~profile:Dsim.Mgmt_fault.hostile ~resume:false ()
    in
    (r.retries, r.backoff_seconds)
  in
  let retries, schedule = run 21 in
  check_bool "hostile profile forces retries" true (retries > 0);
  check_bool "identical seeds, identical retry schedule" true
    ((retries, schedule) = run 21);
  check_bool "different seed, different schedule" true (schedule <> snd (run 22))

(* ---------------- Remove honors health checks ---------------- *)

let test_remove_honors_checks () =
  let _, net, controller, plan = expansion_fixture () in
  (match Controller.deploy controller plan with
   | Ok _ -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  let failing name =
    { Health.check_name = name; run = (fun () -> Error "synthetic") }
  in
  (* Pre-check failure aborts: the RPAs stay installed. *)
  (match
     Controller.remove controller
       { plan with Controller.pre_checks = [ failing "gate" ] }
   with
   | Error reasons ->
     check_bool "pre-check named" true
       (List.exists
          (fun r -> String.length r >= 9 && String.sub r 0 9 = "pre-check")
          reasons)
   | Ok _ -> Alcotest.fail "expected Error from failing pre-check");
  check_bool "removal did not proceed" true (not (all_native net));
  (* Post-check failure reports but keeps the removal. *)
  (match
     Controller.remove controller
       { plan with Controller.post_checks = [ failing "verify" ] }
   with
   | Error reasons ->
     check_bool "post-check named" true
       (List.exists
          (fun r -> String.length r >= 10 && String.sub r 0 10 = "post-check")
          reasons)
   | Ok _ -> Alcotest.fail "expected Error from failing post-check");
  check_bool "removal kept despite red post-check" true (all_native net)

(* ---------------- Rollout entry states ---------------- *)

(* How a rollout starts, table-driven: which journal the entry point finds,
   and at which fence evaluation the controller is deposed. The expansion
   plan has 8 devices in 2 phases of 4, so a fenced, fault-free rollout
   evaluates its fence in a fixed order:

     fresh deploy   1-8 plan record, 9 status, 10 total_phases,
                    11 next_phase, then per phase 2 per device + 1 cursor
                    (12-20 phase 0, 21-29 phase 1), 30 completion CAS,
                    31 completed_seq stamp;
     resume         1-8 plan record, then the same phase/completion
                    sequence from the journalled cursor on.

   An interruption during setup reports the start phase as
   [completed_phases] — 0 for a fresh deploy even over a stale completed
   journal whose next_phase is 2 — and one inside the phases reports the
   journalled cursor. *)

type prior_journal =
  | No_journal
  | Completed_journal
  | Rolled_back_journal
  | Fenced_journal of int  (* a fresh deploy deposed at this evaluation *)

type entry_case = {
  prior : prior_journal;
  entry : [ `Deploy | `Resume ];
  lost_at : int * int;  (* fence evaluations, inclusive; past the end: never *)
  invalid_plan : bool;  (* enter with a plan that fails validation *)
  outcome : string;
  completed_phases : int option;
  resumed_from : int option;
  status : string option;
}

let row ?(lost_at = (1, 1)) ?(invalid_plan = false) ?completed_phases
    ?resumed_from ?status prior entry outcome =
  {
    prior;
    entry;
    lost_at;
    invalid_plan;
    outcome;
    completed_phases;
    resumed_from;
    status;
  }

let entry_cases =
  [
    (* Resume dispatches on the journal before any gate or write, so not
       even a fence lost at its first evaluation matters. *)
    row No_journal `Resume "aborted";
    row Rolled_back_journal `Resume "aborted" ~status:"rolled-back";
    row Completed_journal `Resume "completed" ~resumed_from:2
      ~status:"completed";
    row Completed_journal `Resume "completed" ~invalid_plan:true
      ~resumed_from:2 ~status:"completed";
    (* Fresh deploy, deposed at each fence evaluation; 32 is past the end. *)
    row No_journal `Deploy "fenced" ~lost_at:(1, 9) ~completed_phases:0;
    row No_journal `Deploy "fenced" ~lost_at:(10, 20) ~completed_phases:0
      ~status:"in-progress";
    row No_journal `Deploy "fenced" ~lost_at:(21, 29) ~completed_phases:1
      ~status:"in-progress";
    row No_journal `Deploy "fenced" ~lost_at:(30, 30) ~completed_phases:2
      ~status:"in-progress";
    row No_journal `Deploy "fenced" ~lost_at:(31, 31) ~completed_phases:2
      ~status:"completed";
    row No_journal `Deploy "completed" ~lost_at:(32, 32) ~status:"completed";
    (* Over a stale completed journal: setup interruptions report phase 0,
       not the stale cursor. *)
    row Completed_journal `Deploy "fenced" ~lost_at:(1, 9)
      ~completed_phases:0 ~status:"completed";
    row Completed_journal `Deploy "fenced" ~lost_at:(10, 12)
      ~completed_phases:0 ~status:"in-progress";
    (* Resume at phase 0. *)
    row (Fenced_journal 12) `Resume "fenced" ~lost_at:(1, 17)
      ~completed_phases:0 ~resumed_from:0 ~status:"in-progress";
    row (Fenced_journal 12) `Resume "fenced" ~lost_at:(18, 26)
      ~completed_phases:1 ~resumed_from:0 ~status:"in-progress";
    row (Fenced_journal 12) `Resume "fenced" ~lost_at:(27, 27)
      ~completed_phases:2 ~resumed_from:0 ~status:"in-progress";
    row (Fenced_journal 12) `Resume "fenced" ~lost_at:(28, 28)
      ~completed_phases:2 ~resumed_from:0 ~status:"completed";
    row (Fenced_journal 12) `Resume "completed" ~lost_at:(29, 29)
      ~resumed_from:0 ~status:"completed";
    (* Resume at phase 1: setup interruptions report the cursor. *)
    row (Fenced_journal 21) `Resume "fenced" ~lost_at:(1, 17)
      ~completed_phases:1 ~resumed_from:1 ~status:"in-progress";
    row (Fenced_journal 21) `Resume "fenced" ~lost_at:(18, 18)
      ~completed_phases:2 ~resumed_from:1 ~status:"in-progress";
    row (Fenced_journal 21) `Resume "fenced" ~lost_at:(19, 19)
      ~completed_phases:2 ~resumed_from:1 ~status:"completed";
    row (Fenced_journal 21) `Resume "completed" ~lost_at:(20, 20)
      ~resumed_from:1 ~status:"completed";
  ]

(* Holds epoch 1 until evaluation [k], which reports the lease lost. *)
let fence_lost_at k =
  let n = ref 0 in
  fun () ->
    incr n;
    if !n = k then Controller.Fence_lost else Controller.Fence_held 1

let outcome_summary = function
  | Controller.Completed r -> ("completed", None, r.Controller.resumed_from_phase)
  | Rolled_back { partial; _ } ->
    ("rolled-back", None, partial.Controller.resumed_from_phase)
  | Crashed { partial; completed_phases } ->
    ("crashed", Some completed_phases, partial.Controller.resumed_from_phase)
  | Fenced { partial; completed_phases } ->
    ("fenced", Some completed_phases, partial.Controller.resumed_from_phase)
  | Aborted _ -> ("aborted", None, None)

let run_entry_case c k =
  let _, _, controller, plan = expansion_fixture () in
  (match c.prior with
   | No_journal -> ()
   | Completed_journal -> ignore (Controller.deploy_resilient controller plan)
   | Rolled_back_journal ->
     ignore
       (Controller.deploy_resilient
          ~watchdog:(fun _ -> `Breach [ "synthetic" ])
          controller plan)
   | Fenced_journal j ->
     ignore
       (Controller.deploy_resilient ~fence:(fence_lost_at j) controller plan));
  let entered =
    if c.invalid_plan then { plan with Controller.rpas = [] } else plan
  in
  let fence = fence_lost_at k in
  let outcome =
    match c.entry with
    | `Deploy -> Controller.deploy_resilient ~fence controller entered
    | `Resume -> Controller.resume ~fence controller entered
  in
  (outcome_summary outcome, Controller.journal_status controller plan)

let test_entry_states () =
  let opt_int = Alcotest.(option int) and opt_string = Alcotest.(option string) in
  List.iteri
    (fun i c ->
      let lo, hi = c.lost_at in
      for k = lo to hi do
        let (outcome, completed_phases, resumed_from), status =
          run_entry_case c k
        in
        let tag what =
          Printf.sprintf "case %d, fence lost at evaluation %d: %s" i k what
        in
        check_string (tag "outcome") c.outcome outcome;
        Alcotest.check opt_int (tag "completed_phases") c.completed_phases
          completed_phases;
        Alcotest.check opt_int (tag "resumed_from_phase") c.resumed_from
          resumed_from;
        Alcotest.check opt_string (tag "journal status") c.status status
      done)
    entry_cases

(* ---------------- Scenario smoke (the CI chaos job's core) -------- *)

let test_faulted_deploy_scenario_deterministic () =
  let run () =
    let r =
      Experiments.Scenarios.Faulted_deploy.run ~seed:33 ~resume:true
        ~crash_after_ops:20 ()
    in
    (r.outcome, r.applied, r.retries, r.backoff_seconds, r.fib_digest)
  in
  check_bool "scenario is bit-reproducible" true (run () = run ())

let () =
  Alcotest.run "chaos"
    [
      ( "mgmt-fault",
        [
          Alcotest.test_case "fate determinism" `Quick test_fate_determinism;
          Alcotest.test_case "none profile" `Quick test_fate_none_profile;
          Alcotest.test_case "scheduled crash" `Quick test_scheduled_crash;
        ] );
      ( "agent",
        [
          Alcotest.test_case "typed RPC failures" `Quick
            test_reconcile_typed_failures;
          Alcotest.test_case "deterministic deploy times" `Quick
            test_deploy_times_deterministic;
        ] );
      ( "resume",
        [
          Alcotest.test_case "crash+resume converges identically" `Quick
            test_crash_then_resume_converges_identically;
          Alcotest.test_case "sweep verdict" `Quick test_sweep_verdict;
          Alcotest.test_case "resume without journal aborts" `Quick
            test_resume_without_journal_aborts;
          Alcotest.test_case "rollout entry states" `Quick test_entry_states;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "failure budget triggers rollback" `Quick
            test_rollback_on_failure_budget;
          Alcotest.test_case "post-check failure rolls back" `Quick
            test_post_check_failure_rolls_back;
        ] );
      ( "fail-static",
        [
          Alcotest.test_case "partitioned management network" `Quick
            test_partitioned_management_fail_static;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_determinism;
          Alcotest.test_case "scenario reproducible" `Quick
            test_faulted_deploy_scenario_deterministic;
        ] );
      ( "remove",
        [
          Alcotest.test_case "remove honors checks" `Quick
            test_remove_honors_checks;
        ] );
    ]
