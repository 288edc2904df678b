(* Tests for controller high availability: the NSDB compare-and-set
   primitive, journal GC, fencing-epoch semantics at the switch agent,
   lease-based leader election, and the failover scenario's deterministic
   takeover (killing the leader mid-deployment must yield forwarding
   state bit-identical to the uninterrupted run). *)

open Centralium

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- Nsdb.Replicated.compare_and_set ---------------- *)

let test_cas_basics () =
  let db = Nsdb.Replicated.create ~replicas:3 in
  let cas expected v =
    Nsdb.Replicated.compare_and_set db ~path:"k" ~expected v
  in
  check_bool "absent + None expectation succeeds" true
    (cas None (Nsdb.Int 1));
  check_bool "write landed" true
    (Nsdb.Replicated.get_one db ~path:"k" = Some (Nsdb.Int 1));
  check_bool "absent expectation now fails" false (cas None (Nsdb.Int 2));
  check_bool "mismatched expectation fails" false
    (cas (Some (Nsdb.Int 9)) (Nsdb.Int 2));
  check_bool "failed CAS left the value alone" true
    (Nsdb.Replicated.get_one db ~path:"k" = Some (Nsdb.Int 1));
  check_bool "matching expectation succeeds" true
    (cas (Some (Nsdb.Int 1)) (Nsdb.Int 2));
  check_bool "value advanced" true
    (Nsdb.Replicated.get_one db ~path:"k" = Some (Nsdb.Int 2))

let test_cas_survives_replica_failover () =
  let db = Nsdb.Replicated.create ~replicas:3 in
  check_bool "seed" true
    (Nsdb.Replicated.compare_and_set db ~path:"k" ~expected:None
       (Nsdb.Int 1));
  (* A successful CAS fans out like set: the value survives the leader
     replica dying, and CAS keeps linearizing on the new leader. *)
  Nsdb.Replicated.fail_replica db 0;
  check_bool "value on the new leader" true
    (Nsdb.Replicated.get_one db ~path:"k" = Some (Nsdb.Int 1));
  check_bool "CAS against the new leader" true
    (Nsdb.Replicated.compare_and_set db ~path:"k"
       ~expected:(Some (Nsdb.Int 1))
       (Nsdb.Int 2))

let test_cas_closes_read_modify_write_race () =
  (* Two writers that both read the same value: only the first CAS wins;
     the loser observes the conflict instead of silently clobbering. *)
  let db = Nsdb.Replicated.create ~replicas:2 in
  Nsdb.Replicated.set db ~path:"status" (Nsdb.String "in-progress");
  let seen = Nsdb.Replicated.get_one db ~path:"status" in
  check_bool "writer A wins" true
    (Nsdb.Replicated.compare_and_set db ~path:"status" ~expected:seen
       (Nsdb.String "completed"));
  check_bool "writer B with the stale read loses" false
    (Nsdb.Replicated.compare_and_set db ~path:"status" ~expected:seen
       (Nsdb.String "rolled-back"));
  check_bool "terminal status intact" true
    (Nsdb.Replicated.get_one db ~path:"status"
    = Some (Nsdb.String "completed"))

(* ---------------- Journal GC ---------------- *)

let gc_fixture () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:1 x.Topology.Clos.xgraph in
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let controller = Controller.create ~nsdb net in
  (nsdb, controller)

let test_journal_gc_prunes_oldest_completed () =
  let nsdb, controller = gc_fixture () in
  for i = 1 to 5 do
    Nsdb.Replicated.set nsdb
      ~path:(Printf.sprintf "journal/p%d/status" i)
      (Nsdb.String "completed");
    Nsdb.Replicated.set nsdb
      ~path:(Printf.sprintf "journal/p%d/completed_seq" i)
      (Nsdb.Int i)
  done;
  Nsdb.Replicated.set nsdb ~path:"journal/live/status"
    (Nsdb.String "in-progress");
  Nsdb.Replicated.set nsdb ~path:"journal/audit/status"
    (Nsdb.String "rolled-back");
  Controller.set_journal_retention controller 2;
  check_int "pruned the oldest three" 3 (Controller.journal_gc controller);
  check_bool "oldest completed gone" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/p1/status" = None);
  check_bool "subtree gone with it" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/p1/completed_seq" = None);
  check_bool "newest two kept" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/p4/status"
     = Some (Nsdb.String "completed")
    && Nsdb.Replicated.get_one nsdb ~path:"journal/p5/status"
       = Some (Nsdb.String "completed"));
  check_bool "in-progress never pruned" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/live/status"
    = Some (Nsdb.String "in-progress"));
  check_bool "rolled-back never pruned" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/audit/status"
    = Some (Nsdb.String "rolled-back"));
  check_int "within retention: no-op" 0 (Controller.journal_gc controller)

let test_journal_retention_knob () =
  let nsdb, controller = gc_fixture () in
  for i = 1 to 3 do
    Nsdb.Replicated.set nsdb
      ~path:(Printf.sprintf "journal/p%d/status" i)
      (Nsdb.String "completed");
    Nsdb.Replicated.set nsdb
      ~path:(Printf.sprintf "journal/p%d/completed_seq" i)
      (Nsdb.Int i)
  done;
  Controller.set_journal_retention controller 1;
  check_int "default retain comes from the knob" 2
    (Controller.journal_gc controller);
  check_bool "most recent survives" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/p3/status"
    = Some (Nsdb.String "completed"))

(* A plan's intent records are pruned with its journal: real deployments
   through the controller, more completed than the retention keeps, and
   one rolled back by a failing post-check, whose records stay as audit. *)
let test_journal_gc_prunes_plan_records () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:1 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.Topology.Clos.backbone Net.Prefix.default_v4
    (Net.Attr.make ~as_path:(Net.As_path.of_asns [ Net.Asn.of_int 65000 ]) ());
  ignore (Bgp.Network.converge net);
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let controller = Controller.create ~nsdb net in
  Controller.set_journal_retention controller 2;
  let plan = Apps.Expansion_equalizer.plan x in
  let named name = { plan with Controller.plan_name = name } in
  let records name =
    List.length
      (Nsdb.Replicated.get nsdb
         ~path:(Nsdb_schema.plan_records name ^ "/devices/*"))
  in
  let red =
    { Health.check_name = "always-red"; run = (fun () -> Error "synthetic") }
  in
  (match
     Controller.deploy controller
       { (named "red") with Controller.post_checks = [ red ] }
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected the red plan to roll back");
  List.iter
    (fun name ->
      match Controller.deploy controller (named name) with
      | Ok _ -> ()
      | Error es -> Alcotest.fail (String.concat "; " es))
    [ "p1"; "p2"; "p3"; "p4" ];
  let devices = List.length plan.Controller.rpas in
  check_bool "the plan has devices" true (devices > 0);
  List.iter
    (fun name ->
      check_int (name ^ ": journal pruned") 0
        (List.length
           (Nsdb.Replicated.get nsdb ~path:(Nsdb_schema.journal_watch name)));
      check_int (name ^ ": records pruned with it") 0 (records name))
    [ "p1"; "p2" ];
  List.iter
    (fun name -> check_int (name ^ ": records kept") devices (records name))
    [ "p3"; "p4"; "red" ];
  check_string "the rolled-back journal stays" "rolled-back"
    (Option.value
       (Controller.journal_status controller (named "red"))
       ~default:"<none>")

(* ---------------- Fencing at the switch agent ---------------- *)

let agent_fixture () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:3 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.Topology.Clos.backbone Net.Prefix.default_v4
    (Net.Attr.make
       ~as_path:(Net.As_path.of_asns [ Net.Asn.of_int 65000 ])
       ());
  ignore (Bgp.Network.converge net);
  let agent = Switch_agent.create ~seed:11 net in
  let plan = Apps.Expansion_equalizer.plan x in
  let device, rpa = List.hd plan.Controller.rpas in
  Switch_agent.set_intended agent ~device rpa;
  (agent, device)

let test_agent_epoch_ratchet () =
  let agent, device = agent_fixture () in
  check_bool "apply under epoch 2" true
    (Switch_agent.reconcile_device ~epoch:2 agent device = `Applied);
  check_int "ratchet at 2" 2 (Switch_agent.accepted_epoch agent);
  check_bool "stale epoch 1 is fenced" true
    (Switch_agent.reconcile_device ~epoch:1 agent device = `Fenced);
  check_int "ratchet unmoved by the stale RPC" 2
    (Switch_agent.accepted_epoch agent);
  check_bool "equal epoch still served" true
    (Switch_agent.reconcile_device ~epoch:2 agent device = `In_sync);
  check_bool "unstamped RPC still served (legacy single controller)" true
    (Switch_agent.reconcile_device agent device = `In_sync)

let test_cross_epoch_idempotent_retry () =
  (* The split-brain-shaped retry: leader at epoch 1 applies an RPA but
     the ack times out and the leader dies believing the device dirty.
     The next leader (epoch 2) retries the same device — it must observe
     In_sync, not double-apply. *)
  let agent, device = agent_fixture () in
  Switch_agent.set_mgmt_fault agent
    (Some
       (Dsim.Mgmt_fault.create ~seed:1
          { Dsim.Mgmt_fault.none with rpc_timeout_prob = 1.0 }));
  check_bool "epoch-1 apply times out (but installed the RPA)" true
    (Switch_agent.reconcile_device ~epoch:1 agent device = `Rpc_timeout);
  Switch_agent.set_mgmt_fault agent None;
  check_bool "epoch-2 retry observes in-sync" true
    (Switch_agent.reconcile_device ~epoch:2 agent device = `In_sync);
  check_int "ratchet followed the new leader" 2
    (Switch_agent.accepted_epoch agent);
  (match Switch_agent.epoch_commits agent with
   | [ (_, 1) ] -> ()
   | commits ->
     Alcotest.failf "expected exactly one commit under epoch 1, got %d"
       (List.length commits));
  check_bool "the deposed leader's own retry is fenced" true
    (Switch_agent.reconcile_device ~epoch:1 agent device = `Fenced)

(* ---------------- Invariant.check_ha ---------------- *)

let kinds vs =
  List.map (fun (v : Invariant.violation) -> Invariant.kind_name v.kind) vs

let test_check_ha_clean () =
  check_bool "disjoint epochs, fenced commits: clean" true
    (Invariant.check_ha
       ~grants:[ (0, 1, 0.0, 0.1); (1, 2, 0.12, 0.2) ]
       ~commits:[ (0.05, 1); (0.15, 2) ]
    = [])

let test_check_ha_dual_leader () =
  check_bool "overlapping epochs flagged" true
    (kinds
       (Invariant.check_ha
          ~grants:[ (0, 1, 0.0, 0.1); (1, 2, 0.05, 0.2) ]
          ~commits:[])
    = [ "dual-leader" ]);
  check_bool "one epoch, two holders flagged" true
    (kinds
       (Invariant.check_ha
          ~grants:[ (0, 1, 0.0, 0.1); (1, 1, 0.2, 0.3) ]
          ~commits:[])
    = [ "dual-leader" ])

let test_check_ha_stale_epoch_write () =
  check_bool "commit under a superseded epoch flagged" true
    (kinds
       (Invariant.check_ha
          ~grants:[ (0, 1, 0.0, 0.1); (1, 2, 0.12, 0.2) ]
          ~commits:[ (0.15, 1) ])
    = [ "stale-epoch-write" ]);
  check_bool "epoch 0 (unfenced operation) exempt" true
    (Invariant.check_ha
       ~grants:[ (0, 1, 0.0, 0.1) ]
       ~commits:[ (0.5, 0) ]
    = [])

(* ---------------- Leases and elections ---------------- *)

let cluster_fixture ?(members = 3) () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:3 x.Topology.Clos.xgraph in
  let agent = Switch_agent.create ~seed:11 net in
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let ha = Ha.create ~members net agent nsdb in
  Ha.start ha;
  ha

let test_election_deterministic () =
  let ha = cluster_fixture () in
  (* Member 0's timer is staggered earliest, so it always wins the first
     election — the deterministic tie-break. *)
  check_bool "member 0 elected first" true (Ha.wait_for_leader ha = Some 0);
  check_bool "epoch 1" true (Ha.current_leader_epoch ha = Some (0, 1));
  check_int "one election" 1 (Ha.elections ha);
  Ha.stop ha

let test_takeover_after_kill () =
  let ha = cluster_fixture () in
  check_bool "leader up" true (Ha.wait_for_leader ha = Some 0);
  Ha.kill ha 0;
  check_bool "dead leader no longer counts" true (Ha.leader_id ha = None);
  check_bool "member 1 takes over" true (Ha.wait_for_leader ha = Some 1);
  check_bool "epoch advanced" true (Ha.current_leader_epoch ha = Some (1, 2));
  check_int "two elections" 2 (Ha.elections ha);
  (match Ha.takeover_ms ha with
   | [ ms ] -> check_bool "takeover latency positive" true (ms > 0.0)
   | l -> Alcotest.failf "expected one takeover sample, got %d" (List.length l));
  check_bool "grant audit clean" true
    (Invariant.check_ha ~grants:(Ha.grants ha) ~commits:(Ha.epoch_commits ha)
    = []);
  Ha.stop ha

(* ---------------- Failover scenario (the CI ha-smoke core) -------- *)

let test_failover_bit_identical_to_uninterrupted () =
  let c = Experiments.Scenarios.Failover.crash_vs_uninterrupted ~seed:21 () in
  let i = c.Experiments.Scenarios.Failover.interrupted in
  let u = c.Experiments.Scenarios.Failover.uninterrupted in
  check_string "interrupted completed" "completed" i.outcome;
  check_string "uninterrupted completed" "completed" u.outcome;
  check_bool "the kill forced a real takeover" true (i.elections >= 2);
  check_int "exactly the killed member died" 1 i.dead_members;
  check_bool "takeover latency recorded" true (i.takeover_ms <> []);
  check_bool "no dual-leader / stale-epoch violations" true
    (i.ha_violations = [] && u.ha_violations = []);
  check_bool "forwarding invariants clean" true
    (i.final_violations = [] && i.phase_violations = []);
  check_bool "journal closed" true (i.journal_status = Some "completed");
  check_bool "forwarding state bit-identical" true
    c.Experiments.Scenarios.Failover.digests_match;
  (* The sweep verdict holds, and fails when any one of its conditions is
     flipped. *)
  let module F = Experiments.Scenarios.Failover in
  check_bool "sweep verdict passes" true (F.passed c);
  List.iter
    (fun (what, c) ->
      check_bool ("sweep verdict fails: " ^ what) false (F.passed c))
    [
      ("digests differ", { c with F.digests_match = false });
      ( "interrupted run incomplete",
        { c with F.interrupted = { i with F.outcome = "none" } } );
      ( "uninterrupted run incomplete",
        { c with F.uninterrupted = { u with F.outcome = "rolled-back" } } );
      ( "a single election",
        { c with F.interrupted = { i with F.elections = 1 } } );
      ( "one HA violation",
        {
          c with
          F.interrupted = { i with F.ha_violations = [ "dual-leader" ] };
        } );
      ( "one phase violation",
        {
          c with
          F.uninterrupted = { u with F.phase_violations = [ (1, "loop") ] };
        } );
      ( "one final violation",
        { c with F.interrupted = { i with F.final_violations = [ "loop" ] } } );
    ]

(* Sweep position 68 (seed 69 of a sweep from seed 1) wraps to position
   4. Unwrapped, its kill landed at 0.496 s, after the rollout had ended,
   so no takeover happened and the verdict failed. *)
let test_failover_sweep_wraps_its_stagger () =
  let module F = Experiments.Scenarios.Failover in
  let offset = F.stagger ~crash_at:0.02 68 in
  check_bool "wrapped to position 4" true
    (Float.abs (offset -. F.stagger ~crash_at:0.02 4) < 1e-12);
  check_bool "the kill forces a takeover and the run converges" true
    (F.passed
       (F.crash_vs_uninterrupted ~seed:69 ~profile:Dsim.Mgmt_fault.flaky
          ~members:3 ~leader_crash_offsets:[ offset ] ()))

let test_failover_bit_reproducible () =
  let run () =
    let r =
      Experiments.Scenarios.Failover.run ~seed:9
        ~leader_crash_offsets:[ 0.025 ] ()
    in
    ( r.outcome,
      r.attempts,
      r.elections,
      r.takeover_ms,
      r.grants,
      r.fib_digest )
  in
  check_bool "scenario is bit-reproducible" true (run () = run ())

let test_fenced_failstop_under_lease_partition () =
  (* No crash at all: a long lease-store partition expires the leader's
     lease mid-rollout. The fence must fail-stop the deployment (Fenced,
     not Crashed), the member survives as a standby, and once the store
     heals a re-election resumes and completes the plan. *)
  let r =
    Experiments.Scenarios.Failover.run ~seed:4
      ~lease_partition_offsets:[ (0.015, 0.7) ]
      ()
  in
  check_string "rollout still completes" "completed" r.outcome;
  check_bool "at least one attempt was fenced" true (r.fenced_attempts >= 1);
  check_int "nobody died" 0 r.dead_members;
  check_bool "fencing kept the audit clean" true
    (r.ha_violations = [] && r.final_violations = [])

let test_ops_queue_survives_takeover seed () =
  (* The admission queue under a mid-queue leader crash: the standby
     rebuilds the queue from the opsq journal and the simulated day ends
     with exactly the queue order, shed set and forwarding state of the
     uninterrupted run. *)
  let open Experiments.Scenarios.Continuous in
  let interrupted = run ~seed ~hours:2 ~leader_crash_offsets:[ 0.12 ] () in
  let uninterrupted = run ~seed ~hours:2 () in
  check_bool "the crash forced a real takeover" true
    (interrupted.elections >= 2);
  check_bool "the new leader rebuilt the queue from the journal" true
    (interrupted.queue_recoveries >= 1);
  check_bool "queue order identical" true
    (interrupted.queue_order = uninterrupted.queue_order);
  check_bool "shed set identical" true
    (interrupted.shed_set = uninterrupted.shed_set);
  check_string "forwarding state bit-identical" uninterrupted.fib_digest
    interrupted.fib_digest;
  check_int "no violation escaped remediation" 0
    interrupted.unremediated_violations

let test_ops_takeover_bit_reproducible () =
  let open Experiments.Scenarios.Continuous in
  let run () =
    let r = run ~seed:7 ~hours:2 ~leader_crash_offsets:[ 0.12 ] () in
    (r.queue_order, r.shed_set, r.completed, r.rolled_back, r.fib_digest)
  in
  check_bool "interrupted day is bit-reproducible" true (run () = run ())

let () =
  Alcotest.run "ha"
    [
      ( "cas",
        [
          Alcotest.test_case "basics" `Quick test_cas_basics;
          Alcotest.test_case "replica failover" `Quick
            test_cas_survives_replica_failover;
          Alcotest.test_case "read-modify-write race" `Quick
            test_cas_closes_read_modify_write_race;
        ] );
      ( "journal-gc",
        [
          Alcotest.test_case "prunes oldest completed" `Quick
            test_journal_gc_prunes_oldest_completed;
          Alcotest.test_case "retention knob" `Quick
            test_journal_retention_knob;
          Alcotest.test_case "prunes plan records" `Quick
            test_journal_gc_prunes_plan_records;
        ] );
      ( "fencing",
        [
          Alcotest.test_case "epoch ratchet" `Quick test_agent_epoch_ratchet;
          Alcotest.test_case "cross-epoch idempotent retry" `Quick
            test_cross_epoch_idempotent_retry;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean audit" `Quick test_check_ha_clean;
          Alcotest.test_case "dual leader" `Quick test_check_ha_dual_leader;
          Alcotest.test_case "stale epoch write" `Quick
            test_check_ha_stale_epoch_write;
        ] );
      ( "election",
        [
          Alcotest.test_case "deterministic first leader" `Quick
            test_election_deterministic;
          Alcotest.test_case "takeover after kill" `Quick
            test_takeover_after_kill;
        ] );
      ( "failover",
        [
          Alcotest.test_case "bit-identical to uninterrupted" `Slow
            test_failover_bit_identical_to_uninterrupted;
          Alcotest.test_case "bit-reproducible" `Slow
            test_failover_bit_reproducible;
          Alcotest.test_case "sweep position 68 wraps its stagger" `Slow
            test_failover_sweep_wraps_its_stagger;
          Alcotest.test_case "fenced fail-stop under lease partition" `Slow
            test_fenced_failstop_under_lease_partition;
        ] );
      ( "ops-takeover",
        [
          Alcotest.test_case "queue survives takeover" `Slow
            (test_ops_queue_survives_takeover 42);
          Alcotest.test_case "queue survives takeover, seed 7" `Slow
            (test_ops_queue_survives_takeover 7);
          Alcotest.test_case "interrupted day bit-reproducible" `Slow
            test_ops_takeover_bit_reproducible;
        ] );
    ]
