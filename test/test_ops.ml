(* Tests for overload robustness: admission control and the bounded
   priority queue (typed sheds, conflict serialization, journal recovery,
   GC protection of queued plans), asynchronous NSDB replication with
   bounded catch-up, the batched fleet pub/sub, the runtime SLO watchdog's
   automatic rollback, and the continuous-operations driver's
   bit-reproducibility. *)

open Centralium

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A minimal plan: one empty RPA on [device]. Two such plans conflict iff
   they share the device (no destinations to overlap). *)
let tiny_plan name device =
  {
    Controller.plan_name = name;
    rpas = [ (device, Rpa.empty) ];
    phases = [ [ device ] ];
    pre_checks = [];
    post_checks = [];
  }

let small_config = { Ops.max_queue = 3; per_tenant = 2; per_class = 2 }

(* ---------------- admission control ---------------- *)

let test_admission_typed_sheds () =
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let q = Ops.create ~config:small_config nsdb in
  let submit ?(tenant = "ops") ?(cls = Ops.Standard) p =
    Ops.submit q ~tenant ~cls p
  in
  check_bool "first admitted" true
    (match submit (tiny_plan "a" 1) with Ops.Admitted _ -> true | _ -> false);
  check_bool "second admitted" true
    (match submit ~cls:Ops.Bulk (tiny_plan "b" 2) with
     | Ops.Admitted _ -> true
     | _ -> false);
  (* tenant "ops" is now at its per-tenant limit of 2 *)
  check_bool "per-tenant limit sheds with the tenant's name" true
    (match submit (tiny_plan "c" 3) with
     | Ops.Overloaded (Ops.Tenant_limit { tenant = "ops"; limit = 2 }) ->
       true
     | _ -> false);
  check_bool "per-class limit sheds" true
    (match submit ~tenant:"te" (tiny_plan "d" 4) with
     | Ops.Admitted _ -> true
     | _ -> false);
  check_bool "queue-full sheds" true
    (match submit ~tenant:"ml" ~cls:Ops.Interactive (tiny_plan "e" 5) with
     | Ops.Overloaded (Ops.Queue_full { limit = 3 }) -> true
     | _ -> false);
  check_int "nothing shed was enqueued" 3 (Ops.depth q);
  check_int "every submission counted" 5 (Ops.submissions q);
  let sheds = Ops.shed_log q in
  check_int "both sheds audited" 2 (List.length sheds);
  check_bool "shed audit names tenant and plan" true
    (match sheds with
     | (_, "ops", "c", _) :: (_, "ml", "e", _) :: _ -> true
     | _ -> false)

let test_priority_and_conflict_serialization () =
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let q =
    Ops.create ~config:{ Ops.max_queue = 8; per_tenant = 8; per_class = 8 }
      nsdb
  in
  let admit ~cls p =
    match Ops.submit q ~tenant:"ops" ~cls p with
    | Ops.Admitted seq -> seq
    | Ops.Overloaded _ -> Alcotest.fail "unexpected shed"
  in
  (* a (Bulk, dev 1), b (Interactive, dev 1): b conflicts with the earlier
     a, so priority must NOT let it overtake. c (Interactive, dev 2) is
     independent and may. *)
  let sa = admit ~cls:Ops.Bulk (tiny_plan "a" 1) in
  let _sb = admit ~cls:Ops.Interactive (tiny_plan "b" 1) in
  let sc = admit ~cls:Ops.Interactive (tiny_plan "c" 2) in
  (match Ops.next_ready q with
   | Some (seq, p) ->
     check_int "independent interactive plan overtakes" sc seq;
     check_string "and it is c" "c" p.Controller.plan_name
   | None -> Alcotest.fail "queue should be ready");
  Ops.mark_started q sc;
  Ops.mark_done q sc;
  (match Ops.next_ready q with
   | Some (seq, p) ->
     check_int "conflicting pair serializes in submission order" sa seq;
     check_string "a before the higher-priority b" "a" p.Controller.plan_name
   | None -> Alcotest.fail "queue should be ready");
  Ops.mark_started q sa;
  (* a is started but not done: the queue re-offers a for resume — b
     still conflicts and must not be dispatched. *)
  check_bool "the in-flight a is re-offered, not the conflicting b" true
    (match Ops.next_ready q with Some (s, _) -> s = sa | None -> false);
  Ops.mark_done q sa;
  check_bool "b runnable once a is done" true
    (match Ops.next_ready q with
     | Some (_, p) -> p.Controller.plan_name = "b"
     | None -> false)

let test_recover_rebuilds_queue () =
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let q = Ops.create ~config:small_config nsdb in
  let plans = [ tiny_plan "a" 1; tiny_plan "b" 2; tiny_plan "c" 3 ] in
  let seqs =
    List.map
      (fun p ->
        match Ops.submit q ~tenant:"ops" ~cls:Ops.Bulk p with
        | Ops.Admitted s -> s
        | Ops.Overloaded _ -> Alcotest.fail "unexpected shed")
      (List.filteri (fun i _ -> i < 2) plans)
  in
  ignore
    (Ops.submit q ~tenant:"te" ~cls:Ops.Bulk (List.nth plans 2)
     |> function
     | Ops.Overloaded _ -> ()
     | Ops.Admitted _ -> ());
  (* shed one for the audit trail *)
  ignore (Ops.submit q ~tenant:"ops" ~cls:Ops.Bulk (tiny_plan "d" 4));
  (* and one the admission verifier rejects: its reason quotes the
     verifier's error, ':' and all *)
  Ops.set_admission_verifier (fun p ->
      if p.Controller.plan_name = "e" then
        [ "verify forwarding-loop: 5 -> 6 -> 5" ]
      else []);
  Fun.protect ~finally:Ops.clear_admission_verifier (fun () ->
      check_bool "unsafe plan shed" true
        (match Ops.submit q ~tenant:"ml" ~cls:Ops.Bulk (tiny_plan "e" 5) with
         | Ops.Overloaded (Ops.Unsafe_plan _) -> true
         | _ -> false));
  Ops.mark_started q (List.hd seqs);
  (* The new leader rebuilds from the journal alone. *)
  let lookup name =
    List.find_opt (fun p -> p.Controller.plan_name = name) plans
  in
  let q' = Ops.recover ~config:small_config ~lookup nsdb in
  check_int "depth survives" (Ops.depth q) (Ops.depth q');
  check_bool "queued names survive in order" true
    (Ops.queued_names q = Ops.queued_names q');
  check_int "submission counter survives" (Ops.submissions q)
    (Ops.submissions q');
  check_bool "shed audit survives" true (Ops.shed_log q = Ops.shed_log q');
  (* resume-before-new-work: the crashed predecessor's started entry *)
  check_bool "started entry dispatched first" true
    (match Ops.next_ready q' with
     | Some (s, p) -> s = List.hd seqs && p.Controller.plan_name = "a"
     | None -> false)

(* ---------------- journal GC protection ---------------- *)

let gc_fixture () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:1 x.Topology.Clos.xgraph in
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let controller = Controller.create ~nsdb net in
  (nsdb, controller)

let test_gc_spares_queued_plan () =
  let nsdb, controller = gc_fixture () in
  for i = 1 to 3 do
    Nsdb.Replicated.set nsdb
      ~path:(Printf.sprintf "journal/p%d/status" i)
      (Nsdb.String "completed");
    Nsdb.Replicated.set nsdb
      ~path:(Printf.sprintf "journal/p%d/completed_seq" i)
      (Nsdb.Int i)
  done;
  (* p1, the oldest completed journal, is queued for another run: the GC
     must not prune it however deep the retention cut goes. *)
  Nsdb.Replicated.set nsdb ~path:"opsq/00000000/plan" (Nsdb.String "p1");
  Nsdb.Replicated.set nsdb ~path:"opsq/00000000/state"
    (Nsdb.String "queued");
  check_int "pruned all unprotected completed journals" 2
    (Controller.journal_gc ~retain:0 controller);
  check_bool "queued plan's journal survives retain=0" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/p1/status"
    = Some (Nsdb.String "completed"));
  (* Once the queue entry is done the protection lifts. *)
  Nsdb.Replicated.set nsdb ~path:"opsq/00000000/state" (Nsdb.String "done");
  check_int "prunable after mark_done" 1
    (Controller.journal_gc ~retain:0 controller);
  check_bool "and gone" true
    (Nsdb.Replicated.get_one nsdb ~path:"journal/p1/status" = None)

let test_completed_seq_deferred_while_queued () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:2 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4
    (Net.Attr.make ());
  ignore (Bgp.Network.converge net);
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let controller = Controller.create ~nsdb net in
  let device = List.hd x.Topology.Clos.xfsws in
  let plan = tiny_plan "queued-again" device in
  (* The same plan name is queued for a second run while the first
     completes: its GC ordering stamp must wait, or the pruning order
     could race the re-run. *)
  Nsdb.Replicated.set nsdb ~path:"opsq/00000000/plan"
    (Nsdb.String "queued-again");
  Nsdb.Replicated.set nsdb ~path:"opsq/00000000/state"
    (Nsdb.String "queued");
  (match Controller.deploy_resilient controller plan with
   | Controller.Completed _ -> ()
   | _ -> Alcotest.fail "tiny plan should deploy");
  check_bool "journal completed" true
    (Controller.journal_status controller plan = Some "completed");
  check_bool "completed_seq deferred while queued" true
    (Nsdb.Replicated.get_one nsdb
       ~path:"journal/queued-again/completed_seq"
    = None);
  (* Without a queue entry the stamp appears as usual. *)
  Nsdb.Replicated.set nsdb ~path:"opsq/00000000/state" (Nsdb.String "done");
  (match Controller.deploy_resilient controller plan with
   | Controller.Completed _ -> ()
   | _ -> Alcotest.fail "re-deploy should complete");
  check_bool "completed_seq stamped once dequeued" true
    (Nsdb.Replicated.get_one nsdb
       ~path:"journal/queued-again/completed_seq"
    <> None)

(* ---------------- async NSDB replication ---------------- *)

let test_async_lag_and_batched_catchup () =
  let db = Nsdb.Replicated.create ~replicas:3 in
  Nsdb.Replicated.enable_async ~lag_threshold:100 ~batch_budget:2 db;
  for i = 1 to 5 do
    Nsdb.Replicated.set db ~path:(Printf.sprintf "k%d" i) (Nsdb.Int i)
  done;
  check_int "leader is current" 0 (Nsdb.Replicated.lag db 0);
  check_int "follower lags by the backlog" 5 (Nsdb.Replicated.lag db 1);
  check_bool "leader read sees the write" true
    (Nsdb.Replicated.get_one db ~path:"k5" = Some (Nsdb.Int 5));
  Nsdb.Replicated.flush db;
  check_int "one flush applies one batch budget" 3
    (Nsdb.Replicated.lag db 1);
  Nsdb.Replicated.flush db;
  Nsdb.Replicated.flush db;
  check_int "drained" 0 (Nsdb.Replicated.max_lag db);
  check_bool "follower store converged" true
    (Nsdb.get_one (Nsdb.Replicated.replica db 1) ~path:"k5"
    = Some (Nsdb.Int 5));
  check_int "no snapshot ships under the threshold" 0
    (Nsdb.Replicated.snapshot_ships db);
  check_int "lag peak recorded" 5 (Nsdb.Replicated.lag_peak db)

let test_snapshot_ship_beyond_threshold () =
  let db = Nsdb.Replicated.create ~replicas:2 in
  Nsdb.Replicated.enable_async ~lag_threshold:3 ~batch_budget:2 db;
  for i = 1 to 8 do
    Nsdb.Replicated.set db ~path:(Printf.sprintf "k%d" i) (Nsdb.Int i)
  done;
  Nsdb.Replicated.flush db;
  check_bool "beyond the threshold the replica snapshot-ships" true
    (Nsdb.Replicated.snapshot_ships db >= 1);
  check_int "and is immediately current" 0 (Nsdb.Replicated.max_lag db);
  check_bool "follower has the full state" true
    (Nsdb.get_one (Nsdb.Replicated.replica db 1) ~path:"k8"
    = Some (Nsdb.Int 8))

let test_promotion_drains_backlog () =
  let db = Nsdb.Replicated.create ~replicas:3 in
  Nsdb.Replicated.enable_async ~lag_threshold:100 ~batch_budget:1 db;
  for i = 1 to 6 do
    Nsdb.Replicated.set db ~path:(Printf.sprintf "k%d" i) (Nsdb.Int i)
  done;
  (* Kill the leader with the followers 6 ops behind: the promoted
     replica must drain its backlog before serving reads. *)
  Nsdb.Replicated.fail_replica db 0;
  check_bool "promoted leader serves the latest write" true
    (Nsdb.Replicated.get_one db ~path:"k6" = Some (Nsdb.Int 6));
  check_bool "CAS on the promoted leader linearizes on current state" true
    (Nsdb.Replicated.compare_and_set db ~path:"k6"
       ~expected:(Some (Nsdb.Int 6))
       (Nsdb.Int 60))

(* ---------------- batched pub/sub ---------------- *)

let test_pubsub_coalesce_and_unsubscribe () =
  let db = Nsdb.Replicated.create ~replicas:2 in
  let batches = ref [] in
  let token =
    Nsdb.Replicated.subscribe db ~path:"a/**" (fun b ->
        batches := b :: !batches)
  in
  Nsdb.Replicated.set db ~path:"a/x" (Nsdb.Int 1);
  Nsdb.Replicated.set db ~path:"a/x" (Nsdb.Int 2);
  Nsdb.Replicated.set db ~path:"a/y" (Nsdb.Int 3);
  Nsdb.Replicated.set db ~path:"unrelated" (Nsdb.Int 9);
  check_int "nothing delivered before the flush" 0 (List.length !batches);
  Nsdb.Replicated.flush db;
  (match !batches with
   | [ `Changes changes ] ->
     check_bool "coalesced keep-last in first-touch order" true
       (changes
       = [ ("a/x", Some (Nsdb.Int 2)); ("a/y", Some (Nsdb.Int 3)) ])
   | _ -> Alcotest.fail "expected exactly one Changes batch");
  Nsdb.Replicated.delete db ~path:"a/y";
  Nsdb.Replicated.flush db;
  (match !batches with
   | [ `Changes changes; _ ] ->
     check_bool "delete notifies with None" true
       (changes = [ ("a/y", None) ])
   | _ -> Alcotest.fail "expected a second Changes batch");
  check_int "one live subscriber" 1 (Nsdb.Replicated.subscriber_count db);
  Nsdb.Replicated.unsubscribe db token;
  Nsdb.Replicated.unsubscribe db token;
  (* double-unsubscribe is a no-op *)
  check_int "unsubscribed" 0 (Nsdb.Replicated.subscriber_count db);
  Nsdb.Replicated.set db ~path:"a/z" (Nsdb.Int 4);
  Nsdb.Replicated.flush db;
  check_int "no delivery after unsubscribe" 2 (List.length !batches)

let test_pubsub_overflow_resyncs () =
  let db = Nsdb.Replicated.create ~replicas:2 in
  let batches = ref [] in
  ignore
    (Nsdb.Replicated.subscribe ~limit:2 db ~path:"a/**" (fun b ->
         batches := b :: !batches));
  for i = 1 to 5 do
    Nsdb.Replicated.set db ~path:(Printf.sprintf "a/k%d" i) (Nsdb.Int i)
  done;
  Nsdb.Replicated.flush db;
  (match !batches with
   | [ `Resync snapshot ] ->
     check_int "resync carries the full watched state" 5
       (List.length snapshot)
   | _ -> Alcotest.fail "overflow must downgrade to Resync");
  check_int "overflow accounted" 1 (Nsdb.Replicated.overflow_resyncs db);
  (* After the resync the delta stream resumes. *)
  Nsdb.Replicated.set db ~path:"a/k1" (Nsdb.Int 10);
  Nsdb.Replicated.flush db;
  check_bool "delta stream resumes after resync" true
    (match !batches with `Changes _ :: _ -> true | _ -> false)

(* ---------------- the runtime watchdog ---------------- *)

let watchdog_fixture () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:5 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4
    (Net.Attr.make
       ~communities:
         (Net.Community.Set.singleton
            Net.Community.Well_known.backbone_default_route)
       ());
  ignore (Bgp.Network.converge net);
  let nsdb = Nsdb.Replicated.create ~replicas:2 in
  let controller = Controller.create ~nsdb net in
  (x, net, nsdb, controller)

(* An unsatisfiable min-next-hop guard: its targets withdraw the default
   and the layer below black-holes — the watchdog must catch it. *)
let canary_plan x =
  Centralium.Apps.Min_next_hop_guard.plan x.Topology.Clos.xgraph
    ~destination:
      (Destination.Tagged Net.Community.Well_known.backbone_default_route)
    ~threshold:(Path_selection.Fraction 1.1) ~keep_fib_warm:false
    ~targets:x.Topology.Clos.xssws ~origination_layer:Topology.Node.Eb

let test_watchdog_breach_rolls_back () =
  let x, net, nsdb, controller = watchdog_fixture () in
  let demands = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
  let wd =
    Ops.Watchdog.create ~net ~nsdb ~demands ~prefix:Net.Prefix.default_v4 ()
  in
  let plan = canary_plan x in
  Ops.Watchdog.arm wd ~plan_name:plan.Controller.plan_name;
  let outcome =
    Controller.deploy_resilient ~watchdog:(Ops.Watchdog.probe wd) controller
      plan
  in
  ignore (Bgp.Network.converge net);
  Nsdb.Replicated.flush nsdb;
  (match outcome with
   | Controller.Rolled_back { reasons; _ } ->
     check_bool "reasons name the watchdog" true
       (List.exists
          (fun r ->
            String.length r >= 9 && String.sub r 0 9 = "watchdog:")
          reasons)
   | _ -> Alcotest.fail "watchdog breach must roll the plan back");
  check_bool "remediation event journaled" true
    (Controller.journal_remediation controller plan <> None);
  check_bool "watchdog observed the remediation via its subscription" true
    (Ops.Watchdog.remediations wd <> []);
  check_bool "violations were seen" true (Ops.Watchdog.violations_seen wd > 0);
  Ops.Watchdog.disarm wd;
  check_bool "rollback left the network violation-free" true
    (Invariant.check net = []);
  check_bool "and the blackhole window was bounded" true
    (Ops.Watchdog.blackhole_seconds wd > 0.0)

let test_watchdog_window_resets () =
  let x, net, nsdb, controller = watchdog_fixture () in
  let demands = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
  let wd =
    Ops.Watchdog.create ~net ~nsdb ~demands ~prefix:Net.Prefix.default_v4 ()
  in
  let bad = canary_plan x in
  Ops.Watchdog.arm wd ~plan_name:bad.Controller.plan_name;
  (match
     Controller.deploy_resilient ~watchdog:(Ops.Watchdog.probe wd)
       controller bad
   with
   | Controller.Rolled_back _ -> ()
   | _ -> Alcotest.fail "canary must breach");
  ignore (Bgp.Network.converge net);
  Ops.Watchdog.disarm wd;
  (* A later healthy plan must not inherit the breached window. *)
  let device = List.hd x.Topology.Clos.xfsws in
  let healthy = tiny_plan "healthy" device in
  Ops.Watchdog.arm wd ~plan_name:"healthy";
  (match
     Controller.deploy_resilient ~watchdog:(Ops.Watchdog.probe wd)
       controller healthy
   with
   | Controller.Completed _ -> ()
   | _ -> Alcotest.fail "healthy plan must complete after a reset window");
  Ops.Watchdog.disarm wd;
  check_int "arm/disarm pairs leave no subscriber behind" 0
    (Nsdb.Replicated.subscriber_count nsdb)

(* ---------------- the continuous-operations driver ---------------- *)

let test_continuous_bit_reproducible () =
  let run () = Experiments.Scenarios.Continuous.run ~seed:42 ~hours:2 () in
  let a = run () and b = run () in
  let open Experiments.Scenarios.Continuous in
  check_bool "queue order reproduces" true (a.queue_order = b.queue_order);
  check_bool "shed set reproduces" true (a.shed_set = b.shed_set);
  check_string "FIB digest reproduces" a.fib_digest b.fib_digest;
  check_int "zero unremediated violations" 0 a.unremediated_violations;
  check_bool "sheds happened and were typed" true (a.shed > 0);
  check_bool "canaries were remediated" true
    (a.rolled_back > 0 && a.remediations >= a.rolled_back)

let () =
  Alcotest.run "ops"
    [
      ( "admission",
        [
          Alcotest.test_case "typed sheds" `Quick test_admission_typed_sheds;
          Alcotest.test_case "priority + conflict serialization" `Quick
            test_priority_and_conflict_serialization;
          Alcotest.test_case "recover rebuilds the queue" `Quick
            test_recover_rebuilds_queue;
        ] );
      ( "journal-gc",
        [
          Alcotest.test_case "spares queued plans" `Quick
            test_gc_spares_queued_plan;
          Alcotest.test_case "completed_seq deferred while queued" `Quick
            test_completed_seq_deferred_while_queued;
        ] );
      ( "async-replication",
        [
          Alcotest.test_case "lag + batched catch-up" `Quick
            test_async_lag_and_batched_catchup;
          Alcotest.test_case "snapshot ship beyond threshold" `Quick
            test_snapshot_ship_beyond_threshold;
          Alcotest.test_case "promotion drains the backlog" `Quick
            test_promotion_drains_backlog;
        ] );
      ( "pubsub",
        [
          Alcotest.test_case "coalesce + unsubscribe" `Quick
            test_pubsub_coalesce_and_unsubscribe;
          Alcotest.test_case "overflow resync" `Quick
            test_pubsub_overflow_resyncs;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "breach rolls back" `Quick
            test_watchdog_breach_rolls_back;
          Alcotest.test_case "window resets per plan" `Quick
            test_watchdog_window_resets;
        ] );
      ( "continuous",
        [
          Alcotest.test_case "bit-reproducible" `Slow
            test_continuous_bit_reproducible;
        ] );
    ]
