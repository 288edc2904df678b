(* Integration tests: every scenario figure of the paper, asserting the
   qualitative claim (native BGP exhibits the pathology; RPA removes it). *)

open Experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Traces compared through their exact JSON rendering: messages carry
   attributes, which polymorphic [=] must not compare (see
   {!Net.Attr.t}). *)
let trace_json events = List.map Bgp.Trace.event_to_json events

let test_fig2_first_router () =
  let r = Scenarios.Fig2.run () in
  (* Native BGP: the first activated FAv2 attracts (essentially) all
     traffic. *)
  check_bool "native funnels everything" true
    (r.Scenarios.Fig2.native_fav2_share > 0.99);
  (* RPA: the new switch takes a balanced share. *)
  check_bool "rpa balances" true
    (r.Scenarios.Fig2.rpa_fav2_share
     < r.Scenarios.Fig2.balanced_share +. 0.05);
  check_bool "rpa share positive" true (r.Scenarios.Fig2.rpa_fav2_share > 0.01);
  check_bool "no loss under rpa" true (r.Scenarios.Fig2.rpa_loss < 1e-9);
  check_bool "baseline was balanced" true (r.Scenarios.Fig2.baseline_funnel < 0.3)

let test_fig4_last_router () =
  let r = Scenarios.Fig4.run () in
  (* Native: the last live FADU-1 transiently absorbs the whole group's
     traffic - several times its steady share. *)
  check_bool "native transient funnel" true
    (r.Scenarios.Fig4.native_worst_funnel
     > 3.0 *. r.Scenarios.Fig4.steady_share);
  (* The guard caps the transient well below native. *)
  check_bool "rpa caps funnel" true
    (r.Scenarios.Fig4.rpa_worst_funnel
     < r.Scenarios.Fig4.native_worst_funnel /. 2.0)

let test_fig5_nhg_explosion () =
  let r = Scenarios.Fig5.run () in
  check_bool "native explodes" true (r.Scenarios.Fig5.du_nhg_native > 4);
  check_bool "rpa stays flat" true
    (r.Scenarios.Fig5.du_nhg_rpa >= 1 && r.Scenarios.Fig5.du_nhg_rpa <= 2);
  check_int "bound is 4^8" 65536 r.Scenarios.Fig5.theoretical_bound;
  check_bool "native below bound" true
    (r.Scenarios.Fig5.du_nhg_native < r.Scenarios.Fig5.theoretical_bound)

let test_fig9_dissemination_rule () =
  let r = Scenarios.Fig9.run () in
  check_bool "best-path advertisement loops" true
    (List.length r.Scenarios.Fig9.loops_with_best_advertised > 0);
  check_bool "traffic circulates R5<->R6" true
    (r.Scenarios.Fig9.circulating_bad > 0.05);
  check_int "rule is loop-free" 0 (List.length r.Scenarios.Fig9.loops_with_rule);
  check_bool "no circulating traffic" true
    (r.Scenarios.Fig9.circulating_good < 1e-9);
  check_bool "flows actually die in the loop" true
    (r.Scenarios.Fig9.ttl_loss_bad > 0.05);
  check_bool "no ttl loss with the rule" true
    (r.Scenarios.Fig9.ttl_loss_good < 1e-9)

let test_fig10_deployment_sequencing () =
  let r = Scenarios.Fig10.run () in
  check_bool "top-down funnels" true (r.Scenarios.Fig10.funnel_top_down > 0.99);
  check_bool "bottom-up stays balanced" true
    (r.Scenarios.Fig10.funnel_bottom_up < r.Scenarios.Fig10.balanced +. 0.05)

let test_fig14_sev () =
  let r = Scenarios.Fig14.run () in
  check_bool "knob blackholes traffic" true
    (r.Scenarios.Fig14.blackholed_with_knob > 0.99);
  check_bool "without knob traffic survives" true
    (r.Scenarios.Fig14.blackholed_without_knob < 1e-9);
  check_bool "guard withheld advertisement" false
    r.Scenarios.Fig14.propagated_past_ssw

let test_fig13_te_ordering () =
  let r = Scenarios.Fig13.run ~events:20 () in
  check_bool "rpa close to ideal" true (r.Scenarios.Fig13.mean_rpa_over_ideal > 0.95);
  check_bool "ecmp clearly worse" true
    (r.Scenarios.Fig13.mean_ecmp_over_ideal
     < r.Scenarios.Fig13.mean_rpa_over_ideal -. 0.05);
  List.iter
    (fun e ->
      (* Relative slack: the ideal comes from a 1e-4-tolerance binary
         search, so coinciding comparators may cross by that margin. *)
      check_bool "per-event ordering" true
        (e.Scenarios.Fig13.ideal_capacity
         >= (e.Scenarios.Fig13.rpa_capacity *. 0.999) -. 1e-9
        && e.Scenarios.Fig13.rpa_capacity
           >= (e.Scenarios.Fig13.ecmp_capacity *. 0.999) -. 1e-9))
    r.Scenarios.Fig13.events;
  check_bool "te unblocks maintenance" true
    (r.Scenarios.Fig13.unblocked_fraction > 0.0)

let test_fig4_threshold_sweep_monotone () =
  (* Stronger guards cap the transient funnel harder (weakly monotone). *)
  let sweep =
    Scenarios.Fig4.sweep
      ~thresholds:[ None; Some 0.25; Some 0.75; Some 1.0 ] ()
  in
  let worsts = List.map snd sweep in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && non_increasing rest
    | [ _ ] | [] -> true
  in
  check_bool "monotone in threshold" true (non_increasing worsts);
  (match (worsts, List.rev worsts) with
   | first :: _, last :: _ ->
     check_bool "guard helps overall" true (last < first /. 2.0)
   | _ -> Alcotest.fail "empty sweep")

let test_fig13_quantization_sweep () =
  (* Finer link-bandwidth granularity tracks the ideal more closely. *)
  let quality levels =
    (Scenarios.Fig13.run ~events:10 ~levels ()).Scenarios.Fig13.mean_rpa_over_ideal
  in
  let coarse = quality 2 and fine = quality 64 in
  check_bool "fine beats coarse" true (fine > coarse +. 0.05);
  check_bool "fine is near-ideal" true (fine > 0.95)

let test_scenarios_deterministic () =
  let a = Scenarios.Fig2.run ~seed:7 () and b = Scenarios.Fig2.run ~seed:7 () in
  check_bool "same seed same result" true (a = b)

let test_faulted_deterministic () =
  (* Bit-determinism of the fault schedule: two runs from the same seed
     produce identical results down to the full event trace (every message,
     drop, restart, FIB change and violation, with timestamps). *)
  let a = Scenarios.Faulted.run ~seed:11 ~profile:Dsim.Fault.heavy () in
  let b = Scenarios.Faulted.run ~seed:11 ~profile:Dsim.Fault.heavy () in
  check_bool "same schedule" true
    (a.Scenarios.Faulted.schedule = b.Scenarios.Faulted.schedule);
  check_int "same event count" a.Scenarios.Faulted.events_executed
    b.Scenarios.Faulted.events_executed;
  check_bool "identical trace" true
    (trace_json a.Scenarios.Faulted.trace = trace_json b.Scenarios.Faulted.trace);
  check_bool "identical result" true
    ({ a with Scenarios.Faulted.trace = [] } = { b with trace = [] });
  (* And the seed actually matters: a different seed gives a different
     history. *)
  let c = Scenarios.Faulted.run ~seed:12 ~profile:Dsim.Fault.heavy () in
  check_bool "different seed, different trace" false
    (trace_json a.Scenarios.Faulted.trace = trace_json c.Scenarios.Faulted.trace);
  (* The seed-42 trace, one JSON line per event, pinned by digest: any
     change to what the log records, or to its order, shows up here. *)
  let pinned = Scenarios.Faulted.run ~seed:42 () in
  let lines =
    List.map
      (fun e -> Obs.Json.to_string (Bgp.Trace.event_to_json e))
      pinned.Scenarios.Faulted.trace
  in
  check_int "pinned trace length" 451 (List.length lines);
  Alcotest.(check string) "pinned trace digest" "a01e40c03a7ff3efd1479262c37f03dd"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_faulted_exercises_faults () =
  let r = Scenarios.Faulted.run ~seed:3 ~profile:Dsim.Fault.heavy () in
  check_bool "schedule nonempty" true (r.Scenarios.Faulted.schedule <> []);
  check_bool "speaker restarted" true (r.Scenarios.Faulted.speaker_restarts >= 1);
  check_bool "messages were dropped" true
    (r.Scenarios.Faulted.messages_dropped > 0)

let test_faulted_clean_profile_no_violations () =
  (* With a transparent fault profile and no scheduled faults the run is an
     ordinary convergence; the monitor must observe nothing and the final
     check must come back clean. *)
  let r =
    Scenarios.Faulted.run ~seed:5 ~profile:Dsim.Fault.none ~flaps:0
      ~restarts:0 ()
  in
  check_int "no drops" 0 r.Scenarios.Faulted.messages_dropped;
  (* Mid-convergence blackholes are expected transients (routes are still
     propagating); what must never appear, even transiently, is internal
     inconsistency of a speaker. *)
  check_int "no inconsistency transients" 0
    (List.length
       (List.filter
          (fun (_, kind) ->
            kind = "unstable" || kind = "rib-inconsistency"
            || kind = "dead-next-hop")
          r.Scenarios.Faulted.transient_violations));
  check_int "no final violations" 0
    (List.length r.Scenarios.Faulted.final_violations)

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "scenarios"
    [
      ( "paper-figures",
        [
          slow "fig2 first router" test_fig2_first_router;
          slow "fig4 last router" test_fig4_last_router;
          slow "fig5 nhg explosion" test_fig5_nhg_explosion;
          slow "fig9 dissemination rule" test_fig9_dissemination_rule;
          slow "fig10 deployment sequencing" test_fig10_deployment_sequencing;
          slow "fig14 sev" test_fig14_sev;
          slow "fig13 te ordering" test_fig13_te_ordering;
          slow "fig4 threshold sweep" test_fig4_threshold_sweep_monotone;
          slow "fig13 quantization sweep" test_fig13_quantization_sweep;
          slow "deterministic" test_scenarios_deterministic;
        ] );
      ( "fault-injection",
        [
          slow "bit-deterministic from seed" test_faulted_deterministic;
          slow "faults actually fire" test_faulted_exercises_faults;
          slow "clean profile, zero violations"
            test_faulted_clean_profile_no_violations;
        ] );
    ]
