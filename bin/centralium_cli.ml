(* The centralium command-line tool: inspect topologies, print generated
   RPAs, and run the paper's scenario simulations from the shell.

   dune exec bin/centralium_cli.exe -- <command> ... *)

open Cmdliner

let pf = Printf.printf

(* ---------------- topology ---------------- *)

let topology_cmd =
  let run name pods rsws =
    (match name with
     | "fabric" ->
       let f = Topology.Clos.fabric ~pods ~rsws_per_pod:rsws () in
       pf "fabric: %s\n"
         (Format.asprintf "%a" Topology.Graph.pp_stats f.Topology.Clos.graph);
       List.iter
         (fun layer ->
           pf "  %-5s %d switches\n"
             (Topology.Node.layer_to_string layer)
             (List.length (Topology.Graph.by_layer f.Topology.Clos.graph layer)))
         (Topology.Graph.layers f.Topology.Clos.graph)
     | "expansion" ->
       let x = Topology.Clos.expansion () in
       pf "expansion: %s\n"
         (Format.asprintf "%a" Topology.Graph.pp_stats x.Topology.Clos.xgraph)
     | "decommission" ->
       let d = Topology.Clos.decommission () in
       pf "decommission: %s\n"
         (Format.asprintf "%a" Topology.Graph.pp_stats d.Topology.Clos.dgraph)
     | "wcmp" ->
       let w = Topology.Clos.wcmp_convergence () in
       pf "wcmp-convergence: %s\n"
         (Format.asprintf "%a" Topology.Graph.pp_stats w.Topology.Clos.wgraph)
     | "rollout" ->
       let r = Topology.Clos.rollout () in
       pf "rollout: %s\n"
         (Format.asprintf "%a" Topology.Graph.pp_stats r.Topology.Clos.rgraph)
     | "sev" ->
       let s = Topology.Clos.sev () in
       pf "sev: %s\n"
         (Format.asprintf "%a" Topology.Graph.pp_stats s.Topology.Clos.sgraph)
     | other -> pf "unknown topology %S\n" other);
    0
  in
  let name_arg =
    Arg.(
      value
      & pos 0 string "fabric"
      & info [] ~docv:"NAME"
          ~doc:"fabric | expansion | decommission | wcmp | rollout | sev")
  in
  let pods = Arg.(value & opt int 4 & info [ "pods" ] ~doc:"pods (fabric)") in
  let rsws =
    Arg.(value & opt int 4 & info [ "rsws" ] ~doc:"RSWs per pod (fabric)")
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Build and describe one of the paper's topologies")
    Term.(const run $ name_arg $ pods $ rsws)

(* ---------------- rpa ---------------- *)

let rpa_cmd =
  let run kind =
    let destination = Centralium.Destination.backbone_default in
    let asn = Net.Asn.of_int 65000 in
    let rpa =
      match kind with
      | "equalize" ->
        Some
          (Centralium.Apps.Path_equalize.rpa ~destination ~origin_asn:asn
             ~via:[ Net.Asn.of_int 64513; Net.Asn.of_int 64514 ])
      | "guard" ->
        Some
          (Centralium.Apps.Min_next_hop_guard.rpa ~destination
             ~threshold:(Centralium.Path_selection.Fraction 0.75)
             ~keep_fib_warm:true)
      | "backup" ->
        Some
          (Centralium.Apps.Backup_preference.rpa ~destination
             ~primary:(Centralium.Signature.make ~neighbor_asn:(Net.Asn.of_int 64513) ())
             ~primary_min_next_hop:(Centralium.Path_selection.Count 2)
             ~backup:(Centralium.Signature.make ~neighbor_asn:(Net.Asn.of_int 64514) ())
             ())
      | "filter" ->
        Some
          (Centralium.Apps.Boundary_filter.rpa ~peer_layers:[ Topology.Node.Eb ]
             ~allowed:
               [
                 Centralium.Route_filter.prefix_rule ~max_mask_length:16
                   (Net.Prefix.of_string_exn "10.0.0.0/8");
               ])
      | "freeze" ->
        Some
          (Centralium.Apps.Wcmp_freeze.rpa ~destination ~live_weight:8
             ~drained_signature:
               (Centralium.Signature.make
                  ~communities:[ Net.Community.Well_known.drained ]
                  ())
             ())
      | _ -> None
    in
    match rpa with
    | Some rpa ->
      List.iter print_endline (Centralium.Rpa.config_lines rpa);
      pf "-- %d lines, %d statement(s)\n" (Centralium.Rpa.loc rpa)
        (Centralium.Rpa.statement_count rpa);
      0
    | None ->
      pf "unknown RPA kind; use equalize | guard | backup | filter | freeze\n";
      1
  in
  let kind =
    Arg.(
      value & pos 0 string "equalize"
      & info [] ~docv:"KIND" ~doc:"equalize | guard | backup | filter | freeze")
  in
  Cmd.v
    (Cmd.info "rpa" ~doc:"Print a generated RPA in the paper's Figure 7 syntax")
    Term.(const run $ kind)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let run scenario seed =
    (match scenario with
     | "fig2" ->
       let r = Experiments.Scenarios.Fig2.run ~seed () in
       pf "native FAv2 share: %.0f%%; with RPA: %.0f%% (balanced %.0f%%)\n"
         (100.0 *. r.Experiments.Scenarios.Fig2.native_fav2_share)
         (100.0 *. r.rpa_fav2_share) (100.0 *. r.balanced_share)
     | "fig4" ->
       let r = Experiments.Scenarios.Fig4.run ~seed () in
       pf "worst transient funnel: native %.1f%%, with guard %.1f%% (steady %.1f%%)\n"
         (100.0 *. r.Experiments.Scenarios.Fig4.native_worst_funnel)
         (100.0 *. r.rpa_worst_funnel) (100.0 *. r.steady_share)
     | "fig5" ->
       let r = Experiments.Scenarios.Fig5.run ~seed () in
       pf "peak DU next-hop groups: native %d, with RPA %d (bound %d)\n"
         r.Experiments.Scenarios.Fig5.du_nhg_native r.du_nhg_rpa
         r.theoretical_bound
     | "fig9" ->
       let r = Experiments.Scenarios.Fig9.run ~seed () in
       pf "loops: best-path %d, rule %d; circulating volume %.2f vs %.2f\n"
         (List.length r.Experiments.Scenarios.Fig9.loops_with_best_advertised)
         (List.length r.loops_with_rule)
         r.circulating_bad r.circulating_good
     | "fig10" ->
       let r = Experiments.Scenarios.Fig10.run ~seed () in
       pf "worst FA share: uncoordinated %.0f%%, safe order %.0f%%\n"
         (100.0 *. r.Experiments.Scenarios.Fig10.funnel_top_down)
         (100.0 *. r.funnel_bottom_up)
     | "fig13" ->
       let r = Experiments.Scenarios.Fig13.run ~seed () in
       pf "capacity vs ideal: RPA-TE %.1f%%, ECMP %.1f%%; unblocked %.0f%%\n"
         (100.0 *. r.Experiments.Scenarios.Fig13.mean_rpa_over_ideal)
         (100.0 *. r.mean_ecmp_over_ideal)
         (100.0 *. r.unblocked_fraction)
     | "fig14" ->
       let r = Experiments.Scenarios.Fig14.run ~seed () in
       pf "black-holed: knob on %.0f%%, knob off %.0f%%\n"
         (100.0 *. r.Experiments.Scenarios.Fig14.blackholed_with_knob)
         (100.0 *. r.blackholed_without_knob)
     | "faulted" ->
       let r = Experiments.Scenarios.Faulted.run ~seed () in
       pf "fault schedule:\n";
       List.iter
         (fun a ->
           pf "  %s\n" (Format.asprintf "%a" Dsim.Fault.pp_action a))
         r.Experiments.Scenarios.Faulted.schedule;
       pf "events %d, dropped %d, restarts %d\n" r.events_executed
         r.messages_dropped r.speaker_restarts;
       pf "transient violations: %d" (List.length r.transient_violations);
       List.iter (fun (t, kind) -> pf " [%.3fs %s]" t kind)
         r.transient_violations;
       pf "\nfinal violations: %d" (List.length r.final_violations);
       List.iter (fun (_, _, kind) -> pf " [%s]" kind) r.final_violations;
       pf "\n"
     | other ->
       pf "unknown scenario %S (fig2 fig4 fig5 fig9 fig10 fig13 fig14 faulted)\n"
         other);
    0
  in
  let scenario =
    Arg.(
      value & pos 0 string "fig2"
      & info [] ~docv:"SCENARIO"
          ~doc:"fig2 | fig4 | fig5 | fig9 | fig10 | fig13 | fig14 | faulted")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"simulation seed")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one of the paper's scenario simulations")
    Term.(const run $ scenario $ seed)

(* ---------------- table3 ---------------- *)

let table3_cmd =
  let run () =
    pf "%-4s %8s %7s %9s %8s %8s\n" "" "#Steps" "#Steps" "#Days" "#Days" "RPA";
    pf "%-4s %8s %7s %9s %8s %8s\n" "" "w/o RPA" "w RPA" "w/o RPA" "w/ RPA" "LOC";
    List.iter
      (fun row ->
        let days plan =
          let d = Planner.duration_days plan in
          if d < 1.0 then "<1" else Printf.sprintf "%.0f" d
        in
        pf "(%s) %8d %7d %9s %8s %8d\n"
          (Topology.Migration.category_letter row.Planner.category)
          (Planner.step_count row.Planner.without_rpa)
          (Planner.step_count row.Planner.with_rpa)
          (days row.Planner.without_rpa)
          (days row.Planner.with_rpa)
          row.Planner.rpa_loc)
      (Planner.table3 ());
    0
  in
  Cmd.v
    (Cmd.info "table3" ~doc:"Print the operational-efficiency comparison (Table 3)")
    Term.(const run $ const ())

(* ---------------- parse ---------------- *)

let parse_cmd =
  let run file =
    let source =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_text file In_channel.input_all
    in
    match Centralium.Rpa_parser.parse source with
    | Ok rpa ->
      pf "parsed OK: %d statement(s), %d line(s) canonical form\n"
        (Centralium.Rpa.statement_count rpa)
        (Centralium.Rpa.loc rpa);
      List.iter print_endline (Centralium.Rpa.config_lines rpa);
      0
    | Error e ->
      Printf.eprintf "parse error: %s\n" e;
      1
  in
  let file =
    Arg.(
      value & pos 0 string "-"
      & info [] ~docv:"FILE" ~doc:"RPA configuration file ('-' for stdin)")
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:"Parse and validate an RPA configuration file, printing its \
             canonical form")
    Term.(const run $ file)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let module D = Analysis.Diagnostic in
  let print_human diags =
    List.iter (fun d -> print_endline (D.to_human d)) (D.sort diags)
  in
  let run_file file json =
    let source =
      if file = "-" then In_channel.input_all stdin
      else In_channel.with_open_text file In_channel.input_all
    in
    match Centralium.Rpa_parser.parse_located source with
    | Error e ->
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj [ ("parse-error", Obs.Json.String e) ]))
      else Printf.eprintf "parse error: %s\n" e;
      1
    | Ok (rpa, positions) ->
      let diags = Analysis.Lint.check_rpa ~positions rpa in
      if json then print_endline (Obs.Json.to_string (D.report_json diags))
      else begin
        print_human diags;
        pf "%d finding(s), %d error(s)\n" (List.length diags)
          (List.length (List.filter (fun d -> d.D.severity = D.Error) diags))
      end;
      if D.has_errors diags then 1 else 0
  in
  let run_suite seed json =
    let specs = Centralium.Verification.standard_suite ~seed () in
    let results =
      List.map
        (fun spec ->
          let net, plan, _ = spec.Centralium.Verification.build () in
          let diags =
            Analysis.Lint.check_plan (Bgp.Network.graph net) plan
          in
          (spec.Centralium.Verification.spec_name, diags))
        specs
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ( "suite",
                  Obs.Json.List
                    (List.map
                       (fun (name, diags) ->
                         Obs.Json.Obj
                           [
                             ("spec", Obs.Json.String name);
                             ("report", D.report_json diags);
                           ])
                       results) );
              ]))
    else
      List.iter
        (fun (name, diags) ->
          pf "%s: %d finding(s)\n" name (List.length diags);
          print_human diags)
        results;
    if List.exists (fun (_, diags) -> D.has_errors diags) results then 1
    else 0
  in
  let run_selftest json =
    let results = Analysis.Corpus.run () in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ( "selftest",
                  Obs.Json.List
                    (List.map
                       (fun r ->
                         Obs.Json.Obj
                           [
                             ("case", Obs.Json.String r.Analysis.Corpus.r_case);
                             ( "expect",
                               Obs.Json.String
                                 (D.code_to_string r.Analysis.Corpus.r_expect)
                             );
                             ( "detected",
                               Obs.Json.Bool r.Analysis.Corpus.r_detected );
                           ])
                       results) );
              ]))
    else
      List.iter
        (fun r ->
          pf "%-45s %s  [%s]\n" r.Analysis.Corpus.r_case
            (D.code_to_string r.Analysis.Corpus.r_expect)
            (if r.Analysis.Corpus.r_detected then "detected" else "MISSED"))
        results;
    if Analysis.Corpus.all_detected results then 0 else 1
  in
  let run file suite selftest json seed =
    if selftest then run_selftest json
    else if suite then run_suite seed json
    else run_file file json
  in
  let file =
    Arg.(
      value & pos 0 string "-"
      & info [] ~docv:"FILE" ~doc:"RPA configuration file ('-' for stdin)")
  in
  let suite =
    Arg.(
      value & flag
      & info [ "suite" ]
          ~doc:"lint every plan of the standard qualification suite instead \
                of a file")
  in
  let selftest =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:"run the analyzer over the seeded defect corpus and check \
                every defect class is caught")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"machine-readable output (stable field order)")
  in
  let seed =
    Arg.(
      value & opt int 31
      & info [ "seed" ] ~doc:"base network seed for --suite plan building")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze RPA configuration or deployment plans \
             without constructing a BGP network; non-zero exit on \
             error-severity findings")
    Term.(const run $ file $ suite $ selftest $ json $ seed)

(* ---------------- verify-plan ---------------- *)

let verify_plan_cmd =
  let module D = Analysis.Diagnostic in
  let module PV = Analysis.Phase_verifier in
  let print_human report =
    List.iter
      (fun d -> print_endline (D.to_human d))
      report.PV.vr_diagnostics;
    pf "%d class(es), %d state(s), %d compiled, %d reused, %d violation(s)\n"
      report.PV.vr_classes report.PV.vr_states report.PV.vr_compiled
      report.PV.vr_reused
      (List.length report.PV.vr_violations)
  in
  let has_errors report =
    List.exists (fun d -> d.D.severity = D.Error) report.PV.vr_diagnostics
  in
  let run_suite seed json no_frontiers =
    let specs = Centralium.Verification.standard_suite ~seed () in
    let results =
      List.map
        (fun spec ->
          let net, plan, _ = spec.Centralium.Verification.build () in
          let report = PV.verify_network ~frontiers:(not no_frontiers) net plan in
          (spec.Centralium.Verification.spec_name, report))
        specs
    in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ( "suite",
                  Obs.Json.List
                    (List.map
                       (fun (name, report) ->
                         Obs.Json.Obj
                           [
                             ("spec", Obs.Json.String name);
                             ("verify", PV.report_json report);
                           ])
                       results) );
              ]))
    else
      List.iter
        (fun (name, report) ->
          pf "%s:\n" name;
          print_human report)
        results;
    if List.exists (fun (_, r) -> has_errors r) results then 1 else 0
  in
  let run_selftest json =
    let results = Analysis.Corpus.run_verifier () in
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ( "selftest",
                  Obs.Json.List
                    (List.map
                       (fun r ->
                         Obs.Json.Obj
                           [
                             ("case", Obs.Json.String r.Analysis.Corpus.r_case);
                             ( "expect",
                               Obs.Json.String
                                 (D.code_to_string r.Analysis.Corpus.r_expect)
                             );
                             ( "detected",
                               Obs.Json.Bool r.Analysis.Corpus.r_detected );
                           ])
                       results) );
              ]))
    else
      List.iter
        (fun r ->
          pf "%-45s %s  [%s]\n" r.Analysis.Corpus.r_case
            (D.code_to_string r.Analysis.Corpus.r_expect)
            (if r.Analysis.Corpus.r_detected then "detected" else "MISSED"))
        results;
    if Analysis.Corpus.all_detected results then 0 else 1
  in
  let run selftest json seed no_frontiers =
    if selftest then run_selftest json else run_suite seed json no_frontiers
  in
  let selftest =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:"run the verifier over the planted-defect corpus (forwarding \
                loop, frontier blackhole, reachability loss) and check every \
                plant is caught")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"machine-readable output (stable field order, byte-identical \
                across runs)")
  in
  let seed =
    Arg.(
      value & opt int 31
      & info [ "seed" ] ~doc:"base network seed for suite plan building")
  in
  let no_frontiers =
    Arg.(
      value & flag
      & info [ "no-frontiers" ]
          ~doc:"check phase boundaries only, skipping the per-device mixed \
                frontier states inside each phase")
  in
  Cmd.v
    (Cmd.info "verify-plan"
       ~doc:"Symbolically prove deployment plans loop- and blackhole-free \
             across every phase boundary and mixed frontier, without \
             running the simulator; non-zero exit on violations")
    Term.(const run $ selftest $ json $ seed $ no_frontiers)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let run seed =
    let outcomes =
      Centralium.Verification.qualify_all
        (Centralium.Verification.standard_suite ~seed ())
    in
    List.iter
      (fun o -> Format.printf "%a@." Centralium.Verification.pp_outcome o)
      outcomes;
    if List.for_all Centralium.Verification.passed outcomes then 0 else 1
  in
  let seed =
    Arg.(
      value & opt int 31
      & info [ "seed" ]
          ~doc:"base network seed for the emulations (each spec offsets it)")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the pre-deployment qualification suite (Section 7.1) on \
             reduced-scale emulated networks")
    Term.(const run $ seed)

(* ---------------- observe ---------------- *)

let observe_cmd =
  let run scenario seed out =
    let oc = open_out out in
    let result =
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Experiments.Observe.run ~seed ~scenario
            ~write:(fun line ->
              output_string oc line;
              output_char oc '\n')
            ())
    in
    match result with
    | Error e ->
      Printf.eprintf "observe: %s\n" e;
      1
    | Ok s ->
      pf "wrote %s: %d lines (%d events, %d spans%s)\n" out
        s.Experiments.Observe.lines s.events s.spans
        (if s.dropped_spans > 0 then
           Printf.sprintf ", %d spans dropped" s.dropped_spans
         else "");
      pf "%-28s %s\n" "figure" "value";
      List.iter
        (fun (k, v) -> pf "%-28s %s\n" k (Obs.Json.to_string v))
        s.headline;
      0
  in
  let scenario =
    Arg.(
      value & pos 0 string "faulted"
      & info [] ~docv:"SCENARIO"
          ~doc:
            "fig2 | fig4 | fig5 | fig9 | fig10 | fig13 | fig14 | faulted | \
             faulted_deploy")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"simulation seed")
  in
  let out =
    Arg.(
      value & opt string "run.jsonl"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"output JSONL file")
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:"Replay a scenario under full instrumentation and export the \
             run (manifest, trace events, spans, metrics) as JSONL")
    Term.(const run $ scenario $ seed $ out)

(* ---------------- chaos ---------------- *)

(* Data-plane chaos sweep: session liveness + graceful restart under the
   severe message-fault profile, with blackhole-seconds accounting
   (ISSUE: `centralium chaos --gr on|off|both`). *)
let chaos_gr_sweep seeds base_seed gr_mode out =
  let mode_line seed (m : Experiments.Scenarios.Chaos.mode_result) ok =
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "chaos_gr_seed");
        ("seed", Obs.Json.Int seed);
        ("gr", Obs.Json.Bool m.gr);
        ("ok", Obs.Json.Bool ok);
        ("blackhole_seconds", Obs.Json.Float m.blackhole_seconds);
        ("loss_seconds", Obs.Json.Float m.loss_seconds);
        ("window", Obs.Json.Float m.window);
        ("messages_dropped", Obs.Json.Int m.messages_dropped);
        ("keepalives_sent", Obs.Json.Int m.keepalives_sent);
        ("hold_expiries", Obs.Json.Int m.hold_expiries);
        ("reconnects", Obs.Json.Int m.reconnects);
        ("stale_sweeps", Obs.Json.Int m.stale_sweeps);
        ("speaker_restarts", Obs.Json.Int m.speaker_restarts);
        ( "transient_violations",
          Obs.Json.Int (List.length m.transient_violations) );
        ("final_violations", Obs.Json.Int (List.length m.final_violations));
        ("fib_digest", Obs.Json.String m.fib_digest);
      ]
  in
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let failures = ref 0 in
      let emit line =
        output_string oc (Obs.Json.to_string line);
        output_char oc '\n'
      in
      for k = 0 to seeds - 1 do
        let seed = base_seed + k in
        match gr_mode with
        | `Both ->
          let r = Experiments.Scenarios.Chaos.run ~seed () in
          let on = r.Experiments.Scenarios.Chaos.gr_on
          and off = r.Experiments.Scenarios.Chaos.gr_off in
          let clean (m : Experiments.Scenarios.Chaos.mode_result) =
            m.final_violations = []
          in
          let ok =
            r.Experiments.Scenarios.Chaos.gr_wins && clean on && clean off
          in
          if not ok then incr failures;
          pf
            "seed %d: %s — blackhole-seconds GR on %.6f vs off %.6f \
             (loss %.6f vs %.6f), final violations %d/%d\n"
            seed
            (if ok then "OK" else "FAIL")
            on.blackhole_seconds off.blackhole_seconds on.loss_seconds
            off.loss_seconds
            (List.length on.final_violations)
            (List.length off.final_violations);
          emit (mode_line seed on ok);
          emit (mode_line seed off ok)
        | `One gr ->
          let m = Experiments.Scenarios.Chaos.run_mode ~seed ~gr () in
          let ok = m.Experiments.Scenarios.Chaos.final_violations = [] in
          if not ok then incr failures;
          pf
            "seed %d: %s — gr=%b blackhole-seconds %.6f loss-seconds %.6f \
             (hold expiries %d, stale sweeps %d, final violations %d)\n"
            seed
            (if ok then "OK" else "FAIL")
            gr m.blackhole_seconds m.loss_seconds m.hold_expiries
            m.stale_sweeps
            (List.length m.final_violations)
      done;
      if !failures > 0 then begin
        pf "chaos: %d/%d seeds FAILED (details in %s)\n" !failures seeds out;
        1
      end
      else begin
        (match gr_mode with
         | `Both ->
           pf
             "chaos: all %d seeds quiesced violation-free with graceful \
              restart strictly reducing blackhole-seconds (%s)\n"
             seeds out
         | `One _ ->
           pf "chaos: all %d seeds quiesced violation-free (%s)\n" seeds out);
        0
      end)

(* Runs [k] on the management-plane fault profile [name] names; an
   unknown name prints the error line for command [cmd] and exits 1. *)
let with_mgmt_profile cmd name k =
  match name with
  | "none" -> k Dsim.Mgmt_fault.none
  | "flaky" -> k Dsim.Mgmt_fault.flaky
  | "hostile" -> k Dsim.Mgmt_fault.hostile
  | _ ->
    Printf.eprintf "%s: unknown profile %S (none | flaky | hostile)\n" cmd name;
    1

(* Controller HA failover sweep: kill the leader mid-rollout at a
   per-seed phase offset, let a standby take over from the journal under
   a higher fencing epoch, and assert bit-identical convergence plus a
   clean dual-leader / stale-epoch-write audit
   (ISSUE: `centralium chaos --ha`). *)
let chaos_ha_sweep seeds base_seed profile_name members crash_at out =
  with_mgmt_profile "chaos" profile_name @@ fun profile ->
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let failures = ref 0 in
      for k = 0 to seeds - 1 do
        let seed = base_seed + k in
        (* Stagger the kill across seeds so the sweep exercises crashes
           at different phase offsets of the same rollout. *)
        let offset = crash_at +. (0.007 *. float_of_int k) in
        let c =
          Experiments.Scenarios.Failover.crash_vs_uninterrupted ~seed
            ~profile ~members ~leader_crash_offsets:[ offset ] ()
        in
        let i = c.Experiments.Scenarios.Failover.interrupted in
        let u = c.Experiments.Scenarios.Failover.uninterrupted in
        let violations (r : Experiments.Scenarios.Failover.result) =
          List.length r.ha_violations
          + List.length r.phase_violations
          + List.length r.final_violations
        in
        let ok =
          c.Experiments.Scenarios.Failover.digests_match
          && i.outcome = "completed"
          && u.outcome = "completed"
          && i.elections >= 2 (* the kill forced a real takeover *)
          && violations i = 0 && violations u = 0
        in
        if not ok then incr failures;
        pf
          "seed %d: %s — crash@%.0fms: %s by member %s after %d \
           elections (takeover %s ms), uninterrupted %s, violations \
           %d/%d, digests %s\n"
          seed
          (if ok then "OK" else "FAIL")
          (offset *. 1000.) i.outcome
          (match i.completed_by with
           | Some m -> string_of_int m
           | None -> "-")
          i.elections
          (String.concat ","
             (List.map (Printf.sprintf "%.1f") i.takeover_ms))
          u.outcome (violations i) (violations u)
          (if c.Experiments.Scenarios.Failover.digests_match then "match"
           else "DIFFER");
        let line =
          Obs.Json.Obj
            [
              ("type", Obs.Json.String "chaos_ha_seed");
              ("seed", Obs.Json.Int seed);
              ("ok", Obs.Json.Bool ok);
              ("profile", Obs.Json.String profile_name);
              ("members", Obs.Json.Int members);
              ("crash_at_s", Obs.Json.Float offset);
              ("interrupted_outcome", Obs.Json.String i.outcome);
              ("uninterrupted_outcome", Obs.Json.String u.outcome);
              ( "completed_by",
                match i.completed_by with
                | Some m -> Obs.Json.Int m
                | None -> Obs.Json.Null );
              ("elections", Obs.Json.Int i.elections);
              ( "takeover_ms",
                Obs.Json.List
                  (List.map (fun t -> Obs.Json.Float t) i.takeover_ms) );
              ("fenced_attempts", Obs.Json.Int i.fenced_attempts);
              ("dead_members", Obs.Json.Int i.dead_members);
              ("applied", Obs.Json.Int i.applied);
              ("skipped_in_sync", Obs.Json.Int i.skipped_in_sync);
              ( "journal_status",
                match i.journal_status with
                | Some s -> Obs.Json.String s
                | None -> Obs.Json.Null );
              ("ha_violations", Obs.Json.Int (List.length i.ha_violations));
              ("violations_interrupted", Obs.Json.Int (violations i));
              ("violations_uninterrupted", Obs.Json.Int (violations u));
              ( "digests_match",
                Obs.Json.Bool c.Experiments.Scenarios.Failover.digests_match
              );
              ("fib_digest", Obs.Json.String i.fib_digest);
            ]
        in
        output_string oc (Obs.Json.to_string line);
        output_char oc '\n'
      done;
      if !failures > 0 then begin
        pf "chaos --ha: %d/%d seeds FAILED (details in %s)\n" !failures
          seeds out;
        1
      end
      else begin
        pf
          "chaos --ha: all %d seeds failed over deterministically — \
           standby takeovers, bit-identical forwarding state, zero \
           dual-leader/stale-epoch violations (%s)\n"
          seeds out;
        0
      end)

let chaos_cmd =
  let run seeds base_seed profile_name crash_after gr ha members crash_at out =
    if ha then chaos_ha_sweep seeds base_seed profile_name members crash_at out
    else
    match gr with
    | Some mode ->
      (match mode with
       | "on" -> chaos_gr_sweep seeds base_seed (`One true) out
       | "off" -> chaos_gr_sweep seeds base_seed (`One false) out
       | "both" -> chaos_gr_sweep seeds base_seed `Both out
       | _ ->
         Printf.eprintf "chaos: unknown --gr mode %S (on | off | both)\n" mode;
         1)
    | None ->
    with_mgmt_profile "chaos" profile_name @@ fun profile ->
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let failures = ref 0 in
        for k = 0 to seeds - 1 do
          let seed = base_seed + k in
          let c =
            Experiments.Scenarios.Faulted_deploy.crash_vs_uninterrupted ~seed
              ~profile ?crash_after_ops:crash_after ()
          in
          let i = c.Experiments.Scenarios.Faulted_deploy.interrupted in
          let u = c.Experiments.Scenarios.Faulted_deploy.uninterrupted in
          let violations (r : Experiments.Scenarios.Faulted_deploy.result) =
            List.length r.transient_violations
            + List.length r.phase_violations
            + List.length r.final_violations
          in
          let ok =
            c.Experiments.Scenarios.Faulted_deploy.digests_match && i.crashed
            && i.resumed
            && i.outcome = "completed"
            && u.outcome = "completed"
            && violations i = 0 && violations u = 0
          in
          if not ok then incr failures;
          pf
            "seed %d: %s — crash+resume %s (applied %d, retries %d, \
             backoffs %d), uninterrupted %s, violations %d/%d, digests %s\n"
            seed
            (if ok then "OK" else "FAIL")
            i.outcome i.applied i.retries
            (List.length i.backoff_seconds)
            u.outcome (violations i) (violations u)
            (if c.Experiments.Scenarios.Faulted_deploy.digests_match then
               "match"
             else "DIFFER");
          let line =
            Obs.Json.Obj
              [
                ("type", Obs.Json.String "chaos_seed");
                ("seed", Obs.Json.Int seed);
                ("ok", Obs.Json.Bool ok);
                ("profile", Obs.Json.String profile_name);
                ("interrupted_outcome", Obs.Json.String i.outcome);
                ("uninterrupted_outcome", Obs.Json.String u.outcome);
                ("crashed", Obs.Json.Bool i.crashed);
                ("resumed", Obs.Json.Bool i.resumed);
                ("applied", Obs.Json.Int i.applied);
                ("retries", Obs.Json.Int i.retries);
                ("backoffs", Obs.Json.Int (List.length i.backoff_seconds));
                ("gave_up", Obs.Json.Int (List.length i.gave_up));
                ("violations_interrupted", Obs.Json.Int (violations i));
                ("violations_uninterrupted", Obs.Json.Int (violations u));
                ( "digests_match",
                  Obs.Json.Bool
                    c.Experiments.Scenarios.Faulted_deploy.digests_match );
                ("fib_digest", Obs.Json.String i.fib_digest);
              ]
          in
          output_string oc (Obs.Json.to_string line);
          output_char oc '\n'
        done;
        if !failures > 0 then begin
          pf "chaos: %d/%d seeds FAILED (details in %s)\n" !failures seeds
            out;
          1
        end
        else begin
          pf
            "chaos: all %d seeds converged bit-identically through \
             crash+resume with zero invariant violations (%s)\n"
            seeds out;
          0
        end)
  in
  let seeds =
    Arg.(value & opt int 3 & info [ "seeds" ] ~doc:"number of seeds to sweep")
  in
  let base_seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"first seed of the sweep")
  in
  let profile =
    Arg.(
      value & opt string "flaky"
      & info [ "profile" ]
          ~doc:"management-plane fault profile: none | flaky | hostile")
  in
  let crash_after =
    Arg.(
      value & opt (some int) None
      & info [ "crash-after" ]
          ~docv:"OPS"
          ~doc:
            "crash the controller after OPS management operations (default: \
             mid-flight of the first phase)")
  in
  let gr =
    Arg.(
      value & opt (some string) None
      & info [ "gr" ] ~docv:"MODE"
          ~doc:
            "switch to the data-plane chaos sweep (session liveness under \
             the severe message-fault profile, blackhole-seconds \
             accounting) with graceful restart $(docv): on | off | both. \
             With 'both' each seed runs both modes and the sweep fails \
             unless graceful restart strictly reduces blackhole-seconds \
             and both modes quiesce violation-free. Ignores --profile and \
             --crash-after.")
  in
  let ha =
    Arg.(
      value & flag
      & info [ "ha" ]
          ~doc:
            "switch to the controller-failover sweep: a $(b,--members)-way \
             lease-elected controller cluster deploys the expansion plan, \
             the leader is killed mid-rollout (at $(b,--crash-at) plus a \
             per-seed stagger), and the sweep fails unless every standby \
             takeover converges bit-identically to the uninterrupted run \
             with zero dual-leader / stale-epoch-write violations. \
             Ignores --gr and --crash-after.")
  in
  let members =
    Arg.(
      value & opt int 3
      & info [ "members" ] ~doc:"controller cluster size for --ha")
  in
  let crash_at =
    Arg.(
      value & opt float 0.02
      & info [ "crash-at" ] ~docv:"SECONDS"
          ~doc:
            "base leader-kill offset for --ha, seconds after cluster \
             start (each seed adds its own stagger)")
  in
  let out =
    Arg.(
      value & opt string "chaos.jsonl"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"output JSONL file")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep seeds of a chaos scenario. Default: the faulted-deploy \
          scenario — deploy under management-plane chaos, crash the \
          controller mid-rollout, resume from the NSDB journal, and assert \
          bit-identical convergence with zero invariant violations. With \
          --gr: the data-plane scenario — converge under severe message \
          faults and speaker restarts with session liveness timers, and \
          account blackhole-seconds with graceful restart on/off. With \
          --ha: the controller-failover scenario — a lease-elected \
          controller cluster loses its leader mid-rollout at a per-seed \
          phase offset; a standby must take over under a higher fencing \
          epoch and converge bit-identically with a clean \
          dual-leader/stale-epoch audit")
    Term.(
      const run $ seeds $ base_seed $ profile $ crash_after $ gr $ ha
      $ members $ crash_at $ out)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let run scenario seed prefix_s gr_s format out =
    match Net.Prefix.of_string prefix_s with
    | Error e ->
      Printf.eprintf "trace: bad --prefix %S: %s\n" prefix_s e;
      1
    | Ok prefix ->
      (match
         match gr_s with
         | "on" -> Some true
         | "off" -> Some false
         | _ -> None
       with
       | None ->
         Printf.eprintf "trace: unknown --gr mode %S (on | off)\n" gr_s;
         1
       | Some gr ->
         let format =
           match format with
           | `Human -> Experiments.Trace_run.Human
           | `Json -> Experiments.Trace_run.Json
           | `Perfetto -> Experiments.Trace_run.Perfetto
         in
         let with_sink k =
           match out with
           | None -> k print_string
           | Some path ->
             let oc = open_out path in
             Fun.protect
               ~finally:(fun () -> close_out_noerr oc)
               (fun () -> k (output_string oc))
         in
         let result =
           with_sink (fun write ->
               Experiments.Trace_run.run ~seed ~gr ~prefix ~scenario ~format
                 ~write ())
         in
         (match result with
          | Error e ->
            Printf.eprintf "trace: %s\n" e;
            1
          | Ok s ->
            (match out with
             | Some path -> pf "wrote %s\n" path
             | None -> ());
            pf
              "trace: scenario=%s seed=%d prefix=%s — %d causal events, \
               critical path %s%s\n"
              s.Experiments.Trace_run.scenario s.seed s.prefix s.causal_events
              (match s.convergence_s with
               | Some t ->
                 Printf.sprintf "%d events / %.6fs" s.critical_events t
               | None -> "(none)")
              (if s.attributed_segments > 0 then
                 Printf.sprintf
                   ", %.6f of %.6f blackhole-seconds attributed over %d \
                    segments"
                   s.attributed_seconds s.blackhole_seconds
                   s.attributed_segments
               else "");
            0))
  in
  let scenario =
    Arg.(
      value & pos 0 string "chaos"
      & info [] ~docv:"SCENARIO"
          ~doc:"converge | chaos (default chaos)")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"simulation seed")
  in
  let prefix =
    Arg.(
      value & opt string "0.0.0.0/0"
      & info [ "prefix" ] ~docv:"PREFIX"
          ~doc:"prefix to trace (default: the default route)")
  in
  let gr =
    Arg.(
      value & opt string "on"
      & info [ "gr" ] ~docv:"MODE"
          ~doc:"graceful-restart mode for the chaos scenario (on | off)")
  in
  let format =
    Arg.(
      value
      & vflag `Human
          [
            ( `Json,
              info [ "json" ]
                ~doc:
                  "emit the full causal DAG, critical path, and blackhole \
                   attribution as one JSON document (deterministic at a \
                   given seed)" );
            ( `Perfetto,
              info [ "perfetto" ]
                ~doc:
                  "emit a Perfetto / Chrome trace-event JSON file of the \
                   span tree and causal DAG (open in ui.perfetto.dev)" );
          ])
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"write the trace to FILE instead of stdout")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a scenario under the causal trace-context layer and print \
          the traced prefix's provenance: the convergence critical path \
          (per-edge delays summing to the convergence time) and, for the \
          chaos scenario, the blackhole attribution joining loss intervals \
          to the FIB events that opened and closed them")
    Term.(const run $ scenario $ seed $ prefix $ gr $ format $ out)

(* ---------------- apps ---------------- *)

let apps_cmd =
  let run () =
    List.iter print_endline Centralium.Apps.all_app_names;
    0
  in
  Cmd.v
    (Cmd.info "apps" ~doc:"List the onboarded controller applications")
    Term.(const run $ const ())

(* ---------------- ops ---------------- *)

(* The 24/7 operations driver: a compressed simulated day of back-to-back
   migrations through the admission queue, with the SLO watchdog armed and
   NSDB replica catch-up running (ISSUE: `centralium ops --seed N --hours H`). *)
let ops_cmd =
  let run seed hours jobs_per_hour members profile_name crash_at out =
    with_mgmt_profile "ops" profile_name @@ fun profile ->
    let leader_crash_offsets =
      match crash_at with None -> [] | Some t -> [ t ]
    in
    let r =
      Experiments.Scenarios.Continuous.run ~seed ~hours ~jobs_per_hour
        ~members ~profile ~leader_crash_offsets ()
    in
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        let opt_str = function
          | Some s -> Obs.Json.String s
          | None -> Obs.Json.Null
        in
        List.iter
          (fun (j : Experiments.Scenarios.Continuous.job) ->
            let line =
              Obs.Json.Obj
                [
                  ("type", Obs.Json.String "ops_job");
                  ("index", Obs.Json.Int j.job_index);
                  ("name", Obs.Json.String j.job_name);
                  ("tenant", Obs.Json.String j.job_tenant);
                  ("class", Obs.Json.String j.job_class);
                  ("canary", Obs.Json.Bool j.job_canary);
                  ( "seq",
                    match j.job_seq with
                    | Some s -> Obs.Json.Int s
                    | None -> Obs.Json.Null );
                  ("shed_reason", opt_str j.job_shed_reason);
                  ("outcome", opt_str j.job_outcome);
                  ("queue_wait_s", Obs.Json.Float j.job_queue_wait_s);
                  ("convergence_s", Obs.Json.Float j.job_convergence_s);
                  ( "remediated",
                    Obs.Json.Bool (j.job_remediation <> None) );
                ]
            in
            output_string oc (Obs.Json.to_string line);
            output_char oc '\n')
          r.jobs;
        let report =
          Obs.Json.Obj
            [
              ("type", Obs.Json.String "ops_slo");
              ("seed", Obs.Json.Int seed);
              ("hours", Obs.Json.Int r.hours);
              ("members", Obs.Json.Int members);
              ("profile", Obs.Json.String profile_name);
              ( "crash_at_s",
                match crash_at with
                | Some t -> Obs.Json.Float t
                | None -> Obs.Json.Null );
              ("submitted", Obs.Json.Int r.submitted);
              ("admitted", Obs.Json.Int r.admitted);
              ("shed", Obs.Json.Int r.shed);
              ("completed", Obs.Json.Int r.completed);
              ("rolled_back", Obs.Json.Int r.rolled_back);
              ("shed_rate", Obs.Json.Float r.shed_rate);
              ("rollback_rate", Obs.Json.Float r.rollback_rate);
              ("plans_per_hour", Obs.Json.Float r.plans_per_hour);
              ("convergence_p50_s", Obs.Json.Float r.convergence_p50_s);
              ("convergence_p99_s", Obs.Json.Float r.convergence_p99_s);
              ("queue_wait_p99_s", Obs.Json.Float r.queue_wait_p99_s);
              ( "blackhole_seconds_per_day",
                Obs.Json.Float r.blackhole_seconds_per_day );
              ("replica_lag_p99", Obs.Json.Float r.replica_lag_p99);
              ("replica_lag_peak", Obs.Json.Int r.replica_lag_peak);
              ("snapshot_ships", Obs.Json.Int r.snapshot_ships);
              ("elections", Obs.Json.Int r.elections);
              ("queue_recoveries", Obs.Json.Int r.queue_recoveries);
              ("remediations", Obs.Json.Int r.remediations);
              ( "unremediated_violations",
                Obs.Json.Int r.unremediated_violations );
              ( "queue_order",
                Obs.Json.List
                  (List.map (fun s -> Obs.Json.Int s) r.queue_order) );
              ( "shed_set",
                Obs.Json.List
                  (List.map (fun s -> Obs.Json.Int s) r.shed_set) );
              ("fib_digest", Obs.Json.String r.fib_digest);
            ]
        in
        output_string oc (Obs.Json.to_string report);
        output_char oc '\n';
        pf
          "ops: %dh simulated day, %d submitted — %d admitted, %d shed \
           (%.1f%%), %d completed, %d rolled back, %d remediations\n"
          r.hours r.submitted r.admitted r.shed (100. *. r.shed_rate)
          r.completed r.rolled_back r.remediations;
        pf
          "ops: convergence p50/p99 %.0f/%.0f ms, queue wait p99 %.0f ms, \
           blackhole %.4f s/day, replica lag p99 %.0f ops (peak %d, %d \
           snapshot ships), %d elections\n"
          (1000. *. r.convergence_p50_s)
          (1000. *. r.convergence_p99_s)
          (1000. *. r.queue_wait_p99_s)
          r.blackhole_seconds_per_day r.replica_lag_p99 r.replica_lag_peak
          r.snapshot_ships r.elections;
        if r.unremediated_violations > 0 then begin
          pf
            "ops: FAILED — %d unremediated invariant violations (SLO \
             report in %s)\n"
            r.unremediated_violations out;
          1
        end
        else begin
          pf
            "ops: every violation absent or auto-remediated; SLO report \
             in %s\n"
            out;
          0
        end)
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"simulation seed")
  in
  let hours =
    Arg.(
      value & opt int 24
      & info [ "hours" ] ~doc:"length of the simulated horizon, in hours")
  in
  let jobs_per_hour =
    Arg.(
      value & opt int 5
      & info [ "jobs-per-hour" ]
          ~doc:
            "migration submissions per hourly burst (the admission queue \
             caps at 4, so bursts above that shed)")
  in
  let members =
    Arg.(
      value & opt int 2
      & info [ "members" ] ~doc:"controller cluster size")
  in
  let profile =
    Arg.(
      value & opt string "flaky"
      & info [ "profile" ]
          ~doc:"management-plane fault profile: none | flaky | hostile")
  in
  let crash_at =
    Arg.(
      value & opt (some float) None
      & info [ "crash-at" ] ~docv:"SECONDS"
          ~doc:
            "kill the controller leader SECONDS (virtual) into the run — \
             the standby takes over and rebuilds the queue from the opsq \
             journal; the report stays bit-identical to the uninterrupted \
             run")
  in
  let out =
    Arg.(
      value & opt string "ops_slo.jsonl"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"write the per-job and summary SLO JSONL to FILE")
  in
  Cmd.v
    (Cmd.info "ops"
       ~doc:
         "Run the 24/7 continuous-operations driver: hourly bursts of \
          seeded migrations through the bounded admission queue \
          (over-capacity submissions shed with typed reasons), NSDB \
          replica catch-up under the write load, canary regressions that \
          the SLO watchdog must catch and auto-roll-back, and a JSONL SLO \
          report (p99 convergence, blackhole-seconds/day, shed and \
          rollback rates, replica lag). Exits non-zero if any invariant \
          violation was left unremediated.")
    Term.(
      const run $ seed $ hours $ jobs_per_hour $ members $ profile $ crash_at
      $ out)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "centralium" ~version:"1.0.0"
      ~doc:
        "Hybrid route-planning for data center network migrations \
         (SIGCOMM '25 reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            topology_cmd; rpa_cmd; parse_cmd; lint_cmd; simulate_cmd;
            observe_cmd; table3_cmd; verify_cmd; verify_plan_cmd; chaos_cmd;
            trace_cmd; ops_cmd; apps_cmd;
          ]))
