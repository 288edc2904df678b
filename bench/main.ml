(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the scenario figures of Sections 3 and 5.

   Usage: dune exec bench/main.exe [-- SECTION ...]
   Sections: table1 fig3 fig2 fig4 fig5 fig9 fig10 fig11 fig12 fig13 fig14
             table2 table3 perf micro. Default: all of them, in order.

   Absolute numbers come from this repository's simulator on this machine;
   the claims being reproduced are the shapes (who wins, by what rough
   factor, where the pathologies appear). EXPERIMENTS.md records
   paper-vs-measured for each section. *)

let pf = Printf.printf

let header title paper_claim =
  pf "\n=== %s ===\n" title;
  pf "paper: %s\n" paper_claim;
  pf "---\n"

let pct x = 100.0 *. x

(* ------------------------------------------------------------------ *)
(* Structured output: every section also writes BENCH_<section>.json with
   its wall time, per-span wall-time percentiles, the full metrics
   snapshot, and whatever section-specific figures it pushed via [emit]. *)

let summary_json s = Obs.Json.Obj (Obs.Metrics.summary_fields s)

let bench_extra : (string * Obs.Json.t) list ref = ref []

let emit key value = bench_extra := (key, value) :: !bench_extra

let emit_summary key samples =
  if samples <> [] then emit key (summary_json (Dsim.Stats.summarize samples))

let span_summaries recorder =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.Span.span) ->
      let ms = (s.Obs.Span.wall_stop_s -. s.Obs.Span.wall_start_s) *. 1000.0 in
      let cur = Option.value (Hashtbl.find_opt tbl s.Obs.Span.name) ~default:[] in
      Hashtbl.replace tbl s.Obs.Span.name (ms :: cur))
    (Obs.Span.spans recorder);
  Hashtbl.fold (fun name ds acc -> (name, ds) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (name, ds) -> (name, summary_json (Dsim.Stats.summarize ds)))

let run_section name f =
  bench_extra := [];
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  let recorder = Obs.Span.create () in
  let t0 = Monotonic_clock.now () in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled Obs.Metrics.default false)
    (fun () -> Obs.Span.with_recorder recorder f);
  let wall_ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
  let json =
    Obs.Json.Obj
      ([
         ("section", Obs.Json.String name);
         ("wall_ms", Obs.Json.Float wall_ms);
         ("spans_ms", Obs.Json.Obj (span_summaries recorder));
         ("metrics", Obs.Metrics.snapshot Obs.Metrics.default);
       ]
       @ List.rev !bench_extra)
  in
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Table 1: migration categories *)

let table1 () =
  header "Table 1: Network Migration Categories"
    "five categories; 10+/year except daily drains; durations 1h .. 6 months";
  pf "%-42s %-10s %-9s %s\n" "Migration" "Frequency" "Scope" "Typical Duration";
  List.iter
    (fun row ->
      let duration =
        let d = row.Topology.Migration.typical_duration_days in
        if d < 1.0 then "<1 hour"
        else if d >= 30.0 then Printf.sprintf "~%.1f months" (d /. 30.0)
        else Printf.sprintf "~%.0f days" d
      in
      pf "(%s) %-38s %-10s %-9s %s\n"
        (Topology.Migration.category_letter row.Topology.Migration.category)
        (Topology.Migration.category_label row.Topology.Migration.category)
        (Format.asprintf "%a" Topology.Migration.pp_frequency
           row.Topology.Migration.frequency)
        (Format.asprintf "%a" Topology.Migration.pp_scope
           row.Topology.Migration.scope)
        duration)
    Topology.Migration.table1

(* ------------------------------------------------------------------ *)
(* Figure 3: average switches involved per layer *)

let fig3 () =
  header "Figure 3: Average number of switches involved per layer"
    "most migrations involve tens of thousands of devices, more at lower \
     layers; maintenance drains involve hundreds";
  let rng = Dsim.Rng.create 2025 in
  let fleet = Topology.Migration.default_fleet in
  pf "%-38s %9s %9s %9s %9s %9s %10s\n" "Category" "RSW" "FSW" "SSW" "FADU"
    "FAUU" "total";
  List.iter
    (fun category ->
      let avg =
        Topology.Migration.average_switches_per_layer ~samples:200 ~rng fleet
          category
      in
      let v layer = Option.value (List.assoc_opt layer avg) ~default:0.0 in
      let layers =
        Topology.Node.[ Rsw; Fsw; Ssw; Fadu; Fauu ]
      in
      let total = List.fold_left (fun acc l -> acc +. v l) 0.0 layers in
      pf "(%s) %-34s %9.0f %9.0f %9.0f %9.0f %9.0f %10.0f\n"
        (Topology.Migration.category_letter category)
        (Topology.Migration.category_label category)
        (v Topology.Node.Rsw) (v Topology.Node.Fsw) (v Topology.Node.Ssw)
        (v Topology.Node.Fadu) (v Topology.Node.Fauu) total)
    Topology.Migration.all_categories

(* ------------------------------------------------------------------ *)
(* Scenario figures *)

let fig2 () =
  header "Figure 2 / Section 3.2: first-router problem in topology expansion"
    "native BGP funnels all traffic through the first activated FAv2; the \
     path-equalize RPA keeps the new node at a balanced share with no loss";
  let r = Experiments.Scenarios.Fig2.run () in
  pf "steady state before expansion: hottest FA carries %.0f%% of demand\n"
    (pct r.Experiments.Scenarios.Fig2.baseline_funnel);
  pf "first FAv2 activated, native BGP : FAv2 share = %.0f%%  (collapse)\n"
    (pct r.native_fav2_share);
  pf "first FAv2 activated, with RPA   : FAv2 share = %.0f%%  (balanced = %.0f%%)\n"
    (pct r.rpa_fav2_share) (pct r.balanced_share);
  pf "loss under RPA: %.2f%%\n" (pct r.rpa_loss)

let fig4 () =
  header "Figure 4 / Section 3.3: last-router problem in decommission"
    "draining FADU-1s funnels their group's traffic into the last live one; \
     the BgpNativeMinNextHop guard on SSW-1s caps the transient";
  let r = Experiments.Scenarios.Fig4.run () in
  pf "steady per-FADU-1 share                : %.1f%%\n"
    (pct r.Experiments.Scenarios.Fig4.steady_share);
  pf "worst transient share, native BGP      : %.1f%%  (%.1fx steady)\n"
    (pct r.native_worst_funnel)
    (r.native_worst_funnel /. r.steady_share);
  pf "worst transient share, with guard RPA  : %.1f%%  (%.1fx steady)\n"
    (pct r.rpa_worst_funnel)
    (r.rpa_worst_funnel /. r.steady_share)

let fig5 () =
  header "Figure 5 / Section 3.4: transient next-hop-group explosion"
    "per-session WCMP convergence multiplies next-hop groups (bound 4^8 = \
     65536 on the DU); Route Attribute RPAs prescribe weights a priori and \
     flatten it";
  let r = Experiments.Scenarios.Fig5.run () in
  pf "prefixes advertised by EB[1:8]        : %d\n"
    r.Experiments.Scenarios.Fig5.prefixes;
  pf "theoretical DU bound (4 states ^ 8 sessions): %d\n" r.theoretical_bound;
  pf "peak distinct NHGs on DU, native WCMP : %d\n" r.du_nhg_native;
  pf "peak distinct NHGs on DU, with RPA    : %d\n" r.du_nhg_rpa

let fig9 () =
  header "Figure 9 / Section 5.3.1: dissemination rule vs routing loops"
    "advertising the best selected path installs a persistent R5-R6 loop; \
     advertising the least favorable path prevents it";
  let r = Experiments.Scenarios.Fig9.run () in
  pf "advertise best path  : %d forwarding loop(s)%s, circulating volume %.2f\n"
    (List.length r.Experiments.Scenarios.Fig9.loops_with_best_advertised)
    (match r.loops_with_best_advertised with
     | cycle :: _ ->
       Printf.sprintf " (cycle: %s)"
         (String.concat "->" (List.map string_of_int cycle))
     | [] -> "")
    r.circulating_bad;
  pf "  flow-level: %.0f%% of flows die of TTL in the loop\n" (pct r.ttl_loss_bad);
  pf "advertise least favorable (the rule): %d loops, circulating volume %.2f\n"
    (List.length r.loops_with_rule)
    r.circulating_good;
  pf "  flow-level: %.0f%% TTL loss\n" (pct r.ttl_loss_good)

let fig10 () =
  header "Figure 10 / Section 5.3.2: RPA deployment sequencing"
    "uncoordinated rollout (FA1 first) transiently funnels all northbound \
     traffic through FA2; bottom-up phases stay balanced throughout";
  let r = Experiments.Scenarios.Fig10.run () in
  pf "worst FA share, RPA lands on FA1 first (uncoordinated): %.0f%%\n"
    (pct r.Experiments.Scenarios.Fig10.funnel_top_down);
  pf "worst FA share, safe bottom-up order                  : %.0f%%\n"
    (pct r.funnel_bottom_up);
  pf "balanced share                                        : %.0f%%\n"
    (pct r.balanced)

let fig14 () =
  header "Figure 14 / Section 7.2: KeepFibWarmIfMnhViolated SEV"
    "with the knob incorrectly set, the withheld-but-installed specific \
     route black-holes all traffic toward the not-production-ready FA";
  let r = Experiments.Scenarios.Fig14.run () in
  pf "black-holed share with the knob set   : %.0f%%\n"
    (pct r.Experiments.Scenarios.Fig14.blackholed_with_knob);
  pf "black-holed share without the knob    : %.0f%%\n"
    (pct r.blackholed_without_knob);
  pf "specific route leaked below SSWs      : %b (guard held either way)\n"
    r.propagated_past_ssw

(* ------------------------------------------------------------------ *)
(* Figure 11: controller CPU / memory CDFs *)

let fig11 () =
  header "Figure 11: CDFs of CPU and memory usage across controller tasks"
    "single-core-equivalent CPU peaks below 25% (75% of tasks under 15%); \
     memory peaks well below 3 GB (half under 1.5 GB)";
  let dcs = 6 in
  let services = ref [] in
  let started = Sys.time () in
  for dc = 0 to dcs - 1 do
    let f = Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 () in
    let net = Bgp.Network.create ~seed:(100 + dc) f.Topology.Clos.graph in
    List.iter
      (fun eb ->
        Bgp.Network.originate net eb Net.Prefix.default_v4
          (Net.Attr.make
             ~communities:
               (Net.Community.Set.singleton
                  Net.Community.Well_known.backbone_default_route)
             ()))
      f.Topology.Clos.ebs;
    ignore (Bgp.Network.converge net);
    let controller = Centralium.Controller.create ~seed:(200 + dc) net in
    let origin_asn =
      match f.Topology.Clos.ebs with
      | eb :: _ -> (Topology.Graph.node f.Topology.Clos.graph eb).Topology.Node.asn
      | [] -> assert false
    in
    let plan =
      Centralium.Apps.Path_equalize.plan f.Topology.Clos.graph
        ~destination:Centralium.Destination.backbone_default ~origin_asn
        ~targets:(f.Topology.Clos.fsws @ f.Topology.Clos.ssws)
        ~origination_layer:Topology.Node.Eb
    in
    (match Centralium.Controller.deploy controller plan with
     | Ok _ -> ()
     | Error es -> pf "fig11 deploy error: %s\n" (String.concat "; " es));
    (* Steady-state reconciliation sweeps (the agent's continuous loop). *)
    let agent = Centralium.Controller.agent controller in
    for _ = 1 to 20 do
      ignore
        (Centralium.Switch_agent.reconcile agent
           ~devices:(List.map fst plan.Centralium.Controller.rpas))
    done;
    services := Centralium.Controller.services controller @ !services
  done;
  let elapsed = Float.max 1e-6 (Sys.time () -. started) in
  let cpu =
    List.map
      (fun s -> pct (Centralium.Service.cpu_utilization s ~elapsed))
      !services
  in
  let mem =
    List.map
      (fun s -> float_of_int (Centralium.Service.memory_bytes s) /. 1e9)
      !services
  in
  pf "%d controller tasks across %d data centers\n" (List.length !services) dcs;
  pf "\n(a) single-core-equivalent CPU utilization (%%):\n";
  Format.printf "%a" (Dsim.Stats.pp_cdf_ascii ~width:40 ~unit_label:"%") (Dsim.Stats.cdf ~points:10 cpu);
  pf "(b) memory (GB):\n";
  Format.printf "%a" (Dsim.Stats.pp_cdf_ascii ~width:40 ~unit_label:"GB") (Dsim.Stats.cdf ~points:10 mem);
  let cpu_summary = Dsim.Stats.summarize cpu in
  emit_summary "cpu_pct" cpu;
  emit_summary "mem_gb" mem;
  emit "tasks" (Obs.Json.Int (List.length !services));
  pf "CPU max = %.1f%%  (paper: < 25%%)   memory max = %.2f GB (paper: < 3 GB)\n"
    cpu_summary.Dsim.Stats.max
    (Dsim.Stats.summarize mem).Dsim.Stats.max

(* ------------------------------------------------------------------ *)
(* Figure 12: CDF of RPA deployment time *)

let fig12 () =
  header "Figure 12: CDF of RPA deployment time (ms), FAUU layer"
    "most RPA updates complete within one millisecond";
  let f = Topology.Clos.fabric ~grids:4 ~fauus_per_grid:8 () in
  let net = Bgp.Network.create ~seed:7 f.Topology.Clos.graph in
  ignore (Bgp.Network.converge net);
  let agent = Centralium.Switch_agent.create ~seed:13 net in
  let rounds = 16 in
  for round = 1 to rounds do
    List.iter
      (fun fauu ->
        (* TE weight refreshes: a new RPA per round per FAUU. *)
        let weights =
          List.filter_map
            (fun ((n : Topology.Node.t), _) ->
              if Topology.Node.layer_equal n.Topology.Node.layer Topology.Node.Eb
              then Some (n.Topology.Node.id, 1 + ((round + n.Topology.Node.id) mod 16))
              else None)
            (Topology.Graph.neighbors f.Topology.Clos.graph fauu)
        in
        let rpa =
          Centralium.Apps.Te_weights.rpa_for_device f.Topology.Clos.graph
            ~destination:Centralium.Destination.backbone_default ~device:fauu
            ~weights ()
        in
        Centralium.Switch_agent.set_intended agent ~device:fauu rpa;
        ignore (Centralium.Switch_agent.reconcile_device agent fauu))
      f.Topology.Clos.fauus;
    ignore (Bgp.Network.converge net)
  done;
  let samples_ms =
    List.map (fun s -> s *. 1000.0) (Centralium.Switch_agent.deploy_time_samples agent)
  in
  pf "%d RPA deployments to %d FAUUs\n" (List.length samples_ms)
    (List.length f.Topology.Clos.fauus);
  Format.printf "%a" (Dsim.Stats.pp_cdf_ascii ~width:40 ~unit_label:"ms") (Dsim.Stats.cdf ~points:12 samples_ms);
  emit_summary "deploy_ms" samples_ms;
  emit "deployments" (Obs.Json.Int (List.length samples_ms));
  let s = Dsim.Stats.summarize samples_ms in
  pf "p50 = %.3f ms, p95 = %.3f ms, p99 = %.3f ms; %.0f%% under 1 ms\n"
    s.Dsim.Stats.p50 s.Dsim.Stats.p95 s.Dsim.Stats.p99
    (pct
       (float_of_int (List.length (List.filter (fun x -> x < 1.0) samples_ms))
        /. float_of_int (List.length samples_ms)))

(* ------------------------------------------------------------------ *)
(* Table 2: RPA evaluation time per route, cache miss vs hit *)

let table2_rpa () =
  (* A production-sized Path Selection RPA: many destination groups, each
     with regex-signed path sets. *)
  let statements =
    List.init 40 (fun i ->
        Centralium.Path_selection.statement
          ~name:(Printf.sprintf "group-%d" i)
          ~path_sets:
            [
              Centralium.Path_selection.path_set ~name:"preferred"
                (Centralium.Signature.make
                   ~as_path_regex:(Printf.sprintf "^%d .* %d$" (65000 + i) (64000 + i))
                   ());
              Centralium.Path_selection.path_set ~name:"fallback"
                (Centralium.Signature.make
                   ~as_path_regex:(Printf.sprintf ".* %d$" (64000 + i))
                   ());
            ]
          (Centralium.Destination.Tagged (Net.Community.make 65100 (200 + i))))
  in
  Centralium.Rpa.make
    ~path_selection:[ Centralium.Path_selection.make statements ]
    ()

let table2_routes n =
  let rng = Dsim.Rng.create 99 in
  List.init n (fun i ->
      let group = i mod 40 in
      let middle =
        List.init (3 + Dsim.Rng.int rng 10) (fun _ ->
            Net.Asn.of_int (60000 + Dsim.Rng.int rng 4000))
      in
      let as_path =
        Net.As_path.of_asns
          ((Net.Asn.of_int (65000 + group) :: middle)
           @ [ Net.Asn.of_int (64000 + group) ])
      in
      let attr =
        Net.Attr.make ~as_path
          ~communities:
            (Net.Community.Set.singleton (Net.Community.make 65100 (200 + group)))
          ()
      in
      Bgp.Path.make ~peer:(i mod 7) ~session:0 ~attr)

let table2_ctx prefix =
  {
    Bgp.Rib_policy.device = 0;
    prefix;
    now = 0.0;
    commit = false;
    peer_layer = (fun _ -> Some Topology.Node.Fauu);
    live_peers_in_layer = (fun _ -> 8);
  }

let table2 () =
  header "Table 2: RPA evaluation time per route (ms)"
    "w/o cache: p50 < 1, p95 = 2, p99 = 4; w/ cache: all < 1";
  let rpa = table2_rpa () in
  let routes = table2_routes 20_000 in
  let prefix = Net.Prefix.of_string_exn "10.0.0.0/8" in
  let ctx = table2_ctx prefix in
  let time_pass engine =
    List.map
      (fun route ->
        let candidates = [ route ] in
        let native = Bgp.Decision.select candidates in
        let t0 = Monotonic_clock.now () in
        ignore (Centralium.Engine.evaluate_selection engine ~ctx ~candidates ~native);
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6)
      routes
  in
  let engine = Centralium.Engine.create ~cache:true rpa in
  let cold = time_pass engine in
  let warm = time_pass engine in
  let fmt v = if v < 1.0 then "<1" else Printf.sprintf "%.0f" v in
  let row label samples =
    let s = Dsim.Stats.summarize samples in
    pf "%-10s p50 = %-4s p95 = %-4s p99 = %-4s (exact: %.4f / %.4f / %.4f ms)\n"
      label (fmt s.Dsim.Stats.p50) (fmt s.Dsim.Stats.p95) (fmt s.Dsim.Stats.p99)
      s.Dsim.Stats.p50 s.Dsim.Stats.p95 s.Dsim.Stats.p99
  in
  row "w/o cache" cold;
  row "w/ cache" warm;
  let stats = Centralium.Engine.stats engine in
  let mean = Dsim.Stats.mean in
  emit_summary "cold_eval_ms" cold;
  emit_summary "warm_eval_ms" warm;
  emit "cache_hits" (Obs.Json.Int stats.Centralium.Engine.hits);
  emit "cache_misses" (Obs.Json.Int stats.Centralium.Engine.misses);
  pf "cache: %d hits / %d misses; mean speedup miss/hit = %.1fx\n"
    stats.Centralium.Engine.hits stats.Centralium.Engine.misses
    (mean cold /. Float.max 1e-9 (mean warm))

(* ------------------------------------------------------------------ *)
(* Table 3: operational efficiency *)

let table3 () =
  header "Table 3: steps and days per migration, with and without RPA"
    "(a) 2->1 steps, 42-><1 days; (b) 9->3, 189->21; (c) 3->1, 63->7; \
     (d) 5->3, 105->21; (e) 3->1, <1-><1; RPA LOC 300-1000 / 200-300 / \
     50-100 / 100-200 / <50";
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
  pf "(critical-path steps; config pushes ride the %.0f-day fleet cadence)\n"
    Planner.push_cadence_days

(* ------------------------------------------------------------------ *)
(* Figure 13: near-optimal centralized TE *)

let fig13 () =
  header "Figure 13 / Section 6.4: effective capacity under maintenance"
    "RPA-driven TE tracks ideal WCMP closely and beats ECMP; the gained \
     headroom unblocks up to 45% of otherwise-blocked maintenance";
  let r = Experiments.Scenarios.Fig13.run ~events:40 () in
  pf "%-8s %8s %12s %12s %12s\n" "event" "drained" "ECMP" "RPA-TE" "ideal WCMP";
  List.iter
    (fun e ->
      if e.Experiments.Scenarios.Fig13.event_id mod 5 = 0 then
        pf "%-8d %8d %12.2f %12.2f %12.2f\n" e.event_id e.drained_links
          e.ecmp_capacity e.rpa_capacity e.ideal_capacity)
    r.Experiments.Scenarios.Fig13.events;
  pf "mean effective capacity vs ideal: RPA-TE = %.1f%%, ECMP = %.1f%%\n"
    (pct r.mean_rpa_over_ideal) (pct r.mean_ecmp_over_ideal);
  pf "maintenance events unblocked by TE (blocked under ECMP): %.0f%%\n"
    (pct r.unblocked_fraction)

(* ------------------------------------------------------------------ *)
(* Section 6.2 performance claims *)

let perf () =
  header "Section 6.2: RPA generation and deployment performance"
    "RPA generation for a full DC consistently under 200 ms";
  let f =
    Topology.Clos.fabric ~pods:48 ~rsws_per_pod:48 ~fsws_per_pod:4
      ~ssws_per_plane:36 ~grids:4 ~fauus_per_grid:9 ~ebs:8 ()
  in
  let devices = Topology.Graph.node_count f.Topology.Clos.graph in
  let origin_asn =
    match f.Topology.Clos.ebs with
    | eb :: _ -> (Topology.Graph.node f.Topology.Clos.graph eb).Topology.Node.asn
    | [] -> assert false
  in
  let targets =
    f.Topology.Clos.rsws @ f.Topology.Clos.fsws @ f.Topology.Clos.ssws
    @ f.Topology.Clos.fadus @ f.Topology.Clos.fauus
  in
  let t0 = Monotonic_clock.now () in
  let plan =
    Centralium.Apps.Path_equalize.plan f.Topology.Clos.graph
      ~destination:Centralium.Destination.backbone_default ~origin_asn ~targets
      ~origination_layer:Topology.Node.Eb
  in
  let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
  emit "devices" (Obs.Json.Int devices);
  emit "rpas" (Obs.Json.Int (List.length plan.Centralium.Controller.rpas));
  emit "phases" (Obs.Json.Int (List.length plan.Centralium.Controller.phases));
  emit "generation_ms" (Obs.Json.Float ms);
  pf "full-DC topology: %d devices; generated %d per-switch RPAs in %.1f ms \
      (%d deployment phases)\n"
    devices
    (List.length plan.Centralium.Controller.rpas)
    ms
    (List.length plan.Centralium.Controller.phases)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let micro () =
  header "Micro-benchmarks (bechamel, ns/run)"
    "per-operation costs behind Table 2, Figure 12 and Section 6.2";
  let open Bechamel in
  let rpa = table2_rpa () in
  let routes = Array.of_list (table2_routes 256) in
  let prefix = Net.Prefix.of_string_exn "10.0.0.0/8" in
  let ctx = table2_ctx prefix in
  let warm_engine = Centralium.Engine.create ~cache:true rpa in
  Array.iter
    (fun route ->
      let candidates = [ route ] in
      let native = Bgp.Decision.select candidates in
      ignore
        (Centralium.Engine.evaluate_selection warm_engine ~ctx ~candidates ~native))
    routes;
  let counter = ref 0 in
  let eval engine () =
    let route = routes.(!counter mod Array.length routes) in
    incr counter;
    let candidates = [ route ] in
    let native = Bgp.Decision.select candidates in
    ignore (Centralium.Engine.evaluate_selection engine ~ctx ~candidates ~native)
  in
  let regex = Net.Path_regex.compile_exn "^65001 .* 64001$" in
  let sample_path =
    Net.As_path.of_asns (List.map Net.Asn.of_int [ 65001; 63000; 62000; 64001 ])
  in
  let db = Centralium.Nsdb.create () in
  let nsdb_counter = ref 0 in
  (* The event queue's pop-and-push cycle at a steady 256 queued events:
     each run pops the earliest, whose thunk schedules itself one period
     later. *)
  let timers = Dsim.Event_queue.create () in
  let rec timer period () =
    Dsim.Event_queue.schedule timers ~delay:period (timer period)
  in
  for i = 0 to 255 do
    Dsim.Event_queue.schedule timers
      ~delay:(float_of_int i /. 256.0)
      (timer (1.0 +. (0.01 *. float_of_int (i mod 7))))
  done;
  let fabric = (Topology.Clos.fabric ()).Topology.Clos.graph in
  let link_ends =
    Array.of_list
      (List.map
         (fun (l : Topology.Graph.link) -> (l.b, l.a))
         (Topology.Graph.links fabric))
  in
  let link_counter = ref 0 in
  (* Invariant sweeps alternate between two networks built alike, so the
     sweep kept for an unmoved stamp never answers. *)
  let alternate build =
    let nets = [| build (); build () |] and turn = ref 0 in
    fun () ->
      incr turn;
      ignore (Centralium.Invariant.check nets.(!turn land 1))
  in
  let tagged =
    Net.Attr.make
      ~communities:
        (Net.Community.Set.singleton
           Net.Community.Well_known.backbone_default_route)
      ()
  in
  let sweep_fabric =
    alternate (fun () ->
        let f = Topology.Clos.fabric () in
        let net = Bgp.Network.create ~seed:42 f.Topology.Clos.graph in
        List.iter
          (fun eb -> Bgp.Network.originate net eb Net.Prefix.default_v4 tagged)
          f.Topology.Clos.ebs;
        ignore (Bgp.Network.converge net);
        net)
  in
  (* The rollout benchmark's chaos episode set-up (the expansion fabric,
     the default route at the backbone, a /24 per FSW), caught in a
     graceful restart of the backbone, after the crash and before the
     first reconnect: its peers hold stale marks and it holds preserved
     FIB entries, all reported as stale-route violations. *)
  let sweep_expansion =
    alternate (fun () ->
        let x = Topology.Clos.expansion () in
        let net = Bgp.Network.create ~seed:42 x.Topology.Clos.xgraph in
        Bgp.Network.originate net x.Topology.Clos.backbone Net.Prefix.default_v4
          tagged;
        List.iteri
          (fun i fsw ->
            Bgp.Network.originate net fsw
              (Net.Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/24" i))
              tagged)
          x.Topology.Clos.xfsws;
        ignore (Bgp.Network.converge net);
        let t0 = Bgp.Network.now net in
        Bgp.Network.enable_liveness
          ~config:(Bgp.Liveness.with_gr Bgp.Liveness.default)
          ~until:(t0 +. 0.12) net;
        Bgp.Network.restart_device ~delay:0.01 net x.Topology.Clos.backbone
          ~recovery:0.02;
        ignore (Bgp.Network.run_until net ~time:(t0 +. 0.012));
        net)
  in
  (* An SSW's route as a Section 6.2 FSW receives it: the SSW, a FAUU and
     the EB that originated the tagged default route. *)
  let eb = Net.Asn.of_int 64600 and fauu = Net.Asn.of_int 64700 in
  let upstream ssw =
    Net.Attr.intern
      (Net.Attr.make
         ~as_path:(Net.As_path.of_asns [ Net.Asn.of_int (64512 + ssw); fauu; eb ])
         ~communities:tagged.Net.Attr.communities ())
  in
  (* Interning a fresh copy of a live attribute: the lookup every
     rewritten candidate and every unchanged advert pays. The run checks
     it got the live value, which also keeps that value interned. *)
  let intern_hit =
    let live = upstream 1 in
    let copy =
      Net.Attr.make ~as_path:live.Net.Attr.as_path
        ~communities:live.Net.Attr.communities ()
    in
    fun () -> if Net.Attr.intern copy != live then failwith "intern-hit: missed"
  in
  (* A decision's advert preparation when the advert does not change: the
     FSW prepends its ASN to the best path and interns the result, which
     the Adj-RIB-Out still holds. *)
  let prepare_advert =
    let best = upstream 1 and fsw = Net.Asn.of_int 65001 in
    let advert = Net.Attr.intern (Net.Attr.with_prepended fsw best) in
    fun () ->
      if Net.Attr.intern (Net.Attr.with_prepended fsw best) != advert then
        failwith "prepare-advert: missed"
  in
  (* A Section 6.2 FSW: 36 SSWs (devices 1-36) advertise the tagged
     default route and 48 RSWs (37-84) take it. Each run re-delivers one
     SSW's unchanged route in [Full_table] mode, so the speaker re-decides
     the prefix and its advert to the 84 peers does not change: the case
     of most decisions in the rollout benchmark's [fulldc_rollout]. *)
  let fan_out_84 ~rpa =
    let fsw = Topology.Node.make ~id:0 ~name:"fsw" ~layer:Topology.Node.Fsw () in
    let hooks =
      if rpa then
        Centralium.Engine.hooks
          (Centralium.Engine.create
             (Centralium.Apps.Path_equalize.rpa
                ~destination:Centralium.Destination.backbone_default ~origin_asn:eb
                ~via:(List.init 36 (fun i -> Net.Asn.of_int (64513 + i)))))
      else Bgp.Rib_policy.native
    in
    let sp = Bgp.Speaker.create ~hooks fsw in
    Bgp.Speaker.set_eval_mode sp Bgp.Speaker.Full_table;
    for peer = 1 to 84 do
      Bgp.Speaker.add_peer sp ~peer ~sessions:1
    done;
    let env =
      {
        Bgp.Speaker.now = 0.0;
        peer_layer =
          (fun d -> Some (if d <= 36 then Topology.Node.Ssw else Topology.Node.Rsw));
        log = Bgp.Trace.create ();
      }
    in
    let route ssw =
      Bgp.Msg.Update { prefix = Net.Prefix.default_v4; attr = upstream ssw }
    in
    for ssw = 1 to 36 do
      ignore (Bgp.Speaker.receive sp env ~peer:ssw ~session:0 (route ssw))
    done;
    let again = route 1 in
    fun () -> ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 again)
  in
  let tests =
    [
      Test.make ~name:"table2/rpa-eval-cache-miss"
        (Staged.stage (eval (Centralium.Engine.create ~cache:false rpa)));
      Test.make ~name:"table2/rpa-eval-cache-hit" (Staged.stage (eval warm_engine));
      Test.make ~name:"fig12/engine-build"
        (Staged.stage (fun () -> ignore (Centralium.Engine.create rpa)));
      Test.make ~name:"perf/path-regex-match"
        (Staged.stage (fun () -> ignore (Net.Path_regex.matches regex sample_path)));
      Test.make ~name:"fig11/nsdb-set"
        (Staged.stage (fun () ->
             incr nsdb_counter;
             Centralium.Nsdb.set db
               ~path:(Printf.sprintf "devices/%d/rpa" (!nsdb_counter mod 512))
               (Centralium.Nsdb.Int !nsdb_counter)));
      Test.make ~name:"dsim/event-queue-cycle"
        (Staged.stage (fun () -> ignore (Dsim.Event_queue.step timers)));
      Test.make ~name:"topology/find-link"
        (Staged.stage (fun () ->
             let a, b = link_ends.(!link_counter mod Array.length link_ends) in
             incr link_counter;
             ignore (Topology.Graph.find_link fabric a b)));
      Test.make ~name:"invariant/sweep-fabric" (Staged.stage sweep_fabric);
      Test.make ~name:"invariant/sweep-expansion" (Staged.stage sweep_expansion);
      Test.make ~name:"speaker/fan-out-84" (Staged.stage (fan_out_84 ~rpa:false));
      Test.make ~name:"speaker/fan-out-84-rpa" (Staged.stage (fan_out_84 ~rpa:true));
      Test.make ~name:"net/intern-hit" (Staged.stage intern_hit);
      Test.make ~name:"net/prepare-advert" (Staged.stage prepare_advert);
    ]
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  (* Under the section's recorder, every test that opens spans would time
     span recording until the recorder's cap filled, so its estimate would
     depend on the tests run before it. A recorder that keeps no span
     stands in. *)
  let raw =
    Obs.Span.with_recorder (Obs.Span.create ~max_spans:0 ()) (fun () ->
        Benchmark.all cfg instances (Test.make_grouped ~name:"centralium" tests))
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimates = ref [] in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (estimate :: _) ->
           estimates := (name, Obs.Json.Float estimate) :: !estimates;
           pf "%-40s %12.0f ns/run\n" name estimate
         | Some [] | None -> pf "%-40s (no estimate)\n" name);
  emit "estimates_ns" (Obs.Json.Obj (List.rev !estimates))

(* ------------------------------------------------------------------ *)
(* Ablations of the design choices DESIGN.md calls out *)

let ablations () =
  header "Ablations: guard threshold, NHG scale, weight quantization"
    "design-choice sweeps behind Sections 4.4.2, 3.4 and 6.4";

  pf "(1) BgpNativeMinNextHop threshold vs worst transient funnel (Fig 4 \
      setup; steady per-FADU-1 share is ~3.1%%):\n";
  let thresholds = [ None; Some 0.25; Some 0.5; Some 0.75; Some 1.0 ] in
  List.iter
    (fun (guard, worst) ->
      pf "    %-12s worst funnel = %5.1f%%\n"
        (match guard with
         | None -> "no guard"
         | Some f -> Printf.sprintf "%.0f%%" (100.0 *. f))
        (pct worst))
    (Experiments.Scenarios.Fig4.sweep ~thresholds ());

  pf "\n(2) next-hop-group explosion vs number of prefixes (Fig 5 setup, \
      native WCMP):\n";
  List.iter
    (fun prefixes ->
      let r = Experiments.Scenarios.Fig5.run ~prefixes () in
      pf "    %4d prefixes: peak %3d groups (RPA: %d)\n" prefixes
        r.Experiments.Scenarios.Fig5.du_nhg_native r.du_nhg_rpa)
    [ 8; 16; 32; 64; 128 ];

  pf "\n(3) link-bandwidth quantization levels vs TE quality (Fig 13 \
      setup, mean effective capacity relative to ideal):\n";
  List.iter
    (fun levels ->
      let r = Experiments.Scenarios.Fig13.run ~events:20 ~levels () in
      pf "    %3d levels: RPA-TE = %5.1f%% of ideal\n" levels
        (pct r.Experiments.Scenarios.Fig13.mean_rpa_over_ideal))
    [ 2; 4; 8; 16; 64 ];

  pf "\n(4) RPA vs compiled low-level policy (Section 7.4 indirect \
      approach) on the Figure 2 expansion:\n";
  let x = Topology.Clos.expansion () in
  let fav2 = Topology.Clos.add_fav2 x in
  let fav2_share net =
    let demands = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
    let result =
      Dataplane.Traffic.route_prefix net Net.Prefix.default_v4 ~demands
    in
    Dataplane.Metrics.transit_share result ~device:fav2
      ~total:(Dataplane.Traffic.total_demand demands)
  in
  let tagged () =
    Net.Attr.make
      ~communities:
        (Net.Community.Set.singleton
           Net.Community.Well_known.backbone_default_route)
      ()
  in
  let equalize_intent =
    Centralium.Rpa.make
      ~path_selection:
        [
          Centralium.Path_selection.make
            [
              Centralium.Path_selection.statement ~name:"equalize"
                ~path_sets:
                  [ Centralium.Path_selection.path_set ~name:"all"
                      Centralium.Signature.any ]
                Centralium.Destination.backbone_default;
            ];
        ]
      ()
  in
  let net = Bgp.Network.create ~seed:71 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.backbone Net.Prefix.default_v4 (tagged ());
  ignore (Bgp.Network.converge net);
  let compiled =
    Centralium.Fallback_compiler.compile x.xgraph
      ~origination_layer:Topology.Node.Eb
      ~targets:(x.xfsws @ x.xssws) equalize_intent
  in
  Centralium.Fallback_compiler.apply net compiled;
  ignore (Bgp.Network.converge net);
  pf "    compiled AS-path padding : FAv2 share %.0f%% (balanced)\n"
    (pct (fav2_share net));
  Centralium.Fallback_compiler.remove net compiled;
  ignore (Bgp.Network.converge net);
  pf "    after policy cleanup     : FAv2 share %.0f%% (the collapse \
      returns; an RPA removal would not do this)\n"
    (pct (fav2_share net));

  pf "\n(5) dissemination rule and deployment ordering: see fig9 and fig10 \
      (both run the unsafe variant as the ablation).\n"

(* ------------------------------------------------------------------ *)
(* Simulator scaling *)

let scale () =
  header "Simulator scaling: convergence cost vs fabric size"
    "(not a paper figure) the substrate itself: events, messages and wall \
     time to converge a default route over growing fabrics";
  pf "%8s %8s %10s %10s %10s\n" "devices" "links" "events" "messages" "wall ms";
  let rows = ref [] in
  List.iter
    (fun pods ->
      let f = Topology.Clos.fabric ~pods ~rsws_per_pod:pods () in
      let net = Bgp.Network.create ~seed:5 f.Topology.Clos.graph in
      List.iter
        (fun eb ->
          Bgp.Network.originate net eb Net.Prefix.default_v4
            (Net.Attr.make
               ~communities:
                 (Net.Community.Set.singleton
                    Net.Community.Well_known.backbone_default_route)
               ()))
        f.Topology.Clos.ebs;
      let t0 = Monotonic_clock.now () in
      let events = Bgp.Network.converge net in
      let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
      let messages = Bgp.Trace.messages_sent (Bgp.Network.trace net) in
      let devices = Topology.Graph.node_count f.Topology.Clos.graph in
      let links = List.length (Topology.Graph.links f.Topology.Clos.graph) in
      rows :=
        Obs.Json.Obj
          [
            ("devices", Obs.Json.Int devices);
            ("links", Obs.Json.Int links);
            ("events", Obs.Json.Int events);
            ("messages", Obs.Json.Int messages);
            ("wall_ms", Obs.Json.Float ms);
          ]
        :: !rows;
      pf "%8d %8d %10d %10d %10.1f\n" devices links events messages ms)
    [ 2; 4; 8; 12 ];
  emit "rows" (Obs.Json.List (List.rev !rows))

(* ------------------------------------------------------------------ *)
(* Management-plane chaos: resilient deploy under faults, crash+resume *)

(* The verdict count of a seed sweep: printed, and emitted as [passed]
   out of [seeds]. *)
let emit_passed passed seeds =
  pf "passed: %d/%d seeds\n" passed (List.length seeds);
  emit "passed" (Obs.Json.Int passed);
  emit "seeds" (Obs.Json.Int (List.length seeds))

let chaos () =
  header "Chaos: resilient deployment under management-plane faults"
    "crash+resume vs uninterrupted, flaky RPC/NSDB fates, 3 seeds";
  let passed = ref 0 in
  let retries = ref [] in
  let backoffs = ref [] in
  let rows = ref [] in
  let seeds = [ 42; 43; 44 ] in
  List.iter
    (fun seed ->
      let c =
        Experiments.Scenarios.Faulted_deploy.crash_vs_uninterrupted ~seed ()
      in
      let i = c.Experiments.Scenarios.Faulted_deploy.interrupted in
      let ok = Experiments.Scenarios.Faulted_deploy.passed c in
      if ok then incr passed;
      retries := float_of_int i.retries :: !retries;
      backoffs := List.map (fun s -> s *. 1000.0) i.backoff_seconds @ !backoffs;
      pf "seed %d: %s after crash+resume, %d retries, digests %s\n" seed
        i.outcome i.retries
        (if c.Experiments.Scenarios.Faulted_deploy.digests_match then "match"
         else "DIFFER");
      rows :=
        Obs.Json.Obj
          (("seed", Obs.Json.Int seed)
           :: ("passed", Obs.Json.Bool ok)
           :: Experiments.Scenarios.Faulted_deploy.comparison_json c)
        :: !rows)
    seeds;
  emit_passed !passed seeds;
  emit "rows" (Obs.Json.List (List.rev !rows));
  emit_summary "retries" !retries;
  emit_summary "backoff_ms" !backoffs

(* ------------------------------------------------------------------ *)
(* Data-plane chaos: blackhole-seconds with and without graceful restart *)

let chaos_gr () =
  header "Chaos: blackhole-seconds, graceful restart on vs off"
    "severe message faults + origin/FA restarts, session liveness timers, \
     identical seeds per mode, 3 seeds";
  let seeds = [ 42; 43; 44 ] in
  let passed = ref 0 in
  let bh_on = ref [] and bh_off = ref [] in
  pf "%6s %14s %14s %10s %8s %8s\n" "seed" "bh-sec GR on" "bh-sec GR off"
    "reduction" "sweeps" "finals";
  let rows = ref [] in
  List.iter
    (fun seed ->
      let r = Experiments.Scenarios.Chaos.run ~seed () in
      let on = r.Experiments.Scenarios.Chaos.gr_on
      and off = r.Experiments.Scenarios.Chaos.gr_off in
      let ok = Experiments.Scenarios.Chaos.passed r in
      if ok then incr passed;
      let finals =
        List.length on.final_violations + List.length off.final_violations
      in
      bh_on := on.blackhole_seconds :: !bh_on;
      bh_off := off.blackhole_seconds :: !bh_off;
      pf "%6d %14.6f %14.6f %9.1f%% %8d %8d\n" seed on.blackhole_seconds
        off.blackhole_seconds
        (100.0 *. (1.0 -. (on.blackhole_seconds /. off.blackhole_seconds)))
        on.stale_sweeps finals;
      rows :=
        Obs.Json.Obj
          [
            ("seed", Obs.Json.Int seed);
            ("passed", Obs.Json.Bool ok);
            ( "gr_on",
              Obs.Json.Obj (Experiments.Scenarios.Chaos.mode_json on) );
            ( "gr_off",
              Obs.Json.Obj (Experiments.Scenarios.Chaos.mode_json off) );
          ]
        :: !rows)
    seeds;
  emit_passed !passed seeds;
  emit "rows" (Obs.Json.List (List.rev !rows));
  emit_summary "blackhole_seconds_gr_on" !bh_on;
  emit_summary "blackhole_seconds_gr_off" !bh_off

(* ------------------------------------------------------------------ *)
(* Controller HA: leader failover latency and fencing under chaos *)

let ha () =
  header "HA: lease failover, fencing epochs, deterministic takeover"
    "leader killed mid-rollout at per-seed offsets, 3-member cluster, \
     standby resumes from the journal, digests vs uninterrupted, 3 seeds";
  let seeds = [ 42; 43; 44 ] in
  let passed = ref 0 in
  let takeovers = ref [] and elections = ref [] in
  let rows = ref [] in
  pf "%6s %9s %10s %12s %11s %8s %8s\n" "seed" "crash@ms" "elections"
    "takeover ms" "completed by" "applied" "in-sync";
  List.iteri
    (fun k seed ->
      let offset = 0.02 +. (0.007 *. float_of_int k) in
      let c =
        Experiments.Scenarios.Failover.crash_vs_uninterrupted ~seed
          ~leader_crash_offsets:[ offset ] ()
      in
      let i = c.Experiments.Scenarios.Failover.interrupted in
      let ok = Experiments.Scenarios.Failover.passed c in
      if ok then incr passed;
      takeovers := List.rev_append i.takeover_ms !takeovers;
      elections := float_of_int i.elections :: !elections;
      pf "%6d %9.0f %10d %12s %11s %8d %8d\n" seed (offset *. 1000.)
        i.elections
        (String.concat ","
           (List.map (Printf.sprintf "%.1f") i.takeover_ms))
        (match i.completed_by with
         | Some m -> string_of_int m
         | None -> "-")
        i.applied i.skipped_in_sync;
      rows :=
        Obs.Json.Obj
          (("seed", Obs.Json.Int seed)
           :: ("passed", Obs.Json.Bool ok)
           :: ("crash_at_s", Obs.Json.Float offset)
           :: Experiments.Scenarios.Failover.comparison_json c)
        :: !rows)
    seeds;
  emit_passed !passed seeds;
  emit "rows" (Obs.Json.List (List.rev !rows));
  emit_summary "takeover_ms" !takeovers;
  emit_summary "elections" !elections

(* ------------------------------------------------------------------ *)
(* Decision pipeline: incremental (dirty-set) vs the full-table oracle *)

let decision () =
  header "Decision pipeline: incremental (dirty-set) vs full-table oracle"
    "bit-identical traces and FIBs; chaos decision count drops >= 5x";
  let seeds = [ 42; 7; 1 ] in
  let iters = 5 in
  let decisions = Obs.Metrics.counter "bgp.speaker.decisions" in
  let chaos_once mode seed =
    ignore
      (Experiments.Scenarios.Chaos.run_mode ~seed ~eval_mode:mode ~gr:true ())
  in
  let measure mode =
    (* Decision counts are deterministic per seed: one counting pass. *)
    Obs.Metrics.reset Obs.Metrics.default;
    List.iter (chaos_once mode) seeds;
    let count = Obs.Metrics.value decisions in
    (* Timed passes: every [network.converge] interval, from spans. The
       cap must clear [iters] full-table chaos runs' decision spans, or
       the later converge spans get dropped and skew the percentiles. *)
    let recorder = Obs.Span.create ~max_spans:1_000_000 () in
    Obs.Span.with_recorder recorder (fun () ->
        for _ = 1 to iters do
          List.iter (chaos_once mode) seeds
        done);
    let ms =
      List.map
        (fun s -> s *. 1000.0)
        (Obs.Span.durations_s recorder ~name:"network.converge")
    in
    (count, Dsim.Stats.summarize ms)
  in
  let full_count, full_s = measure Bgp.Speaker.Full_table in
  let incr_count, incr_s = measure Bgp.Speaker.Incremental in
  let ratio = float_of_int full_count /. float_of_int incr_count in
  let p50_speedup = full_s.Dsim.Stats.p50 /. incr_s.Dsim.Stats.p50 in
  let p99_speedup = full_s.Dsim.Stats.p99 /. incr_s.Dsim.Stats.p99 in
  pf "%-12s %10s %14s %14s\n" "mode" "decisions" "converge p50" "converge p99";
  pf "%-12s %10d %12.3fms %12.3fms\n" "full-table" full_count
    full_s.Dsim.Stats.p50 full_s.Dsim.Stats.p99;
  pf "%-12s %10d %12.3fms %12.3fms\n" "incremental" incr_count
    incr_s.Dsim.Stats.p50 incr_s.Dsim.Stats.p99;
  pf "decision ratio %.2fx; converge p50 %.2fx, p99 %.2fx faster\n" ratio
    p50_speedup p99_speedup;
  let mode_json count s =
    Obs.Json.Obj
      [ ("decisions", Obs.Json.Int count); ("converge_ms", summary_json s) ]
  in
  emit "seeds" (Obs.Json.Int (List.length seeds));
  emit "iters" (Obs.Json.Int iters);
  emit "full_table" (mode_json full_count full_s);
  emit "incremental" (mode_json incr_count incr_s);
  emit "decision_ratio" (Obs.Json.Float ratio);
  emit "converge_p50_speedup" (Obs.Json.Float p50_speedup);
  emit "converge_p99_speedup" (Obs.Json.Float p99_speedup)

(* ------------------------------------------------------------------ *)
(* Causal tracing: enabled vs disabled converge cost.

   The disabled path — every provenance act behind one test of the log's
   provenance — is exactly what the gated [decision] section times, so any
   regression in disabled-tracing overhead trips the bench-decision
   p50/p99 gate above. This section quantifies the *enabled* path on the
   same chaos converge workload so the recording cost stays visible. *)

let causal () =
  header "Causal tracing: enabled vs disabled converge cost"
    "disabled path rides the bench-decision gate; enabled path measured here";
  let seeds = [ 42; 7; 1 ] in
  let iters = 5 in
  let measure traced =
    let recorder = Obs.Span.create ~max_spans:1_000_000 () in
    let events = ref 0 in
    Obs.Span.with_recorder recorder (fun () ->
        for _ = 1 to iters do
          List.iter
            (fun seed ->
              let once () =
                ignore (Experiments.Scenarios.Chaos.run_mode ~seed ~gr:true ())
              in
              if traced then begin
                (* Provenance per run, as [centralium trace] uses it. *)
                let (), logs = Bgp.Trace.with_provenance once in
                List.iter
                  (fun log ->
                    events := !events + Obs.Causal.length (Bgp.Trace.dag log))
                  logs
              end
              else once ())
            seeds
        done);
    let ms =
      List.map
        (fun s -> s *. 1000.0)
        (Obs.Span.durations_s recorder ~name:"network.converge")
    in
    (!events, Dsim.Stats.summarize ms)
  in
  let _, off_s = measure false in
  let events_on, on_s = measure true in
  let overhead_p50 = on_s.Dsim.Stats.p50 /. off_s.Dsim.Stats.p50 in
  let overhead_p99 = on_s.Dsim.Stats.p99 /. off_s.Dsim.Stats.p99 in
  pf "%-12s %14s %14s\n" "tracing" "converge p50" "converge p99";
  pf "%-12s %12.3fms %12.3fms\n" "disabled" off_s.Dsim.Stats.p50
    off_s.Dsim.Stats.p99;
  pf "%-12s %12.3fms %12.3fms\n" "enabled" on_s.Dsim.Stats.p50
    on_s.Dsim.Stats.p99;
  pf "enabled/disabled overhead: p50 %.2fx, p99 %.2fx (%d events recorded)\n"
    overhead_p50 overhead_p99 events_on;
  emit "seeds" (Obs.Json.Int (List.length seeds));
  emit "iters" (Obs.Json.Int iters);
  emit "disabled" (summary_json off_s);
  emit "enabled" (summary_json on_s);
  emit "causal_events" (Obs.Json.Int events_on);
  emit "causal_overhead_p50" (Obs.Json.Float overhead_p50);
  emit "causal_overhead_p99" (Obs.Json.Float overhead_p99)

let ops () =
  header "ops: continuous operations under overload"
    "hourly submission bursts through the bounded admission queue, async \
     NSDB replicas, watchdog canary rollbacks; 4 simulated hours, 2 seeds";
  let seeds = [ 42; 43 ] in
  let waits = ref [] and lags = ref [] and pph = ref [] in
  let rows = ref [] in
  pf "%6s %10s %8s %10s %13s %12s %10s\n" "seed" "admitted" "shed"
    "rolled-back" "wait p99 ms" "lag p99 ops" "plans/h";
  List.iter
    (fun seed ->
      let r = Experiments.Scenarios.Continuous.run ~seed ~hours:4 () in
      waits := r.Experiments.Scenarios.Continuous.queue_wait_p99_s :: !waits;
      lags := r.replica_lag_p99 :: !lags;
      pph := r.plans_per_hour :: !pph;
      pf "%6d %10d %8d %10d %13.1f %12.0f %10.1f\n" seed r.admitted r.shed
        r.rolled_back
        (1000. *. r.queue_wait_p99_s)
        r.replica_lag_p99 r.plans_per_hour;
      rows :=
        Obs.Json.Obj
          (("seed", Obs.Json.Int seed)
           :: ("hours", Obs.Json.Int r.hours)
           :: Experiments.Scenarios.Continuous.report_json r)
        :: !rows)
    seeds;
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  pf "mean: queue wait p99 %.1f ms, replica lag p99 %.0f ops, %.1f plans/h\n"
    (1000. *. mean !waits) (mean !lags) (mean !pph);
  emit "rows" (Obs.Json.List (List.rev !rows));
  emit "queue_wait_p99_s_mean" (Obs.Json.Float (mean !waits));
  emit "replica_lag_p99_mean" (Obs.Json.Float (mean !lags));
  emit "plans_per_hour_mean" (Obs.Json.Float (mean !pph))

(* ------------------------------------------------------------------ *)
(* Symbolic phase verifier: full vs delta-net incremental verification *)

let analysis () =
  header "Phase verifier: full vs delta-net incremental verification"
    "untouched equivalence classes reuse the previous boundary's forwarding \
     graphs; incremental re-verification is measurably cheaper than full";
  let module PV = Analysis.Phase_verifier in
  let fab = Topology.Clos.fabric () in
  let tagged =
    Net.Attr.make
      ~communities:
        (Net.Community.Set.singleton
           Net.Community.Well_known.backbone_default_route)
      ()
  in
  (* One anycast default class plus [n_spec] specific classes, all
     originated at the EBs. *)
  let n_spec = 12 in
  let origins =
    List.map
      (fun eb ->
        {
          PV.org_device = eb;
          org_prefix = Net.Prefix.default_v4;
          org_attr = tagged;
        })
      fab.Topology.Clos.ebs
    @ List.init n_spec (fun j ->
          {
            PV.org_device =
              List.nth fab.Topology.Clos.ebs
                (j mod List.length fab.Topology.Clos.ebs);
            org_prefix = Net.Prefix.v4 10 j 0 0 16;
            org_attr = Net.Attr.make ();
          })
  in
  (* Each phase deploys RPAs that steer exactly one specific class: the
     delta-net set is 1 class of 13 per state. The steer pins FSW
     forwarding to upstream (SSW-learned) paths — the natural best paths,
     so the plan is clean and the bench measures verification, not
     violation reporting. *)
  let ssw_asns =
    List.map (fun d -> Net.Asn.of_int (64512 + d)) fab.Topology.Clos.ssws
  in
  let steer j =
    Centralium.Rpa.make
      ~path_selection:
        [
          Centralium.Path_selection.make
            [
              Centralium.Path_selection.statement
                ~name:(Printf.sprintf "steer-10-%d" j)
                ~path_sets:
                  [
                    Centralium.Path_selection.path_set ~name:"via-ssw"
                      (Centralium.Signature.make ~neighbor_asns:ssw_asns ());
                  ]
                (Centralium.Destination.Prefixes [ Net.Prefix.v4 10 j 0 0 16 ]);
            ];
        ]
      ()
  in
  let rec chunk n = function
    | [] -> []
    | l ->
      let rec take k = function
        | x :: tl when k > 0 ->
          let a, b = take (k - 1) tl in
          (x :: a, b)
        | rest -> ([], rest)
      in
      let a, b = take n l in
      a :: chunk n b
  in
  let phases = chunk 4 fab.Topology.Clos.fsws in
  let rpas =
    List.concat
      (List.mapi (fun k ph -> List.map (fun d -> (d, steer k)) ph) phases)
  in
  let plan =
    {
      Centralium.Controller.plan_name = "bench-analysis";
      rpas;
      phases;
      pre_checks = [];
      post_checks = [];
    }
  in
  let iters = 5 in
  let measure ~incremental =
    let samples = ref [] in
    let last = ref None in
    for _ = 1 to iters do
      let t0 = Monotonic_clock.now () in
      let r = PV.verify ~origins ~incremental fab.Topology.Clos.graph plan in
      let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
      samples := ms :: !samples;
      last := Some r
    done;
    (Option.get !last, Dsim.Stats.summarize !samples)
  in
  let full_r, full_s = measure ~incremental:false in
  let incr_r, incr_s = measure ~incremental:true in
  (* Same verdicts either way: reuse only skips provably untouched work. *)
  assert (full_r.PV.vr_violations = [] && incr_r.PV.vr_violations = []);
  assert (full_r.PV.vr_states = incr_r.PV.vr_states);
  let p50_speedup = full_s.Dsim.Stats.p50 /. incr_s.Dsim.Stats.p50 in
  let p99_speedup = full_s.Dsim.Stats.p99 /. incr_s.Dsim.Stats.p99 in
  pf "%d classes, %d states, %d devices\n" incr_r.PV.vr_classes
    incr_r.PV.vr_states
    (List.length (Topology.Graph.nodes fab.Topology.Clos.graph));
  pf "%-12s %10s %8s %12s %12s\n" "mode" "compiled" "reused" "verify p50"
    "verify p99";
  pf "%-12s %10d %8d %10.3fms %10.3fms\n" "full" full_r.PV.vr_compiled
    full_r.PV.vr_reused full_s.Dsim.Stats.p50 full_s.Dsim.Stats.p99;
  pf "%-12s %10d %8d %10.3fms %10.3fms\n" "incremental" incr_r.PV.vr_compiled
    incr_r.PV.vr_reused incr_s.Dsim.Stats.p50 incr_s.Dsim.Stats.p99;
  pf "compile ratio %.2fx; verify p50 %.2fx, p99 %.2fx faster\n"
    (float_of_int full_r.PV.vr_compiled /. float_of_int incr_r.PV.vr_compiled)
    p50_speedup p99_speedup;
  let mode_json r s =
    Obs.Json.Obj
      [
        ("compiled", Obs.Json.Int r.PV.vr_compiled);
        ("reused", Obs.Json.Int r.PV.vr_reused);
        ("verify_ms", summary_json s);
      ]
  in
  emit "classes" (Obs.Json.Int incr_r.PV.vr_classes);
  emit "states" (Obs.Json.Int incr_r.PV.vr_states);
  emit "iters" (Obs.Json.Int iters);
  emit "full" (mode_json full_r full_s);
  emit "incremental" (mode_json incr_r incr_s);
  emit "compile_ratio"
    (Obs.Json.Float
       (float_of_int full_r.PV.vr_compiled
       /. float_of_int incr_r.PV.vr_compiled));
  emit "verify_p50_speedup" (Obs.Json.Float p50_speedup);
  emit "verify_p99_speedup" (Obs.Json.Float p99_speedup)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("fig3", fig3);
    ("fig2", fig2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("table2", table2);
    ("table3", table3);
    ("perf", perf);
    ("ablations", ablations);
    ("scale", scale);
    ("micro", micro);
    ("chaos", chaos);
    ("chaos_gr", chaos_gr);
    ("ha", ha);
    ("decision", decision);
    ("causal", causal);
    ("ops", ops);
    ("analysis", analysis);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ :: [] | [] -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> run_section name f
      | None ->
        pf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 1)
    requested;
  pf "\nAll sections completed.\n"
