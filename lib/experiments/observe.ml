type run_summary = {
  scenario : string;
  seed : int;
  lines : int;
  events : int;
  spans : int;
  dropped_spans : int;
  headline : (string * Obs.Json.t) list;
}

(* ---------------- Git revision ---------------- *)

let read_first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> None
        | line -> Some (String.trim line))

let packed_ref refname =
  match open_in ".git/packed-refs" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let found = ref None in
        (try
           while !found = None do
             let line = input_line ic in
             match String.index_opt line ' ' with
             | Some i
               when String.sub line (i + 1) (String.length line - i - 1)
                    = refname ->
               found := Some (String.sub line 0 i)
             | Some _ | None -> ()
           done
         with End_of_file -> ());
        !found)

let git_rev () =
  match read_first_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let refname = String.sub head 5 (String.length head - 5) in
      match read_first_line (Filename.concat ".git" refname) with
      | Some sha -> sha
      | None -> Option.value (packed_ref refname) ~default:"unknown"
    end
    else head (* detached HEAD: the line is the sha itself *)

(* ---------------- Scenario table ---------------- *)

let f x = Obs.Json.Float x
let i x = Obs.Json.Int x
let b x = Obs.Json.Bool x

(* Each entry: (name, topology description, runner). The runner returns the
   headline figures plus whatever trace events the scenario retained. *)
let specs :
    (string * string * (seed:int -> (string * Obs.Json.t) list * Bgp.Trace.event list))
    list =
  [
    ( "fig2",
      "expansion Clos: FAv1 planes plus the first FAv2",
      fun ~seed ->
        let r = Scenarios.Fig2.run ~seed () in
        ( [
            ("baseline_funnel", f r.Scenarios.Fig2.baseline_funnel);
            ("native_fav2_share", f r.native_fav2_share);
            ("rpa_fav2_share", f r.rpa_fav2_share);
            ("balanced_share", f r.balanced_share);
            ("rpa_loss", f r.rpa_loss);
          ],
          [] ) );
    ( "fig4",
      "decommission mesh: 4 planes x 8 grids x 4 FADUs",
      fun ~seed ->
        let r = Scenarios.Fig4.run ~seed () in
        ( [
            ("steady_share", f r.Scenarios.Fig4.steady_share);
            ("native_worst_funnel", f r.native_worst_funnel);
            ("rpa_worst_funnel", f r.rpa_worst_funnel);
          ],
          [] ) );
    ( "fig5",
      "WCMP convergence pod: DU under EB maintenance",
      fun ~seed ->
        let r = Scenarios.Fig5.run ~seed () in
        ( [
            ("prefixes", i r.Scenarios.Fig5.prefixes);
            ("du_nhg_native", i r.du_nhg_native);
            ("du_nhg_rpa", i r.du_nhg_rpa);
            ("theoretical_bound", i r.theoretical_bound);
          ],
          [] ) );
    ( "fig9",
      "mixed-dissemination ring (R0..R6)",
      fun ~seed ->
        let r = Scenarios.Fig9.run ~seed () in
        ( [
            ( "loops_with_best_advertised",
              i (List.length r.Scenarios.Fig9.loops_with_best_advertised) );
            ("circulating_bad", f r.circulating_bad);
            ("ttl_loss_bad", f r.ttl_loss_bad);
            ("loops_with_rule", i (List.length r.loops_with_rule));
            ("circulating_good", f r.circulating_good);
            ("ttl_loss_good", f r.ttl_loss_good);
          ],
          [] ) );
    ( "fig10",
      "rollout FA/DMAG fabric",
      fun ~seed ->
        let r = Scenarios.Fig10.run ~seed () in
        ( [
            ("funnel_top_down", f r.Scenarios.Fig10.funnel_top_down);
            ("funnel_bottom_up", f r.funnel_bottom_up);
            ("balanced", f r.balanced);
          ],
          [] ) );
    ( "fig13",
      "TE instance: 4 FAUUs x 4 EBs, heterogeneous uplinks",
      fun ~seed ->
        let r = Scenarios.Fig13.run ~seed () in
        ( [
            ("events", i (List.length r.Scenarios.Fig13.events));
            ("mean_rpa_over_ideal", f r.mean_rpa_over_ideal);
            ("mean_ecmp_over_ideal", f r.mean_ecmp_over_ideal);
            ("unblocked_fraction", f r.unblocked_fraction);
          ],
          [] ) );
    ( "fig14",
      "SEV topology: SSW guard vs a bad FA origination",
      fun ~seed ->
        let r = Scenarios.Fig14.run ~seed () in
        ( [
            ("blackholed_with_knob", f r.Scenarios.Fig14.blackholed_with_knob);
            ("blackholed_without_knob", f r.blackholed_without_knob);
            ("propagated_past_ssw", b r.propagated_past_ssw);
          ],
          [] ) );
    ( "faulted",
      "expansion Clos under a seeded fault schedule",
      fun ~seed ->
        let r = Scenarios.Faulted.run ~seed () in
        ( [
            ("events_executed", i r.Scenarios.Faulted.events_executed);
            ("messages_dropped", i r.messages_dropped);
            ("speaker_restarts", i r.speaker_restarts);
            ( "transient_violations",
              i (List.length r.transient_violations) );
            ("final_violations", i (List.length r.final_violations));
            ( "schedule_actions",
              i (List.length r.schedule) );
          ],
          r.trace ) );
    ( "faulted_deploy",
      "expansion equalizer rollout under management-plane chaos",
      fun ~seed ->
        let r =
          Scenarios.Faulted_deploy.run ~seed
            ~crash_after_ops:(12 + (seed mod 7)) ()
        in
        ( [
            ("outcome", Obs.Json.String r.Scenarios.Faulted_deploy.outcome);
            ("applied", i r.applied);
            ("skipped_in_sync", i r.skipped_in_sync);
            ("retries", i r.retries);
            ("backoffs", i (List.length r.backoff_seconds));
            ("crashed", b r.crashed);
            ("resumed", b r.resumed);
            ("gave_up", i (List.length r.gave_up));
            ("unreachable", i (List.length r.unreachable));
            ( "transient_violations",
              i (List.length r.transient_violations) );
            ("phase_violations", i (List.length r.phase_violations));
            ("final_violations", i (List.length r.final_violations));
            ("fib_digest", Obs.Json.String r.fib_digest);
          ],
          [] ) );
    ( "chaos_gr",
      "expansion Clos under severe message faults and speaker restarts, \
       session liveness on, graceful restart on vs off",
      fun ~seed ->
        let r = Scenarios.Chaos.run ~seed () in
        ( [
            ("gr_on", Obs.Json.Obj (Scenarios.Chaos.mode_json r.gr_on));
            ("gr_off", Obs.Json.Obj (Scenarios.Chaos.mode_json r.gr_off));
            ("passed", b (Scenarios.Chaos.passed r));
          ],
          [] ) );
  ]

let scenario_names = List.map (fun (n, _, _) -> n) specs

(* ---------------- Export ---------------- *)

let tagged tag = function
  | Obs.Json.Obj fields -> Obs.Json.Obj (("type", Obs.Json.String tag) :: fields)
  | j -> Obs.Json.Obj [ ("type", Obs.Json.String tag); ("value", j) ]

let run ?(seed = 42) ~scenario ~write () =
  match List.find_opt (fun (n, _, _) -> n = scenario) specs with
  | None ->
    Error
      (Printf.sprintf "unknown scenario %S (valid: %s)" scenario
         (String.concat ", " scenario_names))
  | Some (name, topology, exec) ->
    let registry = Obs.Metrics.default in
    let was_enabled = Obs.Metrics.is_enabled registry in
    Obs.Metrics.reset registry;
    Obs.Metrics.set_enabled registry true;
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled registry was_enabled)
      (fun () ->
        let recorder = Obs.Span.create () in
        let headline, events =
          Obs.Span.with_recorder recorder (fun () -> exec ~seed)
        in
        let lines = ref 0 in
        let emit j =
          incr lines;
          write (Obs.Json.to_string j)
        in
        emit
          (Obs.Json.Obj
             [
               ("type", Obs.Json.String "manifest");
               ("schema_version", Obs.Json.Int 1);
               ("scenario", Obs.Json.String name);
               ("seed", Obs.Json.Int seed);
               ("topology", Obs.Json.String topology);
               ("git_rev", Obs.Json.String (git_rev ()));
             ]);
        List.iter (fun e -> emit (Bgp.Trace.event_to_json e)) events;
        (* Chaos schedules or caught exceptions can leave scopes open at the
           export point; force-close them so the span tree is well-formed. *)
        Obs.Span.close_open recorder;
        let spans = Obs.Span.spans recorder in
        List.iter (fun s -> emit (tagged "span" (Obs.Span.span_to_json s))) spans;
        emit
          (Obs.Json.Obj
             [
               ("type", Obs.Json.String "metrics");
               ("snapshot", Obs.Metrics.snapshot registry);
             ]);
        emit
          (Obs.Json.Obj
             [
               ("type", Obs.Json.String "summary");
               ("scenario", Obs.Json.String name);
               ("seed", Obs.Json.Int seed);
               ("events", Obs.Json.Int (List.length events));
               ("spans", Obs.Json.Int (List.length spans));
               ("dropped_spans", Obs.Json.Int (Obs.Span.dropped recorder));
               ("headline", Obs.Json.Obj headline);
             ]);
        Ok
          {
            scenario = name;
            seed;
            lines = !lines;
            events = List.length events;
            spans = List.length spans;
            dropped_spans = Obs.Span.dropped recorder;
            headline;
          })
