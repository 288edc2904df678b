(* The rollout benchmark: how long a migration plan takes from [Ops.submit]
   to its last FIB install, on three workloads, with the time attributed
   to layers in a separate traced run. See README.md.

   From the repository root:

     main.exe --workload fulldc_rollout|clos_churn|chaos_converge
              [--seed N] [--seconds S] [--trace 0|1]

   Untraced (the default), it repeats fresh rounds of the workload until
   S seconds (default 10) have passed, at least one round, and reports the
   end-to-end metrics in BENCH_rollout_<workload>.json. With --trace 1 it
   runs one untraced round and one traced round and reports the per-layer
   metrics in BENCH_rollout_<workload>.trace.json, next to a Perfetto file.
   Either way it prints every metric as "name value unit", checks the
   outputs, and ends with one JSON line: correct, attempted, failed and
   metrics. It exits 1 when a check fails. *)

open Rollout
module W = Workloads

let usage () =
  prerr_endline
    "usage: main.exe --workload fulldc_rollout|clos_churn|chaos_converge \
     [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest when List.mem_assoc w W.all -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> go { a with seed } rest
      | None -> usage ())
    | "--seconds" :: n :: rest -> (
      match float_of_string_opt n with
      | Some seconds when seconds >= 0. -> go { a with seconds } rest
      | Some _ | None -> usage ())
    | "--trace" :: (("0" | "1") as t) :: rest -> go { a with trace = t = "1" } rest
    | _ -> usage ()
  in
  let a = go { workload = ""; seed = 42; seconds = 10.; trace = false } argv in
  if a.workload = "" then usage () else a

let expected_path = "bench/rollout/expected.json"

let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  Dsim.Stats.percentile a q

let median = percentile 50.

(* The committed seed-42 outputs, compared by their JSON rendering. *)
let check_expected workload det =
  match In_channel.with_open_text expected_path In_channel.input_all with
  | exception Sys_error e -> [ "cannot read " ^ e ]
  | text -> (
    match Result.map (Obs.Json.member workload) (Obs.Json.of_string text) with
    | Error e -> [ Printf.sprintf "%s: %s" expected_path e ]
    | Ok None -> [ Printf.sprintf "%s has no entry for %s" expected_path workload ]
    | Ok (Some e) ->
      let want = Obs.Json.to_string e and got = Obs.Json.to_string (W.det_json det) in
      if want = got then []
      else [ Printf.sprintf "outputs differ from %s: expected %s, got %s" expected_path want got ])

type metric = string * float * string

let all_job_ms rounds =
  List.concat_map (fun (r : W.round) -> List.map (fun (j : W.job) -> j.wall_ms) r.jobs) rounds

let all_setup_s rounds = List.concat_map (fun (r : W.round) -> r.setup_s) rounds

(* The rounds of one seed repeat the same jobs, so a job's time is its
   median over the rounds, and throughput the median of the rounds': a
   stretch of slow host that hits one round does not move the run. *)
let e2e (rounds : W.round list) : metric list =
  let per_round = List.map (fun r -> Array.of_list (all_job_ms [ r ])) rounds in
  let jobs = List.fold_left (fun n a -> min n (Array.length a)) max_int per_round in
  let ms = List.init jobs (fun i -> median (List.map (fun a -> a.(i)) per_round)) in
  let d = (List.hd rounds).det in
  [
    ("job_ms.p50", median ms, "ms");
    ("job_ms.p90", percentile 90. ms, "ms");
    ( "jobs_per_s",
      median
        (List.map2
           (fun a (r : W.round) -> float_of_int (Array.length a) /. r.loop_s)
           per_round rounds),
      "1/s" );
    ("setup_s", median (all_setup_s rounds), "s");
    ( "heap_live_mb",
      List.fold_left (fun m (r : W.round) -> Float.max m r.live_mb) 0. rounds,
      "MB" );
    ("virtual_ms_per_job", d.virtual_ms_per_job, "sim_ms");
    ("messages_per_job", d.messages_per_job, "count");
  ]

let per_layer ~rows ~(traced : W.round) ~overhead ~dropped : metric list =
  let module A = Attribution in
  let c = Layers.counts and m = Layers.metric_count in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let count name v = (name, float_of_int v, "count") in
  let self name span = (name, A.self_ms rows span, "ms") in
  let fraction name v = (name, v, "fraction") in
  let reconciles = A.calls rows "agent.reconcile" in
  let rpc_failed = m "agent.rpc_lost" + m "agent.rpc_transient" + m "agent.rpc_timeout" in
  let hits = m "engine.cache.hits" and misses = m "engine.cache.misses" in
  [
    count "ops.submit.calls" c.submit_calls;
    self "ops.submit.self_ms" "ops.submit";
    count "ops.shed" c.shed;
    ( "ops.queue_wait_virtual_ms.p50",
      (if traced.queue_waits_ms = [] then 0. else median traced.queue_waits_ms),
      "sim_ms" );
    count "lint.calls" c.lint_calls;
    self "lint.self_ms" "lint.plan";
    ("lint.minor_mw", c.lint_minor_words /. 1e6, "Mwords");
    count "verify.calls" c.verify_calls;
    self "verify.self_ms" "verify.plan";
    ("verify.minor_mw", c.verify_minor_words /. 1e6, "Mwords");
    count "verify.compiled" c.verify_compiled;
    fraction "verify.reuse_frac"
      (frac c.verify_reused (c.verify_compiled + c.verify_reused));
    fraction "verify.wasted_frac" (frac c.verify_wasted c.verify_calls);
    self "controller.self_ms" "controller.deploy";
    count "controller.journal_writes" (m "controller.journal_writes");
    count "controller.retries" (m "controller.retries");
    count "controller.rollbacks" (m "controller.rollbacks");
    count "agent.reconcile.calls" reconciles;
    self "agent.reconcile.self_ms" "agent.reconcile";
    fraction "agent.rpc_failed_frac"
      (frac rpc_failed (reconciles + m "agent.rpc_lost" + m "agent.rpc_transient"));
    count "network.converge.calls" (A.calls rows "network.converge");
    self "network.converge.self_ms" "network.converge";
    count "network.events" (m "bgp.converge.events" + c.run_until_events);
    count "network.messages" (m "bgp.messages.sent");
    count "network.messages_dropped" (m "bgp.messages.dropped");
    count "speaker.decision.calls" (A.calls rows "speaker.decision");
    self "speaker.decision.self_ms" "speaker.decision";
    count "engine.select.calls" (A.calls rows "engine.select");
    self "engine.select.self_ms" "engine.select";
    fraction "engine.cache_hit_frac" (frac hits (hits + misses));
    count "invariant.sweep.calls" (A.calls rows "invariant.sweep");
    self "invariant.sweep.self_ms" "invariant.sweep";
    count "watchdog.probe.calls" (A.calls rows "watchdog.probe");
    self "watchdog.probe.self_ms" "watchdog.probe";
    fraction "trace.unattributed_frac" (A.unattributed_frac rows);
    fraction "trace.overhead_frac" overhead;
    count "trace.dropped_spans" dropped;
  ]

let metrics_json (ms : metric list) =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Obs.Json.Obj [ ("value", Float v); ("unit", String unit) ]))
       ms)

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string json);
      Out_channel.output_char oc '\n')

(* Writes the trace files and returns the per-layer metrics and the
   attribution checks that failed. *)
let report_trace ~base ~workload ~untraced (traced : W.round) (t : Attribution.summary) =
  let overhead = (median (all_job_ms [ traced ]) /. median (all_job_ms untraced)) -. 1. in
  let metrics = per_layer ~rows:t.rows ~traced ~overhead ~dropped:t.dropped in
  let total = Attribution.job_total_s t.rows in
  write_json
    (Printf.sprintf "BENCH_rollout_%s.trace.json" workload)
    (Obs.Json.Obj
       (base
       @ [
           ("metrics", metrics_json metrics);
           ("spans_recorded", Int t.spans);
           ( "layers",
             List
               (List.map
                  (fun (layer, self_s) ->
                    Obs.Json.Obj
                      [
                        ("layer", String layer);
                        ("self_ms", Float (1000. *. self_s));
                        ("share", Float (if total > 0. then self_s /. total else 0.));
                      ])
                  (Attribution.layers t.rows)) );
           ( "spans",
             List
               (List.map
                  (fun (row : Attribution.row) ->
                    Obs.Json.Obj
                      [
                        ("name", String row.name);
                        ("calls", Int row.calls);
                        ("total_ms", Float (1000. *. row.total_s));
                        ("self_ms", Float (1000. *. row.self_s));
                      ])
                  t.rows) );
         ]));
  Option.iter
    (fun spans ->
      write_json
        (Printf.sprintf "BENCH_rollout_%s.perfetto.json" workload)
        (Obs.Export.perfetto ~spans ()))
    t.perfetto;
  let unattributed = Attribution.unattributed_frac t.rows in
  ( metrics,
    (if t.dropped > 0 then [ Printf.sprintf "%d spans dropped" t.dropped ] else [])
    @
    if unattributed > 0.05 then
      [ Printf.sprintf "layers leave %.1f%% of job time unattributed" (100. *. unattributed) ]
    else [] )

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  let round = List.assoc a.workload W.all in
  (* Untraced rounds until [a.seconds] have passed; one when tracing, as
     the reference for the overhead and for the traced outputs. *)
  let t0 = Monotonic_clock.now () in
  let rec untraced rounds =
    let rounds = rounds @ [ round ~seed:a.seed ] in
    if a.trace || W.seconds_since t0 >= a.seconds then rounds else untraced rounds
  in
  let rounds = untraced [] in
  let traced =
    if a.trace then Some (Attribution.traced (fun () -> round ~seed:a.seed)) else None
  in
  let all_rounds = rounds @ Option.fold ~none:[] ~some:(fun (r, _) -> [ r ]) traced in
  let det = (List.hd rounds).det in
  let checks =
    List.concat_map (fun (r : W.round) -> r.problems) all_rounds
    @ (if List.for_all (fun (r : W.round) -> r.det = det) all_rounds then []
       else [ "rounds of one seed disagree on their deterministic outputs" ])
    @ if a.seed = 42 then check_expected a.workload det else []
  in
  let base =
    [
      ("workload", Obs.Json.String a.workload);
      ("seed", Int a.seed);
      ("trace", Bool a.trace);
      ("git_rev", String (Layers.git_rev ()));
      ("cores", Int (Domain.recommended_domain_count ()));
      ("rounds", Int (List.length rounds));
      ("jobs", Int (List.length (all_job_ms rounds)));
      ("setups", Int (List.length (all_setup_s rounds)));
      ("deterministic", W.det_json det);
    ]
  in
  let metrics, checks =
    match traced with
    | None ->
      let m = e2e rounds in
      write_json
        (Printf.sprintf "BENCH_rollout_%s.json" a.workload)
        (Obs.Json.Obj (base @ [ ("metrics", metrics_json m) ]));
      (m, checks)
    | Some (r, t) ->
      let m, failed = report_trace ~base ~workload:a.workload ~untraced:rounds r t in
      (m, checks @ failed)
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%s %.6g %s\n" name v unit) metrics;
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %.6g %s (deterministic)\n" name v unit)
    [
      ("failed_frac", det.failed_frac, "fraction");
      ("blackhole_s", det.blackhole_s, "sim_s");
    ];
  List.iter (fun p -> Printf.printf "FAILED: %s\n" p) checks;
  let sum f = List.fold_left (fun n r -> n + f r) 0 all_rounds in
  let correct = checks = [] in
  print_endline
    (Obs.Json.to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int (sum (fun r -> r.det.submitted)));
            ("failed", Int (sum (fun r -> r.failed)));
            ("metrics", metrics_json metrics);
          ]));
  if not correct then exit 1
