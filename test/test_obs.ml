(* Tests for the observability subsystem: the hand-rolled JSON codec, the
   metrics registry, span recording, trace memoization, the JSONL run
   export, and — most load-bearing — that enabling instrumentation cannot
   change a simulation's outcome. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- JSON ---------------- *)

let json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("true", Obs.Json.Bool true);
        ("int", Obs.Json.Int (-42));
        ("float", Obs.Json.Float 1.5);
        ("string", Obs.Json.String "a \"quoted\"\nline\twith\\controls\x01");
        ( "list",
          Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ] );
      ]
  in
  let s = Obs.Json.to_string j in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok parsed -> checkb "round-trips" true (parsed = j)

let json_escapes () =
  check Alcotest.string "control chars escaped" "\"\\u0001\\n\\t\\\\\""
    (Obs.Json.to_string (Obs.Json.String "\x01\n\t\\"));
  check Alcotest.string "non-finite floats become null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check Alcotest.string "infinity becomes null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let json_float_roundtrip () =
  (* Finite floats must survive to_string -> of_string bit-exactly: the
     emitter prefers the short %.12g form but falls back to %.17g when the
     short form does not re-parse to the same value. *)
  List.iter
    (fun f ->
      let s = Obs.Json.to_string (Obs.Json.Float f) in
      match float_of_string_opt s with
      | Some f' ->
        checkb (Printf.sprintf "%s round-trips bit-exactly" s) true (f' = f)
      | None -> Alcotest.failf "emitted unparseable float %S" s)
    [
      0.1 +. 0.2; 1.0 /. 3.0; 0.001; 1e-300; 123456.789; max_float;
      -0.152123; 4.9e-324 (* smallest subnormal *);
    ]

let json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    bad

let json_accessors () =
  match Obs.Json.of_string {|{"a": 1, "b": [2.5], "c": "x"}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
    checki "int member" 1
      (match Obs.Json.member "a" j with
       | Some v -> Option.get (Obs.Json.to_int v)
       | None -> -1);
    checkb "missing member" true (Obs.Json.member "zzz" j = None);
    check (Alcotest.float 1e-9) "float in list" 2.5
      (match Obs.Json.member "b" j with
       | Some (Obs.Json.List [ v ]) -> Option.get (Obs.Json.to_float v)
       | _ -> Float.nan)

(* ---------------- Metrics ---------------- *)

let metrics_disabled_is_noop () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:r "test.counter" in
  let h = Obs.Metrics.histogram ~registry:r "test.histogram" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:10 c;
  Obs.Metrics.observe h 1.0;
  checki "counter untouched while disabled" 0 (Obs.Metrics.value c);
  checkb "histogram untouched while disabled" true
    (Obs.Metrics.summary h = None)

let metrics_enabled_counts () =
  let r = Obs.Metrics.create ~enabled:true () in
  let c = Obs.Metrics.counter ~registry:r "test.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  checki "counter counts" 5 (Obs.Metrics.value c);
  let g = Obs.Metrics.gauge ~registry:r "test.gauge" in
  Obs.Metrics.set_gauge g 2.0;
  Obs.Metrics.add_gauge g 0.5;
  check (Alcotest.float 1e-9) "gauge value" 2.5 (Obs.Metrics.gauge_value g);
  (* Interning: same (name, labels) -> same instrument. *)
  let c' = Obs.Metrics.counter ~registry:r "test.counter" in
  Obs.Metrics.incr c';
  checki "interned counter shares state" 6 (Obs.Metrics.value c);
  (* Distinct labels -> distinct instrument. *)
  let c2 =
    Obs.Metrics.counter ~registry:r ~labels:[ ("k", "v") ] "test.counter"
  in
  Obs.Metrics.incr c2;
  checki "labelled counter independent" 6 (Obs.Metrics.value c);
  checki "labelled counter counts" 1 (Obs.Metrics.value c2)

let metrics_histogram_percentiles () =
  let r = Obs.Metrics.create ~enabled:true () in
  let h = Obs.Metrics.histogram ~registry:r "test.h" in
  (* 1..100: enough samples that the growable array doubles several times. *)
  for i = 1 to 100 do
    Obs.Metrics.observe h (float_of_int i)
  done;
  match Obs.Metrics.summary h with
  | None -> Alcotest.fail "expected a summary"
  | Some s ->
    checki "count" 100 s.Dsim.Stats.count;
    check (Alcotest.float 1e-9) "min" 1.0 s.Dsim.Stats.min;
    check (Alcotest.float 1e-9) "max" 100.0 s.Dsim.Stats.max;
    checkb "p50 mid-range" true
      (s.Dsim.Stats.p50 >= 49.0 && s.Dsim.Stats.p50 <= 52.0);
    checkb "p99 high" true (s.Dsim.Stats.p99 >= 98.0)

let metrics_reset_keeps_instruments () =
  let r = Obs.Metrics.create ~enabled:true () in
  let c = Obs.Metrics.counter ~registry:r "test.c" in
  let h = Obs.Metrics.histogram ~registry:r "test.h" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 3.0;
  Obs.Metrics.reset r;
  checki "counter zeroed" 0 (Obs.Metrics.value c);
  checkb "histogram cleared" true (Obs.Metrics.summary h = None);
  (* The same instrument object keeps working after reset. *)
  Obs.Metrics.incr c;
  checki "counter alive after reset" 1 (Obs.Metrics.value c)

let metrics_snapshot_parses () =
  let r = Obs.Metrics.create ~enabled:true () in
  let c = Obs.Metrics.counter ~registry:r "snap.counter" in
  let h = Obs.Metrics.histogram ~registry:r "snap.histogram" in
  Obs.Metrics.incr ~by:7 c;
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.0 ];
  let s = Obs.Json.to_string (Obs.Metrics.snapshot r) in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "snapshot does not parse: %s" e
  | Ok j ->
    (match Obs.Json.member "counters" j with
     | Some (Obs.Json.List [ entry ]) ->
       checki "counter value exported" 7
         (match Obs.Json.member "value" entry with
          | Some v -> Option.get (Obs.Json.to_int v)
          | None -> -1)
     | _ -> Alcotest.fail "expected one counter");
    (match Obs.Json.member "histograms" j with
     | Some (Obs.Json.List [ entry ]) ->
       checki "histogram count exported" 3
         (match Obs.Json.member "count" entry with
          | Some v -> Option.get (Obs.Json.to_int v)
          | None -> -1)
     | _ -> Alcotest.fail "expected one histogram")

(* ---------------- Spans ---------------- *)

let spans_nest () =
  let r = Obs.Span.create () in
  let result =
    Obs.Span.with_recorder r (fun () ->
        Obs.Span.with_span "outer" (fun () ->
            Obs.Span.with_span "inner"
              ~attrs:(fun () -> [ ("k", "v") ])
              (fun () -> 42)))
  in
  checki "value flows through" 42 result;
  match Obs.Span.spans r with
  | [ outer; inner ] ->
    check Alcotest.string "outer name" "outer" outer.Obs.Span.name;
    check Alcotest.string "inner name" "inner" inner.Obs.Span.name;
    checkb "outer has no parent" true (outer.Obs.Span.parent = None);
    checkb "inner's parent is outer" true
      (inner.Obs.Span.parent = Some outer.Obs.Span.id);
    checkb "inner attrs recorded" true
      (inner.Obs.Span.attrs = [ ("k", "v") ]);
    checkb "inner nested in outer wall time" true
      (inner.Obs.Span.wall_start_s >= outer.Obs.Span.wall_start_s)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let spans_without_recorder () =
  (* No recorder installed: with_span is just function application, and the
     attrs thunk is never evaluated. *)
  let evaluated = ref false in
  let result =
    Obs.Span.with_span "free"
      ~attrs:(fun () ->
        evaluated := true;
        [])
      (fun () -> 7)
  in
  checki "runs the body" 7 result;
  checkb "attrs thunk not evaluated" false !evaluated

let spans_survive_exceptions () =
  let r = Obs.Span.create () in
  (try
     Obs.Span.with_recorder r (fun () ->
         Obs.Span.with_span "will-raise" (fun () -> failwith "boom"))
   with Failure _ -> ());
  match Obs.Span.spans r with
  | [ s ] -> check Alcotest.string "span closed on raise" "will-raise" s.Obs.Span.name
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let spans_cap () =
  let r = Obs.Span.create ~max_spans:3 () in
  Obs.Span.with_recorder r (fun () ->
      for _ = 1 to 5 do
        Obs.Span.with_span "s" (fun () -> ())
      done);
  checki "capped at max_spans" 3 (List.length (Obs.Span.spans r));
  checki "overflow counted" 2 (Obs.Span.dropped r)

let spans_sim_clock () =
  let r = Obs.Span.create () in
  Obs.Span.with_recorder r (fun () ->
      let clock = ref 1.0 in
      Obs.Span.set_sim_clock (fun () -> !clock);
      Obs.Span.with_span "timed" (fun () -> clock := 2.5));
  match Obs.Span.spans r with
  | [ s ] ->
    checkb "sim_start stamped" true (s.Obs.Span.sim_start = Some 1.0);
    checkb "sim_stop stamped" true (s.Obs.Span.sim_stop = Some 2.5)
  | _ -> Alcotest.fail "expected 1 span"

let spans_close_open () =
  (* A crash (or chaos schedule) can leave scopes open at export time;
     close_open records them once — with a truncated marker — and the
     normal unwind afterwards must not record them again. *)
  let r = Obs.Span.create () in
  Obs.Span.with_recorder r (fun () ->
      Obs.Span.with_span "outer" (fun () ->
          Obs.Span.with_span "inner" (fun () ->
              checki "two scopes open" 2 (Obs.Span.open_scopes r);
              Obs.Span.close_open r;
              checki "none open after force-close" 0 (Obs.Span.open_scopes r))));
  let spans = Obs.Span.spans r in
  checki "each scope recorded exactly once" 2 (List.length spans);
  let ids = List.map (fun (s : Obs.Span.span) -> s.Obs.Span.id) spans in
  checkb "ids distinct" true
    (List.length (List.sort_uniq compare ids) = List.length ids);
  checkb "force-closed spans are marked truncated" true
    (List.for_all
       (fun (s : Obs.Span.span) ->
         List.assoc_opt "truncated" s.Obs.Span.attrs = Some "true")
       spans);
  (* Parents still form a tree over recorded ids. *)
  checkb "parents resolve" true
    (List.for_all
       (fun (s : Obs.Span.span) ->
         match s.Obs.Span.parent with
         | None -> true
         | Some p -> List.mem p ids)
       spans)

(* ---------------- Trace memoization ---------------- *)

let trace_events_memoized () =
  let t = Bgp.Trace.create () in
  let ev i =
    Bgp.Trace.Fib_change
      {
        time = float_of_int i;
        device = i;
        prefix = Net.Prefix.default_v4;
        state = None;
      }
  in
  for i = 0 to 9 do
    Bgp.Trace.record t (ev i)
  done;
  let l1 = Bgp.Trace.events t in
  let l2 = Bgp.Trace.events t in
  checkb "unchanged trace returns the same list" true (l1 == l2);
  checki "length agrees" 10 (Bgp.Trace.length t);
  Bgp.Trace.record t (ev 10);
  let l3 = Bgp.Trace.events t in
  checkb "append invalidates the memo" true (not (l3 == l1));
  checki "new length" 11 (List.length l3);
  (* Recording order is preserved. *)
  checkb "forward order" true
    (List.mapi (fun i _ -> i) l3
     |> List.for_all2
          (fun e i ->
            match e with
            | Bgp.Trace.Fib_change { device; _ } -> device = i
            | _ -> false)
          l3)

(* ---------------- Determinism (the guarded invariant) ---------------- *)

(* Traces compared through their exact JSON rendering: messages carry
   attributes, which polymorphic [=] must not compare (see
   {!Net.Attr.t}). *)
let trace_json events = List.map Bgp.Trace.event_to_json events

let run_faulted () =
  let r = Experiments.Scenarios.Faulted.run ~seed:2024 () in
  r.Experiments.Scenarios.Faulted.trace

let determinism_under_instrumentation () =
  (* Baseline: everything off (the registry must be off on entry; restore
     whatever state we found). *)
  let registry = Obs.Metrics.default in
  let was = Obs.Metrics.is_enabled registry in
  Obs.Metrics.set_enabled registry false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled registry was)
    (fun () ->
      let bare = run_faulted () in
      (* Instrumented: metrics on, a span recorder installed and
         provenance on. *)
      Obs.Metrics.reset registry;
      Obs.Metrics.set_enabled registry true;
      let recorder = Obs.Span.create () in
      let instrumented, logs =
        Bgp.Trace.with_provenance (fun () ->
            Obs.Span.with_recorder recorder (fun () -> run_faulted ()))
      in
      Obs.Metrics.set_enabled registry false;
      checkb "trace is bit-identical with instrumentation on" true
        (trace_json bare = trace_json instrumented);
      checkb "the instrumented run recorded spans" true
        (Obs.Span.spans recorder <> []);
      checkb "the instrumented run recorded provenance" true
        (List.exists
           (fun log -> Obs.Causal.length (Bgp.Trace.dag log) > 0)
           logs);
      (* And the metrics agree with the trace they observed. *)
      let dropped =
        List.length
          (List.filter
             (function Bgp.Trace.Message_dropped _ -> true | _ -> false)
             instrumented)
      in
      let counter_value name =
        match
          Obs.Json.member "counters" (Obs.Metrics.snapshot registry)
        with
        | Some (Obs.Json.List entries) ->
          List.fold_left
            (fun acc e ->
              match (Obs.Json.member "name" e, Obs.Json.member "value" e) with
              | Some (Obs.Json.String n), Some v when n = name ->
                Option.value (Obs.Json.to_int v) ~default:acc
              | _ -> acc)
            (-1) entries
        | _ -> -1
      in
      checki "bgp.messages.dropped matches the trace" dropped
        (counter_value "bgp.messages.dropped"))

(* ---------------- Observe export ---------------- *)

let observe_jsonl () =
  let lines = ref [] in
  match
    Experiments.Observe.run ~seed:5 ~scenario:"faulted"
      ~write:(fun l -> lines := l :: !lines)
      ()
  with
  | Error e -> Alcotest.failf "observe failed: %s" e
  | Ok s ->
    let lines = List.rev !lines in
    checki "line count matches summary" s.Experiments.Observe.lines
      (List.length lines);
    let parsed =
      List.map
        (fun l ->
          match Obs.Json.of_string l with
          | Ok j -> j
          | Error e -> Alcotest.failf "line does not parse: %s (%s)" l e)
        lines
    in
    let type_of j =
      match Obs.Json.member "type" j with
      | Some (Obs.Json.String t) -> t
      | _ -> Alcotest.failf "line without type: %s" (Obs.Json.to_string j)
    in
    (* First line is the manifest with the run coordinates. *)
    (match parsed with
     | first :: _ ->
       check Alcotest.string "first line is the manifest" "manifest"
         (type_of first);
       checki "manifest seed" 5
         (match Obs.Json.member "seed" first with
          | Some v -> Option.get (Obs.Json.to_int v)
          | None -> -1);
       checkb "manifest names the scenario" true
         (Obs.Json.member "scenario" first
          = Some (Obs.Json.String "faulted"));
       checkb "manifest carries a git_rev" true
         (Obs.Json.member "git_rev" first <> None)
     | [] -> Alcotest.fail "no lines");
    (* Last line is the summary; exactly one metrics line precedes it. *)
    (match List.rev parsed with
     | last :: _ ->
       check Alcotest.string "last line is the summary" "summary" (type_of last)
     | [] -> ());
    checki "one metrics line" 1
      (List.length (List.filter (fun j -> type_of j = "metrics") parsed));
    checki "span lines match summary" s.spans
      (List.length (List.filter (fun j -> type_of j = "span") parsed));
    checki "event lines match summary" s.events
      (List.length
         (List.filter
            (fun j ->
              match type_of j with
              | "fib_change" | "message_sent" | "message_dropped"
              | "speaker_restarted" | "violation" ->
                true
              | _ -> false)
            parsed))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let observe_span_tree_well_formed_under_chaos () =
  (* Speaker crashes/restarts and the chaos schedule must not leave the
     exported span tree dangling: every span line's parent must reference
     an exported span id. *)
  let lines = ref [] in
  match
    Experiments.Observe.run ~seed:42 ~scenario:"chaos_gr"
      ~write:(fun l -> lines := l :: !lines)
      ()
  with
  | Error e -> Alcotest.failf "observe failed: %s" e
  | Ok s ->
    checkb "spans exported" true (s.Experiments.Observe.spans > 0);
    let spans =
      List.filter_map
        (fun l ->
          match Obs.Json.of_string l with
          | Ok j when Obs.Json.member "type" j = Some (Obs.Json.String "span")
            ->
            Some j
          | Ok _ -> None
          | Error e -> Alcotest.failf "span line does not parse: %s" e)
        !lines
    in
    checki "span lines match summary" s.spans (List.length spans);
    let id_of j =
      match Obs.Json.member "id" j with
      | Some v -> Option.get (Obs.Json.to_int v)
      | None -> Alcotest.fail "span without id"
    in
    let ids = List.map id_of spans in
    checkb "span ids unique" true
      (List.length (List.sort_uniq compare ids) = List.length ids);
    checkb "every parent references an exported span" true
      (List.for_all
         (fun j ->
           match Obs.Json.member "parent" j with
           | None | Some Obs.Json.Null -> true
           | Some v -> List.mem (Option.get (Obs.Json.to_int v)) ids)
         spans);
    (* The summary line reports each GR mode with the CLI's encoder. *)
    let headline =
      match !lines with
      | last :: _ ->
        Option.bind
          (Result.to_option (Obs.Json.of_string last))
          (Obs.Json.member "headline")
      | [] -> None
    in
    let r = Experiments.Scenarios.Chaos.run ~seed:42 () in
    List.iter
      (fun (key, m) ->
        check Alcotest.(option string)
          (key ^ " is the mode's encoding")
          (Some
             (Obs.Json.to_string
                (Obs.Json.Obj (Experiments.Scenarios.Chaos.mode_json m))))
          (Option.map Obs.Json.to_string
             (Option.bind headline (Obs.Json.member key))))
      [ ("gr_on", r.gr_on); ("gr_off", r.gr_off) ]

let observe_unknown_scenario () =
  match
    Experiments.Observe.run ~scenario:"nonexistent" ~write:(fun _ -> ()) ()
  with
  | Error e ->
    checkb "error lists every valid name" true
      (List.for_all
         (fun n -> contains ~needle:n e)
         Experiments.Observe.scenario_names)
  | Ok _ -> Alcotest.fail "expected an error"

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick json_roundtrip;
          Alcotest.test_case "escapes" `Quick json_escapes;
          Alcotest.test_case "parse errors" `Quick json_parse_errors;
          Alcotest.test_case "float precision round-trip" `Quick
            json_float_roundtrip;
          Alcotest.test_case "accessors" `Quick json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            metrics_disabled_is_noop;
          Alcotest.test_case "enabled counts" `Quick metrics_enabled_counts;
          Alcotest.test_case "histogram percentiles" `Quick
            metrics_histogram_percentiles;
          Alcotest.test_case "reset keeps instruments" `Quick
            metrics_reset_keeps_instruments;
          Alcotest.test_case "snapshot parses" `Quick metrics_snapshot_parses;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick spans_nest;
          Alcotest.test_case "no recorder" `Quick spans_without_recorder;
          Alcotest.test_case "exception safety" `Quick spans_survive_exceptions;
          Alcotest.test_case "cap" `Quick spans_cap;
          Alcotest.test_case "sim clock" `Quick spans_sim_clock;
          Alcotest.test_case "force-close open scopes" `Quick spans_close_open;
        ] );
      ( "trace",
        [ Alcotest.test_case "events memoized" `Quick trace_events_memoized ] );
      ( "determinism",
        [
          Alcotest.test_case "instrumentation changes nothing" `Slow
            determinism_under_instrumentation;
        ] );
      ( "observe",
        [
          Alcotest.test_case "JSONL export" `Slow observe_jsonl;
          Alcotest.test_case "unknown scenario" `Quick observe_unknown_scenario;
          Alcotest.test_case "span tree well-formed under chaos" `Slow
            observe_span_tree_well_formed_under_chaos;
        ] );
    ]
