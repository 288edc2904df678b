(* The rollout benchmark's own guarantees, at a small size through the same
   functions the benchmark runs: clos_churn with 2 bursts and
   chaos_converge with 3 episodes. *)

open Rollout

let small =
  [
    ("clos_churn", fun () -> Workloads.clos_churn ~bursts:2 ~seed:42 ());
    ("chaos_converge", fun () -> Workloads.chaos_converge ~episodes:3 ~seed:42 ());
  ]

let det (r : Workloads.round) = Obs.Json.to_string (Workloads.det_json r.det)

let run round =
  let (r : Workloads.round) = round () in
  Alcotest.(check (list string)) "no failed checks" [] r.problems;
  r

let repeats (name, round) =
  Alcotest.test_case (name ^ " repeats exactly") `Quick (fun () ->
      let a = run round and b = run round in
      Alcotest.(check string) "deterministic outputs" (det a) (det b))

let traced (name, round) =
  Alcotest.test_case (name ^ " traced run matches and is attributed") `Quick (fun () ->
      let untraced = run round in
      let r, (t : Attribution.summary) = Attribution.traced round in
      Alcotest.(check (list string)) "no failed checks" [] r.problems;
      Alcotest.(check string) "traced outputs equal untraced" (det untraced) (det r);
      Alcotest.(check int) "dropped spans" 0 t.dropped;
      let u = Attribution.unattributed_frac t.rows in
      if u > 0.05 then Alcotest.failf "%.1f%% of job time unattributed" (100. *. u))

let () =
  Alcotest.run "rollout"
    [ ("rollout", List.map repeats small @ List.map traced small) ]
