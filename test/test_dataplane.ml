(* Tests for lib/dataplane: traffic propagation, metrics, next-hop groups. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

let entries list =
  Bgp.Speaker.Entries
    (List.map
       (fun (next_hop, weight) -> { Bgp.Speaker.next_hop; session = 0; weight })
       list)

let fib_of assoc =
  let table = Hashtbl.create 8 in
  List.iter (fun (d, s) -> Hashtbl.replace table d s) assoc;
  Hashtbl.find_opt table

(* ---------------- Traffic ---------------- *)

let test_traffic_delivery () =
  (* 0 -> 1 -> 2(local) *)
  let lookup =
    fib_of [ (0, entries [ (1, 1) ]); (1, entries [ (2, 1) ]); (2, Bgp.Speaker.Local) ]
  in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 4.0) ] () in
  check_float "delivered" 4.0 r.Dataplane.Traffic.delivered;
  check_float "dropped" 0.0 r.Dataplane.Traffic.dropped;
  check_float "looped" 0.0 r.Dataplane.Traffic.looped;
  check_float "transit at 1" 4.0
    (Option.value (Hashtbl.find_opt r.Dataplane.Traffic.transit 1) ~default:0.0)

let test_traffic_weighted_split () =
  (* 0 splits 3:1 between 1 and 2, both local. *)
  let lookup =
    fib_of
      [ (0, entries [ (1, 3); (2, 1) ]); (1, Bgp.Speaker.Local);
        (2, Bgp.Speaker.Local) ]
  in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 8.0) ] () in
  check_float "to 1" 6.0
    (Option.value (Hashtbl.find_opt r.Dataplane.Traffic.link_load (0, 1)) ~default:0.0);
  check_float "to 2" 2.0
    (Option.value (Hashtbl.find_opt r.Dataplane.Traffic.link_load (0, 2)) ~default:0.0);
  check_float "delivered at 1" 6.0
    (Option.value (Hashtbl.find_opt r.Dataplane.Traffic.delivered_at 1) ~default:0.0)

let test_traffic_blackhole () =
  let lookup = fib_of [ (0, entries [ (1, 1) ]) ] in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 2.0) ] () in
  check_float "dropped at 1" 2.0 r.Dataplane.Traffic.dropped;
  check_float "nothing delivered" 0.0 r.Dataplane.Traffic.delivered

let test_traffic_loop_detected () =
  (* 0 -> 1 -> 0: circulating volume classified as looped. *)
  let lookup = fib_of [ (0, entries [ (1, 1) ]); (1, entries [ (0, 1) ]) ] in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 1.0) ] () in
  check_float "looped" 1.0 r.Dataplane.Traffic.looped;
  check_float "delivered" 0.0 r.Dataplane.Traffic.delivered

let test_traffic_partial_loop () =
  (* One source feeds a pure loop, the other a working path. *)
  let lookup =
    fib_of
      [ (0, entries [ (1, 1) ]); (1, entries [ (0, 1) ]);
        (5, entries [ (6, 1) ]); (6, Bgp.Speaker.Local) ]
  in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 1.0); (5, 1.0) ] () in
  check_float "delivered" 1.0 r.Dataplane.Traffic.delivered;
  check_float "looped" 1.0 r.Dataplane.Traffic.looped

let test_traffic_leaky_loop_drains () =
  (* A loop with an exit: the fluid model drains it almost entirely within
     the round budget (each pass leaks half), like TTL-bounded packets. *)
  let lookup =
    fib_of
      [ (0, entries [ (1, 1); (2, 1) ]); (1, entries [ (0, 1) ]);
        (2, Bgp.Speaker.Local) ]
  in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 2.0) ] () in
  check_bool "almost all delivered" true (r.Dataplane.Traffic.delivered > 1.9);
  check_bool "loop inflates transit" true
    (Option.value (Hashtbl.find_opt r.Dataplane.Traffic.transit 1) ~default:0.0
     > 1.0)

let test_traffic_device_ids () =
  (* Ids index arrays: far-apart ids grow them, a negative id is refused. *)
  let lookup =
    fib_of [ (3, entries [ (5000, 1) ]); (5000, entries [ (70_000, 1) ]);
             (70_000, Bgp.Speaker.Local) ]
  in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (3, 1.0) ] () in
  check_float "delivered" 1.0 r.Dataplane.Traffic.delivered;
  check_float "delivered at 70000" 1.0
    (Option.value (Hashtbl.find_opt r.Dataplane.Traffic.delivered_at 70_000)
       ~default:0.0);
  check_bool "negative id refused" true
    (match Dataplane.Traffic.route ~lookup ~demands:[ (-1, 1.0) ] () with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---------------- Metrics ---------------- *)

let test_funneling_metric () =
  let lookup =
    fib_of
      [ (0, entries [ (1, 1) ]); (3, entries [ (1, 1) ]);
        (1, entries [ (9, 1) ]); (9, Bgp.Speaker.Local) ]
  in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 1.0); (3, 1.0) ] () in
  check_float "all through 1" 1.0
    (Dataplane.Metrics.funneling r ~members:[ 1; 2 ] ~total:2.0);
  check_float "share of 2 is 0" 0.0
    (Dataplane.Metrics.transit_share r ~device:2 ~total:2.0)

let test_loss_fractions () =
  let lookup = fib_of [ (0, entries [ (1, 1) ]) ] in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 4.0) ] () in
  check_float "loss" 1.0 (Dataplane.Metrics.loss_fraction r ~total:4.0);
  check_float "blackholed" 1.0 (Dataplane.Metrics.blackholed_fraction r ~total:4.0);
  check_float "looped" 0.0 (Dataplane.Metrics.looped_fraction r ~total:4.0)

let test_find_loops () =
  let lookup =
    fib_of
      [ (0, entries [ (1, 1) ]); (1, entries [ (2, 1) ]); (2, entries [ (1, 1) ]) ]
  in
  let loops =
    Dataplane.Metrics.find_forwarding_loops ~lookup ~devices:[ 0; 1; 2 ]
  in
  check_int "one loop" 1 (List.length loops);
  (match loops with
   | [ cycle ] ->
     Alcotest.(check (list int)) "cycle 1-2" [ 1; 2 ] (List.sort Int.compare cycle)
   | _ -> Alcotest.fail "expected one cycle");
  let acyclic = fib_of [ (0, entries [ (1, 1) ]); (1, Bgp.Speaker.Local) ] in
  check_int "acyclic" 0
    (List.length
       (Dataplane.Metrics.find_forwarding_loops ~lookup:acyclic ~devices:[ 0; 1 ]))

let test_max_link_utilization () =
  let lookup =
    fib_of [ (0, entries [ (1, 1); (2, 1) ]); (1, Bgp.Speaker.Local);
             (2, Bgp.Speaker.Local) ]
  in
  let r = Dataplane.Traffic.route ~lookup ~demands:[ (0, 10.0) ] () in
  let capacity (a, b) = if (a, b) = (0, 1) then 10.0 else 2.0 in
  check_float "max util" 2.5 (Dataplane.Metrics.max_link_utilization r ~capacity)

(* ---------------- Nhg ---------------- *)

let e nh session weight = { Bgp.Speaker.next_hop = nh; session; weight }

let test_nhg_canonicalization () =
  let a = Dataplane.Nhg.of_entries [ e 1 0 2; e 2 0 4 ] in
  let b = Dataplane.Nhg.of_entries [ e 2 0 2; e 1 0 1 ] in
  check_bool "gcd + order normalized" true (Dataplane.Nhg.equal a b);
  let c = Dataplane.Nhg.of_entries [ e 1 0 1; e 2 0 3 ] in
  check_bool "different ratios differ" false (Dataplane.Nhg.equal a c);
  let d = Dataplane.Nhg.of_entries [ e 1 1 2; e 2 0 4 ] in
  check_bool "sessions distinguish" false (Dataplane.Nhg.equal a d)

let test_nhg_distinct_count () =
  let p i = Net.Prefix.v4 10 i 0 0 24 in
  let fib =
    [
      (p 1, entries [ (1, 1); (2, 1) ]);
      (p 2, entries [ (2, 1); (1, 1) ]);  (* same group *)
      (p 3, entries [ (1, 1) ]);          (* different *)
      (p 4, Bgp.Speaker.Local);           (* no group *)
    ]
  in
  check_int "two distinct" 2 (Dataplane.Nhg.distinct_count fib)

let test_nhg_timeline_from_trace () =
  let trace = Bgp.Trace.create () in
  let p1 = Net.Prefix.v4 10 1 0 0 24 and p2 = Net.Prefix.v4 10 2 0 0 24 in
  let fc time prefix state =
    Bgp.Trace.record trace
      (Bgp.Trace.Fib_change { time; device = 7; prefix; state })
  in
  fc 1.0 p1 (Some (entries [ (1, 1) ]));
  fc 2.0 p2 (Some (entries [ (2, 1) ]));  (* now 2 distinct groups *)
  fc 3.0 p2 (Some (entries [ (1, 1) ]));  (* collapses to 1 *)
  fc 4.0 p1 None;
  check_int "max" 2 (Dataplane.Nhg.max_on_device trace ~device:7);
  let timeline = Dataplane.Nhg.timeline_on_device trace ~device:7 in
  Alcotest.(check (list int)) "counts" [ 1; 2; 1; 1 ] (List.map snd timeline)

let test_nhg_other_device_ignored () =
  let trace = Bgp.Trace.create () in
  Bgp.Trace.record trace
    (Bgp.Trace.Fib_change
       { time = 1.0; device = 3; prefix = Net.Prefix.default_v4;
         state = Some (entries [ (1, 1) ]) });
  check_int "device filter" 0 (Dataplane.Nhg.max_on_device trace ~device:7)

(* ---------------- Flowsim ---------------- *)

let test_flowsim_delivery () =
  let lookup =
    fib_of [ (0, entries [ (1, 1) ]); (1, entries [ (2, 1) ]); (2, Bgp.Speaker.Local) ]
  in
  let flows = List.init 100 (fun i -> (0, i)) in
  let r = Dataplane.Flowsim.run ~lookup ~flows () in
  check_int "all delivered" 100 r.Dataplane.Flowsim.delivered;
  check_int "no drops" 0 (r.Dataplane.Flowsim.dropped_no_route + r.Dataplane.Flowsim.dropped_ttl);
  Alcotest.(check (list (pair int int))) "all took 2 hops" [ (2, 100) ]
    r.Dataplane.Flowsim.hop_counts

let test_flowsim_weighted_hashing () =
  (* Weights 3:1 over many flows: the hash split approximates the ratio. *)
  let n = 4000 in
  let to_1 = ref 0 in
  for flow = 0 to n - 1 do
    let entry =
      Dataplane.Flowsim.next_hop_of ~flow ~device:0 [ e 1 0 3; e 2 0 1 ]
    in
    if entry.Bgp.Speaker.next_hop = 1 then incr to_1
  done;
  let share = float_of_int !to_1 /. float_of_int n in
  check_bool "split near 3:1" true (Float.abs (share -. 0.75) < 0.05)

let test_flowsim_deterministic_paths () =
  let lookup =
    fib_of
      [ (0, entries [ (1, 1); (2, 1) ]); (1, Bgp.Speaker.Local);
        (2, Bgp.Speaker.Local) ]
  in
  let flows = List.init 50 (fun i -> (0, i)) in
  let a = Dataplane.Flowsim.run ~lookup ~flows () in
  let b = Dataplane.Flowsim.run ~lookup ~flows () in
  check_bool "same outcome every run" true (a = b)

let test_flowsim_ttl_drops_in_loop () =
  (* 0 -> 1 -> 0 forever: every flow dies of TTL, none by no-route. *)
  let lookup = fib_of [ (0, entries [ (1, 1) ]); (1, entries [ (0, 1) ]) ] in
  let flows = List.init 20 (fun i -> (0, i)) in
  let r = Dataplane.Flowsim.run ~ttl:16 ~lookup ~flows () in
  check_int "all ttl-dropped" 20 r.Dataplane.Flowsim.dropped_ttl;
  check_int "none delivered" 0 r.Dataplane.Flowsim.delivered;
  check_bool "loss is total" true (Dataplane.Flowsim.loss_fraction r = 1.0)

let test_flowsim_partial_loop_loses_bouncers () =
  (* Half-exit loop: flows that keep hashing into the loop side die of
     TTL; with deterministic per-(flow, device) hashing a flow either
     exits immediately or bounces forever. *)
  let lookup =
    fib_of
      [ (0, entries [ (1, 1); (2, 1) ]); (1, entries [ (0, 1) ]);
        (2, Bgp.Speaker.Local) ]
  in
  let flows = List.init 200 (fun i -> (0, i)) in
  let r = Dataplane.Flowsim.run ~ttl:32 ~lookup ~flows () in
  check_bool "some delivered" true (r.Dataplane.Flowsim.delivered > 50);
  check_bool "some ttl-dropped" true (r.Dataplane.Flowsim.dropped_ttl > 20);
  check_int "accounted" 200
    (r.Dataplane.Flowsim.delivered + r.Dataplane.Flowsim.dropped_ttl
     + r.Dataplane.Flowsim.dropped_no_route)

(* ---------------- Loss-only propagation: bit identity ---------------- *)

(* The Hashtbl propagation loop [route] ran before its dense core, kept
   verbatim with its ledger: the oracle for "same visit order, same float
   sums, same ledgers". Also returns the widest bucket array any of its
   [inflow] tables reached, so a test can tell which widths it covered. *)
let reference_totals ?(max_rounds = 64) snapshot ~demands =
  let add table key v =
    let current = Option.value (Hashtbl.find_opt table key) ~default:0.0 in
    Hashtbl.replace table key (current +. v)
  in
  let delivered = ref 0.0 and dropped = ref 0.0 in
  let transit = Hashtbl.create 64
  and link_load = Hashtbl.create 64
  and delivered_at = Hashtbl.create 8 in
  let widest = ref 0 in
  let measure t = widest := max !widest (Hashtbl.stats t).Hashtbl.num_buckets in
  let inflow = Hashtbl.create 64 in
  List.iter (fun (device, volume) -> add inflow device volume) demands;
  let rounds = ref 0 in
  while Hashtbl.length inflow > 0 && !rounds < max_rounds do
    measure inflow;
    incr rounds;
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun device volume ->
        if volume > 0.0 then begin
          add transit device volume;
          match Hashtbl.find_opt snapshot device with
          | Some Bgp.Speaker.Local ->
            delivered := !delivered +. volume;
            add delivered_at device volume
          | None -> dropped := !dropped +. volume
          | Some (Bgp.Speaker.Entries es) ->
            let sum = List.fold_left (fun a e -> a + e.Bgp.Speaker.weight) 0 es in
            List.iter
              (fun e ->
                let share =
                  volume *. float_of_int e.Bgp.Speaker.weight /. float_of_int sum
                in
                add link_load (device, e.Bgp.Speaker.next_hop) share;
                add next e.Bgp.Speaker.next_hop share)
              es
        end)
      inflow;
    Hashtbl.reset inflow;
    Hashtbl.iter (fun d v -> Hashtbl.replace inflow d v) next
  done;
  measure inflow;
  ( {
      Dataplane.Traffic.delivered = !delivered;
      dropped = !dropped;
      looped = Hashtbl.fold (fun _ v acc -> acc +. v) inflow 0.0;
      transit;
      link_load;
      delivered_at;
    },
    !widest )

let same msg a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %h <> %h" msg a b

(* Equal bindings in the same [Hashtbl.fold] order: the ledgers were
   filled by the same additions in the same order. *)
let same_table msg a b =
  let bindings t =
    Hashtbl.fold (fun k v acc -> (k, Int64.bits_of_float v) :: acc) t []
  in
  if bindings a <> bindings b then Alcotest.failf "%s: ledgers differ" msg

(* [route_snapshot] and [loss_snapshot] against the oracle, bit for bit;
   returns the oracle's result and widest table. *)
let check_against_reference snap ~demands =
  let module T = Dataplane.Traffic in
  let want, widest = reference_totals snap ~demands in
  let r = T.route_snapshot snap ~demands in
  let l = T.loss_snapshot snap ~demands in
  same "delivered" want.T.delivered r.T.delivered;
  same "dropped" want.T.dropped r.T.dropped;
  same "looped" want.T.looped r.T.looped;
  same_table "transit" want.T.transit r.T.transit;
  same_table "link_load" want.T.link_load r.T.link_load;
  same_table "delivered_at" want.T.delivered_at r.T.delivered_at;
  same "loss-only dropped" want.T.dropped l.T.loss_dropped;
  same "loss-only looped" want.T.looped l.T.loss_looped;
  (want, widest)

(* [loss_segments] as it was defined on the full [route_snapshot]. *)
let reference_segments ~initial ~timeline ~demands ~from_time ~until =
  let module M = Dataplane.Metrics in
  let total = Dataplane.Traffic.total_demand demands in
  let initial_snapshot = Hashtbl.create 16 in
  List.iter (fun (d, s) -> Hashtbl.replace initial_snapshot d s) initial;
  let rec segments snapshot start = function
    | [] -> [ (snapshot, start, until) ]
    | (time, next) :: rest -> (snapshot, start, time) :: segments next time rest
  in
  List.filter_map
    (fun (snapshot, start, stop) ->
      let seg_from = Float.max start from_time in
      let seg_until = Float.min stop until in
      if seg_until -. seg_from <= 0.0 then None
      else
        let r = Dataplane.Traffic.route_snapshot snapshot ~demands in
        Some
          { M.seg_from; seg_until;
            seg_blackholed = M.blackholed_fraction r ~total;
            seg_lost = M.loss_fraction r ~total })
    (segments initial_snapshot from_time timeline)

(* A random timeline over [n] devices: absent entries black-hole, entries
   carry UCMP weights, and exit-free cycles keep volume circulating until
   the 64-round cap. Some fabrics are large enough for hash-bucket
   collisions and table resizes, where insertion order shows in the sums. *)
let random_loss_case seed =
  let rng = Random.State.make [| seed |] in
  let n =
    if Random.State.int rng 4 = 0 then 100 + Random.State.int rng 200
    else 2 + Random.State.int rng 8
  in
  let snapshot () =
    List.filter_map
      (fun d ->
        match Random.State.int rng 10 with
        | 0 | 1 -> None
        | 2 -> Some (d, Bgp.Speaker.Local)
        | _ ->
          let picked =
            List.init (1 + Random.State.int rng 3) (fun _ ->
                (d + 1 + Random.State.int rng (n - 1)) mod n)
            |> List.sort_uniq Int.compare
          in
          Some
            (d, entries (List.map (fun h -> (h, 1 + Random.State.int rng 4)) picked)))
      (List.init n Fun.id)
  in
  let table assoc =
    let t = Hashtbl.create 16 in
    List.iter (fun (d, s) -> Hashtbl.replace t d s) assoc;
    t
  in
  let demands =
    match Random.State.int rng 8 with
    | 0 -> []
    | 1 -> [ (Random.State.int rng n, 0.0) ]
    | _ ->
      List.init (1 + Random.State.int rng 40) (fun _ ->
          (Random.State.int rng n, Random.State.float rng 10.0))
  in
  let times =
    List.sort Float.compare
      (List.init (Random.State.int rng 6) (fun _ -> Random.State.float rng 10.0))
  in
  let timeline = List.map (fun t -> (t, table (snapshot ()))) times in
  let from_time = Random.State.float rng 4.0 in
  let until = from_time +. Random.State.float rng 8.0 in
  (snapshot (), timeline, demands, from_time, until)

let test_loss_only_bit_identical () =
  let module M = Dataplane.Metrics in
  let capped = ref 0 and holes = ref 0 and ucmp = ref 0 and zero = ref 0 in
  for seed = 0 to 299 do
    let initial, timeline, demands, from_time, until = random_loss_case seed in
    if Dataplane.Traffic.total_demand demands <= 0.0 then incr zero;
    let snaps =
      let t = Hashtbl.create 16 in
      List.iter (fun (d, s) -> Hashtbl.replace t d s) initial;
      t :: List.map snd timeline
    in
    List.iter
      (fun snap ->
        let want, _ = check_against_reference snap ~demands in
        if want.Dataplane.Traffic.looped > 0.0 then incr capped;
        if want.Dataplane.Traffic.dropped > 0.0 then incr holes;
        Hashtbl.iter
          (fun _ s ->
            match s with
            | Bgp.Speaker.Entries es
              when List.exists (fun e -> e.Bgp.Speaker.weight > 1) es ->
              incr ucmp
            | _ -> ())
          snap)
      snaps;
    let got = M.loss_segments ~initial ~timeline ~demands ~from_time ~until in
    let want = reference_segments ~initial ~timeline ~demands ~from_time ~until in
    check_int "segment count" (List.length want) (List.length got);
    List.iter2
      (fun (g : M.loss_segment) (w : M.loss_segment) ->
        same "seg_from" w.seg_from g.seg_from;
        same "seg_until" w.seg_until g.seg_until;
        same "seg_blackholed" w.seg_blackholed g.seg_blackholed;
        same "seg_lost" w.seg_lost g.seg_lost)
      got want;
    let i = M.loss_integrals ~initial ~timeline ~demands ~from_time ~until in
    let ref_integral (f : M.loss_segment -> float) =
      List.fold_left
        (fun acc (s : M.loss_segment) -> acc +. (f s *. (s.seg_until -. s.seg_from)))
        0.0 want
    in
    same "blackhole_seconds" (ref_integral (fun s -> s.seg_blackholed))
      i.M.blackhole_seconds;
    same "loss_seconds" (ref_integral (fun s -> s.seg_lost)) i.M.loss_seconds;
    (* the causal attribution still accounts for every blackhole-second *)
    let attributed =
      Obs.Causal.attribute (Obs.Causal.of_array [||]) ~prefix:0
        ~segments:
          (List.map
             (fun (s : M.loss_segment) -> (s.seg_from, s.seg_until, s.seg_blackholed))
             got)
    in
    same "attribution sum"
      (List.fold_left (fun acc a -> acc +. a.Obs.Causal.a_seconds) 0.0 attributed)
      i.M.blackhole_seconds
  done;
  check_bool "loops ran into the round cap" true (!capped > 0);
  check_bool "blackholes covered" true (!holes > 0);
  check_bool "UCMP weights covered" true (!ucmp > 0);
  check_bool "zero total demand covered" true (!zero > 0)

(* Rounds of more than 128 and 256 devices, where the tables the dense
   core replaced grew to 128 and 256 buckets. Weight-0 entries push
   zero-volume devices, which count toward a table's width but are never
   visited, and an all-zero entry list pushes NaN. *)
let test_wide_rounds_bit_identical () =
  let widths = Hashtbl.create 4 in
  for seed = 0 to 59 do
    let rng = Random.State.make [| seed |] in
    let n = 150 + Random.State.int rng 450 in
    let snap = Hashtbl.create n in
    for d = 0 to n - 1 do
      match Random.State.int rng 20 with
      | 0 -> ()
      | 1 -> Hashtbl.replace snap d Bgp.Speaker.Local
      | _ ->
        Hashtbl.replace snap d
          (entries
             (List.init (1 + Random.State.int rng 3) (fun _ ->
                  (Random.State.int rng n, Random.State.int rng 5))))
    done;
    let demands =
      List.init (1 + Random.State.int rng 400) (fun _ ->
          (Random.State.int rng n, Random.State.float rng 10.0))
    in
    let _, widest = check_against_reference snap ~demands in
    Hashtbl.replace widths widest ()
  done;
  check_bool "width 128 reached" true (Hashtbl.mem widths 128);
  check_bool "width 256 reached" true (Hashtbl.mem widths 256)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dataplane"
    [
      ( "traffic",
        [
          quick "delivery" test_traffic_delivery;
          quick "weighted split" test_traffic_weighted_split;
          quick "blackhole" test_traffic_blackhole;
          quick "loop detected" test_traffic_loop_detected;
          quick "partial loop" test_traffic_partial_loop;
          quick "leaky loop drains" test_traffic_leaky_loop_drains;
          quick "device ids" test_traffic_device_ids;
        ] );
      ( "metrics",
        [
          quick "funneling" test_funneling_metric;
          quick "loss fractions" test_loss_fractions;
          quick "find loops" test_find_loops;
          quick "max link utilization" test_max_link_utilization;
          quick "loss-only routing bit-identical" test_loss_only_bit_identical;
          quick "wide rounds bit-identical" test_wide_rounds_bit_identical;
        ] );
      ( "flowsim",
        [
          quick "delivery" test_flowsim_delivery;
          quick "weighted hashing" test_flowsim_weighted_hashing;
          quick "deterministic" test_flowsim_deterministic_paths;
          quick "ttl drops in loop" test_flowsim_ttl_drops_in_loop;
          quick "partial loop" test_flowsim_partial_loop_loses_bouncers;
        ] );
      ( "nhg",
        [
          quick "canonicalization" test_nhg_canonicalization;
          quick "distinct count" test_nhg_distinct_count;
          quick "timeline from trace" test_nhg_timeline_from_trace;
          quick "other device ignored" test_nhg_other_device_ignored;
        ] );
    ]
