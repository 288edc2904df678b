(* Tests for lib/dsim: RNG determinism, event queue semantics, statistics. *)

open Dsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let seq rng = List.init 20 (fun _ -> Rng.int rng 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b)

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let seq rng = List.init 20 (fun _ -> Rng.int rng 1000000) in
  check_bool "different seeds differ" false (seq a = seq b)

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    if x < 0 || x >= 10 then Alcotest.fail "int out of bounds";
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  let a = List.init 10 (fun _ -> Rng.int parent 1000) in
  let b = List.init 10 (fun _ -> Rng.int child 1000) in
  check_bool "streams differ" false (a = b)

let test_rng_exponential_mean () =
  let rng = Rng.create 3 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean close to 2" true (Float.abs (mean -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 11 in
  let sample = Rng.sample_without_replacement rng 5 (List.init 20 Fun.id) in
  check_int "size" 5 (List.length sample);
  check_int "distinct" 5 (List.length (List.sort_uniq Int.compare sample));
  let all = Rng.sample_without_replacement rng 100 [ 1; 2; 3 ] in
  check_int "clamped" 3 (List.length all)

let test_rng_int_uniform () =
  (* Uniformity smoke test: with rejection sampling every residue class is
     hit an even number of times (3 sigma of binomial fluctuation). *)
  let rng = Rng.create 17 in
  let bound = 7 in
  let draws = 70_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to draws do
    let x = Rng.int rng bound in
    counts.(x) <- counts.(x) + 1
  done;
  let expected = float_of_int draws /. float_of_int bound in
  let sigma = sqrt (expected *. (1.0 -. (1.0 /. float_of_int bound))) in
  Array.iteri
    (fun i c ->
      if Float.abs (float_of_int c -. expected) > 4.0 *. sigma then
        Alcotest.failf "residue %d count %d too far from %.0f" i c expected)
    counts

let test_rng_int_large_bound () =
  (* Bounds near max_int exercise the rejection path; results must stay in
     range. *)
  let rng = Rng.create 23 in
  let bound = (max_int / 2) + 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng bound in
    if x < 0 || x >= bound then Alcotest.fail "out of range"
  done

(* ---------------- Event_queue ---------------- *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~delay:3.0 (fun () -> log := 3 :: !log);
  Event_queue.schedule q ~delay:1.0 (fun () -> log := 1 :: !log);
  Event_queue.schedule q ~delay:2.0 (fun () -> log := 2 :: !log);
  ignore (Event_queue.run q);
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3.0 (Event_queue.now q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Event_queue.schedule q ~delay:1.0 (fun () -> log := i :: !log)
  done;
  ignore (Event_queue.run q);
  Alcotest.(check (list int)) "fifo among ties" (List.init 10 Fun.id)
    (List.rev !log)

let test_queue_nested_scheduling () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.schedule q ~delay:1.0 (fun () ->
      log := "a" :: !log;
      Event_queue.schedule q ~delay:1.0 (fun () -> log := "c" :: !log));
  Event_queue.schedule q ~delay:1.5 (fun () -> log := "b" :: !log);
  ignore (Event_queue.run q);
  Alcotest.(check (list string)) "nested" [ "a"; "b"; "c" ] (List.rev !log)

let test_queue_negative_delay_clamped () =
  let q = Event_queue.create () in
  let fired = ref false in
  Event_queue.schedule q ~delay:5.0 (fun () ->
      Event_queue.schedule q ~delay:(-3.0) (fun () -> fired := true));
  ignore (Event_queue.run q);
  check_bool "fired" true !fired;
  check_float "clock not rewound" 5.0 (Event_queue.now q)

let test_queue_run_until () =
  let q = Event_queue.create () in
  let count = ref 0 in
  List.iter
    (fun d -> Event_queue.schedule q ~delay:d (fun () -> incr count))
    [ 1.0; 2.0; 3.0; 4.0 ];
  let executed = Event_queue.run_until q ~time:2.5 in
  check_int "ran two" 2 executed;
  check_float "clock advanced to time" 2.5 (Event_queue.now q);
  check_int "pending" 2 (Event_queue.pending q);
  ignore (Event_queue.run q);
  check_int "all ran" 4 !count

let test_queue_max_events () =
  let q = Event_queue.create () in
  (* Self-perpetuating event chain. *)
  let rec reschedule () = Event_queue.schedule q ~delay:1.0 reschedule in
  reschedule ();
  let executed = Event_queue.run ~max_events:50 q in
  check_int "bounded" 50 executed;
  check_bool "still pending" false (Event_queue.is_empty q)

let test_queue_heap_stress () =
  (* Many random-ordered events must come out sorted. *)
  let q = Event_queue.create () in
  let rng = Rng.create 123 in
  let times = ref [] in
  for _ = 1 to 500 do
    let d = Rng.float rng 100.0 in
    Event_queue.schedule q ~delay:d (fun () -> times := Event_queue.now q :: !times)
  done;
  ignore (Event_queue.run q);
  let observed = List.rev !times in
  let sorted = List.sort Float.compare observed in
  check_bool "monotone" true (observed = sorted);
  check_int "count" 500 (List.length observed)

(* ---------------- Event_queue against the boxed heap ---------------- *)

(* The boxed {time; seq; thunk} heap the simulator ran on before the queue
   became parallel arrays, kept verbatim as the model: (time, seq) is a
   total order, so both must run the same events at the same clocks. *)
module Boxed_queue = struct
  type entry = { time : float; seq : int; thunk : unit -> unit }

  type t = {
    mutable heap : entry array;
    mutable size : int;
    mutable clock : float;
    mutable next_seq : int;
  }

  let dummy = { time = 0.0; seq = 0; thunk = ignore }
  let create () =
    { heap = Array.make 64 dummy; size = 0; clock = 0.0; next_seq = 0 }
  let now t = t.clock
  let entry_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let grow t =
    let bigger = Array.make (2 * Array.length t.heap) dummy in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger

  let push t entry =
    if t.size = Array.length t.heap then grow t;
    let heap = t.heap in
    let i = ref t.size in
    t.size <- t.size + 1;
    heap.(!i) <- entry;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if entry_lt heap.(!i) heap.(parent) then begin
        let tmp = heap.(parent) in
        heap.(parent) <- heap.(!i);
        heap.(!i) <- tmp;
        i := parent
      end
      else continue := false
    done

  let pop t =
    if t.size = 0 then None
    else begin
      let heap = t.heap in
      let top = heap.(0) in
      t.size <- t.size - 1;
      heap.(0) <- heap.(t.size);
      heap.(t.size) <- dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && entry_lt heap.(l) heap.(!smallest) then smallest := l;
        if r < t.size && entry_lt heap.(r) heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = heap.(!smallest) in
          heap.(!smallest) <- heap.(!i);
          heap.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end

  let schedule_at t ~time thunk =
    let time = Float.max time t.clock in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    push t { time; seq; thunk }

  let schedule t ~delay thunk =
    schedule_at t ~time:(t.clock +. Float.max 0.0 delay) thunk

  let is_empty t = t.size = 0
  let pending t = t.size

  let step t =
    match pop t with
    | None -> false
    | Some { time; thunk; seq = _ } ->
      t.clock <- time;
      thunk ();
      true

  let run ?max_events t =
    let limit = Option.value max_events ~default:max_int in
    let rec go n = if n >= limit then n else if step t then go (n + 1) else n in
    go 0

  let run_until t ~time =
    let rec go n =
      match (if t.size > 0 then Some t.heap.(0) else None) with
      | Some head when head.time <= time ->
        ignore (step t);
        go (n + 1)
      | Some _ | None ->
        t.clock <- Float.max t.clock time;
        n
    in
    go 0
end

module type QUEUE = sig
  type t

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val schedule_at : t -> time:float -> (unit -> unit) -> unit
  val is_empty : t -> bool
  val pending : t -> int
  val step : t -> bool
  val run : ?max_events:int -> t -> int
  val run_until : t -> time:float -> int
end

(* A queue program. An event, when it runs, schedules its children: a
   thunk that schedules further events. *)
type timing = Delay of float | At of float
type event = { timing : timing; children : event list }

type op =
  | Add of event
  | Burst of int * float  (* n events, delays cycling from 0 up to the bound *)
  | Step
  | Run of int  (* run ~max_events *)
  | Drain  (* run with no bound *)
  | Run_until of float

(* Everything a caller can observe: which events ran at which clock, each
   call's result, and after every op the clock and the pending count. *)
module Exec (Q : QUEUE) = struct
  let observe ops =
    let q = Q.create () in
    let ran = ref [] and seen = ref [] and next_id = ref 0 in
    let rec add ev =
      let id = !next_id in
      incr next_id;
      let thunk () =
        ran := (id, Q.now q) :: !ran;
        List.iter add ev.children
      in
      match ev.timing with
      | Delay d -> Q.schedule q ~delay:d thunk
      | At time -> Q.schedule_at q ~time thunk
    in
    List.iter
      (fun op ->
        let result =
          match op with
          | Add ev ->
            add ev;
            0
          | Burst (n, bound) ->
            for i = 1 to n do
              let d = bound *. float_of_int (i mod 7) /. 6.0 in
              add { timing = Delay d; children = [] }
            done;
            n
          | Step -> Bool.to_int (Q.step q)
          | Run max_events -> Q.run ~max_events q
          | Drain -> Q.run q
          | Run_until time -> Q.run_until q ~time
        in
        seen := (result, Q.now q, Q.pending q, Q.is_empty q) :: !seen)
      ops;
    (List.rev !ran, List.rev !seen)
end

module Exec_model = Exec (Boxed_queue)
module Exec_arrays = Exec (Event_queue)

let show_timing = function
  | Delay d -> Printf.sprintf "+%g" d
  | At t -> Printf.sprintf "@%g" t

let rec show_event ev =
  match ev.children with
  | [] -> show_timing ev.timing
  | cs ->
    Printf.sprintf "%s{%s}" (show_timing ev.timing)
      (String.concat "," (List.map show_event cs))

let show_op = function
  | Add ev -> show_event ev
  | Burst (n, b) -> Printf.sprintf "burst(%d,%g)" n b
  | Step -> "step"
  | Run n -> Printf.sprintf "run(%d)" n
  | Drain -> "drain"
  | Run_until t -> Printf.sprintf "until(%g)" t

let gen_program =
  let open QCheck.Gen in
  (* Few distinct values, so equal times (FIFO ties) are common; negative
     delays and absolute times behind the clock are clamped. *)
  let delay =
    oneof
      [ oneofl [ -1.0; 0.0; 0.0; 0.5; 1.0; 1.0; 2.5 ]; float_range (-0.5) 3.0 ]
  in
  let time =
    oneof [ oneofl [ -1.0; 0.0; 0.5; 1.0; 2.0; 4.0 ]; float_range 0.0 6.0 ]
  in
  let timing =
    frequency
      [ (3, map (fun d -> Delay d) delay); (1, map (fun t -> At t) time) ]
  in
  let event =
    fix (fun self depth ->
        let children =
          if depth = 0 then return []
          else
            frequency
              [
                (3, return []);
                (1, list_size (int_range 1 3) (self (depth - 1)));
              ]
        in
        map2 (fun timing children -> { timing; children }) timing children)
  in
  let op =
    frequency
      [
        (6, map (fun ev -> Add ev) (event 2));
        ( 1,
          map2 (fun n b -> Burst (n, b)) (int_range 1 150) (float_range 0.0 3.0)
        );
        (3, return Step);
        (1, map (fun n -> Run n) (int_range 0 40));
        (1, return Drain);
        (2, map (fun t -> Run_until t) time);
      ]
  in
  list_size (int_range 0 60) op

let prop_queue_matches_boxed_heap =
  QCheck.Test.make ~name:"event queue = boxed heap" ~count:500
    (QCheck.make gen_program ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map show_op ops)))
    (fun ops -> Exec_arrays.observe ops = Exec_model.observe ops)

(* Drained twice, each time past the initial capacity of 64: the arrays are
   given back on the first drain and grown again by the refill. *)
let test_queue_refill_past_capacity () =
  let wave n = Burst (n, 2.0) in
  let ops =
    [
      wave 200;
      Run 10;
      Drain;
      Step;
      wave 300;
      Run_until 0.7;
      Add { timing = Delay 0.0; children = [] };
      Drain;
      wave 65;
      Drain;
    ]
  in
  let ran, seen = Exec_arrays.observe ops in
  check_int "every event ran" 566 (List.length ran);
  check_bool "same as the boxed heap" true
    ((ran, seen) = Exec_model.observe ops)

(* ---------------- Stats ---------------- *)

let test_stats_percentiles () =
  let samples = List.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Stats.summarize samples in
  check_int "count" 100 s.Stats.count;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 100.0 s.Stats.max;
  check_bool "p50 near middle" true (Float.abs (s.Stats.p50 -. 50.5) < 1.0);
  check_bool "p99 high" true (s.Stats.p99 > 98.0);
  check_bool "ordered" true
    (s.Stats.p50 <= s.Stats.p90 && s.Stats.p90 <= s.Stats.p95
     && s.Stats.p95 <= s.Stats.p99)

let test_stats_single_sample () =
  let s = Stats.summarize [ 7.0 ] in
  check_float "all equal" 7.0 s.Stats.p50;
  check_float "mean" 7.0 s.Stats.mean

let test_stats_cdf () =
  let samples = List.init 1000 (fun i -> float_of_int i) in
  let cdf = Stats.cdf ~points:10 samples in
  check_int "points" 10 (List.length cdf);
  (match List.rev cdf with
   | (v, f) :: _ ->
     check_float "last fraction" 1.0 f;
     check_float "last value" 999.0 v
   | [] -> Alcotest.fail "empty cdf");
  let fracs = List.map snd cdf in
  check_bool "monotone fractions" true
    (List.sort Float.compare fracs = fracs)

let test_stats_cdf_empty () = Alcotest.(check int) "empty" 0 (List.length (Stats.cdf []))

let test_stats_histogram () =
  let counts, overflow =
    Stats.histogram ~buckets:[ 1.0; 2.0; 5.0 ] [ 0.5; 1.5; 1.7; 3.0; 99.0 ]
  in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets"
    [ (1.0, 1); (2.0, 2); (5.0, 1) ]
    counts;
  check_int "overflow" 1 overflow

let test_stats_histogram_overflow () =
  (* Samples above the largest bound land in the explicit overflow count,
     never in an in-range bucket. *)
  let counts, overflow =
    Stats.histogram ~buckets:[ 10.0; 20.0 ] [ 20.0; 20.1; 1e9; 5.0 ]
  in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "in-range counts"
    [ (10.0, 1); (20.0, 1) ]
    counts;
  check_int "overflow" 2 overflow;
  (* Binary-search bucketing agrees with a linear reference over many
     samples and duplicate/unsorted bounds. *)
  let samples = List.init 500 (fun i -> float_of_int (i mod 37) /. 3.0) in
  let bounds = [ 5.0; 1.0; 9.0; 1.0; 3.5 ] in
  let counts, overflow = Stats.histogram ~buckets:bounds samples in
  let sorted = List.sort_uniq Float.compare bounds in
  let reference =
    List.map
      (fun upper ->
        ( upper,
          List.length
            (List.filter
               (fun x ->
                 x <= upper
                 && not
                      (List.exists (fun u -> u < upper && x <= u) sorted))
               samples) ))
      sorted
  in
  let ref_overflow =
    List.length (List.filter (fun x -> x > 9.0) samples)
  in
  Alcotest.(check (list (pair (float 1e-9) int))) "vs reference" reference counts;
  check_int "reference overflow" ref_overflow overflow

let test_stats_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 4.0; 4.0; 4.0 ]);
  check_bool "spread" true (Stats.stddev [ 0.0; 10.0 ] > 4.9)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dsim"
    [
      ( "rng",
        [
          quick "deterministic" test_rng_deterministic;
          quick "seeds differ" test_rng_seeds_differ;
          quick "bounds" test_rng_bounds;
          quick "split independent" test_rng_split_independent;
          quick "exponential mean" test_rng_exponential_mean;
          quick "shuffle permutation" test_rng_shuffle_permutation;
          quick "sample without replacement" test_rng_sample_without_replacement;
          quick "int uniform" test_rng_int_uniform;
          quick "int large bound" test_rng_int_large_bound;
        ] );
      ( "event_queue",
        [
          quick "time order" test_queue_time_order;
          quick "fifo ties" test_queue_fifo_ties;
          quick "nested scheduling" test_queue_nested_scheduling;
          quick "negative delay clamped" test_queue_negative_delay_clamped;
          quick "run_until" test_queue_run_until;
          quick "max events" test_queue_max_events;
          quick "heap stress" test_queue_heap_stress;
          quick "refill past capacity" test_queue_refill_past_capacity;
          QCheck_alcotest.to_alcotest ~long:false prop_queue_matches_boxed_heap;
        ] );
      ( "stats",
        [
          quick "percentiles" test_stats_percentiles;
          quick "single sample" test_stats_single_sample;
          quick "histogram overflow" test_stats_histogram_overflow;
          quick "cdf" test_stats_cdf;
          quick "cdf empty" test_stats_cdf_empty;
          quick "histogram" test_stats_histogram;
          quick "stddev" test_stats_stddev;
        ] );
    ]
