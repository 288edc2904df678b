(* The three workloads. A round is one complete pass: fresh set-up, then a
   timed closed loop in which the next burst is submitted only once the
   queue has drained. The seed is the only input, so the same seed gives
   the same round, down to every deterministic output. All library calls
   go through [Layers]. *)

module Ops = Centralium.Ops

type job = {
  wall_ms : float;  (* its own submit, plus dispatch to [mark_done] *)
  virtual_ms : float;
  messages : int;
}

(* Outputs that depend only on the seed and the code: they must repeat
   exactly across rounds, processes and traced runs. *)
type deterministic = {
  fib_digest : string;
  submitted : int;
  executed : int;
  failed_frac : float;  (* shed + not completed, over submitted *)
  shed : int list;  (* submission indices *)
  virtual_ms_per_job : float;
  blackhole_s : float;
  messages_per_job : float;
}

let det_json d =
  Obs.Json.Obj
    [
      ("fib_digest", String d.fib_digest);
      ("submitted", Int d.submitted);
      ("executed", Int d.executed);
      ("failed_frac", Float d.failed_frac);
      ("shed", List (List.map (fun i -> Obs.Json.Int i) d.shed));
      ("virtual_ms_per_job", Float d.virtual_ms_per_job);
      ("blackhole_s", Float d.blackhole_s);
      ("messages_per_job", Float d.messages_per_job);
    ]

type round = {
  setup_s : float list;
  live_mb : float;  (* live heap after the last job, its state reachable *)
  loop_s : float;  (* wall time of the timed loop, shed submissions included *)
  jobs : job list;  (* in execution order *)
  queue_waits_ms : float list;  (* virtual, admission to start *)
  det : deterministic;
  failed : int;  (* jobs with an outcome the workload rules out or leftover violations *)
  problems : string list;
}

let seconds_since t0 =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9

(* [f ()] as one job of a traced round, with its wall time. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let r = Attribution.job f in
  (r, seconds_since t0)

(* A full collection, then the live major heap in MB. Called outside the
   timed parts: after each set-up, so timing starts without the set-up's
   garbage, and after the last job. The live heap, unlike the heap's
   high-water mark, does not depend on when collector cycles happened to
   end. *)
let settle () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).live_words * 8) /. 1e6

(* Runs [setup] [n] times and keeps the last result; the same seed builds
   the same state each time, so the [n] times are samples of one set-up. *)
let repeat_setup n setup =
  let rec go k samples =
    ignore (settle ());
    let t0 = Monotonic_clock.now () in
    let x = setup () in
    let samples = seconds_since t0 :: samples in
    if k <= 1 then (x, List.rev samples) else go (k - 1) samples
  in
  go n []

let mean f = function
  | [] -> 0.
  | xs -> List.fold_left (fun a x -> a +. f x) 0. xs /. float_of_int (List.length xs)

(* {1 Rollouts} *)

type submission = {
  index : int;
  tenant : string;
  cls : Ops.plan_class;
  plan : Centralium.Controller.plan;
  allowed : Layers.outcome list;
}

type loop = {
  stack : Layers.stack;
  mutable loop_s : float;
  mutable submitted : int;
  mutable not_completed : int;
  mutable shed_at : int list;
  mutable done_jobs : job list;
  mutable waits : float list;
  mutable failed : int;
  mutable problems : string list;
}

let problem l fmt =
  Printf.ksprintf (fun msg -> l.problems <- msg :: l.problems) fmt

(* Submits a burst, timing each submission, then runs the queue dry. A
   job's time is its own submission plus its dispatch-to-done; the
   invariant check after each job is the benchmark's and is not timed. *)
let burst l subs =
  let admitted = Hashtbl.create 16 in
  List.iter
    (fun sub ->
      l.submitted <- l.submitted + 1;
      let r, dt =
        timed (fun () -> Layers.submit l.stack ~tenant:sub.tenant ~cls:sub.cls sub.plan)
      in
      l.loop_s <- l.loop_s +. dt;
      match r with
      | Layers.Admitted ->
        Hashtbl.replace admitted sub.plan.Centralium.Controller.plan_name (dt, sub)
      | Layers.Shed ->
        l.shed_at <- sub.index :: l.shed_at;
        l.not_completed <- l.not_completed + 1)
    subs;
  let rec drain () =
    let r, dt = timed (fun () -> Layers.run_next l.stack) in
    l.loop_s <- l.loop_s +. dt;
    match r with
    | None -> ()
    | Some (run : Layers.run) ->
      let submit_dt, sub = Hashtbl.find admitted run.plan_name in
      l.done_jobs <-
        {
          wall_ms = 1000. *. (submit_dt +. dt);
          virtual_ms = 1000. *. run.virtual_s;
          messages = run.messages;
        }
        :: l.done_jobs;
      l.waits <- (1000. *. run.queue_wait_s) :: l.waits;
      if run.outcome <> Layers.Completed then l.not_completed <- l.not_completed + 1;
      if not (List.mem run.outcome sub.allowed) then begin
        l.failed <- l.failed + 1;
        problem l "plan %s ended %s" run.plan_name (Layers.outcome_name run.outcome)
      end;
      (match Layers.final_violations l.stack.net with
       | [] -> ()
       | _ when run.remediation <> None -> ()
       | kinds ->
         l.failed <- l.failed + 1;
         problem l "plan %s left unremediated violations: %s" run.plan_name
           (String.concat ", " (List.sort_uniq compare kinds)));
      drain ()
  in
  drain ()

let rollout_round ~setup_s l =
  let live_mb = settle () in
  let jobs = List.rev l.done_jobs in
  {
    setup_s;
    live_mb;
    loop_s = l.loop_s;
    jobs;
    queue_waits_ms = List.rev l.waits;
    det =
      {
        fib_digest = Layers.fib_digest l.stack.net;
        submitted = l.submitted;
        executed = List.length jobs;
        failed_frac = float_of_int l.not_completed /. float_of_int l.submitted;
        shed = List.rev l.shed_at;
        virtual_ms_per_job = mean (fun j -> j.virtual_ms) jobs;
        blackhole_s = Layers.blackhole_seconds l.stack;
        messages_per_job = mean (fun j -> float_of_int j.messages) jobs;
      };
    failed = l.failed;
    problems = List.rev l.problems;
  }

let new_loop stack =
  {
    stack;
    loop_s = 0.;
    submitted = 0;
    not_completed = 0;
    shed_at = [];
    done_jobs = [];
    waits = [];
    failed = 0;
    problems = [];
  }

let check_verified l names =
  List.iter
    (fun name ->
      match Layers.verifier_violations name with
      | [] -> ()
      | v :: _ -> problem l "phase verifier rejected %s: %s" name v)
    names

let converged_fabric ~seed (f : Topology.Clos.fabric) =
  let net =
    Layers.network ~seed f.graph
      ~origins:(List.map (fun eb -> (eb, Layers.default_prefix)) f.ebs)
  in
  Layers.converge net;
  net

let non_eb (f : Topology.Clos.fabric) = f.rsws @ f.fsws @ f.ssws @ f.fadus @ f.fauus

(* The Section 6.2 fabric, path equalization on every non-EB device, then
   its removal: two jobs, one plan each. Set-up builds and converges 2,828
   devices, so it runs once. *)
let fulldc_rollout ~seed =
  let (f, stack), setup_s =
    repeat_setup 1 (fun () ->
        let f = Layers.fulldc_fabric () in
        let net = converged_fabric ~seed f in
        (f, Layers.stack ~seed ~admission:true ~flaky:false ~demand_sources:f.rsws net))
  in
  let baseline = Layers.fib_digest stack.net in
  let install, remove =
    Layers.path_equalize f.graph ~origin:(List.hd f.ebs) ~targets:(non_eb f)
      ~install:"pe-install" ~remove:"pe-remove"
  in
  ignore (settle ());
  Layers.reset_counts ();
  let l = new_loop stack in
  List.iteri
    (fun index plan ->
      burst l
        [ { index; tenant = "ops"; cls = Ops.Standard; plan; allowed = [ Layers.Completed ] } ])
    [ install; remove ];
  check_verified l [ install.plan_name; remove.plan_name ];
  let r = rollout_round ~setup_s l in
  if r.det.fib_digest = baseline then r
  else { r with problems = r.problems @ [ "FIBs after the removal differ from the baseline" ] }

(* The default Clos slice under flaky management RPCs: [bursts] bursts of
   ten plans. Within a burst every fifth plan is a canary the watchdog must
   roll back and the others alternate path-equalize install and removal;
   tenants and classes go round-robin, within every per-tenant and
   per-class limit. The queue holds eight, so the last two plans of each
   burst are shed. The plan stream is the same for every seed; the seed
   drives the RPC fates, backoff jitter and message latencies. A seeded
   plan mix would change how many plans actually flip the fabric, and with
   it the timings, from seed to seed. Set-up is cheap, so it is timed 21
   times. *)
let clos_churn ?(bursts = 30) ~seed () =
  let (f, stack), setup_s =
    repeat_setup 21 (fun () ->
        let f = Layers.default_fabric () in
        let net = converged_fabric ~seed f in
        (f, Layers.stack ~seed ~admission:false ~flaky:true ~demand_sources:f.rsws net))
  in
  let install, remove =
    Layers.path_equalize f.graph ~origin:(List.hd f.ebs) ~targets:(non_eb f)
      ~install:"install" ~remove:"remove"
  in
  let canary = Layers.canary f.graph ~ssws:f.ssws ~name:"canary" in
  let tenants = [| "ops"; "te"; "ml"; "edge" |] in
  let classes = [| Ops.Interactive; Ops.Standard; Ops.Bulk |] in
  let name index = Printf.sprintf "job-%04d" index in
  let submission index =
    let k = index mod 10 in
    let plan, allowed =
      if k mod 5 = 4 then (Layers.rename canary (name index), [ Layers.Rolled_back ])
      else
        ( Layers.rename (if (k - (k / 5)) mod 2 = 0 then install else remove) (name index),
          [ Layers.Completed; Layers.Rolled_back ] )
    in
    { index; tenant = tenants.(k mod 4); cls = classes.(k mod 3); plan; allowed }
  in
  ignore (settle ());
  Layers.reset_counts ();
  let l = new_loop stack in
  for b = 0 to bursts - 1 do
    burst l (List.init 10 (fun k -> submission ((10 * b) + k)))
  done;
  check_verified l
    (List.filter (fun i -> i mod 5 <> 4) (List.init (10 * bursts) Fun.id) |> List.map name);
  rollout_round ~setup_s l

(* {1 Data-plane chaos} *)

(* [episodes] chaos episodes with seeds [seed], [seed + 1], ... Each is set
   up (built and converged, timed as set-up) just before its job: the chaos
   window, heal, converge and final check. *)
let chaos_converge ?(episodes = 100) ~seed () =
  Layers.reset_counts ();
  let setups = ref [] and live = ref 0. and jobs = ref [] and digests = ref [] in
  let blackhole = ref 0. and failed = ref 0 and problems = ref [] and loop_s = ref 0. in
  for k = 0 to episodes - 1 do
    let seed = seed + k in
    let t0 = Monotonic_clock.now () in
    let e = Layers.episode_setup ~seed in
    setups := seconds_since t0 :: !setups;
    ignore (settle ());
    let (violations, bh), dt =
      timed (fun () ->
          Layers.episode_chaos ~seed e;
          let bh = Layers.episode_blackhole_s e in
          (Layers.final_violations e.ep_net, bh))
    in
    loop_s := !loop_s +. dt;
    jobs :=
      {
        wall_ms = 1000. *. dt;
        virtual_ms = 1000. *. (Layers.now e.ep_net -. e.ep_t0);
        messages = Layers.messages_sent e.ep_net;
      }
      :: !jobs;
    blackhole := !blackhole +. bh;
    if k = episodes - 1 then live := settle ();
    digests := Layers.fib_digest e.ep_net :: !digests;
    if violations <> [] then begin
      incr failed;
      problems :=
        Printf.sprintf "episode seed %d ended with violations: %s" seed
          (String.concat ", " (List.sort_uniq compare violations))
        :: !problems
    end
  done;
  let jobs = List.rev !jobs in
  {
    setup_s = List.rev !setups;
    live_mb = !live;
    loop_s = !loop_s;
    jobs;
    queue_waits_ms = [];
    det =
      {
        fib_digest = Digest.to_hex (Digest.string (String.concat "" (List.rev !digests)));
        submitted = episodes;
        executed = episodes;
        failed_frac = float_of_int !failed /. float_of_int episodes;
        shed = [];
        virtual_ms_per_job = mean (fun j -> j.virtual_ms) jobs;
        blackhole_s = !blackhole;
        messages_per_job = mean (fun j -> float_of_int j.messages) jobs;
      };
    failed = !failed;
    problems = List.rev !problems;
  }

let all =
  [
    ("fulldc_rollout", fun ~seed -> fulldc_rollout ~seed);
    ("clos_churn", fun ~seed -> clos_churn ~seed ());
    ("chaos_converge", fun ~seed -> chaos_converge ~seed ());
  ]
