(* Observability instruments (shared registry; no-ops until enabled). *)
let m_admitted = Obs.Metrics.counter "ops.admitted"
let m_shed = Obs.Metrics.counter "ops.shed"
let m_queue_recoveries = Obs.Metrics.counter "ops.queue_recoveries"
let g_queue_depth = Obs.Metrics.gauge "ops.queue_depth"
let m_wd_breaches = Obs.Metrics.counter "ops.watchdog_breaches"

type plan_class = Interactive | Standard | Bulk

let class_name = function
  | Interactive -> "interactive"
  | Standard -> "standard"
  | Bulk -> "bulk"

let class_of_string = function
  | "interactive" -> Some Interactive
  | "standard" -> Some Standard
  | "bulk" -> Some Bulk
  | _ -> None

let class_rank = function Interactive -> 0 | Standard -> 1 | Bulk -> 2

type overload_reason =
  | Queue_full of { limit : int }
  | Tenant_limit of { tenant : string; limit : int }
  | Class_limit of { cls : plan_class; limit : int }
  | Unsafe_plan of { errors : string list }

let overload_reason_to_string = function
  | Queue_full { limit } -> Printf.sprintf "queue-full(%d)" limit
  | Tenant_limit { tenant; limit } ->
    Printf.sprintf "tenant-limit(%s,%d)" tenant limit
  | Class_limit { cls; limit } ->
    Printf.sprintf "class-limit(%s,%d)" (class_name cls) limit
  | Unsafe_plan { errors } ->
    Printf.sprintf "unsafe-plan(%d:%s)" (List.length errors)
      (match errors with e :: _ -> e | [] -> "")

type admit_result = Admitted of int | Overloaded of overload_reason

type config = { max_queue : int; per_tenant : int; per_class : int }

let default_config = { max_queue = 8; per_tenant = 4; per_class = 6 }

type state = Nsdb_schema.queue_state = Queued | Started | Done

type entry = {
  e_seq : int;
  e_plan : Controller.plan;
  e_tenant : string;
  e_class : plan_class;
  mutable e_state : state;
}

type t = {
  nsdb : Nsdb.Replicated.t;
  config : config;
  mutable entries : entry list;  (* ascending seq *)
  mutable next_seq : int;
  mutable sub_count : int;  (* submissions incl. shed; journaled *)
  mutable sheds : (int * string * string * string) list;  (* reverse *)
}

let journal_state t seq state =
  Nsdb.Replicated.set t.nsdb ~path:(Nsdb_schema.queue_key seq `State)
    (Nsdb.String (Nsdb_schema.encode_queue_state state))

let journal_entry t e =
  let set field v =
    Nsdb.Replicated.set t.nsdb ~path:(Nsdb_schema.queue_key e.e_seq field)
      (Nsdb.String v)
  in
  set `Plan e.e_plan.Controller.plan_name;
  set `Tenant e.e_tenant;
  set `Class (class_name e.e_class);
  journal_state t e.e_seq e.e_state

let journal_sub_count t =
  Nsdb.Replicated.set t.nsdb ~path:Nsdb_schema.submissions
    (Nsdb.Int t.sub_count)

let create ?(config = default_config) nsdb =
  { nsdb; config; entries = []; next_seq = 0; sub_count = 0; sheds = [] }

(* {1 Conflict detection} *)

let conflict_probe_ref :
    (Controller.plan -> Controller.plan -> bool) option ref =
  ref None

let set_conflict_probe f = conflict_probe_ref := Some f

(* Structural fallback: two plans touching a common device must not be
   reordered around each other. The analysis library registers a sharper
   probe (destination-prefix overlap via its trie) on top of this. *)
let device_overlap (a : Controller.plan) (b : Controller.plan) =
  let da = List.sort_uniq Int.compare (List.map fst a.Controller.rpas) in
  let db = List.sort_uniq Int.compare (List.map fst b.Controller.rpas) in
  List.exists (fun d -> List.mem d db) da

let plans_conflict a b =
  match !conflict_probe_ref with
  | Some probe -> probe a b
  | None -> device_overlap a b

(* {1 Admission verification}

   The admission probe rejects provably-unsafe plans before they consume
   a queue slot: whoever owns the target network binds the symbolic phase
   verifier ({!Controller.verifier}) to it and registers the closure
   here. No registration means no safety screening (admission control
   stays purely capacity-based). *)

let admission_verifier_ref : (Controller.plan -> string list) option ref =
  ref None

let set_admission_verifier f = admission_verifier_ref := Some f
let clear_admission_verifier () = admission_verifier_ref := None

let admission_errors plan =
  match !admission_verifier_ref with None -> [] | Some probe -> probe plan

(* {1 Admission} *)

let active t = List.filter (fun e -> e.e_state <> Done) t.entries

let depth t = List.length (active t)

let record_shed t ~tenant ~plan_name reason =
  let idx = t.sub_count - 1 in
  let detail =
    Nsdb_schema.encode_shed ~tenant ~plan:plan_name
      (overload_reason_to_string reason)
  in
  t.sheds <- (idx, tenant, plan_name, detail) :: t.sheds;
  Nsdb.Replicated.set t.nsdb ~path:(Nsdb_schema.shed idx) (Nsdb.String detail);
  Obs.Metrics.incr m_shed

let submit t ~tenant ~cls plan =
  t.sub_count <- t.sub_count + 1;
  journal_sub_count t;
  let live = active t in
  let plan_name = plan.Controller.plan_name in
  let shed reason =
    record_shed t ~tenant ~plan_name reason;
    Overloaded reason
  in
  (* Safety first: an unsafe plan is rejected whatever the queue looks
     like, so the shed audit names the plan's defects, not the load. *)
  match admission_errors plan with
  | _ :: _ as errors -> shed (Unsafe_plan { errors })
  | [] ->
  if List.length live >= t.config.max_queue then
    shed (Queue_full { limit = t.config.max_queue })
  else if
    List.length (List.filter (fun e -> e.e_tenant = tenant) live)
    >= t.config.per_tenant
  then shed (Tenant_limit { tenant; limit = t.config.per_tenant })
  else if
    List.length (List.filter (fun e -> e.e_class = cls) live)
    >= t.config.per_class
  then shed (Class_limit { cls; limit = t.config.per_class })
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let e =
      { e_seq = seq; e_plan = plan; e_tenant = tenant; e_class = cls;
        e_state = Queued }
    in
    journal_entry t e;
    t.entries <- t.entries @ [ e ];
    Obs.Metrics.incr m_admitted;
    Obs.Metrics.set_gauge g_queue_depth (float_of_int (depth t));
    Admitted seq
  end

(* {1 Dispatch} *)

let next_ready t =
  (* A started entry is a rollout a crashed predecessor left in flight:
     resume it before dispatching anything new. *)
  match List.find_opt (fun e -> e.e_state = Started) t.entries with
  | Some e -> Some (e.e_seq, e.e_plan)
  | None ->
    let queued = List.filter (fun e -> e.e_state = Queued) t.entries in
    let eligible =
      List.filter
        (fun e ->
          not
            (List.exists
               (fun e' ->
                 e'.e_seq < e.e_seq
                 && e'.e_state <> Done
                 && plans_conflict e'.e_plan e.e_plan)
               t.entries))
        queued
    in
    let best =
      List.fold_left
        (fun acc e ->
          match acc with
          | None -> Some e
          | Some b ->
            if (class_rank e.e_class, e.e_seq) < (class_rank b.e_class, b.e_seq)
            then Some e
            else acc)
        None eligible
    in
    Option.map (fun e -> (e.e_seq, e.e_plan)) best

let find_entry t seq = List.find_opt (fun e -> e.e_seq = seq) t.entries

let set_state t seq state =
  match find_entry t seq with
  | None -> invalid_arg (Printf.sprintf "Ops: unknown queue entry %d" seq)
  | Some e ->
    e.e_state <- state;
    journal_state t seq state;
    Obs.Metrics.set_gauge g_queue_depth (float_of_int (depth t))

let mark_started t seq = set_state t seq Started
let mark_done t seq = set_state t seq Done

let queued_names t =
  List.filter_map
    (fun e ->
      if e.e_state = Queued then Some e.e_plan.Controller.plan_name else None)
    t.entries

let shed_log t = List.rev t.sheds

let submissions t = t.sub_count

let gc t =
  let done_entries = List.filter (fun e -> e.e_state = Done) t.entries in
  let excess = List.length done_entries - 16 in
  if excess <= 0 then 0
  else begin
    let victims = List.filteri (fun i _ -> i < excess) done_entries in
    List.iter
      (fun e ->
        Nsdb.Replicated.delete t.nsdb ~path:(Nsdb_schema.queue_entry e.e_seq))
      victims;
    t.entries <-
      List.filter (fun e -> not (List.memq e victims)) t.entries;
    excess
  end

(* {1 Recovery} *)

let recover ?(config = default_config) ~lookup nsdb =
  Obs.Metrics.incr m_queue_recoveries;
  let entries =
    Nsdb.Replicated.get nsdb ~path:(Nsdb_schema.queue_all `State)
    |> List.filter_map (fun (path, v) ->
           match (v, Nsdb_schema.queue_seq path) with
           | Nsdb.String s, Some seq -> (
             match Nsdb_schema.decode_queue_state s with
             | Some ((Queued | Started) as state) -> Some (seq, state)
             | Some Done | None -> None)
           | _ -> None)
    |> List.sort compare
  in
  let read field seq =
    Nsdb_schema.string_at nsdb (Nsdb_schema.queue_key seq field)
  in
  let rebuilt =
    List.filter_map
      (fun (seq, state) ->
        match read `Plan seq with
        | None -> None
        | Some name ->
          (match lookup name with
           | None ->
             Logs.warn (fun m ->
                 m "ops recovery: queued plan %s has no body in the catalog;\
                    dropping entry %d" name seq);
             None
           | Some plan ->
             Some
               {
                 e_seq = seq;
                 e_plan = plan;
                 e_tenant = Option.value (read `Tenant seq) ~default:"?";
                 e_class =
                   Option.value ~default:Standard
                     (Option.bind (read `Class seq) class_of_string);
                 e_state = state;
               }))
      entries
  in
  let next_seq =
    (* Above every journaled entry, including done ones not rebuilt. *)
    Nsdb.Replicated.get nsdb ~path:(Nsdb_schema.queue_all `Plan)
    |> List.fold_left
         (fun acc (path, _) ->
           match Nsdb_schema.queue_seq path with
           | Some s -> max acc (s + 1)
           | None -> acc)
         0
  in
  let sub_count =
    Option.value (Nsdb_schema.int_at nsdb Nsdb_schema.submissions) ~default:0
  in
  let sheds =
    Nsdb.Replicated.get nsdb ~path:Nsdb_schema.sheds
    |> List.filter_map (fun (path, v) ->
           match (v, Nsdb_schema.shed_index path) with
           | Nsdb.String detail, Some idx -> (
             match Nsdb_schema.decode_shed detail with
             | Some (tenant, plan, _) -> Some (idx, tenant, plan, detail)
             | None -> None)
           | _ -> None)
    |> List.sort compare
    |> List.rev
  in
  { nsdb; config; entries = rebuilt; next_seq; sub_count; sheds }

(* {1 The runtime watchdog} *)

module Watchdog = struct
  type t = {
    net : Bgp.Network.t;
    nsdb : Nsdb.Replicated.t;
    demands : (int * float) list;
    prefix : Net.Prefix.t;
    mutable armed : (string * float * (int * Bgp.Speaker.fib_state) list) option;
        (* plan, arm time, FIB baseline *)
    mutable sub_token : int option;
    mutable violations : int;  (* lifetime, for reporting *)
    mutable v_window : int;  (* the armed window: any violation breaches *)
    mutable bh_prior : float;  (* windows already closed *)
    mutable bh_current : float;  (* the armed window, as of the last probe *)
    mutable remediations : (string * string) list;  (* reverse *)
  }

  let create ~net ~nsdb ~demands ~prefix () =
    {
      net;
      nsdb;
      demands;
      prefix;
      armed = None;
      sub_token = None;
      violations = 0;
      v_window = 0;
      bh_prior = 0.0;
      bh_current = 0.0;
      remediations = [];
    }

  let disarm t =
    (match t.sub_token with
     | Some token ->
       Nsdb.Replicated.unsubscribe t.nsdb token;
       t.sub_token <- None
     | None -> ());
    t.bh_prior <- t.bh_prior +. t.bh_current;
    t.bh_current <- 0.0;
    t.armed <- None

  let watch_journal t plan_name =
    let remediation = Nsdb_schema.journal_key plan_name `Remediation in
    let record (path, v) =
      match v with
      | Some (Nsdb.String detail) when String.equal path remediation ->
        t.remediations <- (plan_name, detail) :: t.remediations
      | _ -> ()
    in
    Nsdb.Replicated.subscribe t.nsdb ~path:(Nsdb_schema.journal_watch plan_name)
      (function
        | `Changes changes -> List.iter record changes
        | `Resync snapshot ->
          List.iter (fun (p, v) -> record (p, Some v)) snapshot)

  let arm t ~plan_name =
    if t.armed <> None then disarm t;
    (* Clearing the trace per window bounds its growth over a simulated
       day and anchors the FIB timeline at the baseline snapshot. *)
    Bgp.Trace.clear (Bgp.Network.trace t.net);
    t.v_window <- 0;
    t.armed <-
      Some
        ( plan_name,
          Bgp.Network.now t.net,
          Bgp.Network.fib_snapshot t.net t.prefix );
    t.sub_token <- Some (watch_journal t plan_name)

  let probe t _phase =
    match t.armed with
    | None -> `Ok
    | Some (_, t0, initial) ->
      let timeline =
        Bgp.Trace.fib_timeline (Bgp.Network.trace t.net) ~prefix:t.prefix
          ~initial
      in
      let integral =
        Dataplane.Metrics.loss_integrals ~initial ~timeline ~demands:t.demands
          ~from_time:t0
          ~until:(Bgp.Network.now t.net)
      in
      t.bh_current <- integral.Dataplane.Metrics.blackhole_seconds;
      let sweep = Invariant.check t.net in
      t.violations <- t.violations + List.length sweep;
      t.v_window <- t.v_window + List.length sweep;
      let reasons = ref [] in
      if t.v_window > 0 then begin
        let kinds =
          List.sort_uniq compare
            (List.map
               (fun (v : Invariant.violation) -> Invariant.kind_name v.kind)
               sweep)
        in
        reasons :=
          Printf.sprintf "%d invariant violations exceed budget 0 (%s)"
            t.v_window
            (String.concat ", " kinds)
          :: !reasons
      end;
      if t.bh_current > 0.0 then
        reasons :=
          Printf.sprintf "%.6f blackhole-seconds exceed budget 0.000000"
            t.bh_current
          :: !reasons;
      if !reasons = [] then `Ok
      else begin
        Obs.Metrics.incr m_wd_breaches;
        `Breach (List.rev !reasons)
      end

  let remediations t = List.rev t.remediations
  let violations_seen t = t.violations
  let blackhole_seconds t = t.bh_prior +. t.bh_current
end
