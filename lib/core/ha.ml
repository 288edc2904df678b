(* Observability instruments (shared registry; no-ops until enabled). *)
let m_elections = Obs.Metrics.counter "ha.elections"
let h_takeover_ms = Obs.Metrics.histogram "ha.takeover_ms"
let m_renewals = Obs.Metrics.counter "ha.renewals"
let m_demotions = Obs.Metrics.counter "ha.demotions"
let m_leader_crashes = Obs.Metrics.counter "ha.leader_crashes"

type member = {
  id : int;
  controller : Controller.t;
  mutable alive : bool;
  mutable held_epoch : int;  (* 0 = holds no lease *)
  mutable held_expiry : float;
}

(* Audit trail for Invariant.check_ha: every lease grant with its validity
   window (renewals extend the window of the grant's epoch). *)
type grant = {
  g_holder : int;
  g_epoch : int;
  g_start : float;
  mutable g_expiry : float;
}

(* Lease timing: a lease lives 50 ms without renewal; every member ticks
   each 10 ms (an acquire attempt or a renewal), and member [i]'s first
   tick is offset by [(i + 1) * 0.5 ms] so contention resolves in
   member-id order. *)
let lease_ttl = 0.05
let tick_every = 0.01
let stagger = 0.0005

(* The timer timeline. HA timers live on the Dsim virtual clock but are
   deliberately NOT event-queue events: Bgp.Network.converge runs the
   queue to quiescence, so a self-rescheduling timer event would either
   never let it terminate or drag virtual time to an arbitrary horizon
   mid-deployment. Instead the agenda holds the logical (time, member)
   tick times and {!advance} replays every tick [<= now] in that order
   whenever the clock has moved — at every fence evaluation (i.e. every
   management operation) and from the takeover wait loop. Because a
   tick's effect depends only on HA-owned state (lease keys, member flags,
   the chaos schedule) and its own logical time, the replay is
   bit-identical however coarsely the pump is called. *)
type t = {
  net : Bgp.Network.t;
  nsdb : Nsdb.Replicated.t;
  agent : Switch_agent.t;
  members : member array;
  fault : Dsim.Mgmt_fault.t option;
  mutable agenda : (float * int) list;  (* sorted *)
  mutable grants : grant list;  (* reverse chronological *)
  mutable elections : int;
  mutable takeovers_ms : float list;  (* reverse chronological *)
  mutable leader_down_at : float option;
  mutable running : bool;
}

let lease_path = "ha/lease"
let epoch_path = "ha/epoch"

let encode_lease ~holder ~epoch ~expiry =
  (* %.17g round-trips the float bit-exactly: re-encoding a decoded lease
     yields the same string, which compare_and_set relies on. *)
  Printf.sprintf "%d:%d:%.17g" holder epoch expiry

let decode_lease s =
  match String.split_on_char ':' s with
  | [ h; e; x ] -> (
    try Some (int_of_string h, int_of_string e, float_of_string x)
    with Failure _ -> None)
  | _ -> None

let create ?fault ~members net agent nsdb =
  if members < 1 then invalid_arg "Ha.create: need >= 1 member";
  {
    net;
    nsdb;
    agent;
    members =
      Array.init members (fun id ->
          {
            id;
            controller = Controller.create ~agent ~nsdb net;
            alive = true;
            held_epoch = 0;
            held_expiry = neg_infinity;
          });
    fault;
    agenda = [];
    grants = [];
    elections = 0;
    takeovers_ms = [];
    leader_down_at = None;
    running = false;
  }

let now t = Bgp.Network.now t.net

let schedule t ~time ~member =
  let rec insert = function
    | [] -> [ (time, member) ]
    | hd :: tl when hd <= (time, member) -> hd :: insert tl
    | tl -> (time, member) :: tl
  in
  t.agenda <- insert t.agenda

let store_lease t =
  match Nsdb.Replicated.get_one t.nsdb ~path:lease_path with
  | Some (Nsdb.String s) -> decode_lease s
  | Some _ | None -> None

let max_epoch t =
  match Nsdb.Replicated.get_one t.nsdb ~path:epoch_path with
  | Some (Nsdb.Int e) -> e
  | Some _ | None -> 0

let lease_reachable t ~at =
  match t.fault with
  | None -> true
  | Some f -> Dsim.Mgmt_fault.lease_reachable f ~now:at

(* Kill whichever member holds a currently-valid lease, once per
   scheduled crash time that has passed. A crash scheduled for an instant
   with no valid leader is consumed without effect. *)
let apply_chaos t ~at =
  match t.fault with
  | None -> ()
  | Some f ->
    while Dsim.Mgmt_fault.leader_crash_due f ~now:at do
      Array.iter
        (fun m ->
          if m.alive && m.held_epoch > 0 && at < m.held_expiry then begin
            m.alive <- false;
            Obs.Metrics.incr m_leader_crashes;
            if t.leader_down_at = None then t.leader_down_at <- Some at
          end)
        t.members
    done

let try_acquire t m ~at =
  if lease_reachable t ~at then begin
    let current = Nsdb.Replicated.get_one t.nsdb ~path:lease_path in
    let holder_valid =
      match current with
      | Some (Nsdb.String s) -> (
        match decode_lease s with
        | Some (_, _, expiry) -> expiry > at
        | None -> false)
      | Some _ | None -> false
    in
    if not holder_valid then begin
      (* Expired or absent: claim it under the next epoch. The CAS is the
         linearization point — on contention at one instant the member
         ticking first (deterministic: staggered timers) wins and the
         loser's expected value no longer matches. *)
      let epoch = max_epoch t + 1 in
      let expiry = at +. lease_ttl in
      if
        Nsdb.Replicated.compare_and_set t.nsdb ~path:lease_path
          ~expected:current
          (Nsdb.String (encode_lease ~holder:m.id ~epoch ~expiry))
      then begin
        (* Publish the fencing floor before acting under the lease: from
           here on, agents and the NSDB reject anything older. *)
        Nsdb.Replicated.set t.nsdb ~path:epoch_path (Nsdb.Int epoch);
        m.held_epoch <- epoch;
        m.held_expiry <- expiry;
        t.elections <- t.elections + 1;
        Obs.Metrics.incr m_elections;
        t.grants <-
          { g_holder = m.id; g_epoch = epoch; g_start = at; g_expiry = expiry }
          :: t.grants;
        match t.leader_down_at with
        | Some down ->
          let ms = (at -. down) *. 1000.0 in
          t.takeovers_ms <- ms :: t.takeovers_ms;
          Obs.Metrics.observe h_takeover_ms ms;
          t.leader_down_at <- None
        | None -> ()
      end
    end
  end

(* Extend the lease member [m] holds and has not outlived. *)
let renew t m ~at =
  if lease_reachable t ~at then begin
    match store_lease t with
    | Some (h, e, expiry) when h = m.id && e = m.held_epoch ->
      let expected =
        Some (Nsdb.String (encode_lease ~holder:h ~epoch:e ~expiry))
      in
      let expiry' = at +. lease_ttl in
      if
        Nsdb.Replicated.compare_and_set t.nsdb ~path:lease_path ~expected
          (Nsdb.String (encode_lease ~holder:h ~epoch:e ~expiry:expiry'))
      then begin
        m.held_expiry <- expiry';
        Obs.Metrics.incr m_renewals;
        match List.find_opt (fun g -> g.g_epoch = e) t.grants with
        | Some g -> g.g_expiry <- expiry'
        | None -> ()
      end
    | Some _ | None ->
      (* Superseded or gone from under us: fail-stop as a leader. *)
      m.held_epoch <- 0;
      Obs.Metrics.incr m_demotions
  end

let tick t m ~at =
  apply_chaos t ~at;
  if m.alive then begin
    if m.held_epoch > 0 && at >= m.held_expiry then begin
      (* The lease ran out before we renewed (lease-store partition):
         demote. The epoch we held is dead; re-election starts fresh. *)
      m.held_epoch <- 0;
      Obs.Metrics.incr m_demotions
    end;
    if m.held_epoch > 0 then renew t m ~at else try_acquire t m ~at
  end;
  schedule t ~time:(at +. tick_every) ~member:m.id

let advance t =
  if t.running then begin
    let tnow = now t in
    let rec pump () =
      match t.agenda with
      | (time, mid) :: rest when time <= tnow ->
        t.agenda <- rest;
        tick t t.members.(mid) ~at:time;
        pump ()
      | _ -> ()
    in
    pump ()
  end

let start t =
  if not t.running then begin
    t.running <- true;
    let base = now t in
    Array.iter
      (fun m ->
        schedule t
          ~time:(base +. (stagger *. float_of_int (m.id + 1)))
          ~member:m.id)
      t.members
  end

let stop t =
  t.running <- false;
  t.agenda <- []

(* The controller-side fence: evaluated before every agent RPC, intent
   update and NSDB write of a fenced deployment. *)
let fence t m () =
  advance t;
  if not m.alive then Controller.Fence_crashed
  else if m.held_epoch > 0 && now t < m.held_expiry then
    Controller.Fence_held m.held_epoch
  else Controller.Fence_lost

let current_leader t =
  advance t;
  let tnow = now t in
  match store_lease t with
  | Some (h, e, expiry)
    when expiry > tnow
         && h >= 0
         && h < Array.length t.members
         && t.members.(h).alive
         && t.members.(h).held_epoch = e ->
    Some t.members.(h)
  | Some _ | None -> None

let leader_id t = Option.map (fun m -> m.id) (current_leader t)

let current_leader_epoch t =
  Option.map (fun m -> (m.id, m.held_epoch)) (current_leader t)

let fence_for t i = fence t t.members.(i)

let kill t i =
  let m = t.members.(i) in
  if m.alive then begin
    let was_leading = m.held_epoch > 0 && now t < m.held_expiry in
    m.alive <- false;
    if was_leading then begin
      Obs.Metrics.incr m_leader_crashes;
      if t.leader_down_at = None then t.leader_down_at <- Some (now t)
    end
  end

(* Advance virtual time in tick-sized steps until a member holds a valid
   lease (in-flight BGP events keep draining meanwhile — the fleet fails
   static during the controller outage). *)
let wait_member t =
  let deadline = now t +. 60.0 in
  let rec go () =
    match current_leader t with
    | Some m -> Some m
    | None ->
      if
        now t >= deadline
        || Array.for_all (fun m -> not m.alive) t.members
        || not t.running
      then None
      else begin
        ignore (Bgp.Network.run_until t.net ~time:(now t +. tick_every));
        go ()
      end
  in
  go ()

let wait_for_leader t = Option.map (fun m -> m.id) (wait_member t)

(* Deploy/resume attempts before {!run_plan} gives up. *)
let max_attempts = 64

let run_plan ?policy ?between_phases ?watchdog t plan =
  let fault = t.fault in
  let attempts = ref [] in
  let finished = ref None in
  let attempt = ref 0 in
  let give_up = ref false in
  while !finished = None && not !give_up do
    if !attempt >= max_attempts then give_up := true
    else
      match wait_member t with
      | None -> give_up := true
      | Some m ->
        Switch_agent.set_mgmt_fault t.agent fault;
        let fence = fence t m in
        let outcome =
          (* A journal means a predecessor got at least as far as writing
             "in-progress": take the resume path (idempotent; also handles
             the already-completed case). No journal means a fresh start. *)
          match Controller.journal_status m.controller plan with
          | None ->
            Controller.deploy_resilient ?policy ?fault ~fence ?between_phases
              ?watchdog m.controller plan
          | Some _ ->
            Controller.resume ?policy ?fault ~fence ?between_phases ?watchdog
              m.controller plan
        in
        incr attempt;
        attempts := (m.id, outcome) :: !attempts;
        (match outcome with
         | Controller.Crashed _ ->
           (* Crashed means the controller process died (op-count schedule
              from the fate model, or an HA leader-crash that the fence
              surfaced). Either way this member is gone. *)
           if m.alive then begin
             m.alive <- false;
             Obs.Metrics.incr m_leader_crashes;
             if t.leader_down_at = None then t.leader_down_at <- Some (now t)
           end
         | Controller.Fenced _ ->
           (* Deposed, not dead: the member fail-stopped its rollout and
              goes back to standby; it may lead again later. *)
           ()
         | (Controller.Completed _ | Controller.Rolled_back _
           | Controller.Aborted _) as terminal ->
           finished := Some terminal)
  done;
  (List.rev !attempts, !finished)

(* {1 Introspection} *)

let members t = Array.length t.members
let controller t i = t.members.(i).controller
let member_alive t i = t.members.(i).alive
let elections t = t.elections
let takeover_ms t = List.rev t.takeovers_ms

let grants t =
  List.rev_map
    (fun g -> (g.g_holder, g.g_epoch, g.g_start, g.g_expiry))
    t.grants

(* One flat audit of epoch-stamped mutations: agent RPA applies plus every
   member controller's fenced NSDB writes — the [commits] input of
   {!Invariant.check_ha}. *)
let epoch_commits t =
  let writes =
    Array.fold_left
      (fun acc m -> acc @ Controller.epoch_writes m.controller)
      [] t.members
  in
  List.sort compare (Switch_agent.epoch_commits t.agent @ writes)
