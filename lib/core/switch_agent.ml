(* Observability instruments (shared registry; no-ops until enabled). *)
let m_deploys = Obs.Metrics.counter "agent.deploys"
let h_deploy_ms = Obs.Metrics.histogram "agent.deploy_ms"
let m_rpc_lost = Obs.Metrics.counter "agent.rpc_lost"
let m_rpc_timeout = Obs.Metrics.counter "agent.rpc_timeout"
let m_rpc_transient = Obs.Metrics.counter "agent.rpc_transient"
let m_fenced_rpcs = Obs.Metrics.counter "ha.fenced_rpcs"

type t = {
  agent_service : Service.t;
  net : Bgp.Network.t;
  rng : Dsim.Rng.t;
  reachable : (int, bool) Hashtbl.t;
  mutable deploy_times : float list;  (* reverse order *)
  mutable management : (Openr.Network.t * int) option;
  mutable mgmt_fault : Dsim.Mgmt_fault.t option;
  (* Fencing: highest controller epoch this agent has accepted an RPC
     from. RPCs stamped with a lower epoch come from a deposed leader and
     are rejected without touching the device. *)
  mutable accepted_epoch : int;
  (* Audit trail for Invariant.Stale_epoch_write: (virtual time, epoch)
     of every committed RPA apply, most recent first. *)
  mutable epoch_commits : (float * int) list;
}

let rpa_path device = Printf.sprintf "devices/%d/rpa" device
let maint_path device = Printf.sprintf "devices/%d/maintenance" device

let create ?(seed = 7) net =
  {
    agent_service = Service.create ~name:"switch-agent" ~role:Service.Io;
    net;
    rng = Dsim.Rng.create seed;
    reachable = Hashtbl.create 64;
    deploy_times = [];
    management = None;
    mgmt_fault = None;
    accepted_epoch = 0;
    epoch_commits = [];
  }

let service t = t.agent_service
let network t = t.net

let set_mgmt_fault t fault = t.mgmt_fault <- fault

(* A device's RPAs live only in the service's two views, as Figure 8
   draws it: the controller writes the intended view, reconciliation the
   current one. *)
let set_intended t ~device rpa =
  Nsdb.set (Service.intended t.agent_service) ~path:(rpa_path device)
    (Nsdb.Rpa rpa)

let view_rpa view device =
  match Nsdb.get_one view ~path:(rpa_path device) with
  | Some (Nsdb.Rpa rpa) -> Some rpa
  | Some _ | None -> None

let intended_rpa t ~device = view_rpa (Service.intended t.agent_service) device
let current_rpa t ~device = view_rpa (Service.current t.agent_service) device

(* A device with no current entry runs no RPA. *)
let in_sync t ~device intended =
  Rpa.equal intended
    (Option.value (current_rpa t ~device) ~default:Rpa.empty)

let set_maintenance t ~device down =
  Nsdb.set (Service.intended t.agent_service) ~path:(maint_path device)
    (Nsdb.Bool down)

let in_maintenance t device =
  match
    Nsdb.get_one (Service.intended t.agent_service) ~path:(maint_path device)
  with
  | Some (Nsdb.Bool b) -> b
  | Some (Nsdb.String _ | Nsdb.Int _ | Nsdb.Float _ | Nsdb.Rpa _) | None -> false

let is_reachable t device =
  Option.value (Hashtbl.find_opt t.reachable device) ~default:true
  &&
  match t.management with
  | None -> true
  | Some (openr, host) ->
    device = host || Openr.Network.reachable openr ~src:host ~dst:device

let set_reachable t ~device up = Hashtbl.replace t.reachable device up

let attach_management_network t openr ~controller_host =
  t.management <- Some (openr, controller_host)

let unexpected_unreachable t =
  Topology.Graph.nodes (Bgp.Network.graph t.net)
  |> List.filter_map (fun (n : Topology.Node.t) ->
         let device = n.Topology.Node.id in
         if (not (is_reachable t device)) && not (in_maintenance t device) then
           Some device
         else None)
  |> List.sort Int.compare

type rpc_failure = [ `Rpc_lost | `Rpc_timeout | `Transient of string ]
type outcome = [ `Applied | `In_sync | `Unreachable | `Fenced | rpc_failure ]

let accepted_epoch t = t.accepted_epoch
let epoch_commits t = List.rev t.epoch_commits

(* Install the intended RPA into the device and update the current view,
   recording the simulated deploy latency. The apply cost is sampled from
   the seeded RNG so observe/bench output is bit-reproducible across
   hosts. *)
let apply_rpa t device intended ~rpc_latency =
  let hooks =
    if Rpa.is_empty intended then Bgp.Rib_policy.native
    else Engine.hooks (Engine.create intended)
  in
  Bgp.Network.set_hooks t.net device hooks;
  let apply_cost = Dsim.Rng.log_normal t.rng ~mu:(log 0.00005) ~sigma:0.5 in
  t.deploy_times <- (rpc_latency +. apply_cost) :: t.deploy_times;
  Obs.Metrics.incr m_deploys;
  Obs.Metrics.observe h_deploy_ms ((rpc_latency +. apply_cost) *. 1000.0);
  Nsdb.set (Service.current t.agent_service) ~path:(rpa_path device)
    (Nsdb.Rpa intended)

let reconcile_device ?epoch t device =
  (* Fencing happens at the door, before the agent even looks at device
     state: a deposed leader's RPC must not learn anything, let alone
     mutate. An equal-or-newer epoch ratchets the acceptance floor up. *)
  match epoch with
  | Some e when e < t.accepted_epoch ->
    Obs.Metrics.incr m_fenced_rpcs;
    `Fenced
  | _ ->
  (match epoch with
   | Some e -> t.accepted_epoch <- max t.accepted_epoch e
   | None -> ());
  let intended = Option.value (intended_rpa t ~device) ~default:Rpa.empty in
  if in_sync t ~device intended then `In_sync
  else if not (is_reachable t device) then `Unreachable
  else begin
    let fate =
      match t.mgmt_fault with
      | None -> Dsim.Mgmt_fault.Deliver
      | Some f -> Dsim.Mgmt_fault.rpc_fate f
    in
    match fate with
    | Dsim.Mgmt_fault.Lose ->
      Obs.Metrics.incr m_rpc_lost;
      `Rpc_lost
    | Dsim.Mgmt_fault.Transient reason ->
      Obs.Metrics.incr m_rpc_transient;
      `Transient reason
    | Dsim.Mgmt_fault.Deliver | Dsim.Mgmt_fault.Time_out ->
      Obs.Span.with_span "agent.reconcile"
        ~attrs:(fun () -> [ ("device", string_of_int device) ])
      @@ fun () ->
      Service.with_work t.agent_service (fun () ->
          (* RPC round trip to the BGP daemon, then building and installing
             the evaluation engine. *)
          let rpc_latency =
            Dsim.Rng.log_normal t.rng ~mu:(log 0.0003) ~sigma:0.8
          in
          apply_rpa t device intended ~rpc_latency);
      t.epoch_commits <-
        (Bgp.Network.now t.net, Option.value epoch ~default:t.accepted_epoch)
        :: t.epoch_commits;
      (* A Time_out fate means the device applied the RPA but the
         controller never saw the ack. The current view still advances
         (the agent keeps polling device state), so a retry finds the
         device `In_sync`: the ambiguity is resolved by idempotence, not
         by guessing. *)
      if fate = Dsim.Mgmt_fault.Time_out then begin
        Obs.Metrics.incr m_rpc_timeout;
        `Rpc_timeout
      end
      else `Applied
  end

let reconcile t ~devices =
  List.fold_left
    (fun applied device ->
      match reconcile_device t device with
      | `Applied -> applied + 1
      | `In_sync | `Unreachable | `Fenced | `Rpc_lost | `Rpc_timeout
      | `Transient _ ->
        applied)
    0 devices

let stragglers t =
  Nsdb.get (Service.intended t.agent_service) ~path:"devices/*/rpa"
  |> List.filter_map (fun (path, value) ->
         match (String.split_on_char '/' path, value) with
         | [ _; d; _ ], Nsdb.Rpa intended ->
           let device = int_of_string d in
           if in_sync t ~device intended then None else Some device
         | _ -> None)
  |> List.sort Int.compare

let deploy_time_samples t = List.rev t.deploy_times

let clear_deploy_times t = t.deploy_times <- []
