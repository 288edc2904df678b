open Centralium
module G = Topology.Graph
module D = Diagnostic
module Prefix = Net.Prefix
module Iset = Set.Make (Int)

type origin = {
  org_device : int;
  org_prefix : Prefix.t;
  org_attr : Net.Attr.t;
}

type violation = {
  v_code : D.code;
  v_state : string;
  v_prefix : Prefix.t;
  v_device : int;
  v_path : int list;
  v_message : string;
}

type report = {
  vr_plan : string;
  vr_classes : int;
  vr_states : int;
  vr_compiled : int;
  vr_reused : int;
  vr_rounds : int;
  vr_converged : bool;
  vr_violations : violation list;
  vr_diagnostics : D.t list;
}

let frontier_limit = 8

let default_origins graph =
  match G.layers graph with
  | [] -> []
  | first :: rest ->
    let top =
      List.fold_left
        (fun acc l ->
          if Topology.Node.layer_rank l > Topology.Node.layer_rank acc then l
          else acc)
        first rest
    in
    let attr =
      Net.Attr.make
        ~communities:
          (Net.Community.Set.singleton
             Net.Community.Well_known.backbone_default_route)
        ()
    in
    G.by_layer graph top
    |> List.map (fun n ->
           {
             org_device = n.Topology.Node.id;
             org_prefix = Prefix.default_v4;
             org_attr = attr;
           })
    |> List.sort (fun a b -> Int.compare a.org_device b.org_device)

let origins_of_network net =
  let graph = Bgp.Network.graph net in
  G.nodes graph
  |> List.concat_map (fun n ->
         let id = n.Topology.Node.id in
         Bgp.Speaker.originated (Bgp.Network.speaker net id)
         |> List.map (fun (p, a) ->
                { org_device = id; org_prefix = p; org_attr = a }))

let path_str path = String.concat " -> " (List.map string_of_int path)

(* All back-edge cycles of one FIB snapshot, in deterministic order (DFS
   rooted at each device in snapshot order). [color] and [adj] are work
   arrays over the frame's device positions, reused across snapshots: all
   0 and [] on entry and on return. *)
let snapshot_cycles topo ~color ~adj edges =
  let index = Topology.Frame.index topo in
  List.iter (fun (d, nhs) -> adj.(index d) <- nhs) edges;
  let cycles = ref [] in
  let rec dfs path d =
    let i = index d in
    match color.(i) with
    | 2 -> ()
    | 1 ->
      (* back edge: the cycle is the suffix of [path] down to [d] *)
      let rec take acc = function
        | [] -> acc
        | x :: rest -> if x = d then x :: acc else take (x :: acc) rest
      in
      cycles := take [] path :: !cycles
    | _ ->
      color.(i) <- 1;
      List.iter (fun nh -> dfs (d :: path) nh) adj.(i);
      color.(i) <- 2
  in
  List.iter (fun (d, _) -> dfs [] d) edges;
  (* every coloured device is a root or a next hop of one *)
  List.iter
    (fun (d, nhs) ->
      let i = index d in
      color.(i) <- 0;
      adj.(i) <- [];
      List.iter (fun nh -> color.(index nh) <- 0) nhs)
    edges;
  List.rev !cycles

let verify ?origins ?(incremental = true) graph
    (plan : Controller.plan) =
  let origins =
    match origins with Some o -> o | None -> default_origins graph
  in
  let clss =
    Eq_class.classes
      (List.map (fun o -> (o.org_device, o.org_prefix, o.org_attr)) origins)
  in
  let cls_arr = Array.of_list clss in
  let n_classes = Array.length cls_arr in
  (* The graph-derived set-up, shared by every compile and check of this
     call. Nothing kept after the call refers to it. *)
  let frame = Fwd_model.frame graph in
  let topo = Fwd_model.topology frame in
  let all_devices = Topology.Frame.devices topo in
  let n_devices = List.length all_devices in
  let color = Array.make n_devices 0 and adj = Array.make n_devices [] in
  let viols = ref [] in
  let diags = ref [] in
  let compiled = ref 0 in
  let reused = ref 0 in
  let rounds = ref 0 in
  let states = ref 0 in
  let all_converged = ref true in
  let add_viol v =
    viols := v :: !viols;
    diags := D.make ~device:v.v_device D.Error v.v_code v.v_message :: !diags
  in
  let add_info msg = diags := D.make D.Info D.Analysis_capped msg :: !diags in
  (* One engine per device RPA, created on first use and shared across
     every state and class that deploys it. A device bound twice in the
     plan runs its first binding. *)
  let engines = Hashtbl.create 16 in
  List.iter
    (fun (d, rpa) ->
      if not (Hashtbl.mem engines d) then
        Hashtbl.add engines d (lazy (Engine.create rpa)))
    plan.Controller.rpas;
  let engine_for d = Option.map Lazy.force (Hashtbl.find_opt engines d) in
  let compile deployed cls =
    let m =
      Fwd_model.compile frame
        ~engine_of:(fun d -> if Iset.mem d deployed then engine_for d else None)
        ~cls
    in
    incr compiled;
    rounds := !rounds + Fwd_model.rounds_run m;
    if not (Fwd_model.converged m) then all_converged := false;
    m
  in
  let origin_sets =
    Array.map
      (fun cls -> Iset.of_list (List.map fst cls.Eq_class.cls_origins))
      cls_arr
  in
  (* delivered(d): every forwarding branch from [d] reaches an origin of
     the class — no branch dies in a blackhole or a cycle. An entry kept
     warm through a minimum-next-hop withdraw is assumed to retain its
     pre-violation (delivering) hops. *)
  let delivered_set m =
    (* memo: 0 unknown, 1 delivered, 2 not; on_stack: on the current walk,
       so a cycle back to it does not deliver *)
    let memo = Array.make n_devices 0 in
    let on_stack = Array.make n_devices false in
    let rec go d =
      let i = Topology.Frame.index topo d in
      match memo.(i) with
      | 1 -> true
      | 2 -> false
      | _ ->
        let v =
          if on_stack.(i) then false
          else
            match Fwd_model.entry m d with
            | None -> false
            | Some e ->
              if e.Fwd_model.e_origin then true
              else if e.Fwd_model.e_next_hops = [] then e.Fwd_model.e_kept_warm
              else begin
                on_stack.(i) <- true;
                let v = List.for_all go e.Fwd_model.e_next_hops in
                on_stack.(i) <- false;
                v
              end
        in
        memo.(i) <- (if v then 1 else 2);
        v
    in
    List.fold_left
      (fun acc d -> if go d then Iset.add d acc else acc)
      Iset.empty all_devices
  in
  (* Shortest surviving physical path (over up links) from [d] to any
     origin of the class — the evidence a blackhole diagnosis needs. A
     breadth-first search over frame positions, in the frame's neighbour
     order. Its work arrays serve every search of this call: a position is
     visited by the current search when its stamp is the search's. *)
  let ids = Topology.Frame.ids topo in
  let bfs_parent = Array.make n_devices 0
  and bfs_stamp = Array.make n_devices 0
  and bfs_queue = Array.make n_devices 0
  and searches = ref 0 in
  let physical_path org_set d =
    if Iset.mem d org_set then Some [ d ]
    else begin
      incr searches;
      let stamp = !searches in
      let src = Topology.Frame.index topo d in
      bfs_stamp.(src) <- stamp;
      bfs_queue.(0) <- src;
      let head = ref 0 and tail = ref 1 and found = ref (-1) in
      while !found < 0 && !head < !tail do
        let x = bfs_queue.(!head) in
        incr head;
        let nbrs = Topology.Frame.up topo x in
        let k = ref 0 in
        while !found < 0 && !k < Array.length nbrs do
          let j = nbrs.(!k) in
          incr k;
          if bfs_stamp.(j) <> stamp then begin
            bfs_stamp.(j) <- stamp;
            bfs_parent.(j) <- x;
            if Iset.mem ids.(j) org_set then found := j
            else begin
              bfs_queue.(!tail) <- j;
              incr tail
            end
          end
        done
      done;
      if !found < 0 then None
      else
        let rec build acc j =
          if j = src then d :: acc else build (ids.(j) :: acc) bfs_parent.(j)
        in
        Some (build [] !found)
    end
  in
  (* The concrete walk behind a reachability loss: follow the first
     non-delivering branch from [d] until it closes a loop or dead-ends. *)
  let failing_walk m delivered d =
    let rec go seen acc d =
      if Iset.mem d seen then List.rev (d :: acc)
      else
        match Fwd_model.entry m d with
        | Some e when not e.Fwd_model.e_origin && e.Fwd_model.e_next_hops <> []
          -> (
          match
            List.find_opt
              (fun nh -> not (Iset.mem nh delivered))
              e.Fwd_model.e_next_hops
          with
          | Some nh -> go (Iset.add d seen) (d :: acc) nh
          | None -> List.rev (d :: acc))
        | _ -> List.rev (d :: acc)
    in
    go Iset.empty [] d
  in
  (* Full check battery for one class in one state. Returns nothing; all
     findings go through [add_viol]/[add_info]. [baseline_delivered] is
     [None] for the baseline state itself. *)
  let check_class state_name ci m ~baseline_delivered =
    let cls = cls_arr.(ci) in
    let p = Prefix.to_string cls.Eq_class.cls_prefix in
    let org_set = origin_sets.(ci) in
    (* 1. Loop-freedom, on every propagation round: transient Figure 9
       loops appear in intermediate snapshots even when the final state
       (or the oscillation) hides them. *)
    let seen_cycles = Hashtbl.create 8 in
    let cycle_devices = ref Iset.empty in
    List.iter
      (fun edges ->
        List.iter
          (fun cyc ->
            let cyc = Dataplane.Metrics.canonical_cycle cyc in
            if not (Hashtbl.mem seen_cycles cyc) then begin
              Hashtbl.add seen_cycles cyc ();
              cycle_devices :=
                List.fold_left (fun s d -> Iset.add d s) !cycle_devices cyc;
              let head = List.hd cyc in
              add_viol
                {
                  v_code = D.Forwarding_loop_static;
                  v_state = state_name;
                  v_prefix = cls.Eq_class.cls_prefix;
                  v_device = head;
                  v_path = cyc @ [ head ];
                  v_message =
                    Printf.sprintf "forwarding loop for %s in %s: %s" p
                      state_name
                      (path_str (cyc @ [ head ]));
                }
            end)
          (snapshot_cycles topo ~color ~adj edges))
      (Fwd_model.round_edges m);
    if not (Fwd_model.converged m) then
      add_info
        (Printf.sprintf
           "propagation fixpoint for %s in %s did not converge within %d \
            rounds (control-plane oscillation); loop checks cover one full \
            period"
           p state_name (Fwd_model.rounds_run m));
    (* 2. Blackholes, on the final state: the static twin of
       Invariant.Blackhole — a surviving physical path to an origin but no
       forwarding entry. *)
    let blackholed = ref Iset.empty in
    List.iter
      (fun d ->
        if (not (Iset.mem d org_set)) && Fwd_model.entry m d = None then
          match physical_path org_set d with
          | Some path when List.length path > 1 ->
            blackholed := Iset.add d !blackholed;
            add_viol
              {
                v_code = D.Blackhole_static;
                v_state = state_name;
                v_prefix = cls.Eq_class.cls_prefix;
                v_device = d;
                v_path = path;
                v_message =
                  Printf.sprintf
                    "blackhole for %s in %s at device %d: no forwarding \
                     entry while physical path %s survives"
                    p state_name d (path_str path);
              }
          | Some _ | None -> ())
      all_devices;
    (* 3. Reachability preservation: anything the baseline delivered must
       still be delivered. Devices already diagnosed above (no entry, or
       sitting on a reported loop) are excluded — the loss there is the
       same root cause, not a second finding. *)
    match baseline_delivered with
    | None -> ()
    | Some base ->
      let now = delivered_set m in
      Iset.iter
        (fun d ->
          if
            (not (Iset.mem d now))
            && (not (Iset.mem d org_set))
            && (not (Iset.mem d !blackholed))
            && (not (Iset.mem d !cycle_devices))
            && Fwd_model.entry m d <> None
          then
            add_viol
              {
                v_code = D.Reachability_loss;
                v_state = state_name;
                v_prefix = cls.Eq_class.cls_prefix;
                v_device = d;
                v_path = failing_walk m now d;
                v_message =
                  Printf.sprintf
                    "device %d delivered %s at baseline but not in %s: \
                     forwarding walk %s dies downstream"
                    d p state_name
                    (path_str (failing_walk m now d));
              })
        base
  in
  (* Baseline: no RPAs deployed. Everything compiles; loop and blackhole
     checks establish the reference verdict and the delivered sets that
     reachability preservation is judged against. *)
  incr states;
  let baseline =
    Array.mapi
      (fun ci cls ->
        let m = compile Iset.empty cls in
        check_class "baseline" ci m ~baseline_delivered:None;
        m)
      cls_arr
  in
  let baseline_delivered = Array.map delivered_set baseline in
  (* A state is checked against the previous phase boundary: only the
     classes the newly deployed RPAs can touch recompile; the rest reuse
     the boundary's forwarding graphs, verdict carried over. *)
  let check_state ~base_models ~base_deployed name deployed =
    incr states;
    let added = Iset.diff deployed base_deployed in
    let delta_rpas =
      List.filter (fun (d, _) -> Iset.mem d added) plan.Controller.rpas
    in
    let touched =
      Eq_class.touched_by clss ~rpas:delta_rpas
      |> List.fold_left
           (fun s c -> Prefix.Set.add c.Eq_class.cls_prefix s)
           Prefix.Set.empty
    in
    Array.mapi
      (fun ci cls ->
        if (not incremental) || Prefix.Set.mem cls.Eq_class.cls_prefix touched
        then begin
          let m = compile deployed cls in
          check_class name ci m
            ~baseline_delivered:(Some baseline_delivered.(ci));
          m
        end
        else begin
          incr reused;
          base_models.(ci)
        end)
      cls_arr
  in
  let rpa_devices = Iset.of_list (List.map fst plan.Controller.rpas) in
  let base_models = ref baseline in
  let base_deployed = ref Iset.empty in
  List.iteri
    (fun i phase ->
      let k = i + 1 in
      let phase = List.sort_uniq Int.compare phase in
      let boundary = List.fold_left (fun s d -> Iset.add d s) !base_deployed phase in
      (* Mixed frontiers: each device deployed alone ahead of its phase
         peers is a legal transient the rollout passes through. *)
      let with_rpa = List.filter (fun d -> Iset.mem d rpa_devices) phase in
      if List.length with_rpa > 1 then begin
        let modelled, rest =
          if List.length with_rpa <= frontier_limit then (with_rpa, [])
          else begin
            let rec split n = function
              | [] -> ([], [])
              | x :: tl ->
                if n = 0 then ([], x :: tl)
                else
                  let a, b = split (n - 1) tl in
                  (x :: a, b)
            in
            split frontier_limit with_rpa
          end
        in
        if rest <> [] then
          add_info
            (Printf.sprintf
               "phase %d has %d RPA-bearing devices; frontier modelling \
                capped at the first %d by id (devices %s not modelled \
                individually)"
               k (List.length with_rpa) frontier_limit (path_str rest));
        List.iter
          (fun x ->
            ignore
              (check_state ~base_models:!base_models
                 ~base_deployed:!base_deployed
                 (Printf.sprintf "phase %d frontier device %d" k x)
                 (Iset.add x !base_deployed)))
          modelled
      end;
      let models =
        check_state ~base_models:!base_models ~base_deployed:!base_deployed
          (Printf.sprintf "phase %d" k)
          boundary
      in
      base_models := models;
      base_deployed := boundary)
    plan.Controller.phases;
  {
    vr_plan = plan.Controller.plan_name;
    vr_classes = n_classes;
    vr_states = !states;
    vr_compiled = !compiled;
    vr_reused = !reused;
    vr_rounds = !rounds;
    vr_converged = !all_converged;
    vr_violations = List.rev !viols;
    vr_diagnostics = D.sort !diags;
  }

(* The last report, keyed weakly by its plan (a plan's health checks may
   close over a network) and by the stamp of the network it read. The
   report depends only on the graph, the speakers' origins and the plan, so
   the same plan on an unmoved network gets the same report. *)
let last_report = ref None

let verify_network net plan =
  let stamp = Bgp.Network.stamp net in
  match Option.bind !last_report (fun e -> Ephemeron.K1.query e plan) with
  | Some (s, report) when Bgp.Network.stamp_equal s stamp -> report
  | Some _ | None ->
    let origins =
      match origins_of_network net with
      | [] -> default_origins (Bgp.Network.graph net)
      | os -> os
    in
    let report = verify ~origins (Bgp.Network.graph net) plan in
    last_report := Some (Ephemeron.K1.make plan (stamp, report));
    report

let violation_json v =
  Obs.Json.Obj
    [
      ("code", Obs.Json.String (D.code_to_string v.v_code));
      ("state", Obs.Json.String v.v_state);
      ("prefix", Obs.Json.String (Prefix.to_string v.v_prefix));
      ("device", Obs.Json.Int v.v_device);
      ("path", Obs.Json.List (List.map (fun d -> Obs.Json.Int d) v.v_path));
      ("message", Obs.Json.String v.v_message);
    ]

let report_json r =
  Obs.Json.Obj
    [
      ("plan", Obs.Json.String r.vr_plan);
      ("classes", Obs.Json.Int r.vr_classes);
      ("states", Obs.Json.Int r.vr_states);
      ("compiled", Obs.Json.Int r.vr_compiled);
      ("reused", Obs.Json.Int r.vr_reused);
      ("rounds", Obs.Json.Int r.vr_rounds);
      ("converged", Obs.Json.Bool r.vr_converged);
      ("violations", Obs.Json.List (List.map violation_json r.vr_violations));
      ("report", D.report_json r.vr_diagnostics);
    ]

let findings r = List.map D.finding r.vr_diagnostics
