(* The invariant sweep against the sweep it replaced.

   [Model] is the sweep as it ran before it read speaker state through one
   frame by prefix id, kept verbatim with its module paths qualified: it
   builds sorted lists per (device, prefix) and per session from the
   speakers' list accessors, runs one BFS per prefix over
   [Topology.Graph.neighbors] with a polymorphic visited table, and matches
   prefixes with [List.assoc_opt]. Random histories on small Clos slices
   and on the expansion fabric are sampled mid-convergence and at
   quiescence, and every public check must equal the model element for
   element. *)

module I = Centralium.Invariant

(* ---------------- The model ---------------- *)

module Model = struct
  open Centralium.Invariant

  (* ---------------- Forwarding loops ---------------- *)

  let check_forwarding ?prefix ~lookup ~devices () =
    List.map
      (fun cycle ->
        {
          device = (match cycle with d :: _ -> Some d | [] -> None);
          prefix;
          kind = Forwarding_loop;
          detail =
            "cycle " ^ String.concat " -> " (List.map string_of_int cycle);
        })
      (Dataplane.Metrics.find_forwarding_loops ~lookup ~devices)

  (* ---------------- Blackholes ---------------- *)

  (* Devices physically connected to any of [origins] over up links. *)
  let reachable_from graph origins =
    let seen = Hashtbl.create 64 in
    let queue = Queue.create () in
    List.iter
      (fun d ->
        Hashtbl.replace seen d ();
        Queue.push d queue)
      origins;
    while not (Queue.is_empty queue) do
      let d = Queue.pop queue in
      List.iter
        (fun ((n : Topology.Node.t), _link) ->
          if not (Hashtbl.mem seen n.Topology.Node.id) then begin
            Hashtbl.replace seen n.Topology.Node.id ();
            Queue.push n.Topology.Node.id queue
          end)
        (Topology.Graph.neighbors graph d)
    done;
    seen

  let check_blackholes net graph devices prefix =
    let lookup d = Bgp.Network.fib net d prefix in
    let origins =
      List.filter
        (fun d -> match lookup d with Some Bgp.Speaker.Local -> true | _ -> false)
        devices
    in
    if origins = [] then []
    else begin
      let reachable = reachable_from graph origins in
      List.filter_map
        (fun d ->
          if
            Hashtbl.mem reachable d
            && (not (List.mem d origins))
            && lookup d = None
          then
            Some
              {
                device = Some d;
                prefix = Some prefix;
                kind = Blackhole;
                detail =
                  "no route although a physical path to an origin survives";
              }
          else None)
        devices
    end

  (* ---------------- Per-entry RIB / liveness checks ---------------- *)

  let check_entries net graph devices prefix =
    List.concat_map
      (fun d ->
        let sp = Bgp.Network.speaker net d in
        match Bgp.Speaker.fib_lookup sp prefix with
        | Some Bgp.Speaker.Local | None -> []
        | Some (Bgp.Speaker.Entries _)
          when List.exists (Net.Prefix.equal prefix)
                 (Bgp.Speaker.fib_stale_prefixes sp) ->
          []
        | Some (Bgp.Speaker.Entries entries) ->
          let rib = Bgp.Speaker.adj_rib_in sp prefix in
          List.concat_map
            (fun (e : Bgp.Speaker.entry) ->
              let justified =
                List.exists
                  (fun (peer, session, _) ->
                    peer = e.Bgp.Speaker.next_hop
                    && session = e.Bgp.Speaker.session)
                  rib
              in
              let rib_v =
                if justified then []
                else
                  [ {
                      device = Some d;
                      prefix = Some prefix;
                      kind = Rib_inconsistency;
                      detail =
                        Printf.sprintf
                          "FIB entry via %d session %d has no Adj-RIB-In route"
                          e.Bgp.Speaker.next_hop e.Bgp.Speaker.session;
                    } ]
              in
              let link_up =
                match Topology.Graph.find_link graph d e.Bgp.Speaker.next_hop with
                | Some link -> link.Topology.Graph.up
                | None -> false
              in
              let alive =
                link_up
                && Bgp.Speaker.session_up sp ~peer:e.Bgp.Speaker.next_hop
                     ~session:e.Bgp.Speaker.session
              in
              let stale_sanctioned =
                link_up
                && Bgp.Speaker.is_stale sp prefix ~peer:e.Bgp.Speaker.next_hop
                     ~session:e.Bgp.Speaker.session
              in
              let dead_v =
                if alive || stale_sanctioned then []
                else
                  [ {
                      device = Some d;
                      prefix = Some prefix;
                      kind = Dead_next_hop;
                      detail =
                        Printf.sprintf
                          "FIB entry via %d session %d references a dead next \
                           hop"
                          e.Bgp.Speaker.next_hop e.Bgp.Speaker.session;
                    } ]
              in
              rib_v @ dead_v)
            entries)
      devices

  (* ---------------- Graceful-restart stale state ---------------- *)

  let check_stale net devices =
    List.concat_map
      (fun d ->
        let sp = Bgp.Network.speaker net d in
        let route_leaks =
          List.map
            (fun (prefix, peer, session, marked_at) ->
              {
                device = Some d;
                prefix = Some prefix;
                kind = Stale_route;
                detail =
                  Printf.sprintf
                    "route from peer %d session %d still stale (marked at %.4fs)"
                    peer session marked_at;
              })
            (Bgp.Speaker.stale_routes sp)
        in
        let fib_leaks =
          List.map
            (fun prefix ->
              {
                device = Some d;
                prefix = Some prefix;
                kind = Stale_route;
                detail = "FIB entry preserved across restart was never re-learned";
              })
            (Bgp.Speaker.fib_stale_prefixes sp)
        in
        route_leaks @ fib_leaks)
      devices

  (* ---------------- Session staleness ---------------- *)

  let check_session_staleness net =
    let graph = Bgp.Network.graph net in
    let direction src dst session =
      let sender = Bgp.Network.speaker net src in
      let receiver = Bgp.Network.speaker net dst in
      if
        not
          (Bgp.Speaker.session_up sender ~peer:dst ~session
          && Bgp.Speaker.session_up receiver ~peer:src ~session)
      then []
      else begin
        let sent = Bgp.Speaker.advertised_to sender ~peer:dst in
        let heard = Bgp.Speaker.routes_from receiver ~peer:src ~session in
        let stale prefix =
          Bgp.Speaker.is_stale receiver prefix ~peer:src ~session
        in
        let missing =
          List.filter_map
            (fun (prefix, attr) ->
              if stale prefix then None
              else
                match List.assoc_opt prefix heard with
                | Some got when Net.Attr.equal got attr -> None
                | Some _ ->
                  Some
                    {
                      device = Some dst;
                      prefix = Some prefix;
                      kind = Session_stale;
                      detail =
                        Printf.sprintf
                          "route from %d session %d differs from what the peer \
                           advertised"
                          src session;
                    }
                | None ->
                  Some
                    {
                      device = Some dst;
                      prefix = Some prefix;
                      kind = Session_stale;
                      detail =
                        Printf.sprintf
                          "peer %d advertised this prefix on session %d but it \
                           was never received"
                          src session;
                    })
            sent
        in
        let ghost =
          List.filter_map
            (fun (prefix, _) ->
              if stale prefix || List.mem_assoc prefix sent then None
              else
                Some
                  {
                    device = Some dst;
                    prefix = Some prefix;
                    kind = Session_stale;
                    detail =
                      Printf.sprintf
                        "route held from %d session %d is no longer in the \
                         peer's Adj-RIB-Out"
                        src session;
                  })
            heard
        in
        missing @ ghost
      end
    in
    List.concat_map
      (fun (link : Topology.Graph.link) ->
        if not link.Topology.Graph.up then []
        else
          List.concat_map
            (fun session ->
              direction link.a link.b session @ direction link.b link.a session)
            (List.init link.Topology.Graph.sessions Fun.id))
      (Topology.Graph.links graph)

  (* ---------------- Stability ---------------- *)

  let check_stability net devices =
    let env = Bgp.Network.env net in
    List.concat_map
      (fun d ->
        let sp = Bgp.Network.speaker net d in
        List.map
          (function
            | Bgp.Speaker.Stale_fib { prefix } ->
              {
                device = Some d;
                prefix = Some prefix;
                kind = Unstable;
                detail = "installed FIB differs from decision-process output";
              }
            | Bgp.Speaker.Stale_advert { prefix; peer } ->
              {
                device = Some d;
                prefix = Some prefix;
                kind = Unstable;
                detail =
                  Printf.sprintf
                    "advertisement to peer %d differs from decision-process \
                     output"
                    peer;
              })
          (Bgp.Speaker.divergences sp env))
      devices

  (* ---------------- Entry point ---------------- *)

  let sweep ?prefixes net =
    let graph = Bgp.Network.graph net in
    let devices =
      List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes graph)
    in
    let prefixes =
      match prefixes with
      | Some ps -> ps
      | None -> Bgp.Network.known_prefixes net
    in
    let per_prefix =
      List.concat_map
        (fun prefix ->
          check_forwarding ~prefix
            ~lookup:(fun d -> Bgp.Network.fib net d prefix)
            ~devices ()
          @ check_blackholes net graph devices prefix
          @ check_entries net graph devices prefix)
        prefixes
    in
    per_prefix @ check_stability net devices @ check_stale net devices
    @ check_session_staleness net
end

(* ---------------- Random histories ---------------- *)

type topo =
  | Slice of int * int * int * int  (* pods, RSWs and FSWs per pod, SSWs per plane *)
  | Expansion

type step =
  | Advance of int  (* run the queue this many ms: a mid-convergence instant *)
  | Settle  (* converge: quiescence *)
  | Originate of int  (* the device's own /24, or a shared anycast /24 *)
  | Withdraw of int  (* withdraws what [Originate] of the device adds, or its
                        default route *)
  | Faults of int  (* none, light or severe message faults *)
  | Restart of int
  | Flap of int * bool  (* Network.set_link *)
  | Cut of int * bool  (* Topology.Graph.set_link_up, behind the network's back *)
  | Hooks of int * int
      (* native, path-equalize (upstream or every neighbour), a
         min-next-hop guard, a faulty hook, expiring TE weights *)
  | Ingress of int * int * int  (* device, neighbour, policy *)
  | Egress of int * int  (* device, policy *)
  | Mode of bool  (* full-table decisions *)

type case = {
  topo : topo;
  seed : int;
  liveness : int;  (* 0 off, 1 on, 2 on with graceful restart *)
  steps : step list;
}

let topo_to_string = function
  | Slice (p, r, f, s) -> Printf.sprintf "slice %d/%d/%d/%d" p r f s
  | Expansion -> "expansion"

let step_to_string = function
  | Advance ms -> Printf.sprintf "advance %dms" ms
  | Settle -> "settle"
  | Originate d -> Printf.sprintf "originate %d" d
  | Withdraw d -> Printf.sprintf "withdraw %d" d
  | Faults k -> Printf.sprintf "faults %d" k
  | Restart d -> Printf.sprintf "restart %d" d
  | Flap (l, up) -> Printf.sprintf "flap %d %b" l up
  | Cut (l, up) -> Printf.sprintf "cut %d %b" l up
  | Hooks (d, k) -> Printf.sprintf "hooks %d/%d" d k
  | Ingress (d, n, k) -> Printf.sprintf "ingress %d<-%d/%d" d n k
  | Egress (d, k) -> Printf.sprintf "egress %d/%d" d k
  | Mode full -> Printf.sprintf "mode full=%b" full

let case_to_string c =
  Printf.sprintf "%s seed=%d liveness=%d [%s]" (topo_to_string c.topo) c.seed
    c.liveness
    (String.concat "; " (List.map step_to_string c.steps))

let step_gen =
  QCheck.Gen.(
    let dev = int_range 0 99 in
    frequency
      [
        (6, map (fun ms -> Advance ms) (int_range 0 6));
        (2, return Settle);
        (2, map (fun d -> Originate d) dev);
        (2, map (fun d -> Withdraw d) dev);
        (1, map (fun k -> Faults k) (int_range 0 2));
        (2, map (fun d -> Restart d) dev);
        (2, map2 (fun l up -> Flap (l, up)) dev bool);
        (1, map2 (fun l up -> Cut (l, up)) dev bool);
        (3, map2 (fun d k -> Hooks (d, k)) dev (int_range 0 5));
        (1, map3 (fun d n k -> Ingress (d, n, k)) dev dev (int_range 0 3));
        (1, map2 (fun d k -> Egress (d, k)) dev (int_range 0 3));
        (1, map (fun full -> Mode full) bool);
      ])

let case_gen =
  QCheck.Gen.(
    map
      (fun (((p, r, f, s), expansion), (seed, liveness), steps) ->
        {
          topo = (if expansion then Expansion else Slice (p, r, f, s));
          seed;
          liveness;
          steps;
        })
      (triple
         (pair
            (quad (int_range 1 2) (int_range 1 2) (int_range 1 2) (int_range 1 3))
            bool)
         (pair (int_range 0 1000) (int_range 0 2))
         (list_size (int_range 3 12) step_gen)))

let tagged_default () =
  Net.Attr.make
    ~communities:
      (Net.Community.Set.singleton Net.Community.Well_known.backbone_default_route)
    ()

(* The prefix [Originate i] adds at device [d]: a third of the draws share
   one anycast prefix, so a prefix can have origins on both sides of a
   partition. *)
let rack i d =
  if i mod 3 = 0 then Net.Prefix.of_string_exn "10.254.0.0/24"
  else Net.Prefix.of_string_exn (Printf.sprintf "10.%d.0.0/24" (d mod 254))

let policies =
  [|
    Bgp.Policy.empty;
    Bgp.Policy.drain;
    [ Bgp.Policy.rule [ Bgp.Policy.Set_local_pref 300 ] ];
    [ Bgp.Policy.rule ~prefixes:[ Net.Prefix.default_v4 ] [ Bgp.Policy.Reject ] ];
  |]

(* A network converged on the default route at its origins, with the
   case's liveness mode. *)
let build c =
  let graph, origins =
    match c.topo with
    | Slice (pods, rsws_per_pod, fsws_per_pod, ssws_per_plane) ->
      let f =
        Topology.Clos.fabric ~pods ~rsws_per_pod ~fsws_per_pod ~ssws_per_plane
          ~grids:1 ~fauus_per_grid:1 ~ebs:2 ()
      in
      (f.Topology.Clos.graph, f.Topology.Clos.ebs)
    | Expansion ->
      let x = Topology.Clos.expansion () in
      (x.Topology.Clos.xgraph, [ x.Topology.Clos.backbone ])
  in
  let net = Bgp.Network.create ~seed:c.seed graph in
  List.iter
    (fun o -> Bgp.Network.originate net o Net.Prefix.default_v4 (tagged_default ()))
    origins;
  ignore (Bgp.Network.converge net);
  if c.liveness > 0 then
    Bgp.Network.enable_liveness
      ~config:
        (if c.liveness = 2 then Bgp.Liveness.with_gr Bgp.Liveness.default
         else Bgp.Liveness.default)
      ~until:(Bgp.Network.now net +. 0.05)
      net;
  (graph, origins, net)

(* A faulty hook: it files each selected path under a session its next
   hop never opened, so the FIB names routes no Adj-RIB-In holds. *)
let misfiled =
  {
    Bgp.Rib_policy.native with
    name = "misfiled";
    select =
      (fun ctx ~candidates ~native ->
        let sel = Bgp.Rib_policy.native.select ctx ~candidates ~native in
        {
          sel with
          Bgp.Rib_policy.selected =
            List.map
              (fun (p : Bgp.Path.t) ->
                Bgp.Path.make ~peer:p.Bgp.Path.peer
                  ~session:(p.Bgp.Path.session + 7) ~attr:p.Bgp.Path.attr)
              sel.Bgp.Rib_policy.selected;
        });
  }

let hooks_for graph origins net d kind =
  let destination = Centralium.Destination.backbone_default in
  let origin_asn = (Topology.Graph.node graph (List.hd origins)).Topology.Node.asn in
  let asns nbrs = List.map (fun ((n : Topology.Node.t), _) -> n.Topology.Node.asn) nbrs in
  let engine rpa = Centralium.Engine.hooks (Centralium.Engine.create rpa) in
  match kind with
  | 1 ->
    engine
      (Centralium.Apps.Path_equalize.rpa ~destination ~origin_asn
         ~via:(Centralium.Apps.upstream_asns graph ~origination_layer:Topology.Node.Eb d))
  | 2 ->
    (* Every neighbour, downstream ones included: paths re-learned sideways
       tie with upstream ones, which loops. *)
    engine
      (Centralium.Apps.Path_equalize.rpa ~destination ~origin_asn
         ~via:(asns (Topology.Graph.all_neighbors graph d)))
  | 3 ->
    engine
      (Centralium.Apps.Min_next_hop_guard.rpa ~destination
         ~threshold:(Centralium.Path_selection.Fraction 0.75)
         ~keep_fib_warm:(d mod 2 = 0))
  | 4 -> misfiled
  | _ ->
    (* Its statement expires with no event: re-deciding then differs from
       what is installed. *)
    engine
      (Centralium.Apps.Te_weights.rpa_for_device graph ~destination ~device:d
         ~weights:
           (List.mapi
              (fun i ((n : Topology.Node.t), _) -> (n.Topology.Node.id, 1 + (i mod 3)))
              (Topology.Graph.all_neighbors graph d))
         ~expires_at:(Bgp.Network.now net +. 0.002)
         ())

let apply (graph, origins, net) step =
  let nodes = Array.of_list (Topology.Graph.nodes graph) in
  let links = Array.of_list (Topology.Graph.links graph) in
  let node i = nodes.(i mod Array.length nodes).Topology.Node.id in
  let link i = links.(i mod Array.length links) in
  match step with
  | Advance ms ->
    ignore
      (Bgp.Network.run_until net
         ~time:(Bgp.Network.now net +. (float_of_int ms /. 1000.)))
  | Settle -> (
    try ignore (Bgp.Network.converge ~max_events:200_000 net)
    with Failure _ -> ())
  | Originate d -> Bgp.Network.originate net (node d) (rack d (node d)) (Net.Attr.make ())
  | Withdraw d ->
    let device = node d in
    Bgp.Network.withdraw_origin net device
      (if List.mem device origins then Net.Prefix.default_v4 else rack d device)
  | Faults k ->
    Bgp.Network.set_fault net
      (match k with
       | 0 -> None
       | 1 -> Some (Dsim.Fault.create ~seed:(k + 7) Dsim.Fault.light)
       | _ -> Some (Dsim.Fault.create ~seed:(k + 7) Dsim.Fault.severe))
  | Restart d -> Bgp.Network.restart_device net (node d) ~recovery:0.003
  | Flap (l, up) ->
    let l = link l in
    Bgp.Network.set_link net l.Topology.Graph.a l.Topology.Graph.b ~up
  | Cut (l, up) ->
    let l = link l in
    Topology.Graph.set_link_up graph l.Topology.Graph.a l.Topology.Graph.b up
  | Hooks (d, 0) -> Bgp.Network.set_hooks net (node d) Bgp.Rib_policy.native
  | Hooks (d, kind) ->
    Bgp.Network.set_hooks net (node d) (hooks_for graph origins net (node d) kind)
  | Ingress (d, n, k) -> (
    match Topology.Graph.all_neighbors graph (node d) with
    | [] -> ()
    | nbrs ->
      let peer, _ = List.nth nbrs (n mod List.length nbrs) in
      Bgp.Network.set_ingress_policy net ~node:(node d)
        ~peer:peer.Topology.Node.id policies.(k))
  | Egress (d, k) -> Bgp.Network.set_egress_policy_all net (node d) policies.(k)
  | Mode full ->
    Bgp.Network.set_eval_mode net
      (if full then Bgp.Speaker.Full_table else Bgp.Speaker.Incremental)

(* ---------------- The property ---------------- *)

let seen = Hashtbl.create 16

let show vs =
  String.concat "\n  " (List.map (Format.asprintf "%a" I.pp_violation) vs)

let same what want got =
  if want = got then true
  else
    QCheck.Test.fail_reportf "%s differs:\nmodel:\n  %s\nsweep:\n  %s" what
      (show want) (show got)

(* Dry-run decisions are RPA engine selections: a sweep must re-decide
   exactly what the model does. *)
let selections = Obs.Metrics.counter "engine.selections"

let counted f =
  let before = Obs.Metrics.value selections in
  let r = f () in
  (r, Obs.Metrics.value selections - before)

(* Every public check against the model at one instant. The first check
   always sweeps: the last one of the previous instant asked about other
   prefixes. *)
let sample (graph, _, net) =
  let known = Bgp.Network.known_prefixes net in
  let subset = List.filteri (fun i _ -> i mod 2 = 1) known in
  let duplicated = match known with p :: _ -> p :: known | [] -> [] in
  let unknown = Net.Prefix.of_string_exn "192.0.2.0/24" :: known in
  let devices = List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes graph) in
  let all, decided = counted (fun () -> I.check net) in
  let want, model_decided = counted (fun () -> Model.sweep net) in
  List.iter
    (fun (v : I.violation) ->
      let k = I.kind_name v.I.kind in
      Hashtbl.replace seen k (1 + Option.value (Hashtbl.find_opt seen k) ~default:0))
    all;
  same "check" want all
  && (decided = model_decided
     || QCheck.Test.fail_reportf "%d dry-run selections, the model made %d"
          decided model_decided)
  && same "check ~prefixes:subset"
       (Model.sweep ~prefixes:subset net)
       (I.check ~prefixes:subset net)
  && same "check ~prefixes:duplicated"
       (Model.sweep ~prefixes:duplicated net)
       (I.check ~prefixes:duplicated net)
  && same "check ~prefixes:unknown"
       (Model.sweep ~prefixes:unknown net)
       (I.check ~prefixes:unknown net)
  && same "check_stale"
       (Model.check_stale net (List.rev devices))
       (I.check_stale net (List.rev devices))
  && same "check_session_staleness"
       (Model.check_session_staleness net)
       (I.check_session_staleness net)

let prop_sweep_equals_model =
  QCheck.Test.make ~name:"sweep = the list-building sweep" ~count:300
    (QCheck.make case_gen ~print:case_to_string
       ~shrink:(fun c yield ->
         QCheck.Shrink.list c.steps (fun steps -> yield { c with steps })))
    (fun c ->
      let world = build c in
      sample world
      && List.for_all
           (fun step ->
             apply world step;
             sample world)
           c.steps)

(* Each kind below shows in some sweep of the run, or the property tested
   too little. *)
let required =
  [
    "forwarding-loop";
    "blackhole";
    "rib-inconsistency";
    "dead-next-hop";
    "unstable";
    "session-stale";
    "stale-route";
  ]

let test_sweep_equals_model () =
  Hashtbl.reset seen;
  let registry = Obs.Metrics.default in
  Obs.Metrics.set_enabled registry true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.set_enabled registry false;
      Obs.Metrics.reset registry)
    (fun () ->
      QCheck.Test.check_exn ~rand:(QCheck_base_runner.random_state ())
        prop_sweep_equals_model);
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seen (%d)" kind
           (Option.value (Hashtbl.find_opt seen kind) ~default:0))
        true (Hashtbl.mem seen kind))
    required

let () =
  Alcotest.run "invariant"
    [ ("oracle", [ Alcotest.test_case "sweep = model" `Quick test_sweep_equals_model ]) ]
