open Centralium
module G = Topology.Graph
module Imap = Map.Make (Int)

type entry = { e_next_hops : int list; e_origin : bool; e_kept_warm : bool }

type t = {
  f_final : entry Imap.t;
  f_snapshots : (int * int list) list list;
  f_converged : bool;
  f_rounds : int;
}

let entry t d = Imap.find_opt d t.f_final
let final t = Imap.bindings t.f_final
let round_edges t = t.f_snapshots
let converged t = t.f_converged
let rounds_run t = t.f_rounds

let entry_equal a b =
  a.e_origin = b.e_origin
  && a.e_kept_warm = b.e_kept_warm
  && List.equal Int.equal a.e_next_hops b.e_next_hops

let equal a b = Imap.equal entry_equal a.f_final b.f_final

(* dependents.(j): the devices that import from [j], i.e. the ones whose
   next decision can change when [j]'s advertisement does; max_sessions.(j):
   the most parallel sessions any importer holds to [j]. *)
let wiring imports =
  let n = Array.length imports in
  let dependents = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter (fun (j, _) -> dependents.(j) <- i :: dependents.(j)) imports.(i)
  done;
  let max_sessions = Array.make n 1 in
  Array.iter
    (List.iter (fun (j, s) -> max_sessions.(j) <- max max_sessions.(j) s))
    imports;
  (dependents, max_sessions)

type frame = {
  fr_graph : G.t;
  fr_version : int;
  fr_ids : int array;
  fr_index : int array;
  fr_asns : Net.Asn.t array;
  fr_peer_layer : int -> Topology.Node.layer option;
  fr_live_peers : (Topology.Node.layer -> int) array;
  fr_imports : (int * int) list array;
  fr_dependents : int list array;
  fr_max_sessions : int array;
}

let frame graph =
  let nodes = Array.of_list (G.nodes graph) in
  let ids = Array.map (fun n -> n.Topology.Node.id) nodes in
  (* index.(d): the position of device [d] in [ids], or -1. *)
  let index = Array.make (Array.fold_left max (-1) ids + 1) (-1) in
  Array.iteri (fun i d -> index.(d) <- i) ids;
  let neighbors = Array.map (G.neighbors graph) ids in
  let imports =
    Array.map
      (List.map (fun (m, (link : G.link)) ->
           (index.(m.Topology.Node.id), max 1 link.G.sessions)))
      neighbors
  in
  let dependents, max_sessions = wiring imports in
  {
    fr_graph = graph;
    fr_version = G.version graph;
    fr_ids = ids;
    fr_index = index;
    fr_asns = Array.map (fun n -> n.Topology.Node.asn) nodes;
    fr_peer_layer =
      (fun d ->
        Option.map (fun n -> n.Topology.Node.layer) (G.node_opt graph d));
    fr_live_peers =
      Array.map
        (fun nbrs ->
          let layers = List.map (fun (m, _) -> m.Topology.Node.layer) nbrs in
          fun layer ->
            List.length (List.filter (Topology.Node.layer_equal layer) layers))
        neighbors;
    fr_imports = imports;
    fr_dependents = dependents;
    fr_max_sessions = max_sessions;
  }

let devices fr = Array.to_list fr.fr_ids

let index fr d =
  if d < 0 || d >= Array.length fr.fr_index || fr.fr_index.(d) < 0 then
    raise Not_found
  else fr.fr_index.(d)

let neighbors fr d =
  List.map (fun (j, _) -> fr.fr_ids.(j)) fr.fr_imports.(index fr d)

let has_filter_statements eng =
  List.exists
    (fun rf -> rf.Route_filter.statements <> [])
    (Engine.rpa eng).Rpa.route_filter

let compile fr ~engine_of ~cls =
  if G.version fr.fr_graph <> fr.fr_version then
    invalid_arg
      "Fwd_model.compile: the graph changed after its frame was built";
  let prefix = cls.Eq_class.cls_prefix in
  let ids = fr.fr_ids and asns = fr.fr_asns in
  let n = Array.length ids in
  let origin_attr =
    List.fold_left
      (fun acc (d, attr) -> Imap.add d attr acc)
      Imap.empty cls.Eq_class.cls_origins
  in
  (* Everything a decision reads besides the neighbours' adverts is fixed
     for the whole compile: the graph-derived part comes from the frame,
     and only the engines, the ctxs and the class's origins are built
     here. *)
  let engines = Array.map engine_of ids in
  let origin = Array.map (fun d -> Imap.find_opt d origin_attr) ids in
  let ctxs =
    Array.mapi
      (fun i d ->
        Option.map
          (fun _ ->
            {
              Bgp.Rib_policy.device = d;
              prefix;
              now = 0.0;
              commit = false;
              peer_layer = fr.fr_peer_layer;
              live_peers_in_layer = fr.fr_live_peers.(i);
            })
          engines.(i))
      ids
  in
  (* A route filter without statements allows everything, so the frame's
     unfiltered imports are exact unless some deployed engine filters. *)
  let imports, dependents, max_sessions =
    if
      not
        (Array.exists
           (function Some eng -> has_filter_statements eng | None -> false)
           engines)
    then (fr.fr_imports, fr.fr_dependents, fr.fr_max_sessions)
    else begin
      let filters_allow i direction ~peer =
        match engines.(i) with
        | None -> true
        | Some eng ->
          let layer = fr.fr_peer_layer peer in
          List.for_all
            (fun rf -> Route_filter.allows rf direction ~peer ~layer prefix)
            (Engine.rpa eng).Rpa.route_filter
      in
      let imports =
        Array.mapi
          (fun i d ->
            List.filter
              (fun (j, _) ->
                filters_allow j Route_filter.Egress ~peer:d
                && filters_allow i Route_filter.Ingress ~peer:ids.(j))
              fr.fr_imports.(i))
          ids
      in
      let dependents, max_sessions = wiring imports in
      (imports, dependents, max_sessions)
    end
  in
  (* Per-device state: what the device offers peers (its advertised
     attributes, pre-prepend), the candidate paths that advertisement
     yields at every importer (one per session, prepended once), and its
     forwarding entry. Origins are terminal: constant advertisement, no
     next hops. *)
  let origin_entry = { e_next_hops = []; e_origin = true; e_kept_warm = false } in
  let adv = Array.copy origin in
  let offers = Array.make n [||] in
  let offer j =
    offers.(j) <-
      (match adv.(j) with
       | None -> [||]
       | Some a ->
         let a' = Net.Attr.with_prepended asns.(j) a in
         Array.init max_sessions.(j) (fun s ->
             Bgp.Path.make ~peer:ids.(j) ~session:s ~attr:a'))
  in
  for j = 0 to n - 1 do
    offer j
  done;
  let ent = Array.map (Option.map (fun _ -> origin_entry)) origin in
  let decide i =
    match origin.(i) with
    | Some attr -> (Some attr, Some origin_entry)
    | None ->
      let d_asn = asns.(i) in
      let candidates =
        List.concat_map
          (fun (j, sessions) ->
            let paths = offers.(j) in
            if
              Array.length paths = 0
              || Net.As_path.mem d_asn paths.(0).Bgp.Path.attr.Net.Attr.as_path
            then []
            else List.init sessions (Array.get paths))
          imports.(i)
      in
      let native = Bgp.Decision.select ~multipath:true candidates in
      let selection =
        match engines.(i), ctxs.(i) with
        | Some eng, Some ctx ->
          Engine.evaluate_selection eng ~ctx ~candidates ~native
        | _ ->
          let selected, advertise = native in
          { Bgp.Rib_policy.selected; advertise; keep_fib_warm = false }
      in
      let next_hops =
        List.sort_uniq Int.compare
          (List.map
             (fun p -> p.Bgp.Path.peer)
             selection.Bgp.Rib_policy.selected)
      in
      ( Option.map
          (fun p -> p.Bgp.Path.attr)
          selection.Bgp.Rib_policy.advertise,
        if next_hops <> [] || selection.Bgp.Rib_policy.keep_fib_warm then
          Some
            {
              e_next_hops = next_hops;
              e_origin = false;
              e_kept_warm = selection.Bgp.Rib_policy.keep_fib_warm;
            }
        else None )
  in
  let snapshot () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match ent.(i) with
      | Some e when not (e.e_origin || e.e_next_hops = []) ->
        acc := (ids.(i), e.e_next_hops) :: !acc
      | _ -> ()
    done;
    !acc
  in
  let current = ref (snapshot ()) in
  (* Semi-naive synchronous rounds. A device's decision reads nothing but
     its importers' previous-round advertisements (graph, filter verdicts,
     ctx and engines are fixed), so round 1 decides every device and each
     later round re-decides only the dependents of devices whose
     advertisement changed; everyone else would reproduce its previous
     adv and entry. Every round therefore equals the all-devices round. *)
  let dirty = Array.make n true in
  let step () =
    let decided = ref [] in
    for i = 0 to n - 1 do
      if dirty.(i) then begin
        dirty.(i) <- false;
        decided := (i, decide i) :: !decided
      end
    done;
    let adv_changed = ref [] and ent_changed = ref false in
    List.iter
      (fun (i, (a, e)) ->
        if not (Option.equal Net.Attr.equal adv.(i) a) then begin
          adv.(i) <- a;
          adv_changed := i :: !adv_changed
        end;
        if not (Option.equal entry_equal ent.(i) e) then begin
          ent.(i) <- e;
          ent_changed := true
        end)
      !decided;
    List.iter
      (fun j ->
        offer j;
        List.iter (fun i -> dirty.(i) <- true) dependents.(j))
      !adv_changed;
    if !ent_changed then current := snapshot ();
    !adv_changed <> [] || !ent_changed
  in
  let max_rounds = (2 * n) + 8 in
  let rec run rounds snaps =
    if rounds >= max_rounds then (rounds, List.rev snaps, false)
    else if step () then begin
      let s = !current in
      let snaps =
        match snaps with last :: _ when last = s -> snaps | _ -> s :: snaps
      in
      run (rounds + 1) snaps
    end
    else (rounds + 1, List.rev snaps, true)
  in
  let rounds, snaps, converged = run 0 [] in
  let snaps =
    let final_snap = !current in
    match List.rev snaps with
    | last :: _ when last = final_snap -> snaps
    | _ -> snaps @ [ final_snap ]
  in
  let final = ref Imap.empty in
  Array.iteri
    (fun i e -> Option.iter (fun e -> final := Imap.add ids.(i) e !final) e)
    ent;
  { f_final = !final; f_snapshots = snaps; f_converged = converged;
    f_rounds = rounds }
