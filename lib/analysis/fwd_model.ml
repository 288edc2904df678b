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

let compile graph ~engine_of ~cls =
  let prefix = cls.Eq_class.cls_prefix in
  let ids =
    Array.of_list
      (List.sort Int.compare
         (List.map (fun n -> n.Topology.Node.id) (G.nodes graph)))
  in
  let n = Array.length ids in
  let index = Hashtbl.create n in
  Array.iteri (fun i d -> Hashtbl.replace index d i) ids;
  let origin_attr =
    List.fold_left
      (fun acc (d, attr) -> Imap.add d attr acc)
      Imap.empty cls.Eq_class.cls_origins
  in
  let layer_of d =
    Option.map (fun n -> n.Topology.Node.layer) (G.node_opt graph d)
  in
  (* Everything a decision reads besides the neighbours' adverts is fixed
     for the whole compile, so it is computed once here: the engine, the
     ctx, and each device's importable neighbours (route-filter verdicts
     in both directions applied) with the session count of the link. *)
  let engines = Array.map engine_of ids in
  let filters_allow i direction ~peer =
    match engines.(i) with
    | None -> true
    | Some eng ->
      let layer = layer_of peer in
      List.for_all
        (fun rf -> Route_filter.allows rf direction ~peer ~layer prefix)
        (Engine.rpa eng).Rpa.route_filter
  in
  let origin = Array.map (fun d -> Imap.find_opt d origin_attr) ids in
  let asns = Array.map (fun d -> (G.node graph d).Topology.Node.asn) ids in
  let neighbors = Array.map (G.neighbors graph) ids in
  let ctxs =
    Array.mapi
      (fun i d ->
        Option.map
          (fun _ ->
            let layers =
              List.map (fun (m, _) -> m.Topology.Node.layer) neighbors.(i)
            in
            {
              Bgp.Rib_policy.device = d;
              prefix;
              now = 0.0;
              commit = false;
              peer_layer = layer_of;
              live_peers_in_layer =
                (fun layer ->
                  List.length
                    (List.filter (Topology.Node.layer_equal layer) layers));
            })
          engines.(i))
      ids
  in
  let imports =
    Array.mapi
      (fun i d ->
        List.filter_map
          (fun (m, (link : G.link)) ->
            let j = Hashtbl.find index m.Topology.Node.id in
            if
              filters_allow j Route_filter.Egress ~peer:d
              && filters_allow i Route_filter.Ingress ~peer:ids.(j)
            then Some (j, max 1 link.G.sessions)
            else None)
          neighbors.(i))
      ids
  in
  (* dependents.(j): the devices that import from [j], i.e. the ones whose
     next decision can change when [j]'s advertisement does. *)
  let dependents = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter (fun (j, _) -> dependents.(j) <- i :: dependents.(j)) imports.(i)
  done;
  let max_sessions = Array.make n 1 in
  Array.iter
    (List.iter (fun (j, s) -> max_sessions.(j) <- max max_sessions.(j) s))
    imports;
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
