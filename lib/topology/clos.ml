(* Node-id allocation is sequential per builder so ids are dense. *)

type allocator = { graph : Graph.t; mutable next_id : int }

let fresh graph = { graph; next_id = 0 }

let new_node alloc ~name ~layer ?pod ?plane ?grid () =
  let id = alloc.next_id in
  alloc.next_id <- id + 1;
  Graph.add_node alloc.graph (Node.make ~id ~name ~layer ?pod ?plane ?grid ());
  id

let connect ?capacity ?sessions alloc a b =
  Graph.add_link ?capacity ?sessions alloc.graph a b

(* ------------------------------------------------------------------ *)

type fabric = {
  graph : Graph.t;
  rsws : int list;
  fsws : int list;
  ssws : int list;
  fadus : int list;
  fauus : int list;
  ebs : int list;
}

let fabric ?(pods = 4) ?(rsws_per_pod = 4) ?(fsws_per_pod = 4)
    ?(ssws_per_plane = 4) ?(grids = 2) ?(fauus_per_grid = 2) ?(ebs = 4) () =
  let alloc = fresh (Graph.create ()) in
  let planes = fsws_per_pod in
  (* Per-pod RSWs and FSWs. *)
  let pod_fsws =
    List.init pods (fun p ->
        List.init fsws_per_pod (fun i ->
            new_node alloc
              ~name:(Printf.sprintf "fsw-%d-%d" p i)
              ~layer:Node.Fsw ~pod:p ~plane:i ()))
  in
  let pod_rsws =
    List.init pods (fun p ->
        List.init rsws_per_pod (fun i ->
            let rsw =
              new_node alloc
                ~name:(Printf.sprintf "rsw-%d-%d" p i)
                ~layer:Node.Rsw ~pod:p ()
            in
            List.iter (fun fsw -> connect alloc rsw fsw) (List.nth pod_fsws p);
            rsw))
  in
  (* Spine planes. *)
  let plane_ssws =
    List.init planes (fun pl ->
        List.init ssws_per_plane (fun n ->
            new_node alloc
              ~name:(Printf.sprintf "ssw-%d-%d" pl n)
              ~layer:Node.Ssw ~plane:pl ()))
  in
  (* FSW i of each pod connects to all SSWs of plane i. *)
  List.iter
    (fun fsws ->
      List.iteri
        (fun i fsw ->
          List.iter (fun ssw -> connect alloc fsw ssw) (List.nth plane_ssws i))
        fsws)
    pod_fsws;
  (* Grids: FADUs indexed like SSWs within a plane, plus FAUUs. *)
  let grid_fadus =
    List.init grids (fun g ->
        List.init ssws_per_plane (fun n ->
            new_node alloc
              ~name:(Printf.sprintf "fadu-%d-%d" g n)
              ~layer:Node.Fadu ~grid:g ()))
  in
  (* SSW n of every plane connects to FADU n of every grid. *)
  List.iter
    (fun ssws ->
      List.iteri
        (fun n ssw ->
          List.iter
            (fun fadus -> connect alloc ssw (List.nth fadus n))
            grid_fadus)
        ssws)
    plane_ssws;
  let grid_fauus =
    List.init grids (fun g ->
        List.init fauus_per_grid (fun i ->
            let fauu =
              new_node alloc
                ~name:(Printf.sprintf "fauu-%d-%d" g i)
                ~layer:Node.Fauu ~grid:g ()
            in
            List.iter
              (fun fadu -> connect alloc fauu fadu)
              (List.nth grid_fadus g);
            fauu))
  in
  let eb_ids =
    List.init ebs (fun i ->
        let eb =
          new_node alloc ~name:(Printf.sprintf "eb-%d" i) ~layer:Node.Eb ()
        in
        List.iter
          (fun fauus -> List.iter (fun fauu -> connect alloc eb fauu) fauus)
          grid_fauus;
        eb)
  in
  {
    graph = alloc.graph;
    rsws = List.concat pod_rsws;
    fsws = List.concat pod_fsws;
    ssws = List.concat plane_ssws;
    fadus = List.concat grid_fadus;
    fauus = List.concat grid_fauus;
    ebs = eb_ids;
  }

(* ------------------------------------------------------------------ *)

type expansion = {
  xgraph : Graph.t;
  xfsws : int list;
  xssws : int list;
  fav1 : int list;
  edge : int list;
  backbone : int;
  mutable fav2 : int list;
}

let bipartite alloc layer_a layer_b =
  List.iter (fun a -> List.iter (fun b -> connect alloc a b) layer_b) layer_a

let expansion () =
  let fsws = 4 and ssws = 4 and fav1 = 4 and edge = 2 in
  let alloc = fresh (Graph.create ()) in
  let fsw_ids =
    List.init fsws (fun i ->
        new_node alloc ~name:(Printf.sprintf "fsw-%d" i) ~layer:Node.Fsw ())
  in
  let ssw_ids =
    List.init ssws (fun i ->
        new_node alloc ~name:(Printf.sprintf "ssw-%d" i) ~layer:Node.Ssw ())
  in
  let fav1_ids =
    List.init fav1 (fun i ->
        new_node alloc ~name:(Printf.sprintf "fav1-%d" i) ~layer:Node.Fa ())
  in
  let edge_ids =
    List.init edge (fun i ->
        new_node alloc ~name:(Printf.sprintf "edge-%d" i) ~layer:Node.Edge ())
  in
  let backbone = new_node alloc ~name:"backbone" ~layer:Node.Eb () in
  bipartite alloc fsw_ids ssw_ids;
  bipartite alloc ssw_ids fav1_ids;
  bipartite alloc fav1_ids edge_ids;
  List.iter (fun e -> connect alloc e backbone) edge_ids;
  {
    xgraph = alloc.graph;
    xfsws = fsw_ids;
    xssws = ssw_ids;
    fav1 = fav1_ids;
    edge = edge_ids;
    backbone;
    fav2 = [];
  }

let add_fav2 x =
  (* Continue the dense id sequence of the existing graph. *)
  let next_id = 1 + List.fold_left max (-1) (List.map (fun n -> n.Node.id) (Graph.nodes x.xgraph)) in
  let n = List.length x.fav2 in
  let node =
    Node.make ~id:next_id ~name:(Printf.sprintf "fav2-%d" n) ~layer:Node.Fa ()
  in
  Graph.add_node x.xgraph node;
  List.iter (fun ssw -> Graph.add_link x.xgraph next_id ssw) x.xssws;
  Graph.add_link x.xgraph next_id x.backbone;
  x.fav2 <- x.fav2 @ [ next_id ];
  next_id

(* ------------------------------------------------------------------ *)

type decommission = {
  dgraph : Graph.t;
  planes : int list list;
  grids : int list list;
  north_origin : int;
  south_origin : int;
}

let decommission ?(planes = 4) ?(grids = 4) ?(per = 4) () =
  let alloc = fresh (Graph.create ()) in
  let plane_ssws =
    List.init planes (fun p ->
        List.init per (fun n ->
            new_node alloc
              ~name:(Printf.sprintf "ssw-%d-%d" p n)
              ~layer:Node.Ssw ~plane:p ()))
  in
  let grid_fadus =
    List.init grids (fun g ->
        List.init per (fun n ->
            new_node alloc
              ~name:(Printf.sprintf "fadu-%d-%d" g n)
              ~layer:Node.Fadu ~grid:g ()))
  in
  (* SSW-n in every plane connects only to FADU-n in every grid. *)
  List.iter
    (fun ssws ->
      List.iteri
        (fun n ssw ->
          List.iter (fun fadus -> connect alloc ssw (List.nth fadus n)) grid_fadus)
        ssws)
    plane_ssws;
  let north_origin = new_node alloc ~name:"backbone" ~layer:Node.Eb () in
  List.iter
    (fun fadus -> List.iter (fun fadu -> connect alloc north_origin fadu) fadus)
    grid_fadus;
  let south_origin = new_node alloc ~name:"racks" ~layer:Node.Rsw () in
  List.iter
    (fun ssws -> List.iter (fun ssw -> connect alloc south_origin ssw) ssws)
    plane_ssws;
  { dgraph = alloc.graph; planes = plane_ssws; grids = grid_fadus;
    north_origin; south_origin }

let nth_of_groups groups n = List.map (fun group -> List.nth group n) groups

let ssws_numbered d n = nth_of_groups d.planes n
let fadus_numbered d n = nth_of_groups d.grids n

(* ------------------------------------------------------------------ *)

type wcmp_convergence = {
  wgraph : Graph.t;
  ebs : int list;
  uus : int list;
  dus : int list;
}

let wcmp_convergence () =
  let ebs = 8 and uus = 4 and dus = 1 in
  let alloc = fresh (Graph.create ()) in
  let eb_ids =
    List.init ebs (fun i ->
        new_node alloc ~name:(Printf.sprintf "eb-%d" (i + 1)) ~layer:Node.Eb ())
  in
  let uu_ids =
    List.init uus (fun i ->
        let uu =
          new_node alloc ~name:(Printf.sprintf "uu-%d" (i + 1)) ~layer:Node.Fauu ()
        in
        List.iter (fun eb -> connect alloc uu eb) eb_ids;
        uu)
  in
  let du_ids =
    List.init dus (fun i ->
        let du =
          new_node alloc ~name:(Printf.sprintf "du-%d" (i + 1)) ~layer:Node.Fadu ()
        in
        (* Two BGP sessions per UU-DU pair (Figure 5). *)
        List.iter (fun uu -> connect ~sessions:2 alloc du uu) uu_ids;
        du)
  in
  { wgraph = alloc.graph; ebs = eb_ids; uus = uu_ids; dus = du_ids }

(* ------------------------------------------------------------------ *)

type mixed = {
  mgraph : Graph.t;
  origin : int;
  r : int array;
}

let mixed_dissemination () =
  let alloc = fresh (Graph.create ()) in
  let origin = new_node alloc ~name:"origin" ~layer:(Node.Other "UP") () in
  let r = Array.make 7 (-1) in
  for i = 1 to 6 do
    r.(i) <-
      new_node alloc ~name:(Printf.sprintf "r%d" i) ~layer:(Node.Other "R") ()
  done;
  connect alloc origin r.(1);
  connect alloc r.(1) r.(2);
  connect alloc r.(2) r.(6);
  connect alloc r.(1) r.(3);
  connect alloc r.(3) r.(4);
  connect alloc r.(4) r.(5);
  connect alloc r.(5) r.(6);
  { mgraph = alloc.graph; origin; r }

(* ------------------------------------------------------------------ *)

type rollout = {
  rgraph : Graph.t;
  rbackbone : int;
  rfas : int list;
  rdmag : int;
  rssws : int list;
  rfsws : int list;
}

let rollout () =
  let ssws = 4 and fsws = 4 in
  let alloc = fresh (Graph.create ()) in
  let backbone = new_node alloc ~name:"backbone" ~layer:Node.Eb () in
  let dmag = new_node alloc ~name:"dmag" ~layer:Node.Dmag () in
  connect alloc dmag backbone;
  let fa_ids =
    List.init 2 (fun i ->
        let fa =
          new_node alloc ~name:(Printf.sprintf "fa%d" (i + 1)) ~layer:Node.Fa ()
        in
        connect alloc fa backbone;
        connect alloc fa dmag;
        fa)
  in
  let ssw_ids =
    List.init ssws (fun i ->
        let ssw =
          new_node alloc ~name:(Printf.sprintf "ssw-%d" i) ~layer:Node.Ssw ()
        in
        List.iter (fun fa -> connect alloc ssw fa) fa_ids;
        ssw)
  in
  let fsw_ids =
    List.init fsws (fun i ->
        let fsw =
          new_node alloc ~name:(Printf.sprintf "fsw-%d" i) ~layer:Node.Fsw ()
        in
        List.iter (fun ssw -> connect alloc fsw ssw) ssw_ids;
        fsw)
  in
  { rgraph = alloc.graph; rbackbone = backbone; rfas = fa_ids; rdmag = dmag;
    rssws = ssw_ids; rfsws = fsw_ids }

(* ------------------------------------------------------------------ *)

type sev = {
  sgraph : Graph.t;
  sbackbone : int;
  sfas : int list;
  bad_fa : int;
  sssws : int list;
  sfsws : int list;
}

let sev () =
  let fas = 4 and ssws = 4 and fsws = 4 in
  let alloc = fresh (Graph.create ()) in
  let backbone = new_node alloc ~name:"backbone" ~layer:Node.Eb () in
  let fa_ids =
    List.init fas (fun i ->
        new_node alloc ~name:(Printf.sprintf "fa%d" (i + 1)) ~layer:Node.Fa ())
  in
  let bad_fa = List.nth fa_ids (fas - 1) in
  (* The bad FA is missing its cabling toward the backbone. *)
  List.iter
    (fun fa -> if fa <> bad_fa then connect alloc fa backbone)
    fa_ids;
  let ssw_ids =
    List.init ssws (fun i ->
        let ssw =
          new_node alloc ~name:(Printf.sprintf "ssw-%d" i) ~layer:Node.Ssw ()
        in
        List.iter (fun fa -> connect alloc ssw fa) fa_ids;
        ssw)
  in
  let fsw_ids =
    List.init fsws (fun i ->
        let fsw =
          new_node alloc ~name:(Printf.sprintf "fsw-%d" i) ~layer:Node.Fsw ()
        in
        List.iter (fun ssw -> connect alloc fsw ssw) ssw_ids;
        fsw)
  in
  { sgraph = alloc.graph; sbackbone = backbone; sfas = fa_ids; bad_fa;
    sssws = ssw_ids; sfsws = fsw_ids }
