type link = {
  a : Net.Route.device;
  b : Net.Route.device;
  capacity : float;
  sessions : int;
  mutable up : bool;
}

module Tbl = Net.Int_table

(* Keyed by device id. Every fold below sorts what it returns or is
   order-free, so bucket order never shows. *)
type t = {
  node_table : Node.t Tbl.t;
  adjacency : link Tbl.t Tbl.t;
  mutable version : int;
}

let create () =
  { node_table = Tbl.create 64; adjacency = Tbl.create 64; version = 0 }

let version t = t.version
let bump t = t.version <- t.version + 1

let add_node t node =
  if Tbl.mem t.node_table node.Node.id then
    invalid_arg (Printf.sprintf "Graph.add_node: duplicate id %d" node.Node.id);
  Tbl.replace t.node_table node.Node.id node;
  Tbl.replace t.adjacency node.Node.id (Tbl.create 8);
  bump t

let adjacency_of t id =
  match Tbl.find_opt t.adjacency id with
  | Some adj -> adj
  | None -> invalid_arg (Printf.sprintf "Graph: unknown node %d" id)

let add_link ?(capacity = 1.0) ?(sessions = 1) t a b =
  if a = b then invalid_arg "Graph.add_link: self loop";
  if not (Tbl.mem t.node_table a) then
    invalid_arg (Printf.sprintf "Graph.add_link: unknown node %d" a);
  if not (Tbl.mem t.node_table b) then
    invalid_arg (Printf.sprintf "Graph.add_link: unknown node %d" b);
  let adj_a = adjacency_of t a in
  if Tbl.mem adj_a b then
    invalid_arg (Printf.sprintf "Graph.add_link: duplicate link %d-%d" a b);
  let link = { a; b; capacity; sessions; up = true } in
  Tbl.replace adj_a b link;
  Tbl.replace (adjacency_of t b) a link;
  bump t

let node t id =
  match Tbl.find_opt t.node_table id with
  | Some n -> n
  | None -> raise Not_found

let node_opt t id = Tbl.find_opt t.node_table id

let nodes t =
  Tbl.fold (fun _ n acc -> n :: acc) t.node_table []
  |> List.sort Node.compare

let node_count t = Tbl.length t.node_table

let links t =
  Tbl.fold
    (fun id adj acc ->
      Tbl.fold
        (fun peer link acc -> if id < peer then link :: acc else acc)
        adj acc)
    t.adjacency []
  |> List.sort (fun l r ->
         let c = Int.compare l.a r.a in
         if c <> 0 then c else Int.compare l.b r.b)

let find_link t a b =
  match Tbl.find_opt t.adjacency a with
  | None -> None
  | Some adj -> Tbl.find_opt adj b

let all_neighbors t id =
  let adj = adjacency_of t id in
  Tbl.fold (fun peer link acc -> (node t peer, link) :: acc) adj []
  |> List.sort (fun (a, _) (b, _) -> Node.compare a b)

let neighbors t id =
  List.filter (fun ((_ : Node.t), link) -> link.up) (all_neighbors t id)

let set_link_up t a b up =
  match find_link t a b with
  | None -> raise Not_found
  | Some link ->
    link.up <- up;
    bump t

let remove_node t id =
  (match Tbl.find_opt t.adjacency id with
   | None -> ()
   | Some adj ->
     Tbl.iter
       (fun peer _ ->
         match Tbl.find_opt t.adjacency peer with
         | Some peer_adj -> Tbl.remove peer_adj id
         | None -> ())
       adj);
  Tbl.remove t.adjacency id;
  Tbl.remove t.node_table id;
  bump t

let by_layer t layer =
  List.filter (fun n -> Node.layer_equal n.Node.layer layer) (nodes t)

let layers t =
  nodes t
  |> List.map (fun n -> n.Node.layer)
  |> List.sort_uniq (fun a b ->
         let c = Int.compare (Node.layer_rank a) (Node.layer_rank b) in
         if c <> 0 then c
         else compare (Node.layer_to_string a) (Node.layer_to_string b))

let degree_up t id =
  List.length (neighbors t id)

let pp_stats ppf t =
  let link_list = links t in
  let up = List.length (List.filter (fun l -> l.up) link_list) in
  Format.fprintf ppf "%d nodes, %d links (%d up)" (node_count t)
    (List.length link_list) up
