type t = {
  graph : Graph.t;
  version : int;
  nodes : Node.t array;
  ids : int array;
  (* index.(d): the position of device [d] in [ids], or -1 *)
  index : int array;
  neighbors : (Node.t * Graph.link) list array;
  up : int array array;
}

let make graph =
  let nodes = Array.of_list (Graph.nodes graph) in
  let ids = Array.map (fun n -> n.Node.id) nodes in
  let index = Array.make (Array.fold_left max (-1) ids + 1) (-1) in
  Array.iteri (fun i d -> index.(d) <- i) ids;
  let neighbors = Array.map (Graph.neighbors graph) ids in
  {
    graph;
    version = Graph.version graph;
    nodes;
    ids;
    index;
    neighbors;
    up =
      Array.map
        (fun l -> Array.of_list (List.map (fun (m, _) -> index.(m.Node.id)) l))
        neighbors;
  }

let graph t = t.graph
let version t = t.version
let size t = Array.length t.ids
let nodes t = t.nodes
let ids t = t.ids
let devices t = Array.to_list t.ids

let position t d =
  if d < 0 || d >= Array.length t.index then -1 else t.index.(d)

let index t d =
  let i = position t d in
  if i < 0 then raise Not_found else i

let neighbors t i = t.neighbors.(i)
let up t i = t.up.(i)
