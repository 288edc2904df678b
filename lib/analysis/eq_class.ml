open Centralium
module Prefix = Net.Prefix

type t = {
  cls_prefix : Prefix.t;
  cls_origins : (int * Net.Attr.t) list;
}

let classes origins =
  let by_prefix = Hashtbl.create 16 in
  List.iter
    (fun (device, prefix, attr) ->
      let existing =
        match Hashtbl.find_opt by_prefix prefix with
        | Some os -> os
        | None -> []
      in
      Hashtbl.replace by_prefix prefix ((device, attr) :: existing))
    origins;
  Hashtbl.fold
    (fun prefix os acc ->
      {
        cls_prefix = prefix;
        cls_origins =
          List.sort (fun (a, _) (b, _) -> Int.compare a b) os;
      }
      :: acc)
    by_prefix []
  |> List.sort (fun a b -> Prefix.compare a.cls_prefix b.cls_prefix)

let communities cls =
  List.fold_left
    (fun acc (_, attr) ->
      Net.Community.Set.union acc attr.Net.Attr.communities)
    Net.Community.Set.empty cls.cls_origins

let selectors rpa =
  let fold_dest (prefixes, tags) = function
    | Destination.Prefixes ps -> (List.rev_append ps prefixes, tags)
    | Destination.Tagged c -> (prefixes, c :: tags)
  in
  let acc =
    List.fold_left
      (fun acc block ->
        List.fold_left
          (fun acc st -> fold_dest acc st.Path_selection.destination)
          acc block.Path_selection.statements)
      ([], []) rpa.Rpa.path_selection
  in
  List.fold_left
    (fun acc block ->
      List.fold_left
        (fun acc st -> fold_dest acc st.Route_attribute.destination)
        acc block.Route_attribute.statements)
    acc rpa.Rpa.route_attribute

(* An allow-list filter constrains every prefix its peer signature sees —
   omission blocks, so mere presence touches every class. [Allow_all]
   statements restrict nothing. *)
let has_restrictive_filter rpa =
  List.exists
    (fun rf ->
      List.exists
        (fun st ->
          st.Route_filter.ingress <> Route_filter.Allow_all
          || st.Route_filter.egress <> Route_filter.Allow_all)
        rf.Route_filter.statements)
    rpa.Rpa.route_filter

let touched_by clss ~rpas =
  (* Delta-net: index the class prefixes in a trie, then map each policy
     selector to the classes it overlaps instead of scanning class-by-rule.
     Tagged selectors and restrictive filters fall back to community /
     all-class marking. *)
  let trie = Prefix_trie.create () in
  List.iteri (fun i cls -> Prefix_trie.add trie cls.cls_prefix i) clss;
  let arr = Array.of_list clss in
  let touched = Array.make (Array.length arr) false in
  let mark i = touched.(i) <- true in
  List.iter
    (fun (_, rpa) ->
      if has_restrictive_filter rpa then
        Array.iteri (fun i _ -> mark i) touched
      else begin
        let prefixes, tags = selectors rpa in
        List.iter
          (fun p ->
            List.iter (fun (_, i) -> mark i) (Prefix_trie.covered_by trie p))
          prefixes;
        if tags <> [] then
          Array.iteri
            (fun i cls ->
              let comms = communities cls in
              if List.exists (fun c -> Net.Community.Set.mem c comms) tags
              then mark i)
            arr
      end)
    rpas;
  List.filteri (fun i _ -> touched.(i)) clss
