type t = {
  path_selection : Path_selection.t list;
  route_attribute : Route_attribute.t list;
  route_filter : Route_filter.t list;
  advertise_least_favorable : bool;
}

let empty =
  {
    path_selection = [];
    route_attribute = [];
    route_filter = [];
    advertise_least_favorable = true;
  }

let is_empty t =
  t.path_selection = [] && t.route_attribute = [] && t.route_filter = []

let make ?(path_selection = []) ?(route_attribute = []) ?(route_filter = [])
    ?(advertise_least_favorable = true) () =
  { path_selection; route_attribute; route_filter; advertise_least_favorable }

(* Appends [ys] to [xs], dropping entries structurally equal to one already
   present. Merging the same RPA twice used to concatenate its statements
   verbatim, inflating the Table 3 RPA-LOC metric; duplicates carry no
   semantic weight (orthogonal RPAs co-exist, identical ones are one RPA). *)
let dedup_append eq xs ys =
  List.fold_left
    (fun acc y -> if List.exists (eq y) acc then acc else acc @ [ y ])
    xs ys

let merge a b =
  {
    path_selection =
      dedup_append Path_selection.equal a.path_selection b.path_selection;
    route_attribute =
      dedup_append Route_attribute.equal a.route_attribute b.route_attribute;
    route_filter = dedup_append Route_filter.equal a.route_filter b.route_filter;
    advertise_least_favorable =
      a.advertise_least_favorable && b.advertise_least_favorable;
  }

let equal a b =
  a == b
  || List.equal Path_selection.equal a.path_selection b.path_selection
     && List.equal Route_attribute.equal a.route_attribute b.route_attribute
     && List.equal Route_filter.equal a.route_filter b.route_filter
     && Bool.equal a.advertise_least_favorable b.advertise_least_favorable

let config_lines t =
  List.concat_map Path_selection.config_lines t.path_selection
  @ List.concat_map Route_attribute.config_lines t.route_attribute
  @ List.concat_map Route_filter.config_lines t.route_filter

let loc t = List.length (config_lines t)

let pp ppf t =
  if is_empty t then Format.pp_print_string ppf "(no RPAs)"
  else
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list Format.pp_print_string)
      (config_lines t)

let statement_count t =
  List.fold_left (fun acc ps -> acc + List.length ps.Path_selection.statements)
    0 t.path_selection
  + List.fold_left
      (fun acc ra -> acc + List.length ra.Route_attribute.statements)
      0 t.route_attribute
  + List.fold_left
      (fun acc rf -> acc + List.length rf.Route_filter.statements)
      0 t.route_filter
