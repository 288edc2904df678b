type match_clause = {
  m_prefixes : Net.Prefix.t list;
  m_communities : Net.Community.t list;
  m_as_path : Net.Path_regex.t option;
}

let match_any = { m_prefixes = []; m_communities = []; m_as_path = None }

type action =
  | Accept
  | Reject
  | Set_local_pref of int
  | Set_med of int
  | Prepend_self of int
  | Add_community of Net.Community.t
  | Remove_community of Net.Community.t
  | Set_link_bandwidth of int option

type rule = { matches : match_clause; actions : action list }

type t = rule list

let empty = []

let reject_all = [ { matches = match_any; actions = [ Reject ] } ]

let drain =
  [
    {
      matches = match_any;
      actions =
        [ Prepend_self 3; Add_community Net.Community.Well_known.drained ];
    };
  ]

let rule ?(prefixes = []) ?(communities = []) ?as_path actions =
  {
    matches =
      {
        m_prefixes = prefixes;
        m_communities = communities;
        m_as_path = Option.map Net.Path_regex.compile_exn as_path;
      };
    actions;
  }

let matches clause prefix attr =
  let prefix_ok =
    clause.m_prefixes = []
    || List.exists (fun p -> Net.Prefix.contains p prefix) clause.m_prefixes
  in
  let community_ok =
    clause.m_communities = []
    || List.exists (fun c -> Net.Attr.has_community c attr) clause.m_communities
  in
  let path_ok =
    match clause.m_as_path with
    | None -> true
    | Some re -> Net.Path_regex.matches re attr.Net.Attr.as_path
  in
  prefix_ok && community_ok && path_ok

let apply_action self attr = function
  | Accept | Reject -> attr (* flow control handled by caller *)
  | Set_local_pref lp -> Net.Attr.set_local_pref lp attr
  | Set_med med -> Net.Attr.set_med med attr
  | Prepend_self n ->
    Net.Attr.set_as_path
      (Net.As_path.prepend_n n self attr.Net.Attr.as_path)
      attr
  | Add_community c -> Net.Attr.add_community c attr
  | Remove_community c -> Net.Attr.remove_community c attr
  | Set_link_bandwidth bw -> Net.Attr.set_link_bandwidth bw attr

let apply t ~self prefix attr =
  match List.find_opt (fun r -> matches r.matches prefix attr) t with
  | None -> Some attr
  | Some rule ->
    if List.mem Reject rule.actions then None
    else Some (List.fold_left (apply_action self) attr rule.actions)

let pp_action ppf = function
  | Accept -> Format.pp_print_string ppf "accept"
  | Reject -> Format.pp_print_string ppf "reject"
  | Set_local_pref lp -> Format.fprintf ppf "local-pref %d" lp
  | Set_med med -> Format.fprintf ppf "med %d" med
  | Prepend_self n -> Format.fprintf ppf "prepend-self %d" n
  | Add_community c -> Format.fprintf ppf "add-community %a" Net.Community.pp c
  | Remove_community c ->
    Format.fprintf ppf "remove-community %a" Net.Community.pp c
  | Set_link_bandwidth (Some bw) -> Format.fprintf ppf "link-bandwidth %d" bw
  | Set_link_bandwidth None -> Format.pp_print_string ppf "link-bandwidth none"

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf r ->
         Format.fprintf ppf "rule -> %a"
           (Format.pp_print_list ~pp_sep:(fun ppf () ->
                Format.pp_print_string ppf "; ")
              pp_action)
           r.actions))
    t
