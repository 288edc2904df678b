(* The static analyzer's per-RPA checks as they were written before each
   rule was factored into one entry pass and one destination-pair pass:
   path selection and route attribute each spell out their own emptiness,
   shadowing and destination-overlap checks. Kept verbatim as the model
   that test_properties compares [Analysis.Lint.check_rpa] against. *)

open Centralium
module Prefix = Net.Prefix
module D = Analysis.Diagnostic
module Regex_algebra = Analysis.Regex_algebra
module Prefix_trie = Analysis.Prefix_trie

(* ---------------- signature algebra ----------------

   A signature's path-language is the intersection of machines: the
   AS-path regex, the neighbor-ASN first-token constraint, the origin-ASN
   last-token constraint. Community conjuncts do not constrain the path
   language; they are handled set-wise. *)

let machines sg =
  let regex =
    match Signature.as_path_regex sg with
    | Some r -> [ Regex_algebra.of_regex r ]
    | None -> []
  in
  let neighbor =
    match Signature.neighbor_asns sg with
    | Some asns ->
      [ Regex_algebra.starts_with_any (List.map Net.Asn.to_int asns) ]
    | None -> []
  in
  let origin =
    match Signature.origin_asn sg with
    | Some a -> [ Regex_algebra.ends_with (Net.Asn.to_int a) ]
    | None -> []
  in
  match regex @ neighbor @ origin with
  | [] -> [ Regex_algebra.universal ]
  | ms -> ms

(* [(reason option, capped)]: the emptiness verdict plus whether the
   product BFS hit its state budget — a capped [None] is a conservative
   "cannot prove empty", which the caller surfaces as an Info note. *)
let signature_empty_status sg =
  let contradiction =
    List.find_opt
      (fun c -> List.exists (Net.Community.equal c) (Signature.none_of sg))
      (Signature.communities sg)
  in
  match contradiction with
  | Some c ->
    ( Some
        (Printf.sprintf "community %s is both required and excluded"
           (Net.Community.to_string c)),
      false )
  | None ->
    (match Signature.neighbor_asns sg with
     | Some [] -> (Some "neighbor_asns = [] matches no path", false)
     | _ ->
       let nonempty, capped =
         Regex_algebra.intersection_nonempty_capped (machines sg)
       in
       if nonempty then (None, capped)
       else (Some "no AS-path can satisfy all path conjuncts", false))


let communities_compatible a b =
  let required = Signature.communities a @ Signature.communities b in
  let excluded = Signature.none_of a @ Signature.none_of b in
  not
    (List.exists
       (fun c -> List.exists (Net.Community.equal c) excluded)
       required)

let sig_overlap a b =
  communities_compatible a b
  && Regex_algebra.intersection_nonempty (machines a @ machines b)

(* [sig_subsumes_status a b]: every route matching [b] matches [a], plus
   whether the language procedure was capped (a capped [false] suppresses
   a shadowing finding). Sound but incomplete: community subset tests plus
   language subsumption. *)
let sig_subsumes_status a b =
  let subset eq xs ys = List.for_all (fun x -> List.exists (eq x) ys) xs in
  if
    subset Net.Community.equal (Signature.communities a)
      (Signature.communities b)
    && subset Net.Community.equal (Signature.none_of a) (Signature.none_of b)
  then Regex_algebra.subsumes_capped (machines a) (machines b)
  else (false, false)


(* ---------------- small helpers ---------------- *)

let family_bits p =
  match Prefix.family p with Prefix.V4 -> 32 | Prefix.V6 -> 128

let thr_of = function None -> Path_selection.Count 1 | Some m -> m

(* Comparable only within a unit; mixed Count/Fraction says nothing. *)
let thr_le a b =
  match (a, b) with
  | Path_selection.Count x, Path_selection.Count y -> x <= y
  | Path_selection.Fraction x, Path_selection.Fraction y -> x <= y
  | Path_selection.Count _, Path_selection.Fraction _
  | Path_selection.Fraction _, Path_selection.Count _ -> false

(* All unordered index pairs whose prefix lists overlap, via one trie pass
   over every (index, prefix) entry. *)
let prefix_overlap_pairs entries =
  let trie = Prefix_trie.create () in
  List.iter (fun (i, ps) -> List.iter (fun p -> Prefix_trie.add trie p i) ps)
    entries;
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun (i, ps) ->
      List.iter
        (fun p ->
          List.iter
            (fun (_, j) ->
              if j <> i then
                let a, b = if i < j then (i, j) else (j, i) in
                Hashtbl.replace pairs (a, b) ())
            (Prefix_trie.covering trie p @ Prefix_trie.covered_by trie p))
        ps)
    entries;
  Hashtbl.fold (fun pair () acc -> pair :: acc) pairs []

let dest_prefixes = function
  | Destination.Prefixes ps -> ps
  | Destination.Tagged _ -> []

(* ---------------- check_rpa ---------------- *)

let check_rpa ?device ?(positions = []) rpa =
  let diags = ref [] in
  let pos_of kind statement =
    Option.map
      (fun ls -> ls.Rpa_parser.ls_pos)
      (Rpa_parser.find_statement positions ~kind ~statement)
  in
  let add ?rpa:rname ?kind ?statement sev code fmt =
    Printf.ksprintf
      (fun message ->
        let pos =
          match (kind, statement) with
          | Some k, Some st -> pos_of k st
          | _ -> None
        in
        diags :=
          D.make ?device ?rpa:rname ?statement ?pos sev code message :: !diags)
      fmt
  in

  (* Dissemination rule (Section 5.3.1 / Figure 9). *)
  if not rpa.Rpa.advertise_least_favorable then
    add D.Warning D.Least_favorable_off
      "advertise_least_favorable = false: withdrawing instead of \
       advertising the least favorable path can form transient routing \
       loops (Figure 9)";

  (* Duplicate / conflicting blocks and statement names. *)
  let dup_blocks blocks name_of equal what =
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j && String.equal (name_of a) (name_of b) then
              if equal a b then
                add ~rpa:(name_of a) D.Warning D.Merge_conflict
                  "duplicate %s block %S (identical content; merge should \
                   have deduplicated it)"
                  what (name_of a)
              else
                add ~rpa:(name_of a) D.Warning D.Merge_conflict
                  "two %s blocks named %S with different content" what
                  (name_of a))
          blocks)
      blocks
  in
  dup_blocks rpa.Rpa.path_selection
    (fun ps -> ps.Path_selection.name)
    Path_selection.equal "path-selection";
  dup_blocks rpa.Rpa.route_attribute
    (fun ra -> ra.Route_attribute.name)
    Route_attribute.equal "route-attribute";
  dup_blocks rpa.Rpa.route_filter
    (fun rf -> rf.Route_filter.name)
    Route_filter.equal "route-filter";
  let dup_statements block_name kind names =
    List.iteri
      (fun i a ->
        List.iteri
          (fun j b ->
            if i < j && String.equal a b then
              add ~rpa:block_name ~kind ~statement:a D.Warning D.Merge_conflict
                "statement name %S used twice in block %S" a block_name)
          names)
      names
  in
  List.iter
    (fun ps ->
      dup_statements ps.Path_selection.name `Path_selection
        (List.map
           (fun st -> st.Path_selection.st_name)
           ps.Path_selection.statements))
    rpa.Rpa.path_selection;
  List.iter
    (fun ra ->
      dup_statements ra.Route_attribute.name `Route_attribute
        (List.map
           (fun st -> st.Route_attribute.st_name)
           ra.Route_attribute.statements))
    rpa.Rpa.route_attribute;
  List.iter
    (fun rf ->
      dup_statements rf.Route_filter.name `Route_filter
        (List.map (fun st -> st.Route_filter.st_name) rf.Route_filter.statements))
    rpa.Rpa.route_filter;

  (* Path selection: per-signature emptiness and priority-list shadowing. *)
  List.iter
    (fun ps ->
      let block = ps.Path_selection.name in
      List.iter
        (fun st ->
          let name = st.Path_selection.st_name in
          List.iter
            (fun set ->
              match signature_empty_status set.Path_selection.ps_signature with
              | Some reason, _ ->
                add ~rpa:block ~kind:`Path_selection ~statement:name D.Error
                  D.Empty_signature "path set %S can match no route: %s"
                  set.Path_selection.ps_name reason
              | None, true ->
                add ~rpa:block ~kind:`Path_selection ~statement:name D.Info
                  D.Analysis_capped
                  "emptiness check for path set %S hit the state budget; \
                   an empty-signature finding may be suppressed"
                  set.Path_selection.ps_name
              | None, false -> ())
            st.Path_selection.path_sets;
          List.iteri
            (fun i earlier ->
              List.iteri
                (fun j later ->
                  if i < j then
                    let subsumed, capped =
                      sig_subsumes_status earlier.Path_selection.ps_signature
                        later.Path_selection.ps_signature
                    in
                    if
                      subsumed
                      && thr_le
                           (thr_of earlier.Path_selection.ps_min_next_hop)
                           (thr_of later.Path_selection.ps_min_next_hop)
                    then
                      add ~rpa:block ~kind:`Path_selection ~statement:name
                        D.Warning D.Shadowed_statement
                        "path set %S is unreachable: every route it matches \
                         is already claimed by earlier path set %S with an \
                         equal-or-lower threshold"
                        later.Path_selection.ps_name
                        earlier.Path_selection.ps_name
                    else if capped then
                      add ~rpa:block ~kind:`Path_selection ~statement:name
                        D.Info D.Analysis_capped
                        "shadowing check of path set %S against %S hit the \
                         state budget; a shadowed-statement finding may be \
                         suppressed"
                        later.Path_selection.ps_name
                        earlier.Path_selection.ps_name)
                st.Path_selection.path_sets)
            st.Path_selection.path_sets)
        ps.Path_selection.statements)
    rpa.Rpa.path_selection;

  (* Cross-statement orthogonality over path-selection statements: two
     statements whose destination domains overlap. Prefix destinations go
     through the trie; tagged destinations pair on community equality. *)
  let ps_stmts =
    List.concat_map
      (fun ps ->
        List.map
          (fun st -> (ps.Path_selection.name, st))
          ps.Path_selection.statements)
      rpa.Rpa.path_selection
  in
  let indexed = List.mapi (fun i (block, st) -> (i, block, st)) ps_stmts in
  let arr = Array.of_list indexed in
  let sets_overlap a b =
    match (a.Path_selection.path_sets, b.Path_selection.path_sets) with
    | [], _ | _, [] -> true (* no path sets = native fallback over the
                               whole destination *)
    | pa, pb ->
      List.exists
        (fun x ->
          List.exists
            (fun y ->
              sig_overlap x.Path_selection.ps_signature
                y.Path_selection.ps_signature)
            pb)
        pa
  in
  let pair_check (i, j) describe =
    let _, block_i, st_i = arr.(i) in
    let _, block_j, st_j = arr.(j) in
    if sets_overlap st_i st_j then
      add ~rpa:block_j ~kind:`Path_selection
        ~statement:st_j.Path_selection.st_name D.Error D.Signature_overlap
        "statements %s/%s and %s/%s claim %s with overlapping path sets \
         (RPA orthogonality violation)"
        block_i st_i.Path_selection.st_name block_j
        st_j.Path_selection.st_name describe
    else
      add ~rpa:block_j ~kind:`Path_selection
        ~statement:st_j.Path_selection.st_name D.Warning D.Prefix_shadowed
        "statements %s/%s and %s/%s claim %s (path sets are disjoint)"
        block_i st_i.Path_selection.st_name block_j
        st_j.Path_selection.st_name describe
  in
  (* tagged destinations *)
  List.iter
    (fun (i, _, st_i) ->
      List.iter
        (fun (j, _, st_j) ->
          if i < j then
            match
              (st_i.Path_selection.destination, st_j.Path_selection.destination)
            with
            | Destination.Tagged a, Destination.Tagged b
              when Net.Community.equal a b ->
              pair_check (i, j)
                (Printf.sprintf "the same tagged destination %s"
                   (Net.Community.to_string a))
            | _ -> ())
        indexed)
    indexed;
  (* prefix destinations *)
  let prefix_entries =
    List.filter_map
      (fun (i, _, st) ->
        match dest_prefixes st.Path_selection.destination with
        | [] -> None
        | ps -> Some (i, ps))
      indexed
  in
  List.iter
    (fun (i, j) -> pair_check (i, j) "overlapping destination prefixes")
    (List.sort compare (prefix_overlap_pairs prefix_entries));

  (* Route attribute: emptiness, first-match shadowing, collisions. *)
  let ra_stmts =
    List.concat_map
      (fun ra ->
        List.map
          (fun st -> (ra.Route_attribute.name, st))
          ra.Route_attribute.statements)
      rpa.Rpa.route_attribute
  in
  List.iter
    (fun (block, st) ->
      let name = st.Route_attribute.st_name in
      List.iter
        (fun w ->
          match signature_empty_status w.Route_attribute.w_signature with
          | Some reason, _ ->
            add ~rpa:block ~kind:`Route_attribute ~statement:name D.Error
              D.Empty_signature "weight entry %S can match no route: %s"
              w.Route_attribute.w_name reason
          | None, true ->
            add ~rpa:block ~kind:`Route_attribute ~statement:name D.Info
              D.Analysis_capped
              "emptiness check for weight entry %S hit the state budget; \
               an empty-signature finding may be suppressed"
              w.Route_attribute.w_name
          | None, false -> ())
        st.Route_attribute.next_hop_weights;
      List.iteri
        (fun i earlier ->
          List.iteri
            (fun j later ->
              if i < j then
                let subsumed, capped =
                  sig_subsumes_status earlier.Route_attribute.w_signature
                    later.Route_attribute.w_signature
                in
                if
                  subsumed
                  && earlier.Route_attribute.weight
                     <> later.Route_attribute.weight
                then
                  add ~rpa:block ~kind:`Route_attribute ~statement:name
                    D.Warning D.Shadowed_statement
                    "weight entry %S (weight %d) is unreachable: earlier \
                     entry %S (weight %d) matches first"
                    later.Route_attribute.w_name later.Route_attribute.weight
                    earlier.Route_attribute.w_name
                    earlier.Route_attribute.weight
                else if capped then
                  add ~rpa:block ~kind:`Route_attribute ~statement:name
                    D.Info D.Analysis_capped
                    "shadowing check of weight entry %S against %S hit the \
                     state budget; a shadowed-statement finding may be \
                     suppressed"
                    later.Route_attribute.w_name
                    earlier.Route_attribute.w_name)
            st.Route_attribute.next_hop_weights)
        st.Route_attribute.next_hop_weights)
    ra_stmts;
  let ra_indexed = List.mapi (fun i (block, st) -> (i, block, st)) ra_stmts in
  let ra_arr = Array.of_list ra_indexed in
  List.iter
    (fun (i, block_i, st_i) ->
      List.iter
        (fun (j, block_j, st_j) ->
          if i < j then
            match
              ( st_i.Route_attribute.destination,
                st_j.Route_attribute.destination )
            with
            | Destination.Tagged a, Destination.Tagged b
              when Net.Community.equal a b ->
              add ~rpa:block_j ~kind:`Route_attribute
                ~statement:st_j.Route_attribute.st_name D.Error
                D.Community_collision
                "statements %s/%s and %s/%s both prescribe weights for \
                 community %s"
                block_i st_i.Route_attribute.st_name block_j
                st_j.Route_attribute.st_name (Net.Community.to_string a)
            | _ -> ())
        ra_indexed)
    ra_indexed;
  let ra_prefix_entries =
    List.filter_map
      (fun (i, _, st) ->
        match dest_prefixes st.Route_attribute.destination with
        | [] -> None
        | ps -> Some (i, ps))
      ra_indexed
  in
  List.iter
    (fun (i, j) ->
      let _, block_i, st_i = ra_arr.(i) in
      let _, block_j, st_j = ra_arr.(j) in
      add ~rpa:block_j ~kind:`Route_attribute
        ~statement:st_j.Route_attribute.st_name D.Error D.Community_collision
        "statements %s/%s and %s/%s prescribe weights for overlapping \
         destination prefixes"
        block_i st_i.Route_attribute.st_name block_j
        st_j.Route_attribute.st_name)
    (List.sort compare (prefix_overlap_pairs ra_prefix_entries));

  (* Route filter: dead or redundant allow rules, and filters that
     statically black-hole a prefix a path-selection statement steers. *)
  let steered =
    List.concat_map
      (fun (block, st) ->
        List.map
          (fun p -> (p, block, st.Path_selection.st_name))
          (dest_prefixes st.Path_selection.destination))
      ps_stmts
  in
  let window rule =
    (* effective [lo, hi] mask range of prefixes the rule can admit *)
    let bits = family_bits rule.Route_filter.covering in
    let lo =
      max
        (Option.value rule.Route_filter.min_mask_length ~default:0)
        (Prefix.mask_length rule.Route_filter.covering)
    in
    let hi = min (Option.value rule.Route_filter.max_mask_length ~default:bits) bits in
    (lo, hi)
  in
  let rule_admits_related rule p =
    (* can the rule admit p, a sub-prefix of p, or a covering of p? *)
    let lo, hi = window rule in
    if Prefix.contains rule.Route_filter.covering p then
      max lo (Prefix.mask_length p) <= hi
    else if Prefix.contains p rule.Route_filter.covering then lo <= hi
    else false
  in
  List.iter
    (fun rf ->
      let block = rf.Route_filter.name in
      List.iter
        (fun st ->
          let name = st.Route_filter.st_name in
          let restricted =
            not
              (Route_filter.peer_signature_equal st.Route_filter.peer
                 Route_filter.any_peer)
          in
          let check_filter direction filter =
            match filter with
            | Route_filter.Allow_all -> ()
            | Route_filter.Allow_list rules ->
              (* dead and subsumed rules *)
              List.iteri
                (fun j rule ->
                  let lo_j, hi_j = window rule in
                  if lo_j > hi_j then
                    add ~rpa:block ~kind:`Route_filter ~statement:name
                      D.Warning D.Prefix_shadowed
                      "%s allow rule for %s admits nothing (empty mask \
                       window %d..%d)"
                      direction
                      (Prefix.to_string rule.Route_filter.covering)
                      lo_j hi_j
                  else
                    List.iteri
                      (fun i other ->
                        let lo_i, hi_i = window other in
                        if
                          i < j
                          && Prefix.contains other.Route_filter.covering
                               rule.Route_filter.covering
                          && lo_i <= lo_j && hi_j <= hi_i
                        then
                          add ~rpa:block ~kind:`Route_filter ~statement:name
                            D.Warning D.Prefix_shadowed
                            "%s allow rule for %s is subsumed by the \
                             earlier rule for %s"
                            direction
                            (Prefix.to_string rule.Route_filter.covering)
                            (Prefix.to_string other.Route_filter.covering))
                      rules)
                rules;
              (* black-holed steered prefixes *)
              List.iter
                (fun (p, ps_block, ps_name) ->
                  if not (List.exists (fun r -> rule_admits_related r p) rules)
                  then
                    add ~rpa:block ~kind:`Route_filter ~statement:name
                      (if restricted then D.Warning else D.Error)
                      D.Filter_blackhole
                      "%s filter drops prefix %s (and all its \
                       more-specifics) steered by %s/%s%s"
                      direction (Prefix.to_string p) ps_block ps_name
                      (if restricted then " (restricted peer signature)"
                       else ""))
                steered
          in
          check_filter "ingress" st.Route_filter.ingress;
          check_filter "egress" st.Route_filter.egress)
        rf.Route_filter.statements)
    rpa.Rpa.route_filter;

  D.sort !diags
