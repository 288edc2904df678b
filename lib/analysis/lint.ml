open Centralium
module Prefix = Net.Prefix
module D = Diagnostic

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

(* Can one route match a path set of each list? A statement without path
   sets falls back to native selection over its whole destination. *)
let path_sets_overlap a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | pa, pb ->
    List.exists
      (fun x ->
        List.exists
          (fun y ->
            sig_overlap x.Path_selection.ps_signature
              y.Path_selection.ps_signature)
          pb)
      pa

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

  (* Path selection and route attribute run the same two passes over their
     statements, flattened once per kind as (block, statement name,
     destination, entries). *)
  let ps_stmts =
    List.concat_map
      (fun ps ->
        List.map
          (fun st ->
            ( ps.Path_selection.name,
              st.Path_selection.st_name,
              st.Path_selection.destination,
              st.Path_selection.path_sets ))
          ps.Path_selection.statements)
      rpa.Rpa.path_selection
  in
  let ra_stmts =
    List.concat_map
      (fun ra ->
        List.map
          (fun st ->
            ( ra.Route_attribute.name,
              st.Route_attribute.st_name,
              st.Route_attribute.destination,
              st.Route_attribute.next_hop_weights ))
          ra.Route_attribute.statements)
      rpa.Rpa.route_attribute
  in

  (* Entry pass: every entry can match some route, and none is dead behind
     an earlier entry of its statement. [dead earlier later], asked once
     [earlier] is known to match every route [later] matches, is the
     kind's rule: the warning when [later] can never act, else [None]. *)
  let entry_pass kind noun ~entry_name ~signature ~dead stmts =
    List.iter
      (fun (block, statement, _, entries) ->
        List.iter
          (fun e ->
            match signature_empty_status (signature e) with
            | Some reason, _ ->
              add ~rpa:block ~kind ~statement D.Error D.Empty_signature
                "%s %S can match no route: %s" noun (entry_name e) reason
            | None, true ->
              add ~rpa:block ~kind ~statement D.Info D.Analysis_capped
                "emptiness check for %s %S hit the state budget; an \
                 empty-signature finding may be suppressed"
                noun (entry_name e)
            | None, false -> ())
          entries;
        List.iteri
          (fun i earlier ->
            List.iteri
              (fun j later ->
                if i < j then
                  let subsumed, capped =
                    sig_subsumes_status (signature earlier) (signature later)
                  in
                  match if subsumed then dead earlier later else None with
                  | Some message ->
                    add ~rpa:block ~kind ~statement D.Warning
                      D.Shadowed_statement "%s" message
                  | None ->
                    if capped then
                      add ~rpa:block ~kind ~statement D.Info D.Analysis_capped
                        "shadowing check of %s %S against %S hit the state \
                         budget; a shadowed-statement finding may be \
                         suppressed"
                        noun (entry_name later) (entry_name earlier))
              entries)
          entries)
      stmts
  in
  entry_pass `Path_selection "path set"
    ~entry_name:(fun set -> set.Path_selection.ps_name)
    ~signature:(fun set -> set.Path_selection.ps_signature)
    ~dead:(fun earlier later ->
      if
        thr_le
          (thr_of earlier.Path_selection.ps_min_next_hop)
          (thr_of later.Path_selection.ps_min_next_hop)
      then
        Some
          (Printf.sprintf
             "path set %S is unreachable: every route it matches is already \
              claimed by earlier path set %S with an equal-or-lower threshold"
             later.Path_selection.ps_name earlier.Path_selection.ps_name)
      else None)
    ps_stmts;
  entry_pass `Route_attribute "weight entry"
    ~entry_name:(fun w -> w.Route_attribute.w_name)
    ~signature:(fun w -> w.Route_attribute.w_signature)
    ~dead:(fun earlier later ->
      if earlier.Route_attribute.weight <> later.Route_attribute.weight then
        Some
          (Printf.sprintf
             "weight entry %S (weight %d) is unreachable: earlier entry %S \
              (weight %d) matches first"
             later.Route_attribute.w_name later.Route_attribute.weight
             earlier.Route_attribute.w_name earlier.Route_attribute.weight)
      else None)
    ra_stmts;

  (* Destination-pair pass: statements whose destination domains meet, on
     an equal tagged community, then on overlapping prefixes through the
     trie. [verdict earlier later tag], with [tag] the shared community or
     [None] for overlapping prefixes, is the kind's finding, reported on
     the later statement. *)
  let pair_pass kind ~verdict stmts =
    let arr = Array.of_list stmts in
    let judge i j tag =
      let block, statement, _, _ = arr.(j) in
      let sev, code, message = verdict arr.(i) arr.(j) tag in
      add ~rpa:block ~kind ~statement sev code "%s" message
    in
    let prefix_entries = ref [] in
    for i = 0 to Array.length arr - 1 do
      match arr.(i) with
      | _, _, Destination.Tagged a, _ ->
        for j = i + 1 to Array.length arr - 1 do
          match arr.(j) with
          | _, _, Destination.Tagged b, _ when Net.Community.equal a b ->
            judge i j (Some a)
          | _ -> ()
        done
      | _, _, Destination.Prefixes ps, _ ->
        prefix_entries := (i, ps) :: !prefix_entries
    done;
    if !prefix_entries <> [] then
      List.iter
        (fun (i, j) -> judge i j None)
        (List.sort compare (prefix_overlap_pairs !prefix_entries))
  in
  pair_pass `Path_selection ps_stmts
    ~verdict:(fun (block_i, st_i, _, sets_i) (block_j, st_j, _, sets_j) tag ->
      let claim =
        match tag with
        | Some c ->
          Printf.sprintf "the same tagged destination %s"
            (Net.Community.to_string c)
        | None -> "overlapping destination prefixes"
      in
      if path_sets_overlap sets_i sets_j then
        ( D.Error,
          D.Signature_overlap,
          Printf.sprintf
            "statements %s/%s and %s/%s claim %s with overlapping path sets \
             (RPA orthogonality violation)"
            block_i st_i block_j st_j claim )
      else
        ( D.Warning,
          D.Prefix_shadowed,
          Printf.sprintf
            "statements %s/%s and %s/%s claim %s (path sets are disjoint)"
            block_i st_i block_j st_j claim ));
  pair_pass `Route_attribute ra_stmts
    ~verdict:(fun (block_i, st_i, _, _) (block_j, st_j, _, _) tag ->
      ( D.Error,
        D.Community_collision,
        match tag with
        | Some c ->
          Printf.sprintf
            "statements %s/%s and %s/%s both prescribe weights for \
             community %s"
            block_i st_i block_j st_j (Net.Community.to_string c)
        | None ->
          Printf.sprintf
            "statements %s/%s and %s/%s prescribe weights for overlapping \
             destination prefixes"
            block_i st_i block_j st_j ));

  (* Route filter: dead or redundant allow rules, and filters that
     statically black-hole a prefix a path-selection statement steers. *)
  let steered =
    List.concat_map
      (fun (block, name, dest, _) ->
        List.map (fun p -> (p, block, name)) (dest_prefixes dest))
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

(* ---------------- check_plan ---------------- *)

module Int_set = Set.Make (Int)

let check_plan graph plan =
  let origination_layer = Topology.Node.Eb in
  let diags = ref [] in
  let add ?device sev code fmt =
    Printf.ksprintf
      (fun message -> diags := D.make ?device sev code message :: !diags)
      fmt
  in
  (* per-device checks *)
  List.iter
    (fun (device, rpa) -> diags := check_rpa ~device rpa @ !diags)
    plan.Controller.rpas;
  (* (device, occurrences) of every device listed more than once *)
  let repeated devices =
    let count = Hashtbl.create 16 in
    List.iter
      (fun d ->
        Hashtbl.replace count d
          (1 + Option.value (Hashtbl.find_opt count d) ~default:0))
      devices;
    Hashtbl.fold (fun d n acc -> if n > 1 then (d, n) :: acc else acc) count []
  in
  (* devices targeted twice across (or within) phases, or bound to two
     RPAs *)
  let flat = Deployment.flatten plan.Controller.phases in
  let rpa_devices = List.map fst plan.Controller.rpas in
  List.iter
    (fun (d, _) ->
      add ~device:d D.Error D.Duplicate_target
        "device %d is targeted by more than one phase" d)
    (repeated flat);
  List.iter
    (fun (d, n) ->
      add ~device:d D.Error D.Plan_coverage
        "device %d has %d generated RPAs (merge them)" d n)
    (repeated rpa_devices);
  (* phases and RPAs must cover the same device set *)
  let phase_set = Int_set.of_list flat in
  let rpa_set = Int_set.of_list rpa_devices in
  Int_set.iter
    (fun d ->
      add ~device:d D.Error D.Plan_coverage
        "device %d has a generated RPA but appears in no phase" d)
    (Int_set.diff rpa_set phase_set);
  Int_set.iter
    (fun d ->
      add ~device:d D.Error D.Plan_coverage
        "device %d is phased but has no generated RPA" d)
    (Int_set.diff phase_set rpa_set);
  (* topology membership, then ordering safety *)
  let unknown =
    Int_set.filter
      (fun d -> Option.is_none (Topology.Graph.node_opt graph d))
      phase_set
  in
  Int_set.iter
    (fun d ->
      add ~device:d D.Error D.Plan_coverage "device %d is not in the topology"
        d)
    unknown;
  let direction = Controller.direction plan in
  if
    Int_set.is_empty unknown
    && flat <> []
    && not
         (Deployment.is_safe_order graph ~origination_layer direction
            plan.Controller.phases)
  then
    add D.Error D.Unsafe_phase_order
      "phase order violates the Section 5.3.2 %s the %s origination layer \
       first)"
      (match direction with
       | Deployment.Install -> "install rule (furthest from"
       | Deployment.Remove -> "removal rule (closest to")
      (Topology.Node.layer_to_string origination_layer);
  D.sort !diags

(* ---------------- cross-plan conflict probe ---------------- *)

let plan_devices plan =
  Int_set.of_list (List.map fst plan.Controller.rpas)

let plans_conflict a b =
  (not (Int_set.is_empty (Int_set.inter (plan_devices a) (plan_devices b))))
  ||
  let selectors plan =
    let prefixes, tags =
      List.split
        (List.map (fun (_, rpa) -> Eq_class.selectors rpa) plan.Controller.rpas)
    in
    (List.concat prefixes, List.concat tags)
  in
  let pa, ta = selectors a and pb, tb = selectors b in
  List.exists (fun c -> List.exists (Net.Community.equal c) tb) ta
  || prefix_overlap_pairs [ (0, pa); (1, pb) ] <> []

(* Arm the controller's [?lint] and [?verify] gates and the verification
   suite's analysis passes: any binary linked against this library gets
   the analyzer and the symbolic phase verifier. *)
let () =
  Ops.set_conflict_probe plans_conflict;
  Controller.set_verifier (fun net plan ->
      Phase_verifier.findings (Phase_verifier.verify_network net plan));
  Controller.set_linter (fun graph plan ->
      List.map D.finding (check_plan graph plan))
