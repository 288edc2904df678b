(* Tests for lib/core (centralium): RPA primitives, the evaluation engine,
   NSDB, services, deployment sequencing, switch agent, and controller. *)

open Centralium

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let asn = Net.Asn.of_int
let attr ?(communities = []) ?(local_pref = 100) asns =
  List.fold_left
    (fun a c -> Net.Attr.add_community c a)
    (Net.Attr.make ~local_pref
       ~as_path:(Net.As_path.of_asns (List.map asn asns))
       ())
    communities

let path ?(peer = 1) ?(session = 0) a = Bgp.Path.make ~peer ~session ~attr:a

(* Typed equality: selections carry attributes, which polymorphic [=] must
   not compare (see {!Net.Attr.t}). *)
let same_selection (a : Bgp.Rib_policy.selection) (b : Bgp.Rib_policy.selection) =
  List.equal Bgp.Path.equal a.Bgp.Rib_policy.selected b.Bgp.Rib_policy.selected
  && Option.equal Bgp.Path.equal a.Bgp.Rib_policy.advertise
       b.Bgp.Rib_policy.advertise
  && Bool.equal a.Bgp.Rib_policy.keep_fib_warm b.Bgp.Rib_policy.keep_fib_warm

let basic_ctx ?(prefix = Net.Prefix.default_v4) ?(now = 0.0)
    ?(live = fun _ -> 4) () =
  {
    Bgp.Rib_policy.device = 0;
    prefix;
    now;
    commit = false;
    peer_layer = (fun _ -> Some (Topology.Node.Other "R"));
    live_peers_in_layer = (fun _ -> live (Topology.Node.Other "R"));
  }

(* ---------------- Signature ---------------- *)

let test_signature_any () =
  check_bool "any matches" true (Signature.matches Signature.any (attr [ 1; 2 ]))

let test_signature_regex () =
  let s = Signature.make ~as_path_regex:"^65001" () in
  check_bool "hit" true (Signature.matches s (attr [ 65001; 65002 ]));
  check_bool "miss" false (Signature.matches s (attr [ 65002; 65001 ]))

let test_signature_communities_conjunctive () =
  let c1 = Net.Community.make 65100 1 and c2 = Net.Community.make 65100 2 in
  let s = Signature.make ~communities:[ c1; c2 ] () in
  check_bool "both present" true
    (Signature.matches s (attr ~communities:[ c1; c2 ] [ 1 ]));
  check_bool "one missing" false
    (Signature.matches s (attr ~communities:[ c1 ] [ 1 ]))

let test_signature_origin_neighbor () =
  let s = Signature.make ~origin_asn:(asn 9) () in
  check_bool "origin hit" true (Signature.matches s (attr [ 1; 9 ]));
  check_bool "origin miss" false (Signature.matches s (attr [ 9; 1 ]));
  let n = Signature.make ~neighbor_asns:[ asn 1; asn 2 ] () in
  check_bool "neighbor hit" true (Signature.matches n (attr [ 2; 9 ]));
  check_bool "neighbor miss" false (Signature.matches n (attr [ 3; 9 ]));
  check_bool "neighbor empty path" false (Signature.matches n (attr []))

let test_signature_bad_regex () =
  check_bool "raises" true
    (try
       ignore (Signature.make ~as_path_regex:"(" ());
       false
     with Invalid_argument _ -> true)

(* ---------------- Destination ---------------- *)

let test_destination_prefixes () =
  let d = Destination.Prefixes [ Net.Prefix.of_string_exn "10.0.0.0/8" ] in
  check_bool "covered" true
    (Destination.matches d (Net.Prefix.of_string_exn "10.1.0.0/16") ~route_attrs:[]);
  check_bool "uncovered" false
    (Destination.matches d (Net.Prefix.of_string_exn "11.0.0.0/16") ~route_attrs:[])

let test_destination_tagged () =
  let c = Net.Community.Well_known.backbone_default_route in
  let d = Destination.Tagged c in
  check_bool "tagged route" true
    (Destination.matches d Net.Prefix.default_v4
       ~route_attrs:[ attr ~communities:[ c ] [ 1 ] ]);
  check_bool "untagged route" false
    (Destination.matches d Net.Prefix.default_v4 ~route_attrs:[ attr [ 1 ] ]);
  check_bool "no routes" false
    (Destination.matches d Net.Prefix.default_v4 ~route_attrs:[])

(* ---------------- Rpa rendering ---------------- *)

let sample_path_selection_rpa () =
  Apps.Path_equalize.rpa ~destination:Destination.backbone_default
    ~origin_asn:(asn 65000) ~via:[ asn 1; asn 2 ]

let test_rpa_config_and_loc () =
  let rpa = sample_path_selection_rpa () in
  let lines = Rpa.config_lines rpa in
  check_bool "has header" true
    (List.exists (fun l -> String.length l > 0 && String.sub l 0 16 = "PathSelectionRpa") lines);
  check_int "loc = line count" (List.length lines) (Rpa.loc rpa);
  check_bool "loc positive" true (Rpa.loc rpa > 5);
  check_int "one statement" 1 (Rpa.statement_count rpa)

let test_rpa_merge () =
  let a = sample_path_selection_rpa () in
  let b =
    Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
      ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm:true
  in
  let merged = Rpa.merge a b in
  check_int "statements add" 2 (Rpa.statement_count merged);
  check_bool "empty is empty" true (Rpa.is_empty Rpa.empty);
  check_bool "merged not empty" false (Rpa.is_empty merged)

let test_rpa_merge_dedupes () =
  (* Merging the same RPA twice used to concatenate its blocks verbatim,
     doubling statement_count and the Table 3 RPA-LOC metric. *)
  let a = sample_path_selection_rpa () in
  let twice = Rpa.merge a a in
  check_int "self-merge is idempotent" (Rpa.statement_count a)
    (Rpa.statement_count twice);
  check_int "loc unchanged" (Rpa.loc a) (Rpa.loc twice);
  let b =
    Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
      ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm:true
  in
  let ab = Rpa.merge a b in
  (* Re-merging an already-present RPA adds nothing... *)
  check_int "re-merge adds nothing" (Rpa.statement_count ab)
    (Rpa.statement_count (Rpa.merge ab b));
  check_int "re-merge left arg" (Rpa.statement_count ab)
    (Rpa.statement_count (Rpa.merge ab a));
  (* ...while genuinely different blocks still accumulate. *)
  check_bool "distinct blocks kept" true
    (Rpa.statement_count ab > Rpa.statement_count a)

(* ---------------- Engine: selection ---------------- *)

let bb = Net.Community.Well_known.backbone_default_route

let equalize_engine () =
  Engine.create
    (Apps.Path_equalize.rpa ~destination:(Destination.Tagged bb)
       ~origin_asn:(asn 9) ~via:[ asn 1; asn 2; asn 3 ])

let test_engine_equalizes_lengths () =
  let engine = equalize_engine () in
  let short = path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) in
  let long = path ~peer:2 (attr ~communities:[ bb ] [ 2; 7; 8; 9 ]) in
  let native = Bgp.Decision.select [ short; long ] in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ())
      ~candidates:[ short; long ] ~native
  in
  check_int "both selected despite lengths" 2
    (List.length sel.Bgp.Rib_policy.selected);
  (* Dissemination rule: advertise the least favorable (longest). *)
  (match sel.Bgp.Rib_policy.advertise with
   | Some p -> check_int "advertise longest" 2 p.Bgp.Path.peer
   | None -> Alcotest.fail "must advertise")

let test_engine_untagged_falls_back_native () =
  let engine = equalize_engine () in
  let short = path ~peer:1 (attr [ 1; 9 ]) in
  let long = path ~peer:2 (attr [ 2; 7; 8; 9 ]) in
  let native = Bgp.Decision.select [ short; long ] in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ())
      ~candidates:[ short; long ] ~native
  in
  check_int "native picks short only" 1 (List.length sel.Bgp.Rib_policy.selected)

let test_engine_pathset_priority () =
  (* Primary path set preferred; backup only when primary has too few. *)
  let rpa =
    Apps.Backup_preference.rpa ~destination:(Destination.Tagged bb)
      ~primary:(Signature.make ~neighbor_asn:(asn 1) ())
      ~primary_min_next_hop:(Path_selection.Count 1)
      ~backup:(Signature.make ~neighbor_asn:(asn 2) ())
      ()
  in
  let engine = Engine.create rpa in
  let primary = path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) in
  let backup = path ~peer:2 (attr ~communities:[ bb ] [ 2; 9 ]) in
  let native = Bgp.Decision.select [ primary; backup ] in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ())
      ~candidates:[ primary; backup ] ~native
  in
  Alcotest.(check (list int))
    "primary only" [ 1 ]
    (List.map (fun p -> p.Bgp.Path.peer) sel.Bgp.Rib_policy.selected);
  (* Primary gone -> backup set. *)
  let native = Bgp.Decision.select [ backup ] in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:[ backup ]
      ~native
  in
  Alcotest.(check (list int))
    "backup" [ 2 ]
    (List.map (fun p -> p.Bgp.Path.peer) sel.Bgp.Rib_policy.selected)

let test_engine_min_next_hop_count () =
  let rpa =
    Rpa.make
      ~path_selection:
        [
          Path_selection.make
            [
              Path_selection.statement
                ~path_sets:
                  [
                    Path_selection.path_set ~name:"set"
                      ~min_next_hop:(Path_selection.Count 2) Signature.any;
                  ]
                (Destination.Tagged bb);
            ];
        ]
      ()
  in
  let engine = Engine.create rpa in
  let one = [ path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) ] in
  let native = Bgp.Decision.select one in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:one ~native
  in
  (* Path set unmatched (only 1 < 2) -> falls back to native. *)
  check_int "native fallback" 1 (List.length sel.Bgp.Rib_policy.selected);
  let two =
    [
      path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]);
      path ~peer:2 (attr ~communities:[ bb ] [ 2; 8; 9 ]);
    ]
  in
  let native = Bgp.Decision.select two in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:two ~native
  in
  check_int "matched with 2" 2 (List.length sel.Bgp.Rib_policy.selected)

let guard_engine ~keep_fib_warm =
  Engine.create
    (Apps.Min_next_hop_guard.rpa ~destination:(Destination.Tagged bb)
       ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm)

let test_engine_native_min_next_hop_violation () =
  let engine = guard_engine ~keep_fib_warm:false in
  (* 4 live peers in layer, fraction 0.75 -> need 3; only 1 candidate. *)
  let one = [ path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) ] in
  let native = Bgp.Decision.select one in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:one ~native
  in
  check_bool "withdrawn" true (sel.Bgp.Rib_policy.advertise = None);
  check_int "fib emptied" 0 (List.length sel.Bgp.Rib_policy.selected)

let test_engine_keep_fib_warm () =
  let engine = guard_engine ~keep_fib_warm:true in
  let one = [ path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) ] in
  let native = Bgp.Decision.select one in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:one ~native
  in
  check_bool "withdrawn" true (sel.Bgp.Rib_policy.advertise = None);
  check_int "fib kept warm" 1 (List.length sel.Bgp.Rib_policy.selected);
  check_bool "flag set" true sel.Bgp.Rib_policy.keep_fib_warm

let test_engine_native_min_next_hop_satisfied () =
  let engine = guard_engine ~keep_fib_warm:false in
  let three =
    List.map
      (fun i -> path ~peer:i (attr ~communities:[ bb ] [ i; 9 ]))
      [ 1; 2; 3 ]
  in
  let native = Bgp.Decision.select three in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:three
      ~native
  in
  check_int "all kept" 3 (List.length sel.Bgp.Rib_policy.selected);
  check_bool "advertised" true (sel.Bgp.Rib_policy.advertise <> None)

let test_engine_ablation_advertises_best () =
  let rpa =
    Rpa.make ~advertise_least_favorable:false
      ~path_selection:
        [
          Path_selection.make
            [
              Path_selection.statement
                ~path_sets:[ Path_selection.path_set ~name:"all" Signature.any ]
                (Destination.Tagged bb);
            ];
        ]
      ()
  in
  let engine = Engine.create rpa in
  let short = path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) in
  let long = path ~peer:2 (attr ~communities:[ bb ] [ 2; 7; 9 ]) in
  let native = Bgp.Decision.select [ short; long ] in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ())
      ~candidates:[ short; long ] ~native
  in
  match sel.Bgp.Rib_policy.advertise with
  | Some p -> check_int "best advertised (unsafe)" 1 p.Bgp.Path.peer
  | None -> Alcotest.fail "must advertise"

let test_engine_orthogonal_rpas_coexist () =
  (* The Section 5.3 footnote: multiple orthogonal RPAs on one switch
     influence exclusive prefix sets. One statement pins an anycast group,
     another guards the default route; each fires only for its own
     destination. *)
  let anycast = Net.Community.Well_known.anycast_load_bearing in
  let merged =
    Rpa.merge
      (Apps.Min_next_hop_guard.rpa ~destination:(Destination.Tagged bb)
         ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm:false)
      (Rpa.make
         ~path_selection:
           [
             Path_selection.make
               [
                 Path_selection.statement ~name:"anycast"
                   ~path_sets:
                     [ Path_selection.path_set ~name:"pin" Signature.any ]
                   (Destination.Tagged anycast);
               ];
           ]
         ())
  in
  let engine = Engine.create merged in
  (* A default route with 1 of 4 uplinks: guarded -> withdrawn. *)
  let default_candidate = [ path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) ] in
  let native = Bgp.Decision.select default_candidate in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ())
      ~candidates:default_candidate ~native
  in
  check_bool "guard fires on default" true (sel.Bgp.Rib_policy.advertise = None);
  (* An anycast route with a single path: the anycast statement (not the
     guard) applies, so it survives. *)
  let anycast_candidate =
    [ path ~peer:1 (attr ~communities:[ anycast ] [ 1; 8 ]) ]
  in
  let native = Bgp.Decision.select anycast_candidate in
  let sel =
    Engine.evaluate_selection engine
      ~ctx:(basic_ctx ~prefix:(Net.Prefix.of_string_exn "198.51.100.0/24") ())
      ~candidates:anycast_candidate ~native
  in
  check_bool "anycast unaffected by guard" true
    (sel.Bgp.Rib_policy.advertise <> None);
  check_int "anycast selected" 1 (List.length sel.Bgp.Rib_policy.selected)

let test_engine_no_candidates () =
  let engine = equalize_engine () in
  let sel =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:[]
      ~native:([], None)
  in
  check_int "nothing selected" 0 (List.length sel.Bgp.Rib_policy.selected);
  check_bool "nothing advertised" true (sel.Bgp.Rib_policy.advertise = None)

let test_engine_default_weight_for_unmatched () =
  let rpa =
    Rpa.make
      ~route_attribute:
        [
          Route_attribute.make
            [
              Route_attribute.statement ~default_weight:3
                (Destination.Tagged bb)
                [
                  Route_attribute.next_hop_weight
                    (Signature.make ~neighbor_asn:(asn 1) ())
                    ~weight:9;
                ];
            ];
        ]
      ()
  in
  let engine = Engine.create rpa in
  let matched = path ~peer:1 (attr ~communities:[ bb ] [ 1; 5 ]) in
  let unmatched = path ~peer:2 (attr ~communities:[ bb ] [ 2; 5 ]) in
  match
    Engine.evaluate_weights engine ~ctx:(basic_ctx ())
      ~selected:[ matched; unmatched ]
  with
  | Some [ (_, w1); (_, w2) ] ->
    check_int "matched weight" 9 w1;
    check_int "default weight" 3 w2
  | Some _ | None -> Alcotest.fail "expected weights"

let test_engine_separate_ingress_egress_filters () =
  let rpa =
    Rpa.make
      ~route_filter:
        [
          Route_filter.make
            [
              Route_filter.statement
                ~ingress:Route_filter.Allow_all
                ~egress:(Route_filter.Allow_list []) (* deny all egress *)
                Route_filter.any_peer;
            ];
        ]
      ()
  in
  let hooks = Engine.hooks (Engine.create rpa) in
  let ctx = basic_ctx () in
  let a = Net.Attr.make () in
  check_bool "ingress open" true (hooks.Bgp.Rib_policy.ingress_accept ctx ~peer:1 a);
  check_bool "egress closed" false (hooks.Bgp.Rib_policy.egress_accept ctx ~peer:1 a)

(* ---------------- Engine: weights ---------------- *)

let test_engine_weights () =
  let rpa =
    Apps.Te_weights.rpa_for_device
      (let g = Topology.Graph.create () in
       List.iter
         (fun i ->
           Topology.Graph.add_node g
             (Topology.Node.make ~id:i ~name:(Printf.sprintf "n%d" i)
                ~layer:(Topology.Node.Other "R") ()))
         [ 0; 1; 2 ];
       g)
      ~destination:(Destination.Tagged bb) ~device:0
      ~weights:[ (1, 3); (2, 1) ] ()
  in
  let engine = Engine.create rpa in
  (* Neighbor ASNs are 64512 + id. *)
  let via1 = path ~peer:1 (attr ~communities:[ bb ] [ 64513; 9 ]) in
  let via2 = path ~peer:2 (attr ~communities:[ bb ] [ 64514; 9 ]) in
  match
    Engine.evaluate_weights engine ~ctx:(basic_ctx ()) ~selected:[ via1; via2 ]
  with
  | Some [ (_, w1); (_, w2) ] ->
    check_int "w1" 3 w1;
    check_int "w2" 1 w2
  | Some _ | None -> Alcotest.fail "expected prescribed weights"

let test_engine_weights_expiration () =
  let rpa =
    Rpa.make
      ~route_attribute:
        [
          Route_attribute.make
            [
              Route_attribute.statement ~expires_at:10.0
                (Destination.Tagged bb)
                [ Route_attribute.next_hop_weight Signature.any ~weight:5 ];
            ];
        ]
      ()
  in
  let engine = Engine.create rpa in
  let p = path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) in
  check_bool "live before expiry" true
    (Engine.evaluate_weights engine ~ctx:(basic_ctx ~now:5.0 ()) ~selected:[ p ]
     <> None);
  check_bool "expired after" true
    (Engine.evaluate_weights engine ~ctx:(basic_ctx ~now:11.0 ()) ~selected:[ p ]
     = None)

let test_engine_cache_stats () =
  let engine = equalize_engine () in
  let p = path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) in
  let native = Bgp.Decision.select [ p ] in
  let eval () =
    ignore
      (Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:[ p ]
         ~native)
  in
  eval ();
  let first = Engine.stats engine in
  check_bool "first run misses" true (first.Engine.misses > 0);
  check_int "no hits yet" 0 first.Engine.hits;
  eval ();
  eval ();
  let later = Engine.stats engine in
  check_bool "subsequent runs hit" true (later.Engine.hits > 0);
  check_int "no extra misses" first.Engine.misses later.Engine.misses;
  Engine.clear_cache engine;
  Engine.reset_stats engine;
  eval ();
  let reset = Engine.stats engine in
  check_bool "cache cleared -> miss again" true (reset.Engine.misses > 0)

let test_engine_cache_disabled () =
  let rpa =
    Apps.Path_equalize.rpa ~destination:(Destination.Tagged bb)
      ~origin_asn:(asn 9) ~via:[ asn 1 ]
  in
  let engine = Engine.create ~cache:false rpa in
  let p = path ~peer:1 (attr ~communities:[ bb ] [ 1; 9 ]) in
  let native = Bgp.Decision.select [ p ] in
  for _ = 1 to 3 do
    ignore
      (Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates:[ p ]
         ~native)
  done;
  check_int "never hits" 0 (Engine.stats engine).Engine.hits

(* An FSW's upstream paths all have the same length and differ only in the
   first (SSW) ASN. The signature cache must still spread them over its
   buckets: a hash that stops before the ASNs puts all of them in one
   bucket and every lookup walks the whole history. *)
let test_engine_cache_equal_length_paths () =
  let firsts = List.init 36 (fun i -> 1000 + i) in
  let rpa =
    Apps.Path_equalize.rpa ~destination:(Destination.Tagged bb)
      ~origin_asn:(asn 9) ~via:(List.map asn firsts)
  in
  let candidates =
    List.mapi
      (fun i first -> path ~peer:(i + 1) (attr ~communities:[ bb ] [ first; 50; 9 ]))
      firsts
  in
  let native = Bgp.Decision.select candidates in
  let eval engine =
    Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates ~native
  in
  let engine = Engine.create rpa in
  let first = eval engine in
  let s1 = Engine.stats engine in
  check_int "first pass misses" 36 s1.Engine.misses;
  check_int "first pass hits" 0 s1.Engine.hits;
  let second = eval engine in
  let s2 = Engine.stats engine in
  check_int "second pass misses" 36 s2.Engine.misses;
  check_int "second pass hits" 36 s2.Engine.hits;
  check_bool "short cache buckets" true (s2.Engine.max_bucket <= 3);
  let uncached = eval (Engine.create ~cache:false rpa) in
  check_int "all selected" 36 (List.length first.Bgp.Rib_policy.selected);
  check_bool "hit pass selects as the miss pass" true (same_selection first second);
  check_bool "cached selects as uncached" true (same_selection first uncached)

(* The engine's answers do not depend on when collections run: each pass
   builds fresh copies of the same candidate attributes (whose AS paths
   are this test's own), so between passes nothing but the engine holds
   them. A cache that keyed its answers by intern id without holding the
   attribute would miss after a collection, since an equal attribute
   interned after it was collected gets a new id. *)
let test_engine_cache_across_collections () =
  let firsts = List.init 12 (fun i -> 3000 + i) in
  let engine =
    Engine.create
      (Apps.Path_equalize.rpa ~destination:(Destination.Tagged bb)
         ~origin_asn:(asn 9) ~via:(List.map asn firsts))
  in
  let[@inline never] pass () =
    let candidates =
      List.mapi
        (fun i first ->
          path ~peer:(i + 1) (attr ~communities:[ bb ] [ first; 3100; 9 ]))
        firsts
    in
    let native = Bgp.Decision.select candidates in
    Engine.reset_stats engine;
    ignore
      (Engine.evaluate_selection engine ~ctx:(basic_ctx ()) ~candidates ~native);
    let s = Engine.stats engine in
    (s.Engine.hits, s.Engine.misses)
  in
  let cold = pass () in
  let warm = pass () in
  Gc.full_major ();
  let collected = pass () in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "cold pass misses every candidate" (0, 12) cold;
  Alcotest.check pair "warm pass hits every candidate" (12, 0) warm;
  Alcotest.check pair "a collection changes no hit" warm collected

(* ---------------- Engine: route filter ---------------- *)

let test_engine_route_filter () =
  let rpa =
    Apps.Boundary_filter.rpa ~peer_layers:[ Topology.Node.Eb ]
      ~allowed:
        [
          Route_filter.prefix_rule ~max_mask_length:16
            (Net.Prefix.of_string_exn "10.0.0.0/8");
        ]
  in
  let engine = Engine.create rpa in
  let hooks = Engine.hooks engine in
  let ctx_for prefix layer =
    {
      Bgp.Rib_policy.device = 0;
      prefix;
      now = 0.0;
      commit = false;
      peer_layer = (fun _ -> Some layer);
      live_peers_in_layer = (fun _ -> 4);
    }
  in
  let a = Net.Attr.make () in
  let allowed = Net.Prefix.of_string_exn "10.1.0.0/16" in
  let too_specific = Net.Prefix.of_string_exn "10.1.2.0/24" in
  let outside = Net.Prefix.of_string_exn "11.0.0.0/16" in
  check_bool "aggregate allowed" true
    (hooks.Bgp.Rib_policy.ingress_accept (ctx_for allowed Topology.Node.Eb) ~peer:5 a);
  check_bool "too specific blocked" false
    (hooks.Bgp.Rib_policy.ingress_accept
       (ctx_for too_specific Topology.Node.Eb) ~peer:5 a);
  check_bool "outside blocked" false
    (hooks.Bgp.Rib_policy.ingress_accept (ctx_for outside Topology.Node.Eb) ~peer:5 a);
  (* Non-boundary peers unrestricted. *)
  check_bool "fsw peer unrestricted" true
    (hooks.Bgp.Rib_policy.ingress_accept
       (ctx_for too_specific Topology.Node.Fsw) ~peer:5 a)

(* ---------------- Rpa parser ---------------- *)

let render rpa = String.concat "\n" (Rpa.config_lines rpa)

let roundtrips rpa =
  match Rpa_parser.parse (render rpa) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok reparsed -> Rpa.config_lines reparsed = Rpa.config_lines rpa

let test_parser_roundtrip_apps () =
  let samples =
    [
      Apps.Path_equalize.rpa ~destination:Destination.backbone_default
        ~origin_asn:(asn 65000) ~via:[ asn 1; asn 2 ];
      Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
        ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm:true;
      Apps.Min_next_hop_guard.rpa
        ~destination:(Destination.Prefixes [ Net.Prefix.of_string_exn "10.0.0.0/8" ])
        ~threshold:(Path_selection.Count 3) ~keep_fib_warm:false;
      Apps.Backup_preference.rpa ~destination:Destination.backbone_default
        ~primary:(Signature.make ~neighbor_asn:(asn 64513) ())
        ~primary_min_next_hop:(Path_selection.Count 2)
        ~backup:(Signature.make ~as_path_regex:".* 65000$" ())
        ();
      Apps.Wcmp_freeze.rpa ~destination:Destination.backbone_default
        ~live_weight:8
        ~drained_signature:
          (Signature.make ~communities:[ Net.Community.Well_known.drained ] ())
        ~expires_at:3600.0 ();
      Apps.Boundary_filter.rpa ~peer_layers:[ Topology.Node.Eb ]
        ~allowed:
          [
            Route_filter.prefix_rule ~min_mask_length:8 ~max_mask_length:16
              (Net.Prefix.of_string_exn "10.0.0.0/8");
          ];
      Apps.Prefix_limit_guard.rpa ~covering:Net.Prefix.default_v4
        ~max_mask_length:20;
    ]
  in
  List.iteri
    (fun i rpa ->
      check_bool (Printf.sprintf "sample %d roundtrips" i) true (roundtrips rpa))
    samples

let test_parser_roundtrip_merged () =
  let merged =
    Rpa.merge
      (Apps.Path_equalize.rpa ~destination:Destination.backbone_default
         ~origin_asn:(asn 65000) ~via:[ asn 1 ])
      (Apps.Wcmp_freeze.rpa ~destination:Destination.backbone_default
         ~live_weight:4
         ~drained_signature:
           (Signature.make ~communities:[ Net.Community.Well_known.drained ] ())
         ())
  in
  check_bool "merged roundtrips" true (roundtrips merged)

let test_parser_roundtrip_planner_representatives () =
  List.iter
    (fun category ->
      check_bool
        (Topology.Migration.category_label category)
        true
        (roundtrips (Planner.representative_rpa category)))
    Topology.Migration.all_categories

let test_parser_errors () =
  List.iter
    (fun src ->
      check_bool src true (Result.is_error (Rpa_parser.parse src)))
    [
      "PathSelectionRpa x {";  (* unterminated *)
      "Nonsense y { }";
      "PathSelectionRpa x { Statement s { PathSetList = [] } }";
      (* destination missing *)
      "PathSelectionRpa x { Statement s { destination = tagged(99999999:1) \
       PathSetList = [] } }";
    ]

let test_parser_whitespace_insensitive () =
  let src =
    "PathSelectionRpa    n   {   Statement s{destination=tagged(65100:1)\n\
     PathSetList=[]BgpNativeMinNextHop=75%}}"
  in
  match Rpa_parser.parse src with
  | Ok rpa -> check_int "one statement" 1 (Rpa.statement_count rpa)
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parser_empty_input () =
  match Rpa_parser.parse "" with
  | Ok rpa -> check_bool "empty rpa" true (Rpa.is_empty rpa)
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parser_error_positions () =
  (* Errors carry "line L, column C:" pointing at the offending token. *)
  let expect_prefix prefix src =
    match Rpa_parser.parse src with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" src
    | Error e ->
      check_bool
        (Printf.sprintf "%S starts with %S (got %S)" src prefix e)
        true
        (String.length e >= String.length prefix
         && String.sub e 0 (String.length prefix) = prefix)
  in
  expect_prefix "line 1, column 1:" "Nonsense y { }";
  expect_prefix "line 2, column 3:"
    "PathSelectionRpa x {\n  oops s { } }";
  expect_prefix "line 3, column 17:"
    "PathSelectionRpa x {\n Statement s {\n  destination = nope\n } }";
  (* Unterminated input points past the last token. *)
  (match Rpa_parser.parse "PathSelectionRpa x {" with
   | Ok _ -> Alcotest.fail "expected a parse error"
   | Error e ->
     check_bool "mentions end of input" true
       (String.length e > 0
        &&
        let re = "unexpected end of input" in
        let n = String.length e and m = String.length re in
        let rec found i = i + m <= n && (String.sub e i m = re || found (i + 1)) in
        found 0))

let test_parser_located_statements () =
  let src =
    "PathSelectionRpa steer {\n\
     Statement first {\n\
    \ destination = tagged(65100:1)\n\
    \ PathSetList = []\n\
     }\n\
     Statement second {\n\
    \ destination = tagged(65100:2)\n\
    \ PathSetList = []\n\
     }\n\
     }\n\
     RouteAttributeRpa weights {\n\
     Statement w {\n\
    \ destination = tagged(65100:3)\n\
     NextHopWeightList = []\n\
     }\n\
     }"
  in
  match Rpa_parser.parse_located src with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok (rpa, index) ->
    check_int "three located statements" 3 (List.length index);
    check_int "rpa statements" 3 (Rpa.statement_count rpa);
    (match
       Rpa_parser.find_statement index ~kind:`Path_selection ~statement:"second"
     with
     | None -> Alcotest.fail "statement 'second' not in index"
     | Some ls ->
       check_int "second line" 6 ls.Rpa_parser.ls_pos.Rpa_parser.line;
       check_int "second col" 11 ls.Rpa_parser.ls_pos.Rpa_parser.col;
       check_bool "rpa name" true (ls.Rpa_parser.ls_rpa = "steer"));
    (match
       Rpa_parser.find_statement index ~kind:`Route_attribute ~statement:"w"
     with
     | None -> Alcotest.fail "statement 'w' not in index"
     | Some ls -> check_int "weights line" 12 ls.Rpa_parser.ls_pos.Rpa_parser.line);
    check_bool "kind mismatch misses" true
      (Rpa_parser.find_statement index ~kind:`Route_filter ~statement:"w"
       = None)

(* ---------------- Nsdb ---------------- *)

let test_nsdb_set_get () =
  let db = Nsdb.create () in
  Nsdb.set db ~path:"devices/1/state" (Nsdb.String "live");
  Nsdb.set db ~path:"devices/2/state" (Nsdb.String "drained");
  check_bool "get one" true
    (Nsdb.get_one db ~path:"devices/1/state" = Some (Nsdb.String "live"));
  check_bool "missing" true (Nsdb.get_one db ~path:"devices/9/state" = None);
  check_int "wildcard" 2 (List.length (Nsdb.get db ~path:"devices/*/state"));
  check_int "size" 2 (Nsdb.size db)

let test_nsdb_overwrite () =
  let db = Nsdb.create () in
  Nsdb.set db ~path:"a/b" (Nsdb.Int 1);
  Nsdb.set db ~path:"a/b" (Nsdb.Int 2);
  check_bool "overwritten" true (Nsdb.get_one db ~path:"a/b" = Some (Nsdb.Int 2));
  check_int "still one" 1 (Nsdb.size db)

let test_nsdb_subtree_and_delete () =
  let db = Nsdb.create () in
  Nsdb.set db ~path:"devices/1/rpa" (Nsdb.Int 1);
  Nsdb.set db ~path:"devices/1/health" (Nsdb.Bool true);
  Nsdb.set db ~path:"devices/2/rpa" (Nsdb.Int 2);
  check_int "subtree" 2 (List.length (Nsdb.get_subtree db ~path:"devices/1"));
  Nsdb.delete db ~path:"devices/1";
  check_int "after delete" 0 (List.length (Nsdb.get_subtree db ~path:"devices/1"));
  check_int "others intact" 1 (List.length (Nsdb.get_subtree db ~path:"devices/2"))

let test_nsdb_subscribe () =
  let db = Nsdb.create () in
  let events = ref [] in
  let _id =
    Nsdb.subscribe db ~path:"devices/*/rpa" (fun path v ->
        events := (path, v) :: !events)
  in
  Nsdb.set db ~path:"devices/1/rpa" (Nsdb.Int 1);
  Nsdb.set db ~path:"devices/1/other" (Nsdb.Int 9);
  Nsdb.set db ~path:"devices/2/rpa" (Nsdb.Int 2);
  check_int "two matched" 2 (List.length !events);
  Nsdb.delete db ~path:"devices/1";
  check_int "deletion notified" 3 (List.length !events);
  (match !events with
   | (path, None) :: _ -> Alcotest.(check string) "del path" "devices/1/rpa" path
   | _ -> Alcotest.fail "expected deletion event")

let test_nsdb_unsubscribe () =
  let db = Nsdb.create () in
  let count = ref 0 in
  let id = Nsdb.subscribe db ~path:"x" (fun _ _ -> incr count) in
  Nsdb.set db ~path:"x" (Nsdb.Int 1);
  Nsdb.unsubscribe db id;
  Nsdb.set db ~path:"x" (Nsdb.Int 2);
  check_int "one event" 1 !count

let test_nsdb_invalid_paths () =
  let db = Nsdb.create () in
  check_bool "empty" true
    (try
       Nsdb.set db ~path:"" (Nsdb.Int 1);
       false
     with Invalid_argument _ -> true);
  check_bool "wildcard set" true
    (try
       Nsdb.set db ~path:"a/*/b" (Nsdb.Int 1);
       false
     with Invalid_argument _ -> true)

let test_nsdb_deep_wildcard () =
  let db = Nsdb.create () in
  Nsdb.set db ~path:"plans/a/devices/1" (Nsdb.Int 1);
  Nsdb.set db ~path:"plans/a/devices/2" (Nsdb.Int 2);
  Nsdb.set db ~path:"plans/b/meta" (Nsdb.Int 3);
  Nsdb.set db ~path:"other/x" (Nsdb.Int 4);
  check_int "all under plans" 3 (List.length (Nsdb.get db ~path:"plans/**"));
  check_int "devices anywhere" 2
    (List.length (Nsdb.get db ~path:"**/devices/*"));
  check_int "everything" 4 (List.length (Nsdb.get db ~path:"**"));
  (* ** also matches zero segments. *)
  Nsdb.set db ~path:"plans/direct" (Nsdb.Int 5);
  check_int "zero-or-more" 4 (List.length (Nsdb.get db ~path:"plans/**"));
  (* Deep subscription fires across depths. *)
  let count = ref 0 in
  let _ = Nsdb.subscribe db ~path:"plans/**" (fun _ _ -> incr count) in
  Nsdb.set db ~path:"plans/c/deep/leaf" (Nsdb.Int 6);
  Nsdb.set db ~path:"other/y" (Nsdb.Int 7);
  check_int "subscription depth" 1 !count

let test_nsdb_snapshot_restore () =
  let db = Nsdb.create () in
  Nsdb.set db ~path:"devices/1/rpa" (Nsdb.Int 1);
  Nsdb.set db ~path:"devices/2/state" (Nsdb.String "live");
  let snap = Nsdb.snapshot db in
  check_int "two entries" 2 (List.length snap);
  let fresh = Nsdb.create () in
  Nsdb.restore fresh snap;
  check_bool "identical content" true (Nsdb.snapshot fresh = snap);
  (* Restore replaces, not merges. *)
  Nsdb.set fresh ~path:"junk/x" (Nsdb.Int 9);
  Nsdb.restore fresh snap;
  check_bool "junk gone" true (Nsdb.get_one fresh ~path:"junk/x" = None);
  check_int "size restored" 2 (Nsdb.size fresh)

(* ---------------- Route_filter (module level) ---------------- *)

let test_route_filter_semantics () =
  let open Route_filter in
  let st =
    statement ~name:"boundary"
      ~ingress:
        (Allow_list
           [
             prefix_rule ~min_mask_length:8 ~max_mask_length:16
               (Net.Prefix.of_string_exn "10.0.0.0/8");
             prefix_rule (Net.Prefix.of_string_exn "192.168.0.0/16");
           ])
      ~egress:Allow_all
      { peer_layers = [ Topology.Node.Eb ]; peer_devices = [] }
  in
  let rf = make [ st ] in
  let allows_in p =
    allows rf Ingress ~peer:9 ~layer:(Some Topology.Node.Eb)
      (Net.Prefix.of_string_exn p)
  in
  check_bool "in range" true (allows_in "10.1.0.0/16");
  check_bool "too specific" false (allows_in "10.1.2.0/24");
  check_bool "too short" false (allows_in "10.0.0.0/7" = true);
  check_bool "second rule" true (allows_in "192.168.4.0/24");
  check_bool "outside" false (allows_in "172.16.0.0/16");
  (* Egress unrestricted; other layers unmatched -> unrestricted. *)
  check_bool "egress allow-all" true
    (allows rf Egress ~peer:9 ~layer:(Some Topology.Node.Eb)
       (Net.Prefix.of_string_exn "172.16.0.0/24"));
  check_bool "other layer unrestricted" true
    (allows rf Ingress ~peer:9 ~layer:(Some Topology.Node.Fsw)
       (Net.Prefix.of_string_exn "172.16.0.0/24"));
  (* Unknown layer never matches a layer-scoped signature. *)
  check_bool "unknown layer unrestricted" true
    (allows rf Ingress ~peer:9 ~layer:None
       (Net.Prefix.of_string_exn "172.16.0.0/24"))

let test_route_filter_device_scoped () =
  let open Route_filter in
  let rf =
    make
      [
        statement ~ingress:(Allow_list []) (* deny everything *)
          { peer_layers = []; peer_devices = [ 7 ] };
      ]
  in
  let p = Net.Prefix.of_string_exn "10.0.0.0/8" in
  check_bool "scoped device denied" false (allows rf Ingress ~peer:7 ~layer:None p);
  check_bool "other devices fine" true (allows rf Ingress ~peer:8 ~layer:None p)

let test_nsdb_replication () =
  let r = Nsdb.Replicated.create ~replicas:3 in
  Nsdb.Replicated.set r ~path:"k" (Nsdb.Int 1);
  check_bool "leader is 0" true (Nsdb.Replicated.leader r = Some 0);
  check_int "read" 1 (List.length (Nsdb.Replicated.get r ~path:"k"));
  Nsdb.Replicated.fail_replica r 0;
  check_bool "leader moves" true (Nsdb.Replicated.leader r = Some 1);
  check_int "reads survive" 1 (List.length (Nsdb.Replicated.get r ~path:"k"));
  (* Writes while replica 0 is down... *)
  Nsdb.Replicated.set r ~path:"k2" (Nsdb.Int 2);
  Nsdb.Replicated.recover_replica r 0;
  (* ...are re-synced on recovery (eventual consistency). *)
  check_bool "resynced" true
    (Nsdb.get_one (Nsdb.Replicated.replica r 0) ~path:"k2" = Some (Nsdb.Int 2))

(* Fan-out mode replays each write on every live replica at once, from
   the same log async mode replays in batches: a dead replica falls
   behind by exactly the writes it missed, and recovery's resync brings
   it to 0 without counting as a snapshot ship. *)
let test_nsdb_dead_replica_lag () =
  let r = Nsdb.Replicated.create ~replicas:3 in
  Nsdb.Replicated.set r ~path:"k" (Nsdb.Int 1);
  Nsdb.Replicated.fail_replica r 2;
  Nsdb.Replicated.set r ~path:"k" (Nsdb.Int 2);
  Nsdb.Replicated.set r ~path:"k2" (Nsdb.Int 3);
  Nsdb.Replicated.delete r ~path:"k";
  check_int "dead replica lags by the writes it missed" 3
    (Nsdb.Replicated.lag r 2);
  check_int "live replicas are current" 0 (Nsdb.Replicated.max_lag r);
  Nsdb.Replicated.recover_replica r 2;
  check_int "recovery resyncs it" 0 (Nsdb.Replicated.lag r 2);
  check_bool "with the writes it missed" true
    (Nsdb.snapshot (Nsdb.Replicated.replica r 2)
    = [ ("k2", Nsdb.Int 3) ]);
  check_int "a recovery is no snapshot ship" 0
    (Nsdb.Replicated.snapshot_ships r)

(* ---------------- Service ---------------- *)

let test_service_sync_tracking () =
  let s = Service.create ~name:"test" ~role:(Service.Application "x") in
  check_bool "empty in sync" true (Service.sync_fraction s = 1.0);
  Nsdb.set (Service.intended s) ~path:"devices/1/rpa" (Nsdb.Int 1);
  Nsdb.set (Service.intended s) ~path:"devices/2/rpa" (Nsdb.Int 2);
  check_bool "nothing reconciled" true (Service.sync_fraction s = 0.0);
  Nsdb.set (Service.current s) ~path:"devices/1/rpa" (Nsdb.Int 1);
  check_bool "half" true (Float.abs (Service.sync_fraction s -. 0.5) < 1e-9);
  Alcotest.(check (list string))
    "straggler" [ "devices/2/rpa" ] (Service.out_of_sync s);
  check_bool "degraded" true (Service.health s <> Service.Healthy);
  Nsdb.set (Service.current s) ~path:"devices/2/rpa" (Nsdb.Int 2);
  check_bool "healthy" true (Service.health s = Service.Healthy)

let test_service_accounting () =
  let s = Service.create ~name:"t" ~role:Service.Storage in
  let x = Service.with_work s (fun () -> List.init 1000 Fun.id |> List.length) in
  check_int "thunk result" 1000 x;
  check_bool "busy accumulates" true (Service.busy_seconds s >= 0.0);
  check_bool "memory positive" true (Service.memory_bytes s > 0)

(* ---------------- Deployment ---------------- *)

let test_deployment_phases_bottom_up () =
  let x = Topology.Clos.expansion () in
  let targets = x.Topology.Clos.xfsws @ x.Topology.Clos.xssws in
  let phases =
    Deployment.phases x.Topology.Clos.xgraph ~targets
      ~origination_layer:Topology.Node.Eb Deployment.Install
  in
  check_int "two phases" 2 (List.length phases);
  (* FSWs (further from EB) first. *)
  (match phases with
   | first :: _ ->
     check_bool "fsws first" true
       (List.for_all (fun d -> List.mem d x.Topology.Clos.xfsws) first)
   | [] -> Alcotest.fail "no phases");
  check_bool "safe" true
    (Deployment.is_safe_order x.Topology.Clos.xgraph
       ~origination_layer:Topology.Node.Eb Deployment.Install phases);
  check_bool "reverse unsafe" false
    (Deployment.is_safe_order x.Topology.Clos.xgraph
       ~origination_layer:Topology.Node.Eb Deployment.Install (List.rev phases));
  (* Removal is the reverse order. *)
  let removal =
    Deployment.phases x.Topology.Clos.xgraph ~targets
      ~origination_layer:Topology.Node.Eb Deployment.Remove
  in
  check_bool "remove reverses" true (removal = List.rev phases)

(* ---------------- Switch agent + controller ---------------- *)

let controller_fixture () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:3 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.Topology.Clos.backbone Net.Prefix.default_v4
    (Net.Attr.make
       ~communities:
         (Net.Community.Set.singleton Net.Community.Well_known.backbone_default_route)
       ());
  ignore (Bgp.Network.converge net);
  (x, net, Controller.create ~seed:11 net)

let test_agent_reconcile_and_stragglers () =
  let x, net, controller = controller_fixture () in
  let agent = Controller.agent controller in
  let device = List.nth x.Topology.Clos.xssws 0 in
  let rpa =
    Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
      ~threshold:(Path_selection.Count 1) ~keep_fib_warm:false
  in
  Switch_agent.set_intended agent ~device rpa;
  Alcotest.(check (list int)) "straggler listed" [ device ] (Switch_agent.stragglers agent);
  check_bool "applied" true (Switch_agent.reconcile_device agent device = `Applied);
  Alcotest.(check (list int)) "no stragglers" [] (Switch_agent.stragglers agent);
  check_bool "second is in sync" true
    (Switch_agent.reconcile_device agent device = `In_sync);
  check_int "one deploy time" 1 (List.length (Switch_agent.deploy_time_samples agent));
  (* The speaker actually got the hooks. *)
  ignore (Bgp.Network.converge net);
  check_bool "hooks installed" false
    (Bgp.Rib_policy.is_native (Bgp.Speaker.hooks (Bgp.Network.speaker net device)))

let test_agent_unreachable_devices () =
  let x, _net, controller = controller_fixture () in
  let agent = Controller.agent controller in
  let device = List.nth x.Topology.Clos.xssws 1 in
  Switch_agent.set_reachable agent ~device false;
  Switch_agent.set_intended agent ~device
    (Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
       ~threshold:(Path_selection.Count 1) ~keep_fib_warm:false);
  check_bool "unreachable" true
    (Switch_agent.reconcile_device agent device = `Unreachable);
  Alcotest.(check (list int))
    "alert raised" [ device ]
    (Switch_agent.unexpected_unreachable agent);
  Switch_agent.set_maintenance agent ~device true;
  Alcotest.(check (list int))
    "maintenance suppresses alert" []
    (Switch_agent.unexpected_unreachable agent)

(* ---------------- Debug tooling (Section 7.2) ---------------- *)

let string_contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_debug_explain_route () =
  let x, net, controller = controller_fixture () in
  let agent = Controller.agent controller in
  let device = List.nth x.Topology.Clos.xssws 0 in
  (* Native BGP: nothing to explain. *)
  check_bool "no RPA -> no explanation" true
    (Debug.explain_route net agent ~device Net.Prefix.default_v4 = None);
  Switch_agent.set_intended agent ~device
    (Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
       ~threshold:(Path_selection.Count 1) ~keep_fib_warm:false);
  check_bool "applied" true
    (Switch_agent.reconcile_device agent device = `Applied);
  ignore (Bgp.Network.converge net);
  match Debug.explain_route net agent ~device Net.Prefix.default_v4 with
  | None -> Alcotest.fail "expected an explanation once the RPA is installed"
  | Some e ->
    (match e.Debug.verdict with
     | Debug.Native_fallback { statement; trials } ->
       Alcotest.(check string) "statement named" "guard" statement;
       check_int "guard has no path sets" 0 (List.length trials)
     | Debug.No_matching_statement | Debug.Path_set_chosen _
     | Debug.Withdrawn_min_next_hop _ ->
       Alcotest.fail "expected Native_fallback for the satisfied guard");
    check_bool "routes selected" true (e.Debug.selected_count >= 1);
    check_bool "still advertising" true (e.Debug.advertised <> None)

let test_debug_explain_withdrawn_and_pp () =
  let x, net, controller = controller_fixture () in
  let agent = Controller.agent controller in
  let device = List.nth x.Topology.Clos.xssws 0 in
  (* A threshold no SSW can meet forces the MNH withdrawal path. *)
  Switch_agent.set_intended agent ~device
    (Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
       ~threshold:(Path_selection.Count 99) ~keep_fib_warm:true);
  check_bool "applied" true
    (Switch_agent.reconcile_device agent device = `Applied);
  ignore (Bgp.Network.converge net);
  match Debug.explain_route net agent ~device Net.Prefix.default_v4 with
  | None -> Alcotest.fail "expected an explanation"
  | Some e ->
    (match e.Debug.verdict with
     | Debug.Withdrawn_min_next_hop { required; fib_kept_warm; _ } ->
       check_int "required surfaces the threshold" 99 required;
       check_bool "keep-warm knob surfaces" true fib_kept_warm
     | Debug.No_matching_statement | Debug.Path_set_chosen _
     | Debug.Native_fallback _ ->
       Alcotest.fail "expected Withdrawn_min_next_hop");
    check_bool "withdrawn" true (e.Debug.advertised = None);
    let rendered = Format.asprintf "%a" Debug.pp_explanation e in
    check_bool "pp names the statement" true
      (string_contains ~needle:"guard" rendered);
    check_bool "pp flags the withdrawal" true
      (string_contains ~needle:"WITHDRAWN" rendered);
    check_bool "pp flags the warm FIB" true
      (string_contains ~needle:"FIB kept warm" rendered)

(* This executable links no analysis library, so no gate engine is
   registered: an enforced gate must refuse the plan, not pass it
   unchecked. A gate at [`Warn] stays a no-op (the other controller tests
   deploy that way). *)
let test_enforce_without_engine_aborts () =
  check_bool "no linter" true (Option.is_none (Controller.linter ()));
  check_bool "no verifier" true (Option.is_none (Controller.verifier ()));
  let x, net, controller = controller_fixture () in
  let plan = Apps.Expansion_equalizer.plan x in
  List.iter
    (fun (label, deploy) ->
      match deploy () with
      | Ok _ -> Alcotest.failf "%s enforced without an engine deployed" label
      | Error es ->
        check_bool (label ^ " error names the missing engine") true
          (List.exists
             (string_contains ~needle:(Printf.sprintf "no %s engine" label))
             es))
    [
      ("lint", fun () -> Controller.deploy ~lint:`Enforce controller plan);
      ("verify", fun () -> Controller.deploy ~verify:`Enforce controller plan);
    ];
  List.iter
    (fun (device, _) ->
      check_bool "nothing deployed" true
        (Bgp.Rib_policy.is_native
           (Bgp.Speaker.hooks (Bgp.Network.speaker net device))))
    plan.Controller.rpas

let test_controller_deploy_and_remove () =
  let x, net, controller = controller_fixture () in
  let plan = Apps.Expansion_equalizer.plan x in
  check_bool "plan validates" true (Controller.validate_plan controller plan = Ok ());
  (match Controller.deploy controller plan with
   | Ok report ->
     check_int "all applied" (List.length plan.Controller.rpas)
       report.Controller.applied;
     check_int "deploy times collected" report.Controller.applied
       (List.length report.Controller.deploy_seconds)
   | Error es -> Alcotest.fail (String.concat "; " es));
  (* RPAs active on targets. *)
  List.iter
    (fun (device, _) ->
      check_bool "active" false
        (Bgp.Rib_policy.is_native (Bgp.Speaker.hooks (Bgp.Network.speaker net device))))
    plan.Controller.rpas;
  (match Controller.remove controller plan with
   | Ok _ -> ()
   | Error es -> Alcotest.fail (String.concat "; " es));
  List.iter
    (fun (device, _) ->
      check_bool "restored native" true
        (Bgp.Rib_policy.is_native (Bgp.Speaker.hooks (Bgp.Network.speaker net device))))
    plan.Controller.rpas

let test_controller_pre_check_aborts () =
  let x, net, controller = controller_fixture () in
  let failing =
    {
      Health.check_name = "always-fails";
      run = (fun () -> Error "nope");
    }
  in
  let plan = { (Apps.Expansion_equalizer.plan x) with Controller.pre_checks = [ failing ] } in
  (match Controller.deploy controller plan with
   | Error (msg :: _) ->
     check_bool "mentions check" true
       (String.length msg > 0 && String.sub msg 0 9 = "pre-check")
   | Error [] | Ok _ -> Alcotest.fail "expected pre-check failure");
  (* Nothing was deployed. *)
  List.iter
    (fun (device, _) ->
      check_bool "untouched" true
        (Bgp.Rib_policy.is_native (Bgp.Speaker.hooks (Bgp.Network.speaker net device))))
    plan.Controller.rpas

let test_controller_invalid_plan () =
  let x, _net, controller = controller_fixture () in
  let plan = Apps.Expansion_equalizer.plan x in
  let broken = { plan with Controller.phases = [] } in
  check_bool "rejected" true (Controller.validate_plan controller broken <> Ok ())

(* The three refusals of [validate_plan], in their order: coverage first,
   then the smallest device missing from the topology, then the smallest
   device bound to several RPAs. *)
let test_controller_validate_plan_messages () =
  let x, _net, controller = controller_fixture () in
  let plan = Apps.Expansion_equalizer.plan x in
  let refusal fmt =
    Printf.ksprintf (fun m -> Error m) ("plan %s: " ^^ fmt)
      plan.Controller.plan_name
  in
  let validate rpas phases =
    Controller.validate_plan controller { plan with Controller.rpas; phases }
  in
  let check label expected actual =
    Alcotest.(check (result unit string)) label expected actual
  in
  let d0, rpa = List.nth plan.Controller.rpas 0
  and d1, _ = List.nth plan.Controller.rpas 1 in
  let lo = min d0 d1 and hi = max d0 d1 in
  let unknown = 10_000 in
  check "valid" (Ok ()) (validate plan.Controller.rpas plan.Controller.phases);
  check "a repeated or unknown binding no phase lists"
    (refusal "phases do not cover exactly the plan devices")
    (validate ((unknown, rpa) :: (d0, rpa) :: plan.Controller.rpas)
       plan.Controller.phases);
  check "unknown devices, the smallest named, before repeats"
    (refusal "unknown device %d" unknown)
    (validate
       ((unknown + 1, rpa) :: (unknown, rpa) :: (unknown, rpa)
       :: (d0, rpa) :: plan.Controller.rpas)
       ([ unknown + 1; unknown; unknown; d0 ] :: plan.Controller.phases));
  check "the smallest repeated device"
    (refusal "device %d has multiple RPAs (merge them)" lo)
    (validate
       ((hi, rpa) :: (lo, rpa) :: plan.Controller.rpas)
       ([ hi; lo ] :: plan.Controller.phases))

let test_health_checks () =
  let x, net, _controller = controller_fixture () in
  let prefix = Net.Prefix.default_v4 in
  let device = List.nth x.Topology.Clos.xssws 0 in
  check_bool "route present" true
    (Health.all_pass [ Health.route_present net ~device prefix ]);
  check_bool "path count" true
    (Health.all_pass [ Health.path_count_at_least net ~device prefix ~count:2 ]);
  check_bool "excessive count fails" false
    (Health.all_pass [ Health.path_count_at_least net ~device prefix ~count:99 ]);
  let demands = List.map (fun f -> (f, 1.0)) x.Topology.Clos.xfsws in
  check_bool "no loss" true (Health.all_pass [ Health.no_loss net prefix ~demands ]);
  check_bool "loop free" true
    (Health.all_pass
       [
         Health.loop_free net prefix
           ~devices:(List.map (fun n -> n.Topology.Node.id)
                       (Topology.Graph.nodes x.Topology.Clos.xgraph));
       ])

let test_controller_survives_nsdb_replica_failure () =
  (* Failure injection: an NSDB replica dies mid-operation; deployments and
     reads continue, and the recovered replica re-syncs the writes it
     missed. *)
  let x, _net, controller = controller_fixture () in
  let db = Controller.nsdb controller in
  let plan = Apps.Expansion_equalizer.plan x in
  Nsdb.Replicated.fail_replica db 0;
  (match Controller.deploy controller plan with
   | Ok report -> check_bool "deployed despite failure" true (report.Controller.applied > 0)
   | Error es -> Alcotest.fail (String.concat "; " es));
  check_bool "reads served by surviving replica" true
    (Nsdb.Replicated.get db ~path:"plans/path-equalize/devices/*" <> []);
  Nsdb.Replicated.recover_replica db 0;
  check_bool "recovered replica has the plan" true
    (Nsdb.get (Nsdb.Replicated.replica db 0)
       ~path:"plans/path-equalize/devices/*"
     <> [])

let test_trace_timeline_reflects_drain () =
  (* The transient-analysis machinery itself: fib_timeline replays a drain
     into per-instant snapshots whose final state matches the live FIBs. *)
  let x, net, _controller = controller_fixture () in
  let prefix = Net.Prefix.default_v4 in
  let initial = Bgp.Network.fib_snapshot net prefix in
  Bgp.Trace.clear (Bgp.Network.trace net);
  (match x.Topology.Clos.fav1 with
   | fa :: _ -> Bgp.Network.drain_device net fa
   | [] -> Alcotest.fail "no FAs");
  ignore (Bgp.Network.converge net);
  let timeline = Bgp.Trace.fib_timeline (Bgp.Network.trace net) ~prefix ~initial in
  check_bool "drain produced transitions" true (List.length timeline >= 1);
  (match List.rev timeline with
   | (_, final) :: _ ->
     let live = Bgp.Network.fib_snapshot net prefix in
     let final_list =
       Hashtbl.fold (fun d s acc -> (d, s) :: acc) final [] |> List.sort compare
     in
     check_bool "final snapshot = live FIBs" true (final_list = live)
   | [] -> Alcotest.fail "empty timeline");
  (* Timestamps are non-decreasing. *)
  let times = List.map fst timeline in
  check_bool "monotone timestamps" true (List.sort Float.compare times = times)

let test_plan_loc_counts_distinct () =
  let x, _net, _controller = controller_fixture () in
  let plan = Apps.Expansion_equalizer.plan x in
  let loc = Controller.plan_loc plan in
  check_bool "positive" true (loc > 0);
  (* Many devices share the SSW-template and FSW-template RPAs; LOC counts
     distinct templates, so it is far below devices x per-device LOC. *)
  let naive =
    List.fold_left (fun acc (_, rpa) -> acc + Rpa.loc rpa) 0 plan.Controller.rpas
  in
  check_bool "dedup" true (loc < naive)

(* ---------------- RPA identity ---------------- *)

(* The rendered Figure 7 text omits the dissemination flag and rounds
   thresholds to whole percent and expiry times to milliseconds; each of
   these changes must still count as a change to deploy. *)

let guard ?(flag = true) threshold =
  let rpa =
    Apps.Min_next_hop_guard.rpa ~destination:Destination.backbone_default
      ~threshold ~keep_fib_warm:false
  in
  { rpa with Rpa.advertise_least_favorable = flag }

let weights ~expires_at =
  Rpa.make
    ~route_attribute:
      [
        Route_attribute.make
          [
            Route_attribute.statement ~expires_at Destination.backbone_default
              [ Route_attribute.next_hop_weight Signature.any ~weight:3 ];
          ];
      ]
    ()

let check_redeploy name before after =
  let x, _net, controller = controller_fixture () in
  let agent = Controller.agent controller in
  let device = List.nth x.Topology.Clos.xssws 0 in
  Switch_agent.set_intended agent ~device before;
  check_bool (name ^ ": first apply") true
    (Switch_agent.reconcile_device agent device = `Applied);
  check_bool (name ^ ": renders alike") true
    (Rpa.config_lines before = Rpa.config_lines after);
  check_bool (name ^ ": not equal") false (Rpa.equal before after);
  Switch_agent.set_intended agent ~device after;
  Alcotest.(check (list int)) (name ^ ": straggler") [ device ]
    (Switch_agent.stragglers agent);
  check_bool (name ^ ": applied") true
    (Switch_agent.reconcile_device agent device = `Applied);
  check_bool (name ^ ": current is the new RPA") true
    (Option.equal Rpa.equal (Some after)
       (Switch_agent.current_rpa agent ~device))

let test_reconcile_flag_only_change () =
  check_redeploy "flag" (guard (Path_selection.Fraction 0.75))
    (guard ~flag:false (Path_selection.Fraction 0.75))

let test_reconcile_fraction_change () =
  check_redeploy "fraction" (guard (Path_selection.Fraction 0.75))
    (guard (Path_selection.Fraction 0.751))

let test_reconcile_expiry_change () =
  check_redeploy "expiry" (weights ~expires_at:10.0)
    (weights ~expires_at:10.0004)

(* The default Figure 4 mesh: 16 SSWs, each with 4 FADU uplinks. *)
let test_deploy_flag_flipped_guard () =
  let d = Topology.Clos.decommission () in
  let net = Bgp.Network.create ~seed:5 d.Topology.Clos.dgraph in
  Bgp.Network.originate net d.Topology.Clos.north_origin Net.Prefix.default_v4
    (Net.Attr.make
       ~communities:
         (Net.Community.Set.singleton
            Net.Community.Well_known.backbone_default_route)
       ());
  ignore (Bgp.Network.converge net);
  let controller = Controller.create net in
  let plan ~flag =
    let p =
      Apps.Min_next_hop_guard.plan d.Topology.Clos.dgraph
        ~destination:Destination.backbone_default
        ~threshold:(Path_selection.Fraction 0.75) ~keep_fib_warm:false
        ~targets:(List.concat d.Topology.Clos.planes)
        ~origination_layer:Topology.Node.Eb
    in
    { p with
      Controller.rpas =
        List.map
          (fun (device, rpa) ->
            (device, { rpa with Rpa.advertise_least_favorable = flag }))
          p.Controller.rpas }
  in
  let deploy p =
    match Controller.deploy controller p with
    | Ok r -> (r.Controller.applied, r.Controller.skipped_in_sync)
    | Error es -> Alcotest.failf "deploy failed: %s" (String.concat "; " es)
  in
  let check_deploy name expected flag =
    Alcotest.(check (pair int int)) name expected (deploy (plan ~flag))
  in
  check_deploy "first deploy" (16, 0) true;
  check_deploy "flag flipped" (16, 0) false;
  check_deploy "same again" (0, 16) false

let test_sync_fraction_sees_flag_change () =
  let x, _net, controller = controller_fixture () in
  let agent = Controller.agent controller in
  let service = Switch_agent.service agent in
  let device = List.nth x.Topology.Clos.xssws 0 in
  Switch_agent.set_intended agent ~device (guard (Path_selection.Count 1));
  ignore (Switch_agent.reconcile_device agent device);
  check_bool "in sync" true (Service.sync_fraction service = 1.0);
  Switch_agent.set_intended agent ~device
    (guard ~flag:false (Path_selection.Count 1));
  check_bool "flag change pending" true (Service.sync_fraction service < 1.0);
  ignore (Switch_agent.reconcile_device agent device);
  check_bool "reconciled" true (Service.sync_fraction service = 1.0)

(* A device with no current entry runs no RPA, so intending none is
   already in sync: no straggler, and reconciling it is a no-op. *)
let test_cleared_never_applied_not_straggler () =
  let x, _net, controller = controller_fixture () in
  let agent = Controller.agent controller in
  let device = List.nth x.Topology.Clos.xssws 0 in
  Switch_agent.set_intended agent ~device Rpa.empty;
  Alcotest.(check (list int))
    "no stragglers" [] (Switch_agent.stragglers agent);
  check_bool "in sync" true
    (Switch_agent.reconcile_device agent device = `In_sync)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "signature",
        [
          quick "any" test_signature_any;
          quick "regex" test_signature_regex;
          quick "communities conjunctive" test_signature_communities_conjunctive;
          quick "origin and neighbor" test_signature_origin_neighbor;
          quick "bad regex" test_signature_bad_regex;
        ] );
      ( "destination",
        [
          quick "prefixes" test_destination_prefixes;
          quick "tagged" test_destination_tagged;
        ] );
      ( "rpa",
        [
          quick "config and loc" test_rpa_config_and_loc;
          quick "merge" test_rpa_merge;
          quick "merge dedupes" test_rpa_merge_dedupes;
        ] );
      ( "engine",
        [
          quick "equalizes lengths" test_engine_equalizes_lengths;
          quick "untagged native" test_engine_untagged_falls_back_native;
          quick "pathset priority" test_engine_pathset_priority;
          quick "min next hop count" test_engine_min_next_hop_count;
          quick "native mnh violation" test_engine_native_min_next_hop_violation;
          quick "keep fib warm" test_engine_keep_fib_warm;
          quick "native mnh satisfied" test_engine_native_min_next_hop_satisfied;
          quick "ablation advertises best" test_engine_ablation_advertises_best;
          quick "orthogonal rpas coexist" test_engine_orthogonal_rpas_coexist;
          quick "no candidates" test_engine_no_candidates;
          quick "default weight" test_engine_default_weight_for_unmatched;
          quick "split direction filters" test_engine_separate_ingress_egress_filters;
          quick "weights" test_engine_weights;
          quick "weights expiration" test_engine_weights_expiration;
          quick "cache stats" test_engine_cache_stats;
          quick "cache disabled" test_engine_cache_disabled;
          quick "cache equal-length paths" test_engine_cache_equal_length_paths;
          quick "cache across collections" test_engine_cache_across_collections;
          quick "route filter" test_engine_route_filter;
        ] );
      ( "rpa-parser",
        [
          quick "roundtrip apps" test_parser_roundtrip_apps;
          quick "roundtrip merged" test_parser_roundtrip_merged;
          quick "roundtrip planner" test_parser_roundtrip_planner_representatives;
          quick "errors" test_parser_errors;
          quick "whitespace insensitive" test_parser_whitespace_insensitive;
          quick "empty input" test_parser_empty_input;
          quick "error positions" test_parser_error_positions;
          quick "located statements" test_parser_located_statements;
        ] );
      ( "nsdb",
        [
          quick "set get" test_nsdb_set_get;
          quick "overwrite" test_nsdb_overwrite;
          quick "subtree delete" test_nsdb_subtree_and_delete;
          quick "subscribe" test_nsdb_subscribe;
          quick "unsubscribe" test_nsdb_unsubscribe;
          quick "invalid paths" test_nsdb_invalid_paths;
          quick "deep wildcard" test_nsdb_deep_wildcard;
          quick "snapshot restore" test_nsdb_snapshot_restore;
          quick "replication" test_nsdb_replication;
          quick "dead replica lags by the writes it missed"
            test_nsdb_dead_replica_lag;
        ] );
      ( "route-filter",
        [
          quick "semantics" test_route_filter_semantics;
          quick "device scoped" test_route_filter_device_scoped;
        ] );
      ( "service",
        [
          quick "sync tracking" test_service_sync_tracking;
          quick "accounting" test_service_accounting;
        ] );
      ("deployment", [ quick "phases bottom up" test_deployment_phases_bottom_up ]);
      ( "controller",
        [
          quick "agent reconcile" test_agent_reconcile_and_stragglers;
          quick "agent unreachable" test_agent_unreachable_devices;
          quick "debug explain route" test_debug_explain_route;
          quick "debug explain withdrawn + pp" test_debug_explain_withdrawn_and_pp;
          quick "deploy and remove" test_controller_deploy_and_remove;
          quick "pre-check aborts" test_controller_pre_check_aborts;
          quick "invalid plan" test_controller_invalid_plan;
          quick "validate_plan messages and precedence"
            test_controller_validate_plan_messages;
          quick "enforce without engine aborts"
            test_enforce_without_engine_aborts;
          quick "health checks" test_health_checks;
          quick "nsdb replica failure" test_controller_survives_nsdb_replica_failure;
          quick "trace timeline" test_trace_timeline_reflects_drain;
          quick "plan loc" test_plan_loc_counts_distinct;
        ] );
      ( "rpa-identity",
        [
          quick "flag-only change applies" test_reconcile_flag_only_change;
          quick "fraction change applies" test_reconcile_fraction_change;
          quick "expiry change applies" test_reconcile_expiry_change;
          quick "flag-flipped guard redeploys" test_deploy_flag_flipped_guard;
          quick "sync fraction sees flag" test_sync_fraction_sees_flag_change;
          quick "cleared never applied"
            test_cleared_never_applied_not_straggler;
        ] );
    ]
