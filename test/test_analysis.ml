(* Tests for the static RPA analyzer (lib/analysis): the seeded defect
   corpus, the language algebra and prefix trie underneath it, diagnostic
   determinism, and the lint wiring into the controller and the
   verification suite. *)

open Centralium
module D = Analysis.Diagnostic
module Lint = Analysis.Lint
module Corpus = Analysis.Corpus
module Ra = Analysis.Regex_algebra
module Trie = Analysis.Prefix_trie

let quick name f = Alcotest.test_case name `Quick f
let check_bool msg = Alcotest.(check bool) msg
let check_int msg = Alcotest.(check int) msg

let string_starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---------------- seeded defect corpus ---------------- *)

let test_corpus_all_detected () =
  let results = Corpus.run () in
  check_int "corpus size" (List.length Corpus.cases) (List.length results);
  List.iter
    (fun r ->
      check_bool
        (Printf.sprintf "%s detects %s" r.Corpus.r_case
           (D.code_to_string r.Corpus.r_expect))
        true r.Corpus.r_detected)
    results;
  check_bool "all_detected agrees" true (Corpus.all_detected results)

let test_corpus_expected_severity () =
  (* Every corpus defect that makes a plan wrong on any network must come
     back at error severity, so the [`Enforce] gate actually stops it. *)
  let errors =
    [
      "empty-signature-regex-vs-neighbor";
      "empty-signature-community-contradiction";
      "empty-signature-no-neighbors";
      "signature-overlap-same-destination";
      "filter-blackhole-steered-prefix";
      "unsafe-phase-order";
      "unsafe-removal-order";
      "duplicate-target";
      "plan-coverage-mismatch";
      "community-collision";
    ]
  in
  List.iter
    (fun r ->
      if List.mem r.Corpus.r_case errors then
        check_bool (r.Corpus.r_case ^ " is an error") true
          (List.exists
             (fun d ->
               d.D.code = r.Corpus.r_expect && d.D.severity = D.Error)
             r.Corpus.r_findings))
    (Corpus.run ())

(* ---------------- regex algebra ---------------- *)

let rx = Net.Path_regex.compile_exn
let m s = Ra.of_regex (rx s)

let test_algebra_emptiness () =
  check_bool "empty list is universal" true (Ra.intersection_nonempty []);
  check_bool "universal alone" true (Ra.intersection_nonempty [ Ra.universal ]);
  check_bool "never alone" false (Ra.intersection_nonempty [ Ra.never ]);
  check_bool "never poisons" false
    (Ra.intersection_nonempty [ Ra.universal; Ra.never ]);
  check_bool "starts_with_any [] is never" false
    (Ra.intersection_nonempty [ Ra.starts_with_any [] ])

let test_algebra_conjuncts () =
  (* neighbor constraint vs regex first-hop anchor *)
  check_bool "agreeing first hop" true
    (Ra.intersection_nonempty [ m "^100"; Ra.starts_with_any [ 100; 300 ] ]);
  check_bool "contradicting first hop" false
    (Ra.intersection_nonempty [ m "^100"; Ra.starts_with_any [ 200 ] ]);
  (* origin constraint vs regex last-hop anchor *)
  check_bool "agreeing origin" true
    (Ra.intersection_nonempty [ m "100 200$"; Ra.ends_with 200 ]);
  check_bool "contradicting origin" false
    (Ra.intersection_nonempty [ m "100 200$"; Ra.ends_with 300 ]);
  (* range overlap *)
  check_bool "ranges overlap" true
    (Ra.intersection_nonempty [ m "^[100-200]"; m "^[150-300]" ]);
  check_bool "ranges disjoint" false
    (Ra.intersection_nonempty [ m "^[100-200]"; m "^[300-400]" ])

let test_algebra_subsumption () =
  check_bool "universal subsumes" true (Ra.subsumes [] [ m "^100 200" ]);
  check_bool "prefix subsumes refinement" true
    (Ra.subsumes [ m "^100" ] [ m "^100 200" ]);
  check_bool "refinement does not subsume prefix" false
    (Ra.subsumes [ m "^100 200" ] [ m "^100" ]);
  check_bool "range subsumes point" true
    (Ra.subsumes [ m "^[100-200]" ] [ m "^150" ]);
  check_bool "point does not subsume range" false
    (Ra.subsumes [ m "^150" ] [ m "^[100-200]" ]);
  check_bool "everything subsumes never" true
    (Ra.subsumes [ m "^100" ] [ Ra.never ])

(* ---------------- prefix trie ---------------- *)

let p4 = Net.Prefix.v4

let test_trie_containment () =
  let t = Trie.create () in
  Trie.add t (p4 10 0 0 0 8) "a";
  Trie.add t (p4 10 1 0 0 16) "b";
  Trie.add t (p4 192 168 0 0 16) "c";
  let values l = List.map snd l in
  Alcotest.(check (list string))
    "covering walks root to leaf" [ "a"; "b" ]
    (values (Trie.covering t (p4 10 1 2 0 24)));
  Alcotest.(check (list string))
    "covered_by collects the subtree" [ "a"; "b" ]
    (values (Trie.covered_by t (p4 10 0 0 0 8)));
  Alcotest.(check (list string))
    "overlapping is both directions, query once" [ "a"; "b" ]
    (values (Trie.overlapping t (p4 10 1 0 0 16)));
  Alcotest.(check (list string))
    "disjoint query finds nothing" []
    (values (Trie.overlapping t (p4 172 16 0 0 12)));
  (* duplicates accumulate *)
  Trie.add t (p4 10 1 0 0 16) "b2";
  check_int "both values kept" 2
    (List.length (Trie.covered_by t (p4 10 1 0 0 16)))

let test_trie_families_separate () =
  let t = Trie.create () in
  Trie.add t Net.Prefix.default_v4 "v4";
  Trie.add t Net.Prefix.default_v6 "v6";
  Trie.add t (Net.Prefix.v6 ~hi:0x20010DB800000000L ~lo:0L 32) "doc";
  Alcotest.(check (list string))
    "v4 query sees only v4" [ "v4" ]
    (List.map snd (Trie.covering t (p4 10 0 0 0 8)));
  Alcotest.(check (list string))
    "v6 query walks the v6 root" [ "v6"; "doc" ]
    (List.map snd
       (Trie.covering t (Net.Prefix.v6 ~hi:0x20010DB800010000L ~lo:0L 48)))

(* ---------------- diagnostics ---------------- *)

let unsafe_order_case () =
  match
    List.find_opt (fun c -> c.Corpus.case_name = "unsafe-phase-order") Corpus.cases
  with
  | Some c -> c
  | None -> Alcotest.fail "unsafe-phase-order case missing from corpus"

let test_json_deterministic () =
  let c = unsafe_order_case () in
  let render () = Obs.Json.to_string (D.report_json (c.Corpus.findings ())) in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical across runs" a b;
  (match Obs.Json.of_string a with
   | Error e -> Alcotest.failf "report is not valid JSON: %s" e
   | Ok j ->
     check_bool "errors counted" true
       (match Obs.Json.member "errors" j with
        | Some (Obs.Json.Int n) -> n >= 1
        | _ -> false))

let test_diagnostic_sort_and_dedup () =
  let d sev code msg = D.make sev code msg in
  let err = d D.Error D.Unsafe_phase_order "x" in
  let warn = d D.Warning D.Prefix_shadowed "y" in
  (match D.sort [ warn; err; warn ] with
   | [ a; b ] ->
     check_bool "errors sort first" true (a.D.severity = D.Error);
     check_bool "duplicates collapse" true (b.D.severity = D.Warning)
   | l -> Alcotest.failf "expected 2 diagnostics, got %d" (List.length l));
  check_bool "has_errors" true (D.has_errors [ warn; err ]);
  check_bool "no errors" false (D.has_errors [ warn ])

let test_positions_attached () =
  let src =
    "PathSelectionRpa demo {\n\
     Statement steer {\n\
     destination = tagged(65000:1)\n\
     PathSetList = [ PathSet impossible {\n\
     neighbor_asns = []\n\
     } ]\n\
     }\n\
     }"
  in
  match Rpa_parser.parse_located src with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok (rpa, index) ->
    let diags = Lint.check_rpa ~positions:index rpa in
    (match List.find_opt (fun d -> d.D.code = D.Empty_signature) diags with
     | None -> Alcotest.fail "expected an empty-signature finding"
     | Some d ->
       check_bool "line attached" true (d.D.line = Some 2);
       check_bool "human line mentions position" true
         (let h = D.to_human d in
          let needle = "line 2:" in
          let n = String.length h and m = String.length needle in
          let rec go i = i + m <= n && (String.sub h i m = needle || go (i + 1)) in
          go 0))

(* ---------------- suite cleanliness + wiring ---------------- *)

let test_standard_suite_clean () =
  List.iter
    (fun spec ->
      let net, plan, _checks = spec.Verification.build () in
      let diags = Lint.check_plan (Bgp.Network.graph net) plan in
      check_int (spec.Verification.spec_name ^ " has no findings") 0
        (List.length diags))
    (Verification.standard_suite ())

let reversed_equalizer_fixture () =
  let x = Topology.Clos.expansion () in
  let net = Bgp.Network.create ~seed:3 x.Topology.Clos.xgraph in
  Bgp.Network.originate net x.Topology.Clos.backbone Net.Prefix.default_v4
    (Net.Attr.make
       ~communities:
         (Net.Community.Set.singleton
            Net.Community.Well_known.backbone_default_route)
       ());
  ignore (Bgp.Network.converge net);
  let plan = Apps.Expansion_equalizer.plan x in
  (* Reversing the phases violates the Section 5.3.2 install rule but
     still passes the controller's structural validation — exactly the
     defect class only the analyzer catches. *)
  (net, { plan with Controller.phases = List.rev plan.Controller.phases })

let test_controller_enforce_gate () =
  let net, bad = reversed_equalizer_fixture () in
  let controller = Controller.create ~seed:11 net in
  check_bool "still validates" true
    (Controller.validate_plan controller bad = Ok ());
  (match Controller.deploy ~lint:`Enforce controller bad with
   | Ok _ -> Alcotest.fail "enforce gate let an unsafe plan through"
   | Error reasons ->
     check_bool "reason names the lint code" true
       (List.exists
          (string_starts_with ~prefix:"lint unsafe-phase-order:")
          reasons));
  (* `Off skips the analyzer entirely. *)
  match Controller.deploy ~lint:`Off controller bad with
  | Ok _ -> ()
  | Error reasons ->
    check_bool "no lint reasons with lint off" false
      (List.exists (string_starts_with ~prefix:"lint ") reasons)

let test_verification_lint_pass () =
  let spec =
    {
      Verification.spec_name = "seeded-unsafe-order";
      build =
        (fun () ->
          let net, bad = reversed_equalizer_fixture () in
          (net, bad, []));
    }
  in
  let o = Verification.qualify spec in
  check_bool "qualification fails" false (Verification.passed o);
  check_bool "nothing deployed" false o.Verification.deployed;
  check_bool "lint error surfaced" true
    (List.exists
       (string_starts_with ~prefix:"lint unsafe-phase-order:")
       o.Verification.errors)

(* bench/rollout's plan pair on the default fabric: path equalization on
   every non-EB device, and its removal, the same devices set to
   [Rpa.empty] and phased by the Section 5.3.2 removal rule. Lint judges
   each plan by the rule of its own direction. *)
let test_order_rule_follows_direction () =
  let f = Topology.Clos.fabric () in
  let g = f.Topology.Clos.graph in
  let targets =
    Topology.Clos.(f.rsws @ f.fsws @ f.ssws @ f.fadus @ f.fauus)
  in
  let install =
    Apps.Path_equalize.plan g ~destination:Destination.backbone_default
      ~origin_asn:(Topology.Graph.node g (List.hd f.Topology.Clos.ebs)).Topology.Node.asn
      ~targets ~origination_layer:Topology.Node.Eb
  in
  let removal =
    {
      install with
      Controller.rpas =
        List.map (fun (d, _) -> (d, Rpa.empty)) install.Controller.rpas;
      phases =
        Deployment.phases g ~targets ~origination_layer:Topology.Node.Eb
          Deployment.Remove;
    }
  in
  let flagged plan =
    List.exists
      (fun d -> d.D.code = D.Unsafe_phase_order)
      (Lint.check_plan g plan)
  in
  check_bool "install order is clean" false (flagged install);
  check_bool "removal order is clean" false (flagged removal);
  check_bool "removal phased in install order is flagged" true
    (flagged { removal with Controller.phases = install.Controller.phases });
  check_bool "Controller.removal is clean" false
    (flagged (Controller.removal install))

(* A device bound to two RPAs: the controller refuses the plan
   ("phases do not cover exactly the plan devices"), so lint reports it. *)
let test_repeated_binding_flagged () =
  let x = Topology.Clos.expansion () in
  let plan = Apps.Expansion_equalizer.plan x in
  let d, rpa = List.hd plan.Controller.rpas in
  let coverage plan =
    List.filter_map
      (fun diag ->
        if diag.D.code = D.Plan_coverage then Some (D.to_human diag) else None)
      (Lint.check_plan x.Topology.Clos.xgraph plan)
  in
  Alcotest.(check (list string)) "the plan itself is covered" [] (coverage plan);
  Alcotest.(check (list string))
    "its first binding repeated"
    [
      Printf.sprintf
        "error[plan-coverage] device %d: device %d has 2 generated RPAs \
         (merge them)"
        d d;
    ]
    (coverage
       { plan with Controller.rpas = (d, rpa) :: plan.Controller.rpas })

(* "^(1|2)*1" then k more hops over {1, 2}, ending at ASN 3, matches no
   path, and its subset construction needs about 2^k states. At k = 10
   lint proves it empty within the 4,096-state budget; at k = 11 the
   budget runs out, and lint reports the suppressed finding instead of
   one it cannot prove. *)
let test_lint_state_budget_edge () =
  let codes k =
    let regex =
      "^(1|2)*1" ^ String.concat "" (List.init k (fun _ -> "(1|2)")) ^ "$"
    in
    let rpa =
      Rpa.make
        ~path_selection:
          [
            Path_selection.make
              [
                Path_selection.statement ~name:"edge"
                  ~path_sets:
                    [
                      Path_selection.path_set ~name:"p"
                        (Signature.make ~as_path_regex:regex
                           ~origin_asn:(Net.Asn.of_int 3) ());
                    ]
                  (Destination.Tagged (Net.Community.make 65000 1));
              ];
          ]
        ()
    in
    List.map (fun d -> D.code_to_string d.D.code) (Lint.check_rpa rpa)
  in
  check_bool "k = 10 is proved empty" true
    (List.mem "empty-signature" (codes 10));
  let capped = codes 11 in
  check_bool "k = 11 hits the budget" true (List.mem "analysis-capped" capped);
  check_bool "and reports no empty signature" false
    (List.mem "empty-signature" capped)

let () =
  Alcotest.run "analysis"
    [
      ( "corpus",
        [
          quick "all defects detected" test_corpus_all_detected;
          quick "expected severities" test_corpus_expected_severity;
        ] );
      ( "regex-algebra",
        [
          quick "emptiness" test_algebra_emptiness;
          quick "conjuncts" test_algebra_conjuncts;
          quick "subsumption" test_algebra_subsumption;
          quick "state budget edge" test_lint_state_budget_edge;
        ] );
      ( "prefix-trie",
        [
          quick "containment" test_trie_containment;
          quick "families separate" test_trie_families_separate;
        ] );
      ( "diagnostics",
        [
          quick "json deterministic" test_json_deterministic;
          quick "sort and dedup" test_diagnostic_sort_and_dedup;
          quick "positions attached" test_positions_attached;
        ] );
      ( "wiring",
        [
          quick "standard suite clean" test_standard_suite_clean;
          quick "controller enforce gate" test_controller_enforce_gate;
          quick "verification lint pass" test_verification_lint_pass;
          quick "order rule follows the plan's direction"
            test_order_rule_follows_direction;
          quick "a device bound to two RPAs" test_repeated_binding_flagged;
        ] );
    ]
