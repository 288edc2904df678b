(* Tests for lib/net: prefixes, ASNs, communities, AS-paths, path regex,
   attributes. *)

open Net

let check = Alcotest.check
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------------- Prefix ---------------- *)

let test_prefix_v4_roundtrip () =
  List.iter
    (fun s -> check_string s s (Prefix.to_string (Prefix.of_string_exn s)))
    [ "0.0.0.0/0"; "10.0.0.0/8"; "192.168.1.0/24"; "255.255.255.255/32";
      "172.16.0.0/12" ]

let test_prefix_v6_roundtrip () =
  List.iter
    (fun s -> check_string s s (Prefix.to_string (Prefix.of_string_exn s)))
    [ "::/0"; "2001:db8::/32"; "fe80::/10"; "2001:db8:0:1::/64" ]

let test_prefix_canonical_host_bits () =
  check_bool "host bits cleared" true
    (Prefix.equal (Prefix.v4 10 1 2 3 8) (Prefix.v4 10 0 0 0 8));
  check_string "prints cleared" "10.0.0.0/8"
    (Prefix.to_string (Prefix.v4 10 99 5 1 8))

let test_prefix_families_distinct () =
  check_bool "v4 default <> v6 default" false
    (Prefix.equal Prefix.default_v4 Prefix.default_v6);
  check_bool "no cross-family contains" false
    (Prefix.contains Prefix.default_v4 (Prefix.of_string_exn "2001:db8::/32"))

let test_prefix_contains () =
  let p8 = Prefix.of_string_exn "10.0.0.0/8" in
  let p24 = Prefix.of_string_exn "10.1.2.0/24" in
  let other = Prefix.of_string_exn "11.0.0.0/24" in
  check_bool "8 contains 24" true (Prefix.contains p8 p24);
  check_bool "24 not contains 8" false (Prefix.contains p24 p8);
  check_bool "not contains other" false (Prefix.contains p8 other);
  check_bool "contains self" true (Prefix.contains p8 p8);
  check_bool "default contains all v4" true
    (Prefix.contains Prefix.default_v4 other)

let test_prefix_subdivide () =
  let p = Prefix.of_string_exn "10.0.0.0/8" in
  let left, right = Prefix.subdivide p in
  check_string "left" "10.0.0.0/9" (Prefix.to_string left);
  check_string "right" "10.128.0.0/9" (Prefix.to_string right);
  check_bool "parent contains left" true (Prefix.contains p left);
  check_bool "parent contains right" true (Prefix.contains p right);
  let v6 = Prefix.of_string_exn "2001:db8::/32" in
  let l6, r6 = Prefix.subdivide v6 in
  check_bool "v6 children differ" false (Prefix.equal l6 r6);
  check_bool "v6 parent contains children" true
    (Prefix.contains v6 l6 && Prefix.contains v6 r6)

let test_prefix_subdivide_deep_v6 () =
  (* Crossing the 64-bit word boundary. *)
  let p = Prefix.of_string_exn "2001:db8::/64" in
  let left, right = Prefix.subdivide p in
  check_bool "distinct" false (Prefix.equal left right);
  check_int "len" 65 (Prefix.mask_length left);
  check_bool "contained" true (Prefix.contains p right)

let test_prefix_errors () =
  check_bool "bad octet" true (Result.is_error (Prefix.of_string "256.0.0.0/8"));
  check_bool "bad len" true (Result.is_error (Prefix.of_string "10.0.0.0/33"));
  check_bool "no len" true (Result.is_error (Prefix.of_string "10.0.0.0"));
  check_bool "bad v6 len" true (Result.is_error (Prefix.of_string "::/129"));
  check_bool "garbage" true (Result.is_error (Prefix.of_string "foo/8"))

let test_prefix_compare_total_order () =
  let ps =
    List.map Prefix.of_string_exn
      [ "0.0.0.0/0"; "10.0.0.0/8"; "10.0.0.0/16"; "192.168.0.0/16"; "::/0";
        "2001:db8::/32" ]
  in
  let sorted = List.sort Prefix.compare ps in
  check_int "sort stable size" (List.length ps) (List.length sorted);
  (* v4 sorts before v6 *)
  (match (List.nth sorted 0, List.nth sorted (List.length sorted - 1)) with
   | first, last ->
     check_bool "v4 first" true (Prefix.family first = Prefix.V4);
     check_bool "v6 last" true (Prefix.family last = Prefix.V6))

let prefix_qcheck =
  let gen =
    QCheck.Gen.(
      map3
        (fun a b (c, len) -> Prefix.v4 a b c 0 (len mod 25))
        (int_bound 255) (int_bound 255)
        (pair (int_bound 255) (int_bound 255)))
  in
  let arb = QCheck.make ~print:Prefix.to_string gen in
  [
    QCheck.Test.make ~name:"v4 parse/print roundtrip" ~count:500 arb (fun p ->
        Prefix.equal p (Prefix.of_string_exn (Prefix.to_string p)));
    QCheck.Test.make ~name:"subdivide children partition parent" ~count:500 arb
      (fun p ->
        QCheck.assume (Prefix.mask_length p < 32);
        let l, r = Prefix.subdivide p in
        Prefix.contains p l && Prefix.contains p r
        && (not (Prefix.contains l r))
        && not (Prefix.contains r l));
  ]

(* ---------------- Community ---------------- *)

let test_community_roundtrip () =
  let c = Community.make 65100 42 in
  check_string "to_string" "65100:42" (Community.to_string c);
  check_bool "parse" true
    (Community.equal c (Community.of_string_exn "65100:42"));
  check_int "high" 65100 (Community.high c);
  check_int "low" 42 (Community.low c)

let test_community_errors () =
  check_bool "range" true (Result.is_error (Community.of_string "70000:1"));
  check_bool "format" true (Result.is_error (Community.of_string "1:2:3"));
  check_bool "make range" true
    (try
       ignore (Community.make (-1) 0);
       false
     with Invalid_argument _ -> true)

let test_well_known_distinct () =
  let all =
    Community.Well_known.
      [ backbone_default_route; anycast_load_bearing; rack_origin;
        infrastructure; drained ]
  in
  check_int "distinct" (List.length all)
    (List.length (List.sort_uniq Community.compare all))

(* ---------------- As_path ---------------- *)

let asn = Asn.of_int

let test_as_path_basics () =
  let p = As_path.of_asns [ asn 1; asn 2; asn 3 ] in
  check_int "length" 3 (As_path.length p);
  check_bool "mem" true (As_path.mem (asn 2) p);
  check_bool "not mem" false (As_path.mem (asn 9) p);
  check Alcotest.(option int) "origin"
    (Some 3)
    (Option.map Asn.to_int (As_path.origin_asn p));
  check Alcotest.(option int) "first"
    (Some 1)
    (Option.map Asn.to_int (As_path.first_asn p))

let test_as_path_prepend () =
  let p = As_path.of_asns [ asn 2 ] in
  let p = As_path.prepend (asn 1) p in
  check_int "len" 2 (As_path.length p);
  check Alcotest.(option int) "first"
    (Some 1)
    (Option.map Asn.to_int (As_path.first_asn p));
  let padded = As_path.prepend_n 3 (asn 7) p in
  check_int "padded len" 5 (As_path.length padded);
  check_string "padded" "7 7 7 1 2" (As_path.to_string padded)

let test_as_path_set_counts_one () =
  let p = As_path.of_segments [ As_path.Seq [ asn 1 ]; As_path.Set [ asn 2; asn 3 ] ] in
  check_int "set counts 1" 2 (As_path.length p);
  check_bool "mem in set" true (As_path.mem (asn 3) p)

(* Segments of both kinds, some empty (which [of_segments] drops), over a
   small ASN range so that hits and misses both come up. *)
let as_path_mem_qcheck =
  let open QCheck.Gen in
  let asns = list_size (int_bound 4) (int_range 1 8) in
  let segment =
    map2
      (fun set l ->
        let l = List.map asn l in
        if set then As_path.Set l else As_path.Seq l)
      bool asns
  in
  let case = pair (int_range 1 9) (list_size (int_bound 4) segment) in
  let print (a, segs) =
    Printf.sprintf "%d in [%s]" a (As_path.to_string (As_path.of_segments segs))
  in
  [
    QCheck.Test.make ~name:"mem = List.mem over asns" ~count:500
      (QCheck.make ~print case)
      (fun (a, segs) ->
        let p = As_path.of_segments segs in
        Bool.equal (As_path.mem (asn a) p) (List.mem (asn a) (As_path.asns p)));
  ]

let test_as_path_empty () =
  check_int "empty len" 0 (As_path.length As_path.empty);
  check Alcotest.(option int) "empty origin" None
    (Option.map Asn.to_int (As_path.origin_asn As_path.empty));
  check_bool "of_asns [] is empty" true
    (As_path.equal As_path.empty (As_path.of_asns []))

(* ---------------- Path_regex ---------------- *)

let matches re asns =
  Path_regex.matches_asns (Path_regex.compile_exn re) (List.map asn asns)

let test_regex_literal () =
  check_bool "literal hit" true (matches "2" [ 1; 2; 3 ]);
  check_bool "literal miss" false (matches "9" [ 1; 2; 3 ]);
  check_bool "sequence" true (matches "1 2" [ 1; 2; 3 ]);
  check_bool "sequence order" false (matches "2 1" [ 1; 2; 3 ])

let test_regex_anchors () =
  check_bool "^ hit" true (matches "^1" [ 1; 2; 3 ]);
  check_bool "^ miss" false (matches "^2" [ 1; 2; 3 ]);
  check_bool "$ hit" true (matches "3$" [ 1; 2; 3 ]);
  check_bool "$ miss" false (matches "2$" [ 1; 2; 3 ]);
  check_bool "^$ empty" true (matches "^$" []);
  check_bool "^$ nonempty" false (matches "^$" [ 1 ]);
  check_bool "^1 2 3$ exact" true (matches "^1 2 3$" [ 1; 2; 3 ]);
  check_bool "^1 2$ not exact" false (matches "^1 2$" [ 1; 2; 3 ])

let test_regex_metachars () =
  check_bool "dot" true (matches "^. 2" [ 1; 2 ]);
  check_bool "star zero" true (matches "^1 5* 2$" [ 1; 2 ]);
  check_bool "star many" true (matches "^1 5* 2$" [ 1; 5; 5; 5; 2 ]);
  check_bool "plus needs one" false (matches "^1 5+ 2$" [ 1; 2 ]);
  check_bool "plus ok" true (matches "^1 5+ 2$" [ 1; 5; 2 ]);
  check_bool "opt zero" true (matches "^1 5? 2$" [ 1; 2 ]);
  check_bool "opt one" true (matches "^1 5? 2$" [ 1; 5; 2 ]);
  check_bool "opt two" false (matches "^1 5? 2$" [ 1; 5; 5; 2 ])

let test_regex_alternation_class () =
  check_bool "alt left" true (matches "^(1|2) 9$" [ 1; 9 ]);
  check_bool "alt right" true (matches "^(1|2) 9$" [ 2; 9 ]);
  check_bool "alt miss" false (matches "^(1|2) 9$" [ 3; 9 ]);
  check_bool "class range" true (matches "^[100-200]$" [ 150 ]);
  check_bool "class range miss" false (matches "^[100-200]$" [ 201 ]);
  check_bool "class set" true (matches "^[1,5,9]$" [ 5 ]);
  check_bool "class mixed" true (matches "^[1-3,7]$" [ 7 ])

let test_regex_paper_example () =
  (* "as_path_regex=^12345 matches AS_Paths starting with ASN 12345
     regardless of their lengths" *)
  check_bool "short" true (matches "^12345" [ 12345 ]);
  check_bool "long" true (matches "^12345" [ 12345; 1; 2; 3; 4 ]);
  check_bool "not first" false (matches "^12345" [ 1; 12345 ])

let test_regex_dot_star () =
  check_bool "any path" true (matches ".*" [ 1; 2; 3 ]);
  check_bool "any empty" true (matches ".*" []);
  check_bool "ends with" true (matches ".* 65000$" [ 5; 65000 ]);
  check_bool "whole with infix" true (matches "^1 .* 4$" [ 1; 2; 3; 4 ])

let test_regex_errors () =
  List.iter
    (fun src ->
      check_bool src true (Result.is_error (Path_regex.compile src)))
    [ "("; "[1"; "[3-1]"; ")"; "1 ^ 2"; "abc" ]

let test_regex_underscore_separator () =
  check_bool "underscores" true (matches "^1_2_3$" [ 1; 2; 3 ])

let test_regex_bounded_repetition () =
  check_bool "{2} exact" true (matches "^7{2}$" [ 7; 7 ]);
  check_bool "{2} too few" false (matches "^7{2}$" [ 7 ]);
  check_bool "{2} too many" false (matches "^7{2}$" [ 7; 7; 7 ]);
  check_bool "{1,3} low" true (matches "^7{1,3}$" [ 7 ]);
  check_bool "{1,3} high" true (matches "^7{1,3}$" [ 7; 7; 7 ]);
  check_bool "{1,3} above" false (matches "^7{1,3}$" [ 7; 7; 7; 7 ]);
  check_bool "{2,} open" true (matches "^7{2,}$" [ 7; 7; 7; 7; 7 ]);
  check_bool "{2,} below" false (matches "^7{2,}$" [ 7 ]);
  (* Detecting AS-path padding: three or more consecutive repeats. *)
  check_bool "padding detector" true (matches "9{3,}" [ 1; 9; 9; 9; 2 ]);
  check_bool "no padding" false (matches "9{3,}" [ 1; 9; 9; 2 ]);
  check_bool "descending bound rejected" true
    (Result.is_error (Path_regex.compile "7{3,1}"))

let test_regex_bound_cap () =
  (* Structural expansion of {m,n} is capped: enormous bounds would
     otherwise allocate an NFA state per repetition. *)
  check_bool "huge {m} rejected" true
    (Result.is_error (Path_regex.compile ".{1000000}"));
  check_bool "huge {m,n} rejected" true
    (Result.is_error (Path_regex.compile "7{1,999999}"));
  check_bool "huge {m,} rejected" true
    (Result.is_error (Path_regex.compile "7{1000000,}"));
  check_bool "cap itself accepted" true
    (Result.is_ok (Path_regex.compile "7{1024}"));
  check_bool "just above cap rejected" true
    (Result.is_error (Path_regex.compile "7{1025}"))

let test_regex_spaced_quantifier () =
  (* Separators before a quantifier are insignificant: "123 *" = "123*". *)
  check_bool "spaced star" true (matches "^1 5 * 2$" [ 1; 5; 5; 2 ]);
  check_bool "spaced star zero" true (matches "^1 5 * 2$" [ 1; 2 ]);
  check_bool "spaced plus" true (matches "^7 +$" [ 7; 7 ]);
  check_bool "spaced opt" true (matches "^1 5 ? 2$" [ 1; 2 ]);
  check_bool "spaced braces" true (matches "^7 {2}$" [ 7; 7 ]);
  check_bool "underscore before star" true (matches "^1_5_*_2$" [ 1; 5; 2 ])

let test_regex_negated_class () =
  check_bool "outside" true (matches "^[^100-200]$" [ 99 ]);
  check_bool "inside" false (matches "^[^100-200]$" [ 150 ]);
  check_bool "set negation" true (matches "^[^1,2,3]$" [ 4 ]);
  check_bool "set negation miss" false (matches "^[^1,2,3]$" [ 2 ]);
  (* Paths avoiding a backbone ASN entirely. *)
  check_bool "avoids asn" true (matches "^[^65000]{3}$" [ 1; 2; 3 ]);
  check_bool "contains asn" false (matches "^[^65000]{3}$" [ 1; 65000; 3 ])

let test_regex_at_repetition_cap () =
  (* {1024} is accepted at compile time; make sure the expanded automaton
     actually runs and counts correctly at the cap. *)
  let sevens n = List.init n (fun _ -> 7) in
  check_bool "exactly 1024" true (matches "^7{1024}$" (sevens 1024));
  check_bool "one short" false (matches "^7{1024}$" (sevens 1023));
  check_bool "one over" false (matches "^7{1024}$" (sevens 1025));
  check_bool "open at cap" true (matches "^7{1024,}$" (sevens 2000))

let test_regex_unanchored_subpath () =
  (* Without anchors the pattern matches any contiguous sub-path. *)
  check_bool "infix" true (matches "2 3" [ 1; 2; 3; 4 ]);
  check_bool "prefix" true (matches "1 2" [ 1; 2; 3; 4 ]);
  check_bool "suffix" true (matches "3 4" [ 1; 2; 3; 4 ]);
  check_bool "not contiguous" false (matches "2 4" [ 1; 2; 3; 4 ]);
  check_bool "wrong order" false (matches "3 2" [ 1; 2; 3; 4 ]);
  check_bool "class infix" true (matches "[2-3] 4" [ 1; 3; 4 ]);
  check_bool "negated infix" true (matches "[^9] 4" [ 9; 3; 4 ]);
  check_bool "negated infix miss" false (matches "[^3] 4" [ 1; 3; 4 ]);
  check_bool "left-anchored prefix only" true (matches "^1 2" [ 1; 2; 9 ]);
  check_bool "right-anchored suffix only" true (matches "3 4$" [ 9; 3; 4 ])

let test_regex_separator_tolerant_repetition () =
  (* '_' and spaces are interchangeable separators, including around
     quantifiers and bounded repetitions. *)
  check_bool "underscore braces" true (matches "^7_{2}$" [ 7; 7 ]);
  check_bool "underscore plus" true (matches "^1_5_+_2$" [ 1; 5; 5; 2 ]);
  check_bool "underscore opt" true (matches "^1_5_?_2$" [ 1; 2 ]);
  check_bool "mixed separators" true (matches "^1 _ 2_ 3$" [ 1; 2; 3 ]);
  check_bool "bounded with spaces" true (matches "^7 {2,3} 8$" [ 7; 7; 7; 8 ])

let regex_qcheck =
  let path_gen = QCheck.Gen.(list_size (int_bound 6) (int_range 1 50)) in
  let arb = QCheck.make ~print:(fun l -> String.concat " " (List.map string_of_int l)) path_gen in
  [
    QCheck.Test.make ~name:"exact anchored self-match" ~count:300 arb (fun p ->
        QCheck.assume (p <> []);
        let src = "^" ^ String.concat " " (List.map string_of_int p) ^ "$" in
        matches src p);
    QCheck.Test.make ~name:"dot-star matches everything" ~count:300 arb
      (fun p -> matches ".*" p);
    QCheck.Test.make ~name:"first-asn anchor" ~count:300 arb (fun p ->
        QCheck.assume (p <> []);
        match p with
        | first :: _ -> matches (Printf.sprintf "^%d" first) p
        | [] -> true);
  ]

(* ---------------- Attr ---------------- *)

let test_attr_defaults () =
  let a = Attr.make () in
  check_int "local pref" 100 a.Attr.local_pref;
  check_int "med" 0 a.Attr.med;
  check_bool "no lbw" true (a.Attr.link_bandwidth = None)

let test_attr_prepend_and_communities () =
  let a = Attr.make ~as_path:(As_path.of_asns [ asn 2 ]) () in
  let a = Attr.with_prepended (asn 1) a in
  check_int "len" 2 (As_path.length a.Attr.as_path);
  let c = Community.make 65100 7 in
  let a = Attr.add_community c a in
  check_bool "has community" true (Attr.has_community c a);
  check_bool "not other" false (Attr.has_community (Community.make 65100 8) a)

let test_attr_origin_rank () =
  check_bool "igp < egp" true (Attr.origin_rank Attr.Igp < Attr.origin_rank Attr.Egp);
  check_bool "egp < incomplete" true
    (Attr.origin_rank Attr.Egp < Attr.origin_rank Attr.Incomplete)

let test_attr_equal () =
  let a = Attr.make ~local_pref:200 () in
  let b = Attr.make ~local_pref:200 () in
  check_bool "equal" true (Attr.equal a b);
  check_bool "not equal" false (Attr.equal a (Attr.make ~local_pref:100 ()))

(* Interning must stay invisible: random attributes run through setter
   chains that mix interned and fresh values, and every value is checked
   on the way. *)
type attr_step =
  | Set_lp of int
  | Set_med of int
  | Add_comm of int
  | Remove_comm of int
  | Set_bw of int option
  | Prepend of int
  | Set_path of int list
  | Intern
  | Collect

let show_attr_step = function
  | Set_lp v -> Printf.sprintf "lp %d" v
  | Set_med v -> Printf.sprintf "med %d" v
  | Add_comm c -> Printf.sprintf "+comm %d" c
  | Remove_comm c -> Printf.sprintf "-comm %d" c
  | Set_bw None -> "bw none"
  | Set_bw (Some b) -> Printf.sprintf "bw %d" b
  | Prepend a -> Printf.sprintf "prepend %d" a
  | Set_path l -> "path " ^ String.concat " " (List.map string_of_int l)
  | Intern -> "intern"
  | Collect -> "collect"

let comm c = Community.make 65100 c
let path_of l = As_path.of_asns (List.map asn l)

let apply_attr_step a = function
  | Set_lp v -> Attr.set_local_pref v a
  | Set_med v -> Attr.set_med v a
  | Add_comm c -> Attr.add_community (comm c) a
  | Remove_comm c -> Attr.remove_community (comm c) a
  | Set_bw b -> Attr.set_link_bandwidth b a
  | Prepend n -> Attr.with_prepended (asn n) a
  | Set_path l -> Attr.set_as_path (path_of l) a
  | Intern -> Attr.intern a
  | Collect ->
    Gc.full_major ();
    a

(* A fresh, not interned value with [a]'s contents. *)
let fresh_copy (a : Attr.t) =
  Attr.make ~origin:a.Attr.origin ~as_path:a.Attr.as_path
    ~local_pref:a.Attr.local_pref ~med:a.Attr.med
    ~communities:a.Attr.communities ?link_bandwidth:a.Attr.link_bandwidth ()

(* A value with an id is the canonical value of its contents, so it never
   carries the id of other contents. *)
let id_is_own (a : Attr.t) = Attr.id a < 0 || Attr.intern (fresh_copy a) == a

let run_attr_chain base steps =
  List.fold_left
    (fun (a, ok) step ->
      let b = apply_attr_step a step in
      let keeps_id = Attr.id b >= 0 && Attr.id b = Attr.id a in
      (b, ok && id_is_own b && ((not keeps_id) || Attr.compare a b = 0)))
    (base, id_is_own base) steps

let attr_intern_qcheck =
  let open QCheck.Gen in
  let small = int_bound 2 in
  let step =
    oneof
      [
        map (fun v -> Set_lp (100 + v)) small;
        map (fun v -> Set_med v) small;
        map (fun c -> Add_comm c) small;
        map (fun c -> Remove_comm c) small;
        map (fun b -> Set_bw b) (opt small);
        map (fun n -> Prepend (n + 1)) small;
        map (fun l -> Set_path l) (list_size (int_bound 2) (int_range 1 3));
        return Intern;
        return Collect;
      ]
  in
  let base =
    map4
      (fun lp med comms path ->
        Attr.make ~local_pref:(100 + lp) ~med
          ~communities:(Community.Set.of_list (List.map comm comms))
          ~as_path:(path_of path) ())
      small small
      (list_size (int_bound 2) small)
      (list_size (int_bound 2) (int_range 1 3))
  in
  let chain = list_size (int_bound 6) step in
  let case = tup5 base chain bool base chain in
  let print (a, c1, shared, b, c2) =
    Format.asprintf "a = %a; %s; b = %s; %s" Attr.pp a
      (String.concat ", " (List.map show_attr_step c1))
      (if shared then "a's result" else Format.asprintf "%a" Attr.pp b)
      (String.concat ", " (List.map show_attr_step c2))
  in
  [
    QCheck.Test.make ~name:"interning is invisible" ~count:1000
      (QCheck.make ~print case)
      (fun (base_a, chain_a, shared, base_b, chain_b) ->
        let a, ok_a = run_attr_chain base_a chain_a in
        let b, ok_b = run_attr_chain (if shared then a else base_b) chain_b in
        let ia = Attr.intern a and ib = Attr.intern b in
        ok_a && ok_b
        && Bool.equal (Attr.equal a b) (Attr.compare a b = 0)
        && Attr.id ia >= 0
        && Attr.compare ia a = 0
        && Attr.intern ia == ia
        && Bool.equal (Attr.equal a b) (ia == ib)
        && ((not (Attr.equal a b)) || Attr.hash a = Attr.hash b)
        && ((not (Attr.equal a b && Attr.id a >= 0 && Attr.id b >= 0)) || a == b));
  ]

(* The intern set holds its values weakly: an interned attribute that only
   a weak pointer holds is collected, and an equal value interned later
   gets a new id. The AS path is this test's own, so no other live value
   keeps the contents interned. *)
let test_attr_intern_frees () =
  let held = Weak.create 1 in
  let contents () =
    Attr.make ~as_path:(path_of [ 4_200_000_001; 4_200_000_002 ]) ()
  in
  let[@inline never] intern_and_drop () =
    let a = Attr.intern (contents ()) in
    Weak.set held 0 (Some a);
    Attr.id a
  in
  let id = intern_and_drop () in
  check_bool "held before a collection" true (Weak.check held 0);
  Gc.full_major ();
  check_bool "collected once only a weak pointer holds it" false
    (Weak.check held 0);
  check_bool "a later equal value gets a new id" true
    (Attr.id (Attr.intern (contents ())) > id)

(* A Section 6.2 FSW's 36 upstream paths have equal length and differ only
   in the SSW ASN. A hash that stops before the ASNs files all of them
   under one hash, so every intern walks them all (DESIGN 4.1). *)
let test_attr_hash_spreads_upstream_paths () =
  let tagged =
    Community.Set.singleton Community.Well_known.backbone_default_route
  in
  let hashes =
    List.init 36 (fun i ->
        Attr.hash
          (Attr.make ~as_path:(path_of [ 64513 + i; 64700; 64600 ])
             ~communities:tagged ()))
  in
  check_int "36 distinct hashes" 36
    (List.length (List.sort_uniq Int.compare hashes))

(* ---------------- Suite ---------------- *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "net"
    [
      ( "prefix",
        [
          quick "v4 roundtrip" test_prefix_v4_roundtrip;
          quick "v6 roundtrip" test_prefix_v6_roundtrip;
          quick "canonical host bits" test_prefix_canonical_host_bits;
          quick "families distinct" test_prefix_families_distinct;
          quick "contains" test_prefix_contains;
          quick "subdivide" test_prefix_subdivide;
          quick "subdivide deep v6" test_prefix_subdivide_deep_v6;
          quick "errors" test_prefix_errors;
          quick "compare order" test_prefix_compare_total_order;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) prefix_qcheck );
      ( "community",
        [
          quick "roundtrip" test_community_roundtrip;
          quick "errors" test_community_errors;
          quick "well-known distinct" test_well_known_distinct;
        ] );
      ( "as_path",
        [
          quick "basics" test_as_path_basics;
          quick "prepend" test_as_path_prepend;
          quick "set counts one" test_as_path_set_counts_one;
          quick "empty" test_as_path_empty;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) as_path_mem_qcheck );
      ( "path_regex",
        [
          quick "literal" test_regex_literal;
          quick "anchors" test_regex_anchors;
          quick "metachars" test_regex_metachars;
          quick "alternation and class" test_regex_alternation_class;
          quick "paper example" test_regex_paper_example;
          quick "dot star" test_regex_dot_star;
          quick "errors" test_regex_errors;
          quick "underscore separator" test_regex_underscore_separator;
          quick "bounded repetition" test_regex_bounded_repetition;
          quick "bound cap" test_regex_bound_cap;
          quick "spaced quantifier" test_regex_spaced_quantifier;
          quick "negated class" test_regex_negated_class;
          quick "at repetition cap" test_regex_at_repetition_cap;
          quick "unanchored sub-path" test_regex_unanchored_subpath;
          quick "separator-tolerant repetition"
            test_regex_separator_tolerant_repetition;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) regex_qcheck );
      ( "attr",
        [
          quick "defaults" test_attr_defaults;
          quick "prepend and communities" test_attr_prepend_and_communities;
          quick "origin rank" test_attr_origin_rank;
          quick "equal" test_attr_equal;
          quick "interning frees" test_attr_intern_frees;
          quick "hash spreads upstream paths" test_attr_hash_spreads_upstream_paths;
        ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) attr_intern_qcheck );
    ]
