(* Direct unit tests of Bgp.Speaker: the state machine in isolation, with
   hand-fed messages and asserted outboxes (no event queue). *)

open Net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p10 = Prefix.of_string_exn "10.0.0.0/8"
let env = { Bgp.Speaker.now = 0.0; peer_layer = (fun _ -> None) }

let node id = Topology.Node.make ~id ~name:(Printf.sprintf "r%d" id)
    ~layer:(Topology.Node.Other "R") ()

let speaker ?config ?hooks id peers =
  let sp = Bgp.Speaker.create ?config ?hooks (node id) in
  List.iter (fun peer -> Bgp.Speaker.add_peer sp ~peer ~sessions:1) peers;
  sp

let update ?(lp = 100) ?(asns = [ 99 ]) prefix =
  Bgp.Msg.Update
    {
      prefix;
      attr =
        Attr.make ~local_pref:lp
          ~as_path:(As_path.of_asns (List.map Asn.of_int asns))
          ();
    }

let msgs_to peer outbox = List.filter (fun (p, _, _) -> p = peer) outbox

let is_update = function
  | _, _, Bgp.Msg.Update _ -> true
  | _, _, (Bgp.Msg.Withdraw _ | Bgp.Msg.Keepalive | Bgp.Msg.Eor) -> false

(* ---------------- origination ---------------- *)

let test_originate_advertises_to_all_peers () =
  let sp = speaker 0 [ 1; 2; 3 ] in
  let out = Bgp.Speaker.originate sp env p10 (Attr.make ()) in
  check_int "three updates" 3 (List.length out);
  check_bool "all updates" true (List.for_all is_update out);
  (* The advertised path carries the originator's ASN. *)
  List.iter
    (fun (_, _, msg) ->
      match msg with
      | Bgp.Msg.Update { attr; _ } ->
        check_int "one hop" 1 (As_path.length attr.Attr.as_path);
        check_bool "own asn first" true
          (As_path.first_asn attr.Attr.as_path = Some (Bgp.Speaker.asn sp))
      | Bgp.Msg.Withdraw _ | Bgp.Msg.Keepalive | Bgp.Msg.Eor ->
        Alcotest.fail "unexpected non-update")
    out;
  match Bgp.Speaker.fib_lookup sp p10 with
  | Some Bgp.Speaker.Local -> ()
  | Some (Bgp.Speaker.Entries _) | None -> Alcotest.fail "origin not Local"

let test_withdraw_origin_sends_withdraws () =
  let sp = speaker 0 [ 1; 2 ] in
  ignore (Bgp.Speaker.originate sp env p10 (Attr.make ()));
  let out = Bgp.Speaker.withdraw_origin sp env p10 in
  check_int "two withdraws" 2 (List.length out);
  check_bool "all withdraws" true (List.for_all (fun m -> not (is_update m)) out);
  check_bool "fib empty" true (Bgp.Speaker.fib_lookup sp p10 = None)

(* ---------------- propagation, split horizon, dedup ---------------- *)

let test_receive_propagates_with_split_horizon () =
  let sp = speaker 5 [ 1; 2 ] in
  let out = Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10) in
  (* Advertised to peer 2 but never back to peer 1. *)
  check_int "to peer 2" 1 (List.length (msgs_to 2 out));
  check_int "not to peer 1" 0 (List.length (msgs_to 1 out))

let test_duplicate_update_is_silent () =
  let sp = speaker 5 [ 1; 2 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  let out = Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10) in
  check_int "no re-advertisement" 0 (List.length out)

let test_better_route_triggers_readvertisement () =
  let sp = speaker 5 [ 1; 2; 3 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update ~asns:[ 7; 8 ] p10));
  (* A shorter path from peer 2 becomes best: peers (except 2) learn it;
     peer 2 gets a withdraw of the previously advertised peer-1 path
     (split horizon forbids echoing its own path back). *)
  let out = Bgp.Speaker.receive sp env ~peer:2 ~session:0 (update ~asns:[ 9 ] p10) in
  check_bool "peer 3 told" true (List.exists is_update (msgs_to 3 out));
  check_bool "peer 2 never told its own path" true
    (List.for_all (fun m -> not (is_update m)) (msgs_to 2 out))

let test_own_asn_in_path_rejected () =
  let sp = speaker 5 [ 1 ] in
  let own = Asn.to_int (Bgp.Speaker.asn sp) in
  let out =
    Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update ~asns:[ 7; own; 8 ] p10)
  in
  check_int "nothing happens" 0 (List.length out);
  check_bool "not installed" true (Bgp.Speaker.fib_lookup sp p10 = None)

let test_withdraw_removes_and_propagates () =
  let sp = speaker 5 [ 1; 2 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  let out =
    Bgp.Speaker.receive sp env ~peer:1 ~session:0 (Bgp.Msg.Withdraw { prefix = p10 })
  in
  check_bool "fib cleared" true (Bgp.Speaker.fib_lookup sp p10 = None);
  check_int "withdraw forwarded to peer 2" 1 (List.length (msgs_to 2 out));
  check_bool "it is a withdraw" true
    (List.for_all (fun m -> not (is_update m)) (msgs_to 2 out))

let test_failover_between_peers () =
  let sp = speaker 5 [ 1; 2; 3 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update ~asns:[ 9 ] p10));
  ignore (Bgp.Speaker.receive sp env ~peer:2 ~session:0 (update ~asns:[ 8; 9 ] p10));
  (* Best (peer 1) withdrawn: falls over to peer 2's longer path and
     re-advertises it. *)
  let out =
    Bgp.Speaker.receive sp env ~peer:1 ~session:0 (Bgp.Msg.Withdraw { prefix = p10 })
  in
  (match Bgp.Speaker.fib_lookup sp p10 with
   | Some (Bgp.Speaker.Entries [ e ]) -> check_int "via peer 2" 2 e.Bgp.Speaker.next_hop
   | Some (Bgp.Speaker.Entries _) | Some Bgp.Speaker.Local | None ->
     Alcotest.fail "expected failover entry");
  check_bool "peer 3 re-advertised" true
    (List.exists is_update (msgs_to 3 out))

(* ---------------- session lifecycle ---------------- *)

let test_session_down_flushes_routes () =
  let sp = speaker 5 [ 1; 2 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  let out = Bgp.Speaker.set_session sp env ~peer:1 ~session:0 ~up:false in
  check_bool "fib cleared" true (Bgp.Speaker.fib_lookup sp p10 = None);
  check_bool "withdraw sent to peer 2" true
    (List.exists (fun m -> not (is_update m)) (msgs_to 2 out))

let test_session_up_resends_table () =
  let sp = speaker 5 [ 1; 2 ] in
  ignore (Bgp.Speaker.originate sp env p10 (Attr.make ()));
  ignore (Bgp.Speaker.set_session sp env ~peer:2 ~session:0 ~up:false);
  let out = Bgp.Speaker.set_session sp env ~peer:2 ~session:0 ~up:true in
  check_bool "table resent" true (List.exists is_update (msgs_to 2 out))

let test_peers_reports_live_sessions () =
  let sp = speaker 5 [ 1; 2 ] in
  check_int "two peers" 2 (List.length (Bgp.Speaker.peers sp));
  ignore (Bgp.Speaker.set_session sp env ~peer:1 ~session:0 ~up:false);
  check_int "one live peer" 1 (List.length (Bgp.Speaker.peers sp))

(* ---------------- session edge cases ---------------- *)

let test_flap_with_withdrawal_in_flight () =
  (* A session flaps while the far end had a withdrawal in flight: the late
     Withdraw arrives after the flush + resync and must be a no-op, not
     resurrect or double-remove state. *)
  let sp = speaker 5 [ 1; 2 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  ignore (Bgp.Speaker.set_session sp env ~peer:1 ~session:0 ~up:false);
  ignore (Bgp.Speaker.set_session sp env ~peer:1 ~session:0 ~up:true);
  check_bool "flushed by the flap" true (Bgp.Speaker.fib_lookup sp p10 = None);
  let out =
    Bgp.Speaker.receive sp env ~peer:1 ~session:0
      (Bgp.Msg.Withdraw { prefix = p10 })
  in
  check_int "late withdraw is silent" 0 (List.length out);
  check_bool "still no route" true (Bgp.Speaker.fib_lookup sp p10 = None);
  (* The same route re-announced over the new session works normally. *)
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  check_bool "relearned" true (Bgp.Speaker.fib_lookup sp p10 <> None)

let test_multi_session_single_drop () =
  (* Two sessions to the same peer; the route is known over both. Dropping
     one session must keep the route installed (learned over the survivor)
     and advertise nothing new — the FIB and Adj-RIB-Out are unchanged. *)
  let sp = Bgp.Speaker.create (node 5) in
  Bgp.Speaker.add_peer sp ~peer:1 ~sessions:2;
  Bgp.Speaker.add_peer sp ~peer:2 ~sessions:1;
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:1 (update p10));
  let before = Bgp.Speaker.advertised_to sp ~peer:2 in
  let out = Bgp.Speaker.set_session sp env ~peer:1 ~session:0 ~up:false in
  check_bool "route survives on session 1" true
    (Bgp.Speaker.fib_lookup sp p10 <> None);
  check_int "no churn toward peer 2" 0 (List.length (msgs_to 2 out));
  check_bool "adj-rib-out unchanged" true
    (before = Bgp.Speaker.advertised_to sp ~peer:2);
  (* Dropping the last session flushes for real. *)
  let out = Bgp.Speaker.set_session sp env ~peer:1 ~session:1 ~up:false in
  check_bool "flushed after last session" true
    (Bgp.Speaker.fib_lookup sp p10 = None);
  check_bool "withdraw to peer 2" true
    (List.exists (fun m -> not (is_update m)) (msgs_to 2 out))

let test_gr_stale_mark_and_refresh () =
  (* Graceful restart, receiver side: a stale-marked route keeps forwarding,
     an Update refresh clears the mark, End-of-RIB sweeps the rest. *)
  let sp = speaker 5 [ 1; 2 ] in
  Bgp.Speaker.set_graceful_restart sp true;
  let p11 = Prefix.of_string_exn "11.0.0.0/8" in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p11));
  let out =
    Bgp.Speaker.set_session ~stale:true sp env ~peer:1 ~session:0 ~up:false
  in
  check_bool "still forwarding p10" true (Bgp.Speaker.fib_lookup sp p10 <> None);
  check_bool "still forwarding p11" true (Bgp.Speaker.fib_lookup sp p11 <> None);
  check_bool "marked stale" true
    (Bgp.Speaker.is_stale sp p10 ~peer:1 ~session:0);
  check_bool "no withdraw cascade" true
    (List.for_all is_update (msgs_to 2 out));
  ignore (Bgp.Speaker.set_session sp env ~peer:1 ~session:0 ~up:true);
  (* The restarted peer re-announces only p10, then signals End-of-RIB. *)
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  check_bool "refresh clears the mark" true
    (not (Bgp.Speaker.is_stale sp p10 ~peer:1 ~session:0));
  let out = Bgp.Speaker.receive sp env ~peer:1 ~session:0 Bgp.Msg.Eor in
  check_bool "p10 survives the sweep" true
    (Bgp.Speaker.fib_lookup sp p10 <> None);
  check_bool "p11 swept" true (Bgp.Speaker.fib_lookup sp p11 = None);
  check_bool "p11 withdrawn downstream" true
    (List.exists (fun m -> not (is_update m)) (msgs_to 2 out));
  check_int "no marks left" 0 (List.length (Bgp.Speaker.stale_routes sp))

let test_restart_during_restart () =
  (* The speaker crashes again while still recovering from its first crash
     (GR on): preserved FIB entries must survive both resets, and the
     stale-path sweep after the second recovery must clear exactly the
     never-refreshed entries. *)
  let sp = speaker 5 [ 1; 2 ] in
  Bgp.Speaker.set_graceful_restart sp true;
  let p11 = Prefix.of_string_exn "11.0.0.0/8" in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p11));
  Bgp.Speaker.reset sp;
  check_int "both preserved" 2
    (List.length (Bgp.Speaker.fib_stale_prefixes sp));
  (* Second crash before any re-learning. *)
  Bgp.Speaker.reset sp;
  check_int "still preserved" 2
    (List.length (Bgp.Speaker.fib_stale_prefixes sp));
  check_bool "still forwarding" true (Bgp.Speaker.fib_lookup sp p10 <> None);
  (* Recovery: only p10 is re-learned; the sweep expires p11 alone. *)
  ignore (Bgp.Speaker.set_session sp env ~peer:1 ~session:0 ~up:true);
  ignore (Bgp.Speaker.set_session sp env ~peer:2 ~session:0 ~up:true);
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  check_bool "p10 re-derived" true
    (not (List.exists (Prefix.equal p10) (Bgp.Speaker.fib_stale_prefixes sp)));
  ignore (Bgp.Speaker.sweep_own_stale sp env);
  check_bool "p10 survives" true (Bgp.Speaker.fib_lookup sp p10 <> None);
  check_bool "p11 expired" true (Bgp.Speaker.fib_lookup sp p11 = None);
  check_int "nothing preserved anymore" 0
    (List.length (Bgp.Speaker.fib_stale_prefixes sp))

(* ---------------- policy interaction ---------------- *)

let test_ingress_policy_reject_blocks_install () =
  let sp = speaker 5 [ 1; 2 ] in
  ignore (Bgp.Speaker.set_ingress_policy sp env ~peer:1 Bgp.Policy.reject_all);
  let out = Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10) in
  check_bool "not installed" true (Bgp.Speaker.fib_lookup sp p10 = None);
  check_int "nothing advertised" 0 (List.length out)

let test_egress_policy_change_triggers_withdraw () =
  let sp = speaker 5 [ 1; 2 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  check_int "advertised to 2" 1
    (List.length (Bgp.Speaker.advertised_to sp ~peer:2));
  let out = Bgp.Speaker.set_egress_policy sp env ~peer:2 Bgp.Policy.reject_all in
  check_bool "withdraw to 2" true
    (List.exists (fun m -> not (is_update m)) (msgs_to 2 out));
  check_int "rib-out cleared" 0
    (List.length (Bgp.Speaker.advertised_to sp ~peer:2))

let test_advertised_attr_shape () =
  (* Advertised attributes: own ASN prepended, local-pref reset (eBGP does
     not propagate it), link bandwidth absent without wcmp. *)
  let sp = speaker 5 [ 1; 2 ] in
  let out =
    Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update ~lp:300 ~asns:[ 9 ] p10)
  in
  match msgs_to 2 out with
  | [ (_, _, Bgp.Msg.Update { attr; _ }) ] ->
    check_int "length grew" 2 (As_path.length attr.Attr.as_path);
    check_int "local pref reset" 100 attr.Attr.local_pref;
    check_bool "no link bandwidth" true (attr.Attr.link_bandwidth = None)
  | _ -> Alcotest.fail "expected exactly one update to peer 2"

let test_wcmp_advertises_total_capacity () =
  let config = { Bgp.Speaker.default_config with wcmp = true } in
  let sp = speaker ~config 5 [ 1; 2; 3 ] in
  ignore
    (Bgp.Speaker.receive sp env ~peer:1 ~session:0
       (Bgp.Msg.Update
          { prefix = p10;
            attr = Attr.make ~link_bandwidth:3 ~as_path:(As_path.of_asns [ Asn.of_int 9 ]) () }));
  let out =
    Bgp.Speaker.receive sp env ~peer:2 ~session:0
      (Bgp.Msg.Update
         { prefix = p10;
           attr = Attr.make ~link_bandwidth:5 ~as_path:(As_path.of_asns [ Asn.of_int 8 ]) () })
  in
  (* Total capacity 3 + 5 = 8 advertised downstream. *)
  match msgs_to 3 out with
  | [ (_, _, Bgp.Msg.Update { attr; _ }) ] ->
    check_bool "aggregated capacity" true (attr.Attr.link_bandwidth = Some 8)
  | _ -> Alcotest.fail "expected update to peer 3"

(* ---------------- policy shaping within one decision ---------------- *)

let c7 = Community.make 65100 7
let every_route actions = [ Bgp.Policy.rule actions ]

let show_outbox outbox =
  List.map
    (fun (peer, session, msg) ->
      Format.asprintf "%d.%d %a" peer session Bgp.Msg.pp msg)
    outbox

(* Runs [steps] on a fresh speaker in both evaluation modes and checks that
   the two modes emit the same messages and end internally converged. *)
let in_both_modes ~peers steps =
  let run mode =
    let sp = speaker 5 peers in
    Bgp.Speaker.set_eval_mode sp mode;
    let outbox = List.concat_map (fun step -> step sp) steps in
    (sp, outbox)
  in
  let sp, incremental = run Bgp.Speaker.Incremental in
  let full_sp, full = run Bgp.Speaker.Full_table in
  Alcotest.(check (list string))
    "incremental and full-table outboxes" (show_outbox full)
    (show_outbox incremental);
  check_int "incremental converged" 0
    (List.length (Bgp.Speaker.divergences sp env));
  check_int "full-table converged" 0
    (List.length (Bgp.Speaker.divergences full_sp env));
  sp

(* One decision fans out to peers with different egress policies: each
   peer's advert must be what a speaker with only that peer (besides the
   source) would send it. *)
let test_egress_policies_per_peer () =
  let egress = [ (2, every_route [ Bgp.Policy.Set_med 7 ]);
                 (3, every_route [ Bgp.Policy.Prepend_self 2 ]) ] in
  let receive sp =
    Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update ~lp:300 ~asns:[ 9 ] p10)
  in
  let set_egress sp =
    List.concat_map
      (fun (peer, policy) -> Bgp.Speaker.set_egress_policy sp env ~peer policy)
      egress
  in
  let tag_all sp =
    Bgp.Speaker.set_egress_policy_all sp env
      (every_route [ Bgp.Policy.Add_community c7 ])
  in
  let alone ~with_all peer =
    let sp = speaker 5 [ 1; peer ] in
    (match List.assoc_opt peer egress with
     | Some policy -> ignore (Bgp.Speaker.set_egress_policy sp env ~peer policy)
     | None -> ());
    if with_all then ignore (tag_all sp);
    ignore (receive sp);
    match Bgp.Speaker.advertised_to sp ~peer with
    | [ (_, attr) ] -> attr
    | _ -> Alcotest.failf "peer %d alone: expected one advert" peer
  in
  let check_each ~with_all sp =
    List.iter
      (fun peer ->
        match Bgp.Speaker.advertised_to sp ~peer with
        | [ (prefix, attr) ] ->
          check_bool "advertised prefix" true (Prefix.equal prefix p10);
          check_bool (Printf.sprintf "peer %d advert" peer) true
            (Attr.equal (alone ~with_all peer) attr);
          check_bool (Printf.sprintf "peer %d advert canonical" peer) true
            (Attr.intern attr == attr)
        | _ -> Alcotest.failf "peer %d: expected one advert" peer)
      [ 2; 3; 4; 5 ]
  in
  let peers = [ 1; 2; 3; 4; 5 ] in
  let sp = in_both_modes ~peers [ set_egress; receive ] in
  check_each ~with_all:false sp;
  (* The policies really shaped the adverts differently. *)
  let advert peer = snd (List.hd (Bgp.Speaker.advertised_to sp ~peer)) in
  check_int "med on peer 2" 7 (advert 2).Attr.med;
  check_int "padded for peer 3" 4 (As_path.length (advert 3).Attr.as_path);
  check_bool "peers 4 and 5 share one advert" true (advert 4 == advert 5);
  check_each ~with_all:true
    (in_both_modes ~peers [ set_egress; tag_all; receive ])

(* An ingress policy that rewrites attributes still yields canonical
   candidates; one that leaves them alone yields the Adj-RIB-In attribute
   itself. *)
let test_ingress_rewrite_candidates_canonical () =
  let steps =
    [
      (fun sp ->
        Bgp.Speaker.set_ingress_policy sp env ~peer:1
          (every_route
             [ Bgp.Policy.Set_local_pref 200; Bgp.Policy.Add_community c7 ]));
      (fun sp ->
        Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update ~asns:[ 9 ] p10));
      (fun sp ->
        Bgp.Speaker.receive sp env ~peer:2 ~session:0 (update ~asns:[ 8 ] p10));
    ]
  in
  let sp = in_both_modes ~peers:[ 1; 2; 3 ] steps in
  let raw peer =
    match
      List.find_opt (fun (p, _, _) -> p = peer) (Bgp.Speaker.adj_rib_in sp p10)
    with
    | Some (_, _, attr) -> attr
    | None -> Alcotest.failf "no route from peer %d" peer
  in
  match Bgp.Speaker.candidates sp p10 with
  | [ rewritten; untouched ] ->
    check_int "rewritten from peer 1" 1 rewritten.Bgp.Path.peer;
    check_int "rewritten local-pref" 200 rewritten.Bgp.Path.attr.Attr.local_pref;
    check_bool "rewritten tagged" true
      (Attr.has_community c7 rewritten.Bgp.Path.attr);
    check_bool "rewritten is canonical" true
      (Attr.intern rewritten.Bgp.Path.attr == rewritten.Bgp.Path.attr);
    check_bool "untouched is canonical" true
      (Attr.intern untouched.Bgp.Path.attr == untouched.Bgp.Path.attr);
    check_bool "untouched is the Adj-RIB-In attribute" true
      (untouched.Bgp.Path.attr == raw 2)
  | _ -> Alcotest.fail "expected two candidates"

(* ---------------- candidate ordering ---------------- *)

(* Regression for the sort-key change in [raw_routes]: candidates must come
   out in (peer, session) order regardless of Adj-RIB-In insertion (hash)
   order, and the multipath set must preserve that order. The old
   implementation sorted whole (peer, session, attr) triples polymorphically;
   the key alone must produce the identical order. *)
let test_candidates_sorted_by_peer_session () =
  let sp = speaker 9 [] in
  List.iter (fun peer -> Bgp.Speaker.add_peer sp ~peer ~sessions:2) [ 3; 1; 2 ];
  (* Scrambled arrival order, identical attributes (equal-cost everywhere). *)
  List.iter
    (fun (peer, session) ->
      ignore (Bgp.Speaker.receive sp env ~peer ~session (update p10)))
    [ (2, 1); (1, 0); (3, 0); (1, 1); (2, 0); (3, 1) ];
  let keys =
    List.map
      (fun (p : Bgp.Path.t) -> (p.Bgp.Path.peer, p.Bgp.Path.session))
      (Bgp.Speaker.candidates sp p10)
  in
  Alcotest.(check (list (pair int int)))
    "(peer, session) sorted"
    [ (1, 0); (1, 1); (2, 0); (2, 1); (3, 0); (3, 1) ]
    keys;
  (* The decision tiebreak (lowest peer, then session) picks (1, 0), and the
     equal-cost FIB set lists next hops in the same canonical order. *)
  (match Bgp.Speaker.fib_lookup sp p10 with
   | Some (Bgp.Speaker.Entries entries) ->
     Alcotest.(check (list (pair int int)))
       "fib entries in candidate order"
       [ (1, 0); (1, 1); (2, 0); (2, 1); (3, 0); (3, 1) ]
       (List.map (fun e -> (e.Bgp.Speaker.next_hop, e.Bgp.Speaker.session)) entries)
   | Some Bgp.Speaker.Local | None -> Alcotest.fail "expected ECMP entries");
  (* Raw Adj-RIB-In inspection shares the ordering contract. *)
  let raw_keys =
    List.map (fun (p, s, _) -> (p, s)) (Bgp.Speaker.adj_rib_in sp p10)
  in
  Alcotest.(check (list (pair int int)))
    "adj_rib_in sorted"
    [ (1, 0); (1, 1); (2, 0); (2, 1); (3, 0); (3, 1) ]
    raw_keys

(* ---------------- longest prefix match ---------------- *)

let test_fib_longest_match () =
  let sp = speaker 5 [ 1 ] in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update Prefix.default_v4));
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  let host = Prefix.v4 10 1 2 3 32 in
  (match Bgp.Speaker.fib_longest_match sp host with
   | Some (matched, _) -> check_bool "specific wins" true (Prefix.equal matched p10)
   | None -> Alcotest.fail "no match");
  let other = Prefix.v4 11 0 0 1 32 in
  match Bgp.Speaker.fib_longest_match sp other with
  | Some (matched, _) ->
    check_bool "default catches the rest" true (Prefix.equal matched Prefix.default_v4)
  | None -> Alcotest.fail "no default match"

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "speaker"
    [
      ( "origination",
        [
          quick "advertises to all" test_originate_advertises_to_all_peers;
          quick "withdraw origin" test_withdraw_origin_sends_withdraws;
        ] );
      ( "propagation",
        [
          quick "split horizon" test_receive_propagates_with_split_horizon;
          quick "duplicate silent" test_duplicate_update_is_silent;
          quick "better route re-advertised" test_better_route_triggers_readvertisement;
          quick "own asn rejected" test_own_asn_in_path_rejected;
          quick "withdraw propagates" test_withdraw_removes_and_propagates;
          quick "failover" test_failover_between_peers;
        ] );
      ( "sessions",
        [
          quick "down flushes" test_session_down_flushes_routes;
          quick "up resends" test_session_up_resends_table;
          quick "peers live" test_peers_reports_live_sessions;
          quick "flap with withdrawal in flight" test_flap_with_withdrawal_in_flight;
          quick "multi-session single drop" test_multi_session_single_drop;
          quick "gr stale mark and refresh" test_gr_stale_mark_and_refresh;
          quick "restart during restart" test_restart_during_restart;
        ] );
      ( "policy",
        [
          quick "ingress reject" test_ingress_policy_reject_blocks_install;
          quick "egress change withdraws" test_egress_policy_change_triggers_withdraw;
          quick "advertised attr shape" test_advertised_attr_shape;
          quick "wcmp capacity aggregation" test_wcmp_advertises_total_capacity;
          quick "egress policies per peer" test_egress_policies_per_peer;
          quick "ingress rewrite canonical" test_ingress_rewrite_candidates_canonical;
        ] );
      ( "decision",
        [ quick "candidates sorted" test_candidates_sorted_by_peer_session ] );
      ("fib", [ quick "longest match" test_fib_longest_match ]);
    ]
