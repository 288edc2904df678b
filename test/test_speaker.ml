(* Direct unit tests of Bgp.Speaker: the state machine in isolation, with
   hand-fed messages and asserted outboxes (no event queue). *)

open Net

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p10 = Prefix.of_string_exn "10.0.0.0/8"
let env =
  { Bgp.Speaker.now = 0.0; peer_layer = (fun _ -> None); log = Bgp.Trace.create () }

let node id = Topology.Node.make ~id ~name:(Printf.sprintf "r%d" id)
    ~layer:(Topology.Node.Other "R") ()

let speaker ?wcmp ?hooks id peers =
  let sp = Bgp.Speaker.create ?wcmp ?hooks (node id) in
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
    (List.equal
       (fun (p, a) (q, b) -> Prefix.equal p q && Attr.equal a b)
       before
       (Bgp.Speaker.advertised_to sp ~peer:2));
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
  let out = Bgp.Speaker.set_egress_policy_all sp env Bgp.Policy.reject_all in
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
  let sp = speaker ~wcmp:true 5 [ 1; 2; 3 ] in
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

(* One export policy for every peer shapes one advert, prepared once:
   every peer but the source is sent that same canonical value, which is
   what a speaker with only that peer (besides the source) would send it.
   The policy may come before or after the route. *)
let test_egress_policy_shared_by_peers () =
  let receive sp =
    Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update ~lp:300 ~asns:[ 9 ] p10)
  in
  let tag_all sp =
    Bgp.Speaker.set_egress_policy_all sp env
      (every_route [ Bgp.Policy.Set_med 7; Bgp.Policy.Add_community c7 ])
  in
  let advert sp peer =
    match Bgp.Speaker.advertised_to sp ~peer with
    | [ (prefix, attr) ] ->
      check_bool "advertised prefix" true (Prefix.equal prefix p10);
      attr
    | _ -> Alcotest.failf "peer %d: expected one advert" peer
  in
  let alone peer =
    let sp = speaker 5 [ 1; peer ] in
    ignore (tag_all sp);
    ignore (receive sp);
    advert sp peer
  in
  List.iter
    (fun steps ->
      let sp = in_both_modes ~peers:[ 1; 2; 3; 4 ] steps in
      check_int "nothing back to the source" 0
        (List.length (Bgp.Speaker.advertised_to sp ~peer:1));
      let shared = advert sp 2 in
      check_bool "advert canonical" true (Attr.intern shared == shared);
      check_int "policy set the med" 7 shared.Attr.med;
      check_bool "policy tagged" true (Attr.has_community c7 shared);
      List.iter
        (fun peer ->
          check_bool (Printf.sprintf "peer %d shares the advert" peer) true
            (advert sp peer == shared);
          check_bool (Printf.sprintf "peer %d advert as alone" peer) true
            (Attr.equal (alone peer) shared))
        [ 2; 3; 4 ])
    [ [ tag_all; receive ]; [ receive; tag_all ] ]

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

(* ---------------- bookkeeping against a reference model ---------------- *)

(* One speaker driven through random operation sequences and compared,
   after every step, with a plain association-list model of its
   bookkeeping: sessions, Adj-RIB-In, stale marks and the Adj-RIB-Out
   mirror. The incremental-vs-full-table oracle cannot catch a bug here,
   since both modes share these tables. The model takes decisions as given:
   it learns the Adj-RIB-Out from the messages the speaker sends, so it
   knows a peer's mirror only while the peer has an open session (changes
   toward a peer with none are silent) and again once a session coming up
   resends the whole mirror. *)

type model_op =
  | M_add_peer of int * int  (* peer, sessions *)
  | M_session of int * int * bool * bool  (* peer, session, up, stale *)
  | M_update of int * int * int * int * int  (* peer, session, prefix, first asn, lp *)
  | M_withdraw of int * int * int  (* peer, session, prefix *)
  | M_eor of int * int
  | M_sweep of int * int * int  (* peer, session, before *)
  | M_reset
  | M_ingress of int * int  (* peer, policy *)

let model_prefixes =
  [| p10; Prefix.of_string_exn "11.0.0.0/8"; Prefix.of_string_exn "12.0.0.0/8" |]

(* Device 4 is never passed to [add_peer]. *)
let model_peers = [ 1; 2; 3; 4 ]
let model_sessions = [ 0; 1; 2 ]

let model_policies =
  [|
    Bgp.Policy.empty;
    Bgp.Policy.reject_all;
    every_route [ Bgp.Policy.Set_local_pref 300 ];
    [ Bgp.Policy.rule ~prefixes:[ p10 ] [ Bgp.Policy.Reject ] ];
    Bgp.Policy.drain;
  |]

let show_model_op = function
  | M_add_peer (p, n) -> Printf.sprintf "add_peer %d %d" p n
  | M_session (p, s, up, stale) ->
    Printf.sprintf "session %d.%d %s%s" p s (if up then "up" else "down")
      (if stale then " stale" else "")
  | M_update (p, s, i, a, lp) ->
    Printf.sprintf "update %d.%d prefix %d asn %d lp %d" p s i a lp
  | M_withdraw (p, s, i) -> Printf.sprintf "withdraw %d.%d prefix %d" p s i
  | M_eor (p, s) -> Printf.sprintf "eor %d.%d" p s
  | M_sweep (p, s, b) -> Printf.sprintf "sweep %d.%d before %d" p s b
  | M_reset -> "reset"
  | M_ingress (p, i) -> Printf.sprintf "ingress %d policy %d" p i

let gen_model_case =
  let open QCheck.Gen in
  let peer = oneofl model_peers and added = oneofl [ 1; 2; 3 ] in
  let session = int_bound 1 and prefix = int_bound 2 in
  let op =
    frequency
      [
        (2, map2 (fun p n -> M_add_peer (p, n)) added (int_range 1 2));
        ( 4,
          map3
            (fun (p, s) up stale -> M_session (p, s, up, stale))
            (pair peer session) bool bool );
        ( 8,
          map3
            (fun (p, s) i (a, lp) -> M_update (p, s, i, a, lp))
            (pair peer session) prefix
            (pair (oneofl [ 90; 91; 64517 ]) (oneofl [ 100; 200 ])) );
        (3, map3 (fun p s i -> M_withdraw (p, s, i)) peer session prefix);
        (1, map2 (fun p s -> M_eor (p, s)) peer session);
        (1, map3 (fun p s b -> M_sweep (p, s, b)) peer session (int_bound 40));
        (1, return M_reset);
        (1, map2 (fun p i -> M_ingress (p, i)) peer (int_bound 4));
      ]
  in
  pair bool (list_size (int_range 1 40) op)

type model_peer = {
  added : bool;
  count : int;
  up_states : (int * bool) list;  (* session -> established *)
  ingress : Bgp.Policy.t option;
  (* prefix -> advert, when the mirror is known *)
  mirror : (Prefix.t * Attr.t) list option;
}

type model = {
  mpeers : (int * model_peer) list;
  routes : ((int * int * int) * Attr.t) list;  (* (prefix, peer, session) *)
  marks : ((int * int * int) * float) list;
}

let no_peer =
  { added = false; count = 0; up_states = []; ingress = None; mirror = None }

let mpeer m p = Option.value (List.assoc_opt p m.mpeers) ~default:no_peer
let set_mpeer m p r = { m with mpeers = (p, r) :: List.remove_assoc p m.mpeers }

let m_up r s =
  Option.value (List.assoc_opt s r.up_states) ~default:false

let m_up_list r = List.filter (m_up r) (List.init r.count Fun.id)

let without_route m key =
  { m with routes = List.remove_assoc key m.routes;
           marks = List.remove_assoc key m.marks }

let sweep m ~peer ~session ~before =
  List.fold_left
    (fun m ((i, p, s), at) ->
      if p = peer && s = session && at <= before then without_route m (i, p, s)
      else m)
    m m.marks

let prefix_index prefix =
  let rec find i =
    if Prefix.equal model_prefixes.(i) prefix then i else find (i + 1)
  in
  find 0

(* The model's bookkeeping of one operation, before its messages. *)
let model_step m ~now = function
  | M_add_peer (p, n) ->
    let r = mpeer m p in
    let first = not r.added in
    let up_states =
      List.init n (fun s -> (s, true))
      @ List.filter (fun (s, _) -> s >= n) r.up_states
    in
    let r = { r with added = true; count = n; up_states } in
    (* A peer never advertised to has an empty mirror. *)
    set_mpeer m p (if first then { r with mirror = Some [] } else r)
  | M_session (p, s, up, stale) ->
    let r = mpeer m p in
    let r = if r.added then r else { r with added = true; count = 0 } in
    let r = if s >= r.count then { r with count = s + 1 } else r in
    let was = m_up r s in
    let had_up = m_up_list r <> [] in
    let r = { r with up_states = (s, up) :: List.remove_assoc s r.up_states } in
    (* A session coming up to a peer with none resends the whole mirror:
       rebuild it from the messages. *)
    let r = if up && (not was) && not had_up then { r with mirror = Some [] } else r in
    let m = set_mpeer m p r in
    if up || not was then m
    else if stale then
      {
        m with
        marks =
          List.fold_left
            (fun marks ((i, pr, se), _) ->
              if pr = p && se = s then ((i, pr, se), now) :: List.remove_assoc (i, pr, se) marks
              else marks)
            m.marks m.routes;
      }
    else
      List.fold_left
        (fun m ((i, pr, se), _) ->
          if pr = p && se = s then without_route m (i, pr, se) else m)
        m m.routes
  | M_update (p, s, i, a, lp) ->
    let attr =
      Attr.make ~local_pref:lp
        ~as_path:(As_path.of_asns [ Asn.of_int a; Asn.of_int 99 ])
        ()
    in
    let m = without_route m (i, p, s) in
    { m with routes = ((i, p, s), attr) :: m.routes }
  | M_withdraw (p, s, i) -> without_route m (i, p, s)
  | M_eor (p, s) -> sweep m ~peer:p ~session:s ~before:infinity
  | M_sweep (p, s, b) -> sweep m ~peer:p ~session:s ~before:(float_of_int b)
  | M_reset ->
    {
      mpeers =
        List.map
          (fun (p, r) ->
            (p, { r with up_states = List.map (fun (s, _) -> (s, false)) r.up_states }))
          m.mpeers;
      routes = [];
      marks = [];
    }
  | M_ingress (p, i) ->
    set_mpeer m p { (mpeer m p) with ingress = Some model_policies.(i) }

let apply_model_op sp ~now op =
  let env = { env with Bgp.Speaker.now } in
  match op with
  | M_add_peer (peer, sessions) ->
    Bgp.Speaker.add_peer sp ~peer ~sessions;
    []
  | M_session (peer, session, up, stale) ->
    Bgp.Speaker.set_session ~stale sp env ~peer ~session ~up
  | M_update (peer, session, i, a, lp) ->
    Bgp.Speaker.receive sp env ~peer ~session
      (update ~lp ~asns:[ a; 99 ] model_prefixes.(i))
  | M_withdraw (peer, session, i) ->
    Bgp.Speaker.receive sp env ~peer ~session
      (Bgp.Msg.Withdraw { prefix = model_prefixes.(i) })
  | M_eor (peer, session) -> Bgp.Speaker.receive sp env ~peer ~session Bgp.Msg.Eor
  | M_sweep (peer, session, b) ->
    Bgp.Speaker.sweep_stale sp env ~peer ~session ~before:(float_of_int b)
  | M_reset ->
    Bgp.Speaker.reset sp;
    []
  | M_ingress (peer, i) ->
    Bgp.Speaker.set_ingress_policy sp env ~peer model_policies.(i)

(* Folds the sent messages into the known mirrors; an advert toward a peer
   with no open session would never have been sent, so it forgets the
   peer's mirror. *)
let learn_mirrors m outbox =
  let m =
    List.fold_left
      (fun m (p, _, msg) ->
        let r = mpeer m p in
        match (r.mirror, msg) with
        | Some out, Bgp.Msg.Update { prefix; attr } ->
          set_mpeer m p
            { r with mirror = Some ((prefix, attr) :: List.remove_assoc prefix out) }
        | Some out, Bgp.Msg.Withdraw { prefix } ->
          set_mpeer m p { r with mirror = Some (List.remove_assoc prefix out) }
        | None, _ | Some _, (Bgp.Msg.Keepalive | Bgp.Msg.Eor) -> m)
      m outbox
  in
  {
    m with
    mpeers =
      List.map
        (fun (p, r) -> (p, if m_up_list r = [] then { r with mirror = None } else r))
        m.mpeers;
  }

let sort_by_prefix l = List.sort (fun (a, _) (b, _) -> Prefix.compare a b) l

let same_adverts a b =
  List.equal
    (fun (p, x) (q, y) -> Prefix.equal p q && Attr.equal x y)
    (sort_by_prefix a) (sort_by_prefix b)

(* Every difference between the speaker and the model, as text. *)
let model_mismatches sp m outbox =
  let wrong = ref [] in
  let expect what ok = if not ok then wrong := what :: !wrong in
  List.iter
    (fun (p, s, _) ->
      expect (Printf.sprintf "message over closed session %d.%d" p s)
        (m_up (mpeer m p) s))
    outbox;
  Array.iteri
    (fun i prefix ->
      let want =
        List.filter_map
          (fun ((j, p, s), attr) -> if j = i then Some (p, s, attr) else None)
          m.routes
        |> List.sort (fun (p1, s1, _) (p2, s2, _) -> compare (p1, s1) (p2, s2))
      in
      expect (Printf.sprintf "adj_rib_in of prefix %d" i)
        (List.equal
           (fun (p1, s1, a1) (p2, s2, a2) -> p1 = p2 && s1 = s2 && Attr.equal a1 a2)
           want (Bgp.Speaker.adj_rib_in sp prefix)))
    model_prefixes;
  let want_peers =
    List.filter_map
      (fun (p, r) ->
        let up = m_up_list r in
        if r.added && up <> [] then Some (p, List.length up) else None)
      m.mpeers
    |> List.sort compare
  in
  expect "peers" (want_peers = Bgp.Speaker.peers sp);
  List.iter
    (fun p ->
      let r = mpeer m p in
      List.iter
        (fun s ->
          expect (Printf.sprintf "session_up %d.%d" p s)
            (m_up r s = Bgp.Speaker.session_up sp ~peer:p ~session:s);
          let want =
            List.filter_map
              (fun ((i, pr, se), attr) ->
                if pr = p && se = s then Some (model_prefixes.(i), attr) else None)
              m.routes
          in
          expect (Printf.sprintf "routes_from %d.%d" p s)
            (List.equal
               (fun (a, x) (b, y) -> Prefix.equal a b && Attr.equal x y)
               (sort_by_prefix want)
               (Bgp.Speaker.routes_from sp ~peer:p ~session:s)))
        model_sessions;
      expect (Printf.sprintf "ingress_policy %d" p)
        (Option.equal ( == ) r.ingress (Bgp.Speaker.ingress_policy sp ~peer:p));
      let sent = Bgp.Speaker.advertised_to sp ~peer:p in
      match r.mirror with
      | _ when not r.added ->
        expect (Printf.sprintf "advertised_to non-peer %d" p) (List.is_empty sent)
      | Some out -> expect (Printf.sprintf "advertised_to %d" p) (same_adverts out sent)
      | None -> ())
    model_peers;
  expect "rib_in_size" (List.length m.routes = Bgp.Speaker.rib_in_size sp);
  let want_stale =
    List.map (fun ((i, p, s), at) -> (i, p, s, at)) m.marks |> List.sort compare
  in
  let got_stale =
    List.map
      (fun (prefix, p, s, at) -> (prefix_index prefix, p, s, at))
      (Bgp.Speaker.stale_routes sp)
  in
  expect "stale_routes" (want_stale = got_stale);
  List.rev !wrong

let prop_speaker_matches_model =
  QCheck.Test.make ~name:"speaker bookkeeping matches the model" ~count:400
    (QCheck.make gen_model_case
       ~shrink:QCheck.Shrink.(pair bool (list ?shrink:None))
       ~print:(fun (full, ops) ->
         (if full then "full-table: " else "incremental: ")
         ^ String.concat "; " (List.map show_model_op ops)))
    (fun (full, ops) ->
      let sp = Bgp.Speaker.create (node 5) in
      if full then Bgp.Speaker.set_eval_mode sp Bgp.Speaker.Full_table;
      let empty = { mpeers = []; routes = []; marks = [] } in
      let _ =
        List.fold_left
          (fun (m, step) op ->
            let now = float_of_int step in
            let outbox = apply_model_op sp ~now op in
            let m = learn_mirrors (model_step m ~now op) outbox in
            (match model_mismatches sp m outbox with
             | [] -> ()
             | wrong ->
               QCheck.Test.fail_reportf "after step %d (%s): %s" step
                 (show_model_op op) (String.concat ", " wrong));
            (m, step + 1))
          (empty, 0) ops
      in
      true)

(* ---------------- FIB change reports ----------------

   [take_fib_changes] against the snapshot-and-diff the network ran before
   speakers reported their own FIB changes: two [fib] snapshots matched
   entry by entry, removed or changed entries by prefix, then new entries
   by prefix. The property drives one speaker through random histories
   (both eval modes, native hooks and RPA engines, restarts with graceful
   restart on and off) and compares the report with the diff after every
   call. *)

let snapshot_diff before after =
  let find prefix l =
    Option.map snd (List.find_opt (fun (p, _) -> Prefix.equal p prefix) l)
  in
  let changed =
    List.filter_map
      (fun (prefix, b) ->
        match find prefix after with
        | None -> Some (prefix, None)
        | Some a ->
          if Bgp.Speaker.fib_state_equal a b then None else Some (prefix, Some a))
      before
  in
  let added =
    List.filter_map
      (fun (prefix, a) ->
        if Option.is_none (find prefix before) then Some (prefix, Some a) else None)
      after
  in
  changed @ added

let same_changes =
  List.equal (fun (p, a) (q, b) ->
      Prefix.equal p q && Option.equal Bgp.Speaker.fib_state_equal a b)

let show_changes changes =
  String.concat ", "
    (List.map
       (fun (p, state) ->
         Prefix.to_string p
         ^
         match state with
         | None -> " removed"
         | Some Bgp.Speaker.Local -> " local"
         | Some (Bgp.Speaker.Entries es) ->
           " via "
           ^ String.concat "+"
               (List.map
                  (fun e ->
                    Printf.sprintf "%d.%d*%d" e.Bgp.Speaker.next_hop
                      e.Bgp.Speaker.session e.Bgp.Speaker.weight)
                  es))
       changes)

type fc_op =
  | Fc_update of int * int * int * int * int  (* peer, session, prefix, first asn, lp *)
  | Fc_withdraw of int * int * int  (* peer, session, prefix *)
  | Fc_eor of int * int
  | Fc_session of int * int * bool * bool  (* peer, session, up, stale *)
  | Fc_sweep of int * int * int  (* peer, session, before *)
  | Fc_reset of bool  (* graceful restart on *)
  | Fc_sweep_own
  | Fc_originate of int  (* prefix *)
  | Fc_withdraw_origin of int
  | Fc_hooks of int  (* 0 = native, else an index into [fc_rpas] plus one *)
  | Fc_ingress of int * int  (* peer, policy *)

let fc_peers = [ 1; 2; 3 ]

let fc_rpas =
  let module RF = Centralium.Route_filter in
  let module PS = Centralium.Path_selection in
  let module RA = Centralium.Route_attribute in
  let everything = Centralium.Destination.Prefixes [ Prefix.default_v4 ] in
  let only indices =
    Centralium.Rpa.make
      ~route_filter:
        [
          RF.make
            [
              RF.statement
                ~ingress:
                  (RF.Allow_list
                     (List.map (fun i -> RF.prefix_rule model_prefixes.(i)) indices))
                RF.any_peer;
            ];
        ]
      ()
  in
  [|
    only [ 0 ];
    only [ 1; 2 ];
    (* fewer than two next hops withdraws the route and its entry; paths
       via AS 90 weigh 3 *)
    Centralium.Rpa.make
      ~path_selection:
        [ PS.make [ PS.statement ~bgp_native_min_next_hop:(PS.Count 2) everything ] ]
      ~route_attribute:
        [
          RA.make
            [
              RA.statement everything
                [
                  RA.next_hop_weight
                    (Centralium.Signature.make ~neighbor_asn:(Asn.of_int 90) ())
                    ~weight:3;
                ];
            ];
        ]
      ();
  |]

let show_fc_op = function
  | Fc_update (p, s, i, a, lp) ->
    Printf.sprintf "update %d.%d prefix %d asn %d lp %d" p s i a lp
  | Fc_withdraw (p, s, i) -> Printf.sprintf "withdraw %d.%d prefix %d" p s i
  | Fc_eor (p, s) -> Printf.sprintf "eor %d.%d" p s
  | Fc_session (p, s, up, stale) ->
    Printf.sprintf "session %d.%d %s%s" p s (if up then "up" else "down")
      (if stale then " stale" else "")
  | Fc_sweep (p, s, b) -> Printf.sprintf "sweep %d.%d before %d" p s b
  | Fc_reset gr -> if gr then "reset gr" else "reset"
  | Fc_sweep_own -> "sweep own stale"
  | Fc_originate i -> Printf.sprintf "originate prefix %d" i
  | Fc_withdraw_origin i -> Printf.sprintf "withdraw origin prefix %d" i
  | Fc_hooks 0 -> "hooks native"
  | Fc_hooks i -> Printf.sprintf "hooks rpa %d" (i - 1)
  | Fc_ingress (p, i) -> Printf.sprintf "ingress %d policy %d" p i

(* Every history starts with one call that both removes and adds entries:
   all three prefixes learned under a filter admitting prefix 0, then a
   filter admitting the other two. *)
let fc_prelude =
  Fc_hooks 1
  :: List.init 3 (fun i -> Fc_update (1, 0, i, 90, 100))
  @ [ Fc_hooks 2 ]

let gen_fc_case =
  let open QCheck.Gen in
  let peer = oneofl fc_peers and session = int_bound 1 and prefix = int_bound 2 in
  let op =
    frequency
      [
        ( 8,
          map3
            (fun (p, s) i (a, lp) -> Fc_update (p, s, i, a, lp))
            (pair peer session) prefix
            (pair (oneofl [ 90; 91; 64517 ]) (oneofl [ 100; 200 ])) );
        (3, map3 (fun p s i -> Fc_withdraw (p, s, i)) peer session prefix);
        (1, map2 (fun p s -> Fc_eor (p, s)) peer session);
        ( 4,
          map3
            (fun (p, s) up stale -> Fc_session (p, s, up, stale))
            (pair peer session) bool bool );
        (1, map3 (fun p s b -> Fc_sweep (p, s, b)) peer session (int_bound 40));
        (1, map (fun gr -> Fc_reset gr) bool);
        (1, return Fc_sweep_own);
        (1, map (fun i -> Fc_originate i) prefix);
        (1, map (fun i -> Fc_withdraw_origin i) prefix);
        (2, map (fun i -> Fc_hooks i) (int_bound (Array.length fc_rpas)));
        (1, map2 (fun p i -> Fc_ingress (p, i)) peer (int_bound 4));
      ]
  in
  pair bool (map (fun ops -> fc_prelude @ ops) (list_size (int_range 1 40) op))

let apply_fc_op sp hooks ~now op =
  let env = { env with Bgp.Speaker.now } in
  match op with
  | Fc_update (peer, session, i, a, lp) ->
    Bgp.Speaker.receive sp env ~peer ~session
      (update ~lp ~asns:[ a; 99 ] model_prefixes.(i))
  | Fc_withdraw (peer, session, i) ->
    Bgp.Speaker.receive sp env ~peer ~session
      (Bgp.Msg.Withdraw { prefix = model_prefixes.(i) })
  | Fc_eor (peer, session) -> Bgp.Speaker.receive sp env ~peer ~session Bgp.Msg.Eor
  | Fc_session (peer, session, up, stale) ->
    Bgp.Speaker.set_session ~stale sp env ~peer ~session ~up
  | Fc_sweep (peer, session, b) ->
    Bgp.Speaker.sweep_stale sp env ~peer ~session ~before:(float_of_int b)
  | Fc_reset gr ->
    Bgp.Speaker.set_graceful_restart sp gr;
    Bgp.Speaker.reset sp;
    []
  | Fc_sweep_own -> Bgp.Speaker.sweep_own_stale sp env
  | Fc_originate i -> Bgp.Speaker.originate sp env model_prefixes.(i) (Attr.make ())
  | Fc_withdraw_origin i -> Bgp.Speaker.withdraw_origin sp env model_prefixes.(i)
  | Fc_hooks i -> Bgp.Speaker.set_hooks sp env hooks.(i)
  | Fc_ingress (peer, i) ->
    Bgp.Speaker.set_ingress_policy sp env ~peer model_policies.(i)

let prop_fib_changes_match_diff =
  QCheck.Test.make ~name:"fib changes = snapshot diff" ~count:400
    (QCheck.make gen_fc_case
       ~shrink:QCheck.Shrink.(pair bool (list ?shrink:None))
       ~print:(fun (full, ops) ->
         (if full then "full-table: " else "incremental: ")
         ^ String.concat "; " (List.map show_fc_op ops)))
    (fun (full, ops) ->
      let sp = Bgp.Speaker.create (node 5) in
      List.iter (fun peer -> Bgp.Speaker.add_peer sp ~peer ~sessions:2) fc_peers;
      if full then Bgp.Speaker.set_eval_mode sp Bgp.Speaker.Full_table;
      (* One engine per hook set, as one device would run it. *)
      let hooks =
        Array.append [| Bgp.Rib_policy.native |]
          (Array.map
             (fun rpa -> Centralium.Engine.hooks (Centralium.Engine.create rpa))
             fc_rpas)
      in
      List.iteri
        (fun step op ->
          let before = Bgp.Speaker.fib sp in
          ignore (apply_fc_op sp hooks ~now:(float_of_int step) op);
          let want = snapshot_diff before (Bgp.Speaker.fib sp) in
          let got = Bgp.Speaker.take_fib_changes sp in
          if not (same_changes want got) then
            QCheck.Test.fail_reportf "after step %d (%s): reported [%s], diff [%s]"
              step (show_fc_op op) (show_changes got) (show_changes want))
        ops;
      true)

(* A speaker driven on its own keeps its report across calls: changes
   accumulate until taken, and a prefix restored to its old state drops
   out. *)
let test_fib_changes_accumulate () =
  let sp = speaker 5 [ 1; 2 ] in
  let p11 = model_prefixes.(1) in
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p10));
  ignore (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (update p11));
  check_bool "two new entries" true
    (same_changes
       [
         (p10, Some (Bgp.Speaker.Entries [ { next_hop = 1; session = 0; weight = 1 } ]));
         (p11, Some (Bgp.Speaker.Entries [ { next_hop = 1; session = 0; weight = 1 } ]));
       ]
       (Bgp.Speaker.take_fib_changes sp));
  check_bool "taken" true (Bgp.Speaker.take_fib_changes sp = []);
  ignore (Bgp.Speaker.receive sp env ~peer:2 ~session:0 (update p10));
  ignore
    (Bgp.Speaker.receive sp env ~peer:2 ~session:0 (Bgp.Msg.Withdraw { prefix = p10 }));
  check_bool "restored prefix not reported" true
    (Bgp.Speaker.take_fib_changes sp = []);
  ignore
    (Bgp.Speaker.receive sp env ~peer:1 ~session:0 (Bgp.Msg.Withdraw { prefix = p11 }));
  ignore (Bgp.Speaker.originate sp env model_prefixes.(2) (Attr.make ()));
  check_bool "removal before the new entry" true
    (same_changes
       [ (p11, None); (model_prefixes.(2), Some Bgp.Speaker.Local) ]
       (Bgp.Speaker.take_fib_changes sp))

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

(* ---------------- One Adj-RIB-Out against per-peer tables ----------------

   [Per_peer_speaker] is the speaker as it was when every peer record held
   its own Adj-RIB-Out table. The property drives it and [Bgp.Speaker]
   through the same random histories: the model ops above, originations,
   egress hooks that reject by peer device, RPA engines, export policies
   for every peer, and devices first added once adverts exist. After every
   step the two must agree on the messages and their order, the advert and
   withdrawal counters, and everything a caller reads of what was
   advertised. *)

module type SPEAKER = sig
  type t

  type env = {
    now : float;
    peer_layer : int -> Topology.Node.layer option;
    log : Bgp.Trace.t;
  }

  type eval_mode = Incremental | Full_table

  type divergence =
    | Stale_fib of { prefix : Prefix.t }
    | Stale_advert of { prefix : Prefix.t; peer : int }

  type outbox = (int * int * Bgp.Msg.t) list

  val create : ?wcmp:bool -> ?hooks:Bgp.Rib_policy.hooks -> Topology.Node.t -> t
  val set_eval_mode : t -> eval_mode -> unit
  val add_peer : t -> peer:int -> sessions:int -> unit

  val set_session :
    ?stale:bool -> t -> env -> peer:int -> session:int -> up:bool -> outbox

  val receive : t -> env -> peer:int -> session:int -> Bgp.Msg.t -> outbox
  val sweep_stale : t -> env -> peer:int -> session:int -> before:float -> outbox
  val reset : t -> unit
  val originate : t -> env -> Prefix.t -> Attr.t -> outbox
  val withdraw_origin : t -> env -> Prefix.t -> outbox
  val set_ingress_policy : t -> env -> peer:int -> Bgp.Policy.t -> outbox
  val set_egress_policy_all : t -> env -> Bgp.Policy.t -> outbox
  val set_hooks : t -> env -> Bgp.Rib_policy.hooks -> outbox
  val advertised_to : t -> peer:int -> (Prefix.t * Attr.t) list
  val rib_out_attr : t -> peer:int -> int -> Attr.t option
  val knows : t -> int -> bool
  val iter_known : (int -> unit) -> t -> unit
  val divergences : t -> env -> divergence list
end

type ao_op =
  | Ao_model of model_op
  | Ao_originate of int  (* prefix *)
  | Ao_withdraw_origin of int
  | Ao_hooks of int  (* index into [ao_hooks] *)
  | Ao_egress_all of int  (* index into [model_policies] *)

(* Devices 6 and 7 are first added once adverts exist (see [ao_prelude]);
   device 4 only ever joins through a session. *)
let ao_peers = [ 1; 2; 3; 4; 6; 7 ]
let ao_devices = List.init 8 (fun i -> i + 1)

let egress_rejecting devices =
  {
    Bgp.Rib_policy.native with
    name = "egress-reject";
    egress_accept = (fun _ ~peer _ -> not (List.mem peer devices));
  }

(* Native hooks, two egress hooks that reject by peer device, then the RPA
   engines of [fc_rpas]: one fresh set per speaker, as one device would run
   them. *)
let ao_hooks () =
  Array.append
    [| Bgp.Rib_policy.native; egress_rejecting [ 2 ]; egress_rejecting [ 3; 6 ] |]
    (Array.map (fun rpa -> Centralium.Engine.hooks (Centralium.Engine.create rpa)) fc_rpas)

let show_ao_op = function
  | Ao_model op -> show_model_op op
  | Ao_originate i -> Printf.sprintf "originate prefix %d" i
  | Ao_withdraw_origin i -> Printf.sprintf "withdraw origin prefix %d" i
  | Ao_hooks i -> Printf.sprintf "hooks %d" i
  | Ao_egress_all i -> Printf.sprintf "egress all policy %d" i

(* Adverts exist from the start: one prefix originated, one learned. *)
let ao_prelude =
  [
    Ao_model (M_add_peer (1, 2));
    Ao_model (M_add_peer (2, 1));
    Ao_originate 0;
    Ao_model (M_update (1, 0, 1, 90, 100));
  ]

let gen_ao_case =
  let open QCheck.Gen in
  let peer = oneofl ao_peers and added = oneofl [ 1; 2; 3; 6; 7 ] in
  let session = int_bound 1 and prefix = int_bound 2 in
  let model op = map (fun op -> Ao_model op) op in
  let op =
    frequency
      [
        (3, model (map2 (fun p n -> M_add_peer (p, n)) added (int_range 1 2)));
        ( 4,
          model
            (map3
               (fun (p, s) up stale -> M_session (p, s, up, stale))
               (pair peer session) bool bool) );
        ( 8,
          model
            (map3
               (fun (p, s) i (a, lp) -> M_update (p, s, i, a, lp))
               (pair peer session) prefix
               (pair (oneofl [ 90; 91; 64517 ]) (oneofl [ 100; 200 ]))) );
        (3, model (map3 (fun p s i -> M_withdraw (p, s, i)) peer session prefix));
        (1, model (map2 (fun p s -> M_eor (p, s)) peer session));
        (1, model (map3 (fun p s b -> M_sweep (p, s, b)) peer session (int_bound 40)));
        (1, model (return M_reset));
        (1, model (map2 (fun p i -> M_ingress (p, i)) peer (int_bound 4)));
        (2, map (fun i -> Ao_originate i) prefix);
        (1, map (fun i -> Ao_withdraw_origin i) prefix);
        (2, map (fun i -> Ao_hooks i) (int_bound (Array.length (ao_hooks ()) - 1)));
        (1, map (fun i -> Ao_egress_all i) (int_bound 4));
      ]
  in
  pair bool (map (fun ops -> ao_prelude @ ops) (list_size (int_range 1 40) op))

(* What a caller can read of one speaker, as plain values. *)
type seen = {
  adverts : (int * (Prefix.t * Attr.t) list) list;  (* by device *)
  rib_out : ((int * int) * Attr.t option) list;  (* (device, prefix index) *)
  known : int list;  (* the prefix ids [knows] holds *)
  iterated : int list;  (* the ids [iter_known] reports, sorted *)
  divergences : (Prefix.t * int option) list;  (* [None]: the FIB *)
}

module Drive (S : SPEAKER) = struct
  let env_at now = { S.now; peer_layer = (fun _ -> None); log = env.Bgp.Speaker.log }

  let create ~full =
    let sp = S.create (node 5) in
    if full then S.set_eval_mode sp S.Full_table;
    sp

  let apply sp hooks ~now op =
    let env = env_at now in
    match op with
    | Ao_model (M_add_peer (peer, sessions)) ->
      S.add_peer sp ~peer ~sessions;
      []
    | Ao_model (M_session (peer, session, up, stale)) ->
      S.set_session ~stale sp env ~peer ~session ~up
    | Ao_model (M_update (peer, session, i, a, lp)) ->
      S.receive sp env ~peer ~session (update ~lp ~asns:[ a; 99 ] model_prefixes.(i))
    | Ao_model (M_withdraw (peer, session, i)) ->
      S.receive sp env ~peer ~session (Bgp.Msg.Withdraw { prefix = model_prefixes.(i) })
    | Ao_model (M_eor (peer, session)) -> S.receive sp env ~peer ~session Bgp.Msg.Eor
    | Ao_model (M_sweep (peer, session, b)) ->
      S.sweep_stale sp env ~peer ~session ~before:(float_of_int b)
    | Ao_model M_reset ->
      S.reset sp;
      []
    | Ao_model (M_ingress (peer, i)) -> S.set_ingress_policy sp env ~peer model_policies.(i)
    | Ao_originate i -> S.originate sp env model_prefixes.(i) (Attr.make ())
    | Ao_withdraw_origin i -> S.withdraw_origin sp env model_prefixes.(i)
    | Ao_hooks i -> S.set_hooks sp env hooks.(i)
    | Ao_egress_all i -> S.set_egress_policy_all sp env model_policies.(i)

  let seen sp ~now =
    let pids = Array.to_list (Array.map Net.Intern.Prefix_id.id model_prefixes) in
    let iterated = ref [] in
    S.iter_known (fun p -> iterated := p :: !iterated) sp;
    {
      adverts = List.map (fun d -> (d, S.advertised_to sp ~peer:d)) ao_devices;
      rib_out =
        List.concat_map
          (fun d -> List.mapi (fun i p -> ((d, i), S.rib_out_attr sp ~peer:d p)) pids)
          ao_devices;
      known = List.filter (S.knows sp) pids;
      iterated = List.sort_uniq Int.compare !iterated;
      divergences =
        List.map
          (function
            | S.Stale_fib { prefix } -> (prefix, None)
            | S.Stale_advert { prefix; peer } -> (prefix, Some peer))
          (S.divergences sp (env_at now));
    }
end

module Per_peer = Drive (Per_peer_speaker)
module Shared = Drive (Bgp.Speaker)

let same_msg a b =
  match (a, b) with
  | Bgp.Msg.Update { prefix = p; attr = x }, Bgp.Msg.Update { prefix = q; attr = y } ->
    Prefix.equal p q && Attr.equal x y
  | Bgp.Msg.Withdraw { prefix = p }, Bgp.Msg.Withdraw { prefix = q } -> Prefix.equal p q
  | Bgp.Msg.Keepalive, Bgp.Msg.Keepalive | Bgp.Msg.Eor, Bgp.Msg.Eor -> true
  | (Bgp.Msg.Update _ | Bgp.Msg.Withdraw _ | Bgp.Msg.Keepalive | Bgp.Msg.Eor), _ -> false

let same_outbox =
  List.equal (fun (p, s, m) (q, r, n) -> p = q && s = r && same_msg m n)

let same_attrs =
  List.equal (fun (p, x) (q, y) -> Prefix.equal p q && Attr.equal x y)

(* Every difference between the per-peer model and the shared speaker, as
   text. *)
let shared_mismatches ~want ~got (w : seen) (g : seen) =
  let wrong = ref [] in
  let expect what ok = if not ok then wrong := what :: !wrong in
  expect "outbox" (same_outbox want got);
  List.iter2
    (fun (d, a) (_, b) -> expect (Printf.sprintf "advertised_to %d" d) (same_attrs a b))
    w.adverts g.adverts;
  List.iter2
    (fun ((d, i), a) (_, b) ->
      expect (Printf.sprintf "rib_out_attr %d prefix %d" d i) (Option.equal Attr.equal a b))
    w.rib_out g.rib_out;
  expect "knows" (w.known = g.known);
  expect "iter_known" (w.iterated = g.iterated);
  expect "divergences"
    (List.equal
       (fun (p, a) (q, b) -> Prefix.equal p q && Option.equal Int.equal a b)
       w.divergences g.divergences);
  List.rev !wrong

let ao_counters =
  List.map Obs.Metrics.counter
    [ "bgp.speaker.advertisements"; "bgp.speaker.withdrawals"; "bgp.speaker.decisions" ]

(* The counters' increments over [f ()], with the shared registry on. *)
let counted f =
  let before = List.map Obs.Metrics.value ao_counters in
  let r = f () in
  (r, List.map2 (fun c b -> Obs.Metrics.value c - b) ao_counters before)

let prop_shared_rib_out_matches_per_peer =
  QCheck.Test.make ~name:"shared Adj-RIB-Out = per-peer tables" ~count:400
    (QCheck.make gen_ao_case
       ~shrink:QCheck.Shrink.(pair bool (list ?shrink:None))
       ~print:(fun (full, ops) ->
         (if full then "full-table: " else "incremental: ")
         ^ String.concat "; " (List.map show_ao_op ops)))
    (fun (full, ops) ->
      let model = Per_peer.create ~full and shared = Shared.create ~full in
      let model_hooks = ao_hooks () and shared_hooks = ao_hooks () in
      let was_enabled = Obs.Metrics.is_enabled Obs.Metrics.default in
      Obs.Metrics.set_enabled Obs.Metrics.default true;
      Fun.protect
        ~finally:(fun () -> Obs.Metrics.set_enabled Obs.Metrics.default was_enabled)
        (fun () ->
          List.iteri
            (fun step op ->
              let now = float_of_int step in
              let want, want_counts =
                counted (fun () -> Per_peer.apply model model_hooks ~now op)
              in
              let got, got_counts =
                counted (fun () -> Shared.apply shared shared_hooks ~now op)
              in
              let wrong =
                shared_mismatches ~want ~got (Per_peer.seen model ~now)
                  (Shared.seen shared ~now)
                @ if want_counts = got_counts then [] else [ "counters" ]
              in
              if wrong <> [] then
                QCheck.Test.fail_reportf "after step %d (%s): %s" step (show_ao_op op)
                  (String.concat ", " wrong))
            ops);
      true)

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
          quick "egress policy shared by peers" test_egress_policy_shared_by_peers;
          quick "ingress rewrite canonical" test_ingress_rewrite_candidates_canonical;
        ] );
      ( "decision",
        [ quick "candidates sorted" test_candidates_sorted_by_peer_session ] );
      ("fib", [ quick "longest match" test_fib_longest_match ]);
      ( "fib-changes",
        [
          quick "report accumulates" test_fib_changes_accumulate;
          QCheck_alcotest.to_alcotest ~long:false prop_fib_changes_match_diff;
        ] );
      ( "model",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_speaker_matches_model;
          QCheck_alcotest.to_alcotest ~long:false prop_shared_rib_out_matches_per_peer;
        ] );
    ]
