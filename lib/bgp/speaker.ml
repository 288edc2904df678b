(* Observability instruments (shared registry; no-ops until enabled). *)
let m_decisions = Obs.Metrics.counter "bgp.speaker.decisions"
let m_adverts = Obs.Metrics.counter "bgp.speaker.advertisements"
let m_withdraws = Obs.Metrics.counter "bgp.speaker.withdrawals"
let m_stale_marked = Obs.Metrics.counter "bgp.gr.routes_marked_stale"
let m_stale_swept = Obs.Metrics.counter "bgp.gr.routes_swept"
let m_eor_received = Obs.Metrics.counter "bgp.gr.eor_received"

type config = {
  multipath : bool;
  wcmp : bool;
  default_local_pref : int;
}

let default_config = { multipath = true; wcmp = false; default_local_pref = 100 }

type fib_state =
  | Local
  | Entries of entry list

and entry = { next_hop : int; session : int; weight : int }

let entry_equal a b =
  a.next_hop = b.next_hop && a.session = b.session && a.weight = b.weight

let fib_state_equal a b =
  match (a, b) with
  | Local, Local -> true
  | Entries xs, Entries ys -> List.equal entry_equal xs ys
  | Local, Entries _ | Entries _, Local -> false

type env = { now : float; peer_layer : int -> Topology.Node.layer option }

type eval_mode = Incremental | Full_table

(* Prefixes are interned: every RIB table below is keyed by the prefix's
   integer id (flat hashing, no structural walks on the hot path). Ids are
   only ever used for hashing and equality; any ordering goes through the
   canonical structural compare so that id assignment order — which differs
   across runs and evaluation modes — can never leak into behavior. *)
let pid = Net.Intern.Prefix_id.id
let prefix_of = Net.Intern.Prefix_id.value
let pid_compare a b = Net.Prefix.compare (prefix_of a) (prefix_of b)
let sort_pids pids = List.sort pid_compare pids

type t = {
  node : Topology.Node.t;
  config : config;
  mutable hooks : Rib_policy.hooks;
  (* prefix id -> (peer, session) -> raw received attributes *)
  rib_in : (int, (int * int, Net.Attr.t) Hashtbl.t) Hashtbl.t;
  origin_table : (int, Net.Attr.t) Hashtbl.t;
  ingress : (int, Policy.t) Hashtbl.t;
  egress : (int, Policy.t) Hashtbl.t;
  mutable egress_all : Policy.t;
  fib_table : (int, fib_state) Hashtbl.t;
  (* peer -> prefix id -> last advertised attributes. Maintained as a
     mirror of the desired advertisement state for every peer, up or down:
     every decision-input change re-derives the affected entries, so the
     table is always current and a session (re-)establishment can resend it
     directly. *)
  rib_out : (int, (int, Net.Attr.t) Hashtbl.t) Hashtbl.t;
  session_count : (int, int) Hashtbl.t;
  session_state : (int * int, bool) Hashtbl.t;
  mutable graceful_restart : bool;
  (* (prefix id, peer, session) -> time the route was marked stale. A stale
     route stays a forwarding candidate (RFC 4724 receiver side) until it is
     refreshed by an Update, swept by an End-of-RIB, or expired by the
     stale-path timer. *)
  stale : (int * int * int, float) Hashtbl.t;
  (* Learned FIB prefixes preserved across our own restart (restarting
     speaker side of graceful restart): forwarding state survives the crash
     even though the RIBs that justified it are gone, until re-learned or
     swept. *)
  fib_stale : (int, unit) Hashtbl.t;
  mutable mode : eval_mode;
  (* Prefix ids whose decision inputs changed since the last drain. Batch
     transitions drain this set instead of re-deciding the whole table;
     Full_table mode ignores it and re-decides everything (the debug
     oracle both modes must agree with bit-for-bit). *)
  dirty : (int, unit) Hashtbl.t;
}

type outbox = (int * int * Msg.t) list

let create ?(config = default_config) ?(hooks = Rib_policy.native) node =
  {
    node;
    config;
    hooks;
    rib_in = Hashtbl.create 64;
    origin_table = Hashtbl.create 8;
    ingress = Hashtbl.create 8;
    egress = Hashtbl.create 8;
    egress_all = Policy.empty;
    fib_table = Hashtbl.create 64;
    rib_out = Hashtbl.create 8;
    session_count = Hashtbl.create 8;
    session_state = Hashtbl.create 16;
    graceful_restart = false;
    stale = Hashtbl.create 16;
    fib_stale = Hashtbl.create 8;
    mode = Incremental;
    dirty = Hashtbl.create 16;
  }

let set_graceful_restart t enabled = t.graceful_restart <- enabled
let graceful_restart t = t.graceful_restart

let set_eval_mode t mode = t.mode <- mode
let eval_mode t = t.mode

let node t = t.node
let id t = t.node.Topology.Node.id
let asn t = t.node.Topology.Node.asn
let hooks t = t.hooks

(* ---------------- Peering ---------------- *)

let add_peer t ~peer ~sessions =
  Hashtbl.replace t.session_count peer sessions;
  for s = 0 to sessions - 1 do
    Hashtbl.replace t.session_state (peer, s) true
  done

let session_up t ~peer ~session =
  match Hashtbl.find_opt t.session_state (peer, session) with
  | Some up -> up
  | None -> false

let up_sessions t peer =
  match Hashtbl.find_opt t.session_count peer with
  | None -> []
  | Some n ->
    List.filter (fun s -> session_up t ~peer ~session:s) (List.init n Fun.id)

let peers t =
  Hashtbl.fold
    (fun peer _count acc ->
      match up_sessions t peer with
      | [] -> acc
      | up -> (peer, List.length up) :: acc)
    t.session_count []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* ---------------- Context ---------------- *)

let make_ctx ~commit t env prefix : Rib_policy.ctx =
  {
    Rib_policy.device = id t;
    prefix;
    now = env.now;
    commit;
    peer_layer = env.peer_layer;
    live_peers_in_layer =
      (fun layer ->
        List.length
          (List.filter
             (fun (peer, _) ->
               match env.peer_layer peer with
               | Some l -> Topology.Node.layer_equal l layer
               | None -> false)
             (peers t)));
  }

(* ---------------- Candidate gathering ---------------- *)

(* Keys are unique per Adj-RIB-In table, so sorting by the (peer, session)
   key alone is the same total order the old polymorphic sort on whole
   (peer, session, attr) triples produced — without ever walking (or, now
   that attributes carry interned state, miscomparing) the attributes. *)
let raw_routes_pid t p =
  match Hashtbl.find_opt t.rib_in p with
  | None -> []
  | Some table ->
    Hashtbl.fold (fun (peer, session) attr acc -> (peer, session, attr) :: acc)
      table []
    |> List.sort (fun (p1, s1, _) (p2, s2, _) ->
           let c = Int.compare p1 p2 in
           if c <> 0 then c else Int.compare s1 s2)

let raw_routes t prefix = raw_routes_pid t (pid prefix)

let is_stale t prefix ~peer ~session =
  Hashtbl.mem t.stale (pid prefix, peer, session)

let post_policy_candidates t (ctx : Rib_policy.ctx) p ~use_hooks =
  let prefix = ctx.Rib_policy.prefix in
  let own_asn = asn t in
  List.filter_map
    (fun (peer, session, raw_attr) ->
      (* A stale route (graceful restart) remains a forwarding candidate
         while its session is down: the whole point of RFC 4724 is to keep
         forwarding on last-known-good state until resync or sweep. *)
      if
        (not (session_up t ~peer ~session))
        && not (Hashtbl.mem t.stale (p, peer, session))
      then None
      else if Net.As_path.mem own_asn raw_attr.Net.Attr.as_path then
        None (* standard AS-path loop prevention *)
      else
        let policy =
          Option.value (Hashtbl.find_opt t.ingress peer) ~default:Policy.empty
        in
        match Policy.apply policy ~self:own_asn prefix raw_attr with
        | None -> None
        | Some attr ->
          if use_hooks && not (t.hooks.Rib_policy.ingress_accept ctx ~peer attr)
          then None
          else if attr == raw_attr then
            (* [receive] interned every Adj-RIB-In attribute, so one the
               ingress policy left untouched is already canonical. *)
            Some { Path.peer; session; attr }
          else Some (Path.make ~peer ~session ~attr))
    (raw_routes_pid t p)

let candidates ?env t prefix =
  let env =
    match env with
    | Some env -> env
    | None -> { now = 0.0; peer_layer = (fun _ -> None) }
  in
  post_policy_candidates t
    (make_ctx ~commit:false t env prefix)
    (pid prefix) ~use_hooks:false

(* ---------------- Weights ---------------- *)

let native_weight t (path : Path.t) =
  if t.config.wcmp then
    max 1 (Option.value path.attr.Net.Attr.link_bandwidth ~default:1)
  else 1

let weighted_entries t ctx selected =
  let weighted =
    match t.hooks.Rib_policy.weights ctx ~selected with
    | Some pairs -> pairs
    | None -> List.map (fun p -> (p, native_weight t p)) selected
  in
  List.map
    (fun ((p : Path.t), w) ->
      { next_hop = p.peer; session = p.session; weight = max 1 w })
    weighted

(* ---------------- Advertisement ---------------- *)

let prepare_advert t attr ~total_weight =
  let attr = Net.Attr.with_prepended (asn t) attr in
  let attr = Net.Attr.set_local_pref t.config.default_local_pref attr in
  let attr =
    if t.config.wcmp then Net.Attr.set_link_bandwidth (Some total_weight) attr
    else Net.Attr.set_link_bandwidth None attr
  in
  (* Interned so the change-detection [equal] below is a pointer check. *)
  Net.Attr.intern attr

let rib_out_for t peer =
  match Hashtbl.find_opt t.rib_out peer with
  | Some table -> table
  | None ->
    let table = Hashtbl.create 16 in
    Hashtbl.replace t.rib_out peer table;
    table

(* Computes the desired advertisement toward [peer] and emits messages if it
   differs from what was last sent. *)
let advertise_to t p ~peer ~desired : outbox =
  let table = rib_out_for t peer in
  let previous = Hashtbl.find_opt table p in
  let changed =
    match (previous, desired) with
    | None, None -> false
    | Some a, Some b -> not (Net.Attr.equal a b)
    | None, Some _ | Some _, None -> true
  in
  if not changed then []
  else begin
    (match desired with
     | Some attr -> Hashtbl.replace table p attr
     | None -> Hashtbl.remove table p);
    let msg =
      match desired with
      | Some attr ->
        Obs.Metrics.incr m_adverts;
        Msg.Update { prefix = prefix_of p; attr }
      | None ->
        Obs.Metrics.incr m_withdraws;
        Msg.Withdraw { prefix = prefix_of p }
    in
    List.map (fun session -> (peer, session, msg)) (up_sessions t peer)
  end

let all_peer_ids t =
  Hashtbl.fold (fun peer _ acc -> peer :: acc) t.session_count []
  |> List.sort Int.compare

let desired_advert t ctx prefix ~peer ~(adv : Path.t option) ~prepare =
  match adv with
  | None -> None
  | Some path ->
    if path.Path.peer = peer then None (* split horizon *)
    else begin
      let own_asn = asn t in
      let peer_policy =
        Option.value (Hashtbl.find_opt t.egress peer) ~default:Policy.empty
      in
      match Policy.apply peer_policy ~self:own_asn prefix path.Path.attr with
      | None -> None
      | Some attr ->
        (match Policy.apply t.egress_all ~self:own_asn prefix attr with
         | None -> None
         | Some attr ->
           if not (t.hooks.Rib_policy.egress_accept ctx ~peer attr) then None
           else Some (prepare attr))
    end

(* One decision's adverts to every peer. Egress policy and the egress hook
   are per peer, but the preparation depends only on the post-policy
   attributes, and peers without an egress policy all share the advertised
   path's own: each distinct attribute is prepared (and interned) once. *)
let fan_out_adverts t ctx prefix ~adv ~total_weight =
  let prepared = ref [] in
  let prepare attr =
    match List.find_opt (fun (a, _) -> Net.Attr.equal a attr) !prepared with
    | Some (_, advert) -> advert
    | None ->
      let advert = prepare_advert t attr ~total_weight in
      prepared := (attr, advert) :: !prepared;
      advert
  in
  List.map
    (fun peer -> (peer, desired_advert t ctx prefix ~peer ~adv ~prepare))
    (all_peer_ids t)

(* ---------------- Evaluation ---------------- *)

let total_weight_of_fib = function
  | Some (Entries entries) ->
    List.fold_left (fun acc e -> acc + e.weight) 0 entries
  | Some Local | None -> 1

(* The full desired state for one prefix: what the FIB should hold and what
   each peer should have been told. Computed without mutating the speaker,
   so it serves both the state transition (via [commit]) and the runtime
   invariant checker (via [divergences], which compares it against the
   installed state). *)
type desired = {
  d_fib : fib_state option;
  d_adverts : (int * Net.Attr.t option) list;
}

let compute ~commit t env p : desired =
  let prefix = prefix_of p in
  let ctx = make_ctx ~commit t env prefix in
  match Hashtbl.find_opt t.origin_table p with
  | Some origin_attr ->
    (* Locally originated: FIB is Local; advertise to every peer. *)
    let self_path = Path.make ~peer:(id t) ~session:(-1) ~attr:origin_attr in
    {
      d_fib = Some Local;
      d_adverts =
        fan_out_adverts t ctx prefix ~adv:(Some self_path) ~total_weight:1;
    }
  | None ->
    let cands = post_policy_candidates t ctx p ~use_hooks:true in
    let native = Decision.select ~multipath:t.config.multipath cands in
    let sel = t.hooks.Rib_policy.select ctx ~candidates:cands ~native in
    let d_fib =
      match sel.Rib_policy.selected with
      | [] -> None
      | selected -> Some (Entries (weighted_entries t ctx selected))
    in
    let total_weight = total_weight_of_fib d_fib in
    {
      d_fib;
      d_adverts =
        fan_out_adverts t ctx prefix ~adv:sel.Rib_policy.advertise
          ~total_weight;
    }

let commit t p desired : outbox =
  (match desired.d_fib with
   | Some state ->
     Hashtbl.replace t.fib_table p state;
     (* Fresh routing state supersedes any preserved-across-restart entry. *)
     Hashtbl.remove t.fib_stale p
   | None ->
     (* After our own graceful restart the FIB entry outlives its RIBs:
        keep forwarding on the preserved entry until it is either
        re-learned (Some above) or expired by the stale-path sweep. *)
     if not (Hashtbl.mem t.fib_stale p) then Hashtbl.remove t.fib_table p);
  List.concat_map
    (fun (peer, d) -> advertise_to t p ~peer ~desired:d)
    desired.d_adverts

(* The decision-process instrumentation lives here, on the state-driving
   path, so the [divergences] oracle checker (which recomputes every prefix
   without committing) does not inflate the decision count or spans. *)
let evaluate t env p : outbox =
  Obs.Metrics.incr m_decisions;
  if Obs.Causal.on () then
    ignore (Obs.Causal.decide ~time:env.now ~device:(id t) ~prefix:p);
  Obs.Span.with_span "speaker.decision"
    ~attrs:(fun () ->
      [
        ("device", string_of_int (id t));
        ("prefix", Net.Prefix.to_string (prefix_of p));
      ])
  @@ fun () -> commit t p (compute ~commit:true t env p)

let known_pids t =
  let set = Hashtbl.create 64 in
  Hashtbl.iter (fun p _ -> Hashtbl.replace set p ()) t.rib_in;
  Hashtbl.iter (fun p _ -> Hashtbl.replace set p ()) t.origin_table;
  Hashtbl.iter (fun p _ -> Hashtbl.replace set p ()) t.fib_table;
  Hashtbl.iter
    (fun _ table -> Hashtbl.iter (fun p _ -> Hashtbl.replace set p ()) table)
    t.rib_out;
  Hashtbl.fold (fun p () acc -> p :: acc) set [] |> sort_pids

let known_prefixes t = List.map prefix_of (known_pids t)

(* ---------------- Dirty-set bookkeeping ---------------- *)

let mark_dirty t p = Hashtbl.replace t.dirty p ()

let mark_all_dirty t =
  Hashtbl.iter (fun p _ -> Hashtbl.replace t.dirty p ()) t.rib_in;
  Hashtbl.iter (fun p _ -> Hashtbl.replace t.dirty p ()) t.origin_table;
  Hashtbl.iter (fun p _ -> Hashtbl.replace t.dirty p ()) t.fib_table;
  Hashtbl.iter
    (fun _ table -> Hashtbl.iter (fun p _ -> Hashtbl.replace t.dirty p ()) table)
    t.rib_out

(* Non-native hooks get a context whose answers (time, live peers per
   layer) can feed into any prefix's decision, so a transition that changes
   that context conservatively invalidates everything — exactly the old
   full-table sweep. Native BGP ignores the context, which is what makes
   precise per-prefix invalidation sound. *)
let batch_invalidate t =
  if not (Rib_policy.is_native t.hooks) then mark_all_dirty t

let drain_dirty t env : outbox =
  if Hashtbl.length t.dirty = 0 then []
  else begin
    let pids = Hashtbl.fold (fun p () acc -> p :: acc) t.dirty [] |> sort_pids in
    Hashtbl.reset t.dirty;
    List.concat_map (evaluate t env) pids
  end

(* A batch transition: drain the dirty set (incremental), or re-decide the
   whole known-prefix table (the full-table oracle). A clean (non-dirty)
   prefix is converged by construction — re-deciding it emits nothing and
   changes nothing — so both modes produce bit-identical outboxes, FIBs,
   and Adj-RIB-Outs; they differ only in how many decisions they run. *)
let evaluate_batch t env : outbox =
  match t.mode with
  | Incremental -> drain_dirty t env
  | Full_table ->
    Hashtbl.reset t.dirty;
    List.concat_map (evaluate t env) (known_pids t)

(* A per-prefix transition: the mutated prefix is the only dirty one. *)
let evaluate_pids t env pids : outbox =
  match t.mode with
  | Incremental ->
    List.iter (mark_dirty t) pids;
    drain_dirty t env
  | Full_table -> List.concat_map (evaluate t env) pids

(* ---------------- Divergence (invariant support) ---------------- *)

type divergence =
  | Stale_fib of { prefix : Net.Prefix.t }
  | Stale_advert of { prefix : Net.Prefix.t; peer : int }

(* Always the full-table walk, never the dirty set: the checker's job is to
   catch incremental-invalidation bugs, so it must not share the machinery
   it audits. [compute] mutates nothing. *)
let divergences t env =
  List.concat_map
    (fun p ->
      let d = compute ~commit:false t env p in
      let fib_ok =
        match (d.d_fib, Hashtbl.find_opt t.fib_table p) with
        | None, None -> true
        | Some a, Some b -> fib_state_equal a b
        (* A FIB entry preserved across our own graceful restart is
           deliberately not derivable from the (empty) RIBs yet. *)
        | None, Some _ -> Hashtbl.mem t.fib_stale p
        | Some _, None -> false
      in
      let prefix = prefix_of p in
      let fib_div = if fib_ok then [] else [ Stale_fib { prefix } ] in
      let advert_divs =
        List.filter_map
          (fun (peer, want) ->
            (* Nothing can be advertised to a peer with no open session, so
               its mirrored Adj-RIB-Out cannot be stale. *)
            if up_sessions t peer = [] then None
            else
              let sent =
                Option.bind (Hashtbl.find_opt t.rib_out peer) (fun table ->
                    Hashtbl.find_opt table p)
              in
              let ok =
                match (sent, want) with
                | None, None -> true
                | Some a, Some b -> Net.Attr.equal a b
                | None, Some _ | Some _, None -> false
              in
              if ok then None else Some (Stale_advert { prefix; peer }))
          d.d_adverts
      in
      fib_div @ advert_divs)
    (known_pids t)

(* ---------------- Transitions ---------------- *)

let originate t env prefix attr =
  let p = pid prefix in
  Hashtbl.replace t.origin_table p (Net.Attr.intern attr);
  evaluate_pids t env [ p ]

let withdraw_origin t env prefix =
  let p = pid prefix in
  Hashtbl.remove t.origin_table p;
  Hashtbl.remove t.fib_table p;
  evaluate_pids t env [ p ]

(* Removes routes from (peer, session) whose stale mark is at or before
   [before], then re-evaluates the affected prefixes. This is the RFC 4724
   stale-path sweep; [before = infinity] sweeps everything still marked
   (End-of-RIB), a finite bound lets the timer sweep only marks from the
   session loss that scheduled it, not routes re-marked by a later flap. *)
let sweep_stale t env ~peer ~session ~before : outbox =
  let victims =
    Hashtbl.fold
      (fun (p, pr, s) marked_at acc ->
        if pr = peer && s = session && marked_at <= before then p :: acc
        else acc)
      t.stale []
    |> List.sort_uniq pid_compare
  in
  List.iter
    (fun p ->
      Hashtbl.remove t.stale (p, peer, session);
      Obs.Metrics.incr m_stale_swept;
      match Hashtbl.find_opt t.rib_in p with
      | None -> ()
      | Some table -> Hashtbl.remove table (peer, session))
    victims;
  evaluate_pids t env victims

(* ---------------- Incremental receive skips ----------------

   Every skip below must be a *proof* that re-running the decision would
   change nothing — no FIB update, no Adj-RIB-Out change, no message — so
   that Incremental mode stays bit-identical to the Full_table oracle
   (which re-decides unconditionally, as the seed implementation did).
   All skips require native hooks: an RPA hook may consult simulated time
   or live-peer counts, so for it no two decision runs are provably equal
   even on identical RIBs. *)

(* Under native hooks, a locally-originated prefix's outputs (FIB = Local,
   adverts derived from the origin attributes) never read the Adj-RIB-In,
   so learned-route churn on it cannot change anything. *)
let origin_shadows t p =
  Rib_policy.is_native t.hooks && Hashtbl.mem t.origin_table p

let selected_entries t p =
  match Hashtbl.find_opt t.fib_table p with
  | Some (Entries entries) when not (Hashtbl.mem t.fib_stale p) -> Some entries
  | Some (Entries _ | Local) | None -> None

let in_selection entries ~peer ~session =
  List.exists (fun e -> e.next_hop = peer && e.session = session) entries

(* The post-policy candidate attributes of one currently-selected entry:
   the reference point for "does this new path displace the selection?". *)
let selected_member_path t p (m : entry) =
  match Hashtbl.find_opt t.rib_in p with
  | None -> None
  | Some table ->
    (match Hashtbl.find_opt table (m.next_hop, m.session) with
     | None -> None
     | Some raw ->
       let policy =
         Option.value (Hashtbl.find_opt t.ingress m.next_hop)
           ~default:Policy.empty
       in
       Option.map
         (fun attr -> Path.make ~peer:m.next_hop ~session:m.session ~attr)
         (Policy.apply policy ~self:(asn t) (prefix_of p) raw))

(* A changed (or new) route that is not currently selected and strictly
   loses to the selection — without tying into the equal-cost set — leaves
   best path, selected set, weights, and every advert untouched. This is
   the classic incremental-BGP "worse path for a non-best route" rule. *)
let update_cannot_affect t p ~peer ~session attr =
  origin_shadows t p
  || (Rib_policy.is_native t.hooks
     &&
     match selected_entries t p with
     | None -> false
     | Some ([] as _entries) -> false
     | Some (m :: _ as entries) ->
       (not (in_selection entries ~peer ~session))
       &&
       let own_asn = asn t in
       if Net.As_path.mem own_asn attr.Net.Attr.as_path then
         true (* loop-rejected: not a candidate, and was not selected *)
       else
         let policy =
           Option.value (Hashtbl.find_opt t.ingress peer) ~default:Policy.empty
         in
         (match Policy.apply policy ~self:own_asn (prefix_of p) attr with
          | None -> true (* policy-rejected: not a candidate *)
          | Some cand_attr ->
            (match selected_member_path t p m with
             | None -> false (* selection not re-derivable: decide *)
             | Some sel_path ->
               let cand = Path.make ~peer ~session ~attr:cand_attr in
               Decision.preference_compare cand sel_path > 0
               && not (Decision.equal_cost cand sel_path))))

(* Removing a route that is not in the selected set (or any route while
   nothing is selected — candidates can only shrink) changes nothing. *)
let withdraw_cannot_affect t p ~peer ~session =
  origin_shadows t p
  || (Rib_policy.is_native t.hooks
     &&
     match Hashtbl.find_opt t.fib_table p with
     | None -> true
     | Some Local -> false (* unreachable without an origin entry; decide *)
     | Some (Entries entries) ->
       (not (Hashtbl.mem t.fib_stale p))
       && not (in_selection entries ~peer ~session))

let receive t env ~peer ~session msg =
  match msg with
  | Msg.Keepalive -> [] (* liveness only; the network layer tracks arrival *)
  | Msg.Eor ->
    (* End-of-RIB: the peer has resent its full table; any route still
       marked stale was not refreshed and is gone for good. *)
    Obs.Metrics.incr m_eor_received;
    sweep_stale t env ~peer ~session ~before:infinity
  | Msg.Update { prefix; attr } ->
    let p = pid prefix in
    let attr = Net.Attr.intern attr in
    let table =
      match Hashtbl.find_opt t.rib_in p with
      | Some table -> table
      | None ->
        let table = Hashtbl.create 8 in
        Hashtbl.replace t.rib_in p table;
        table
    in
    (* Two skip proofs, both Incremental-only (the oracle re-decides):
       - unchanged attributes: the route was a candidate before (live, or
         stale over a down session) and is the same candidate after.
         Session re-establishments resend whole unchanged tables, making
         this the single biggest decision-count saving. The one case where
         clearing the stale mark itself changes candidacy is a refresh over
         a still-down session (stale = candidate, refreshed-but-down =
         filtered out), so that combination re-decides.
       - changed attributes that provably cannot displace the current
         selection ([update_cannot_affect]). Only consulted with the
         session up — down-session refreshes interact with staleness. *)
    let skip =
      t.mode = Incremental
      && Rib_policy.is_native t.hooks
      && (match Hashtbl.find_opt table (peer, session) with
          | Some previous when Net.Attr.equal previous attr ->
            session_up t ~peer ~session
            || not (Hashtbl.mem t.stale (p, peer, session))
          | Some _ | None ->
            session_up t ~peer ~session
            && update_cannot_affect t p ~peer ~session attr)
    in
    Hashtbl.replace table (peer, session) attr;
    Hashtbl.remove t.stale (p, peer, session);
    if skip then [] else evaluate_pids t env [ p ]
  | Msg.Withdraw { prefix } ->
    let p = pid prefix in
    let had_route =
      match Hashtbl.find_opt t.rib_in p with
      | Some table ->
        let had = Hashtbl.mem table (peer, session) in
        Hashtbl.remove table (peer, session);
        had
      | None -> false
    in
    let had_mark = Hashtbl.mem t.stale (p, peer, session) in
    Hashtbl.remove t.stale (p, peer, session);
    let skip =
      t.mode = Incremental
      && (((not had_route) && not had_mark)
         || (session_up t ~peer ~session
            && (not had_mark)
            && withdraw_cannot_affect t p ~peer ~session))
    in
    if skip then [] else evaluate_pids t env [ p ]

let set_session ?(stale = false) t env ~peer ~session ~up =
  let new_peer = not (Hashtbl.mem t.session_count peer) in
  if new_peer then add_peer t ~peer ~sessions:0;
  let count = Hashtbl.find t.session_count peer in
  if session >= count then Hashtbl.replace t.session_count peer (session + 1);
  let was = session_up t ~peer ~session in
  Hashtbl.replace t.session_state (peer, session) up;
  if up = was then []
  else begin
    if not up then begin
      if stale then
        (* Graceful restart, receiver side: keep the routes as forwarding
           candidates but mark them stale (timestamped, so a later sweep
           only collects marks from this loss). The candidate set is
           unchanged — stale routes select exactly as live ones — so no
           native decision can change and nothing needs to go dirty. *)
        Hashtbl.iter
          (fun p table ->
            if Hashtbl.mem table (peer, session) then begin
              Hashtbl.replace t.stale (p, peer, session) env.now;
              Obs.Metrics.incr m_stale_marked
            end)
          t.rib_in
      else
        (* Hard session reset flushes routes learned over it; each flushed
           prefix must be re-decided. *)
        Hashtbl.iter
          (fun p table ->
            if Hashtbl.mem table (peer, session) then begin
              Hashtbl.remove table (peer, session);
              Hashtbl.remove t.stale (p, peer, session);
              mark_dirty t p
            end)
          t.rib_in
    end;
    (* A peer first seen here widens every prefix's advertisement fan-out. *)
    if new_peer then mark_all_dirty t;
    batch_invalidate t;
    let outbox = evaluate_batch t env in
    if up then begin
      (* Refresh: resend the mirrored Adj-RIB-Out over the new session, in
         canonical prefix order (the mirror is current — see [rib_out]). *)
      let resend =
        match Hashtbl.find_opt t.rib_out peer with
        | None -> []
        | Some table ->
          Hashtbl.fold (fun p attr acc -> (p, attr) :: acc) table []
          |> List.sort (fun (a, _) (b, _) -> pid_compare a b)
          |> List.map (fun (p, attr) ->
                 (peer, session, Msg.Update { prefix = prefix_of p; attr }))
      in
      (* Duplicates with messages already in [outbox] are harmless: updates
         are idempotent on the receiver. After the full resend, a
         graceful-restart speaker signals End-of-RIB so the receiver can
         sweep routes that were not refreshed. *)
      let eor = if t.graceful_restart then [ (peer, session, Msg.Eor) ] else [] in
      outbox @ resend @ eor
    end
    else outbox
  end

let reset t =
  Hashtbl.reset t.rib_in;
  Hashtbl.reset t.rib_out;
  Hashtbl.reset t.stale;
  Hashtbl.reset t.dirty;
  (* Locally originated prefixes are configuration, not learned state; they
     survive the crash (and are re-advertised once sessions come back). *)
  let learned =
    Hashtbl.fold
      (fun p state acc ->
        match state with Local -> acc | Entries _ -> p :: acc)
      t.fib_table []
  in
  if t.graceful_restart then
    (* Restarting-speaker side of RFC 4724: the forwarding plane is
       preserved across the control-plane restart. Learned entries stay
       installed, marked stale until re-derived from fresh RIBs or swept. *)
    List.iter (fun p -> Hashtbl.replace t.fib_stale p ()) learned
  else begin
    Hashtbl.reset t.fib_stale;
    List.iter (Hashtbl.remove t.fib_table) learned
  end;
  let sessions = Hashtbl.fold (fun k _ acc -> k :: acc) t.session_state [] in
  List.iter (fun k -> Hashtbl.replace t.session_state k false) sessions;
  (* Everything the speaker still knows must be re-decided when sessions
     come back: origins re-advertised into the (now empty) Adj-RIB-Out
     mirror, preserved FIB entries re-derived or swept. *)
  mark_all_dirty t

(* Expires FIB entries preserved across our own restart that were never
   re-learned (stale-path timer on the restarting speaker). *)
let sweep_own_stale t env : outbox =
  let victims =
    Hashtbl.fold (fun p () acc -> p :: acc) t.fib_stale [] |> sort_pids
  in
  Hashtbl.reset t.fib_stale;
  List.iter (fun _ -> Obs.Metrics.incr m_stale_swept) victims;
  evaluate_pids t env victims

let set_ingress_policy t env ~peer policy =
  Hashtbl.replace t.ingress peer policy;
  (* Only routes learned from [peer] pass through this policy: prefixes
     without an Adj-RIB-In entry from it cannot change. *)
  Hashtbl.iter
    (fun p table ->
      if Hashtbl.fold (fun (pr, _) _ acc -> acc || pr = peer) table false then
        mark_dirty t p)
    t.rib_in;
  batch_invalidate t;
  evaluate_batch t env

let set_egress_policy t env ~peer policy =
  Hashtbl.replace t.egress peer policy;
  (* An export policy can newly admit or suppress any prefix's advert. *)
  mark_all_dirty t;
  evaluate_batch t env

let set_egress_policy_all t env policy =
  t.egress_all <- policy;
  mark_all_dirty t;
  evaluate_batch t env

let set_hooks t env hooks =
  t.hooks <- hooks;
  mark_all_dirty t;
  evaluate_batch t env

(* ---------------- Inspection ---------------- *)

let fib t =
  Hashtbl.fold (fun p state acc -> (prefix_of p, state) :: acc) t.fib_table []
  |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)

let fib_lookup t prefix = Hashtbl.find_opt t.fib_table (pid prefix)

let fib_longest_match t destination =
  Hashtbl.fold
    (fun p state best ->
      let prefix = prefix_of p in
      if Net.Prefix.contains prefix destination then
        match best with
        | Some (bp, _)
          when Net.Prefix.mask_length bp >= Net.Prefix.mask_length prefix ->
          best
        | Some _ | None -> Some (prefix, state)
      else best)
    t.fib_table None

let adj_rib_in = raw_routes

let ingress_policy t ~peer = Hashtbl.find_opt t.ingress peer

let rib_in_size t =
  Hashtbl.fold (fun _ table acc -> acc + Hashtbl.length table) t.rib_in 0

let advertised_to t ~peer =
  match Hashtbl.find_opt t.rib_out peer with
  | None -> []
  | Some table ->
    Hashtbl.fold (fun p attr acc -> (prefix_of p, attr) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)

let originated t =
  Hashtbl.fold (fun p attr acc -> (prefix_of p, attr) :: acc) t.origin_table []
  |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)

let stale_routes t =
  Hashtbl.fold
    (fun (p, peer, session) marked_at acc ->
      (prefix_of p, peer, session, marked_at) :: acc)
    t.stale []
  |> List.sort (fun (p1, pe1, s1, _) (p2, pe2, s2, _) ->
         let c = Net.Prefix.compare p1 p2 in
         if c <> 0 then c
         else
           let c = Int.compare pe1 pe2 in
           if c <> 0 then c else Int.compare s1 s2)

let fib_stale_prefixes t =
  Hashtbl.fold (fun p () acc -> p :: acc) t.fib_stale []
  |> sort_pids |> List.map prefix_of

let routes_from t ~peer ~session =
  Hashtbl.fold
    (fun p table acc ->
      match Hashtbl.find_opt table (peer, session) with
      | Some attr -> (prefix_of p, attr) :: acc
      | None -> acc)
    t.rib_in []
  |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)
