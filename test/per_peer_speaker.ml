(* The speaker as it was when every peer record held its own Adj-RIB-Out
   table, kept verbatim (with [open Bgp]) as the model that
   test_speaker.ml's shared-Adj-RIB-Out property compares [Bgp.Speaker]
   against. Only that test reads it. *)

open Bgp

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

type fib_state = Trace.fib_state =
  | Local
  | Entries of entry list

and entry = Trace.entry = { next_hop : int; session : int; weight : int }

let fib_state_equal = Trace.fib_state_equal

type env = {
  now : float;
  peer_layer : int -> Topology.Node.layer option;
  log : Trace.t;
}

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

(* Every table below is keyed by prefix id (or by (prefix id, peer,
   session)). Their folds sort what they return or are order-free, so the
   tables' bucket order never reaches a decision, a message or a report. *)
module Tbl = Net.Int_table
module Triple = Net.Int_table.Triple

(* Everything the speaker keeps per peer device, in one record. A record is
   created the first time a device is seen — by [add_peer], [set_session],
   a policy, or a route received from it — and never removed, so Adj-RIB-In
   slots can point at it. Only records with [added] set (by [add_peer] or
   [set_session]) are advertisement targets. *)
type peer = {
  device : int;
  mutable added : bool;
  mutable count : int;  (* session count *)
  (* established flag per session index; may run past [count] when a peer
     is re-added with fewer sessions, as the session state always could *)
  mutable state : bool array;
  (* the established sessions below [count], ascending *)
  mutable up : int list;
  mutable ingress : Policy.t option;
  mutable egress : Policy.t;
  (* prefix id -> last advertised attributes. Maintained as a mirror of the
     desired advertisement state whether the peer is up or down: every
     decision-input change re-derives the affected entries, so the table is
     always current and a session (re-)establishment can resend it
     directly. *)
  rib_out : Net.Attr.t Tbl.t;
}

(* One prefix's Adj-RIB-In: raw received attributes in the first [len] slots
   of three parallel arrays, sorted by (peer device, session) — the order a
   decision reads its candidates in. *)
type rib = {
  mutable len : int;
  mutable from : peer array;
  mutable sess : int array;
  mutable attrs : Net.Attr.t array;
}

type t = {
  node : Topology.Node.t;
  config : config;
  mutable hooks : Rib_policy.hooks;
  (* prefix id -> Adj-RIB-In. A prefix whose routes are all gone keeps its
     (empty) entry: it is still a known prefix. *)
  rib_in : rib Tbl.t;
  (* Created on first write, like the graceful-restart tables below: off
     the origin layer it stays empty, and an empty table still holds 16
     buckets. *)
  mutable origin_table : Net.Attr.t Tbl.t option;
  (* every peer record, sorted by device id *)
  mutable peer_records : peer array;
  mutable egress_all : Policy.t;
  (* Written only by [set_fib]. *)
  fib_table : fib_state Tbl.t;
  (* prefix id -> its FIB state before the first write since the last
     [take_fib_changes]: what the speaker changed, kept by the one writer
     instead of diffed from snapshots. [None] while nothing was written, so
     a speaker at rest holds no table. *)
  mutable fib_before : fib_state option Tbl.t option;
  mutable graceful_restart : bool;
  (* (prefix id, peer, session) -> time the route was marked stale. A stale
     route stays a forwarding candidate (RFC 4724 receiver side) until it is
     refreshed by an Update, swept by an End-of-RIB, or expired by the
     stale-path timer. Every mark belongs to a route in the Adj-RIB-In. *)
  mutable stale : float Triple.t option;
  (* Learned FIB prefixes preserved across our own restart (restarting
     speaker side of graceful restart): forwarding state survives the crash
     even though the RIBs that justified it are gone, until re-learned or
     swept. *)
  mutable fib_stale : unit Tbl.t option;
  mutable mode : eval_mode;
  (* Prefix ids whose decision inputs changed since the last drain. Batch
     transitions drain this set instead of re-deciding the whole table;
     Full_table mode ignores it and re-decides everything (the debug
     oracle both modes must agree with bit-for-bit). *)
  dirty : unit Tbl.t;
}

type outbox = (int * int * Msg.t) list

let create ?(wcmp = false) ?(hooks = Rib_policy.native) node =
  {
    node;
    config = { default_config with wcmp };
    hooks;
    rib_in = Tbl.create 64;
    origin_table = None;
    peer_records = [||];
    egress_all = Policy.empty;
    fib_table = Tbl.create 64;
    fib_before = None;
    graceful_restart = false;
    stale = None;
    fib_stale = None;
    mode = Incremental;
    dirty = Tbl.create 16;
  }

(* ---------------- Tables created on first write ---------------- *)

let origin_of t p =
  match t.origin_table with None -> None | Some o -> Tbl.find_opt o p

let origins t =
  match t.origin_table with
  | Some o -> o
  | None ->
    let o = Tbl.create 8 in
    t.origin_table <- Some o;
    o

let iter_origins f t = Option.iter (Tbl.iter f) t.origin_table

let fib_stale_mem t p =
  match t.fib_stale with None -> false | Some s -> Tbl.mem s p

let fib_stale_table t =
  match t.fib_stale with
  | Some s -> s
  | None ->
    let s = Tbl.create 8 in
    t.fib_stale <- Some s;
    s

let fib_stale_pids t =
  match t.fib_stale with
  | None -> []
  | Some s -> Tbl.fold (fun p () acc -> p :: acc) s [] |> sort_pids

let stale_marks t =
  match t.stale with
  | Some marks -> marks
  | None ->
    let marks = Triple.create 16 in
    t.stale <- Some marks;
    marks

(* Nothing is stale almost always: no key is built then. *)
let has_stale_mark t p ~peer ~session =
  match t.stale with
  | Some marks when Triple.length marks > 0 ->
    Triple.mem marks (p, peer, session)
  | Some _ | None -> false

let clear_stale_mark t p ~peer ~session =
  match t.stale with
  | Some marks when Triple.length marks > 0 ->
    Triple.remove marks (p, peer, session)
  | Some _ | None -> ()

let set_graceful_restart t enabled = t.graceful_restart <- enabled
let graceful_restart t = t.graceful_restart

let set_eval_mode t mode = t.mode <- mode
let eval_mode t = t.mode

let node t = t.node
let id t = t.node.Topology.Node.id
let asn t = t.node.Topology.Node.asn
let hooks t = t.hooks

(* ---------------- Peering ---------------- *)

(* Index of the first record in [a.(lo) .. a.(hi - 1)] whose device id is
   at least [device]. Top-level, so a lookup allocates no closure. *)
let rec peer_search a device lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid).device < device then peer_search a device (mid + 1) hi
    else peer_search a device lo mid

let peer_index t device =
  peer_search t.peer_records device 0 (Array.length t.peer_records)

let find_peer t device =
  let i = peer_index t device in
  let a = t.peer_records in
  if i < Array.length a && a.(i).device = device then Some a.(i) else None

(* The record of [device], created (not yet a peer) on first sight. *)
let peer_record t device =
  let i = peer_index t device in
  let a = t.peer_records in
  if i < Array.length a && a.(i).device = device then a.(i)
  else begin
    let r =
      {
        device;
        added = false;
        count = 0;
        state = [||];
        up = [];
        ingress = None;
        egress = Policy.empty;
        rib_out = Tbl.create 16;
      }
    in
    t.peer_records <-
      Array.init
        (Array.length a + 1)
        (fun j -> if j < i then a.(j) else if j = i then r else a.(j - 1));
    r
  end

let is_up r session =
  session >= 0 && session < Array.length r.state && r.state.(session)

let set_state r session up =
  let n = Array.length r.state in
  if session >= n then
    r.state <- Array.append r.state (Array.make (session + 1 - n) false);
  r.state.(session) <- up

let refresh_up r =
  r.up <- List.filter (is_up r) (List.init r.count Fun.id)

let add_peer t ~peer ~sessions =
  let r = peer_record t peer in
  r.added <- true;
  r.count <- sessions;
  for s = 0 to sessions - 1 do
    set_state r s true
  done;
  refresh_up r

let session_up t ~peer ~session =
  match find_peer t peer with Some r -> is_up r session | None -> false

(* A peer with at least one open session. *)
let live r = r.added && r.up <> []

let peers t =
  Array.fold_right
    (fun r acc -> if live r then (r.device, List.length r.up) :: acc else acc)
    t.peer_records []

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
        Array.fold_left
          (fun n r ->
            if
              live r
              &&
              match env.peer_layer r.device with
              | Some l -> Topology.Node.layer_equal l layer
              | None -> false
            then n + 1
            else n)
          0 t.peer_records);
  }

let decision_ctx t env prefix = make_ctx ~commit:false t env prefix

(* ---------------- Adj-RIB-In ---------------- *)

let empty_rib () = { len = 0; from = [||]; sess = [||]; attrs = [||] }

(* Index of the first route at or after (device, session), like
   [peer_search]. *)
let rec rib_search rib device session lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    let d = rib.from.(mid).device in
    if d < device || (d = device && rib.sess.(mid) < session) then
      rib_search rib device session (mid + 1) hi
    else rib_search rib device session lo mid

let rib_index rib device session = rib_search rib device session 0 rib.len

(* The slot of the route from (device, session), or -1. *)
let rib_find rib device session =
  let i = rib_index rib device session in
  if i < rib.len && rib.from.(i).device = device && rib.sess.(i) = session
  then i
  else -1

let rib_has_peer rib device =
  let i = rib_index rib device min_int in
  i < rib.len && rib.from.(i).device = device

(* Inserts a route at slot [i], which [rib_index] gave for its key. *)
let rib_insert rib i r session attr =
  if rib.len = Array.length rib.from then begin
    let more = max 4 rib.len in
    rib.from <- Array.append rib.from (Array.make more r);
    rib.sess <- Array.append rib.sess (Array.make more session);
    rib.attrs <- Array.append rib.attrs (Array.make more attr)
  end;
  let tail = rib.len - i in
  Array.blit rib.from i rib.from (i + 1) tail;
  Array.blit rib.sess i rib.sess (i + 1) tail;
  Array.blit rib.attrs i rib.attrs (i + 1) tail;
  rib.from.(i) <- r;
  rib.sess.(i) <- session;
  rib.attrs.(i) <- attr;
  rib.len <- rib.len + 1

let rib_remove rib i =
  let tail = rib.len - i - 1 in
  Array.blit rib.from (i + 1) rib.from i tail;
  Array.blit rib.sess (i + 1) rib.sess i tail;
  Array.blit rib.attrs (i + 1) rib.attrs i tail;
  rib.len <- rib.len - 1

(* Removes the route from (device, session) if present; says whether it
   was. *)
let rib_delete t p ~peer ~session =
  match Tbl.find_opt t.rib_in p with
  | None -> false
  | Some rib ->
    let i = rib_find rib peer session in
    if i >= 0 then rib_remove rib i;
    i >= 0

let raw_routes t prefix =
  match Tbl.find_opt t.rib_in (pid prefix) with
  | None -> []
  | Some rib ->
    List.init rib.len (fun i -> (rib.from.(i).device, rib.sess.(i), rib.attrs.(i)))

let is_stale t prefix ~peer ~session = has_stale_mark t (pid prefix) ~peer ~session

(* ---------------- Candidate gathering ---------------- *)

let ingress_of r = Option.value r.ingress ~default:Policy.empty

let post_policy_candidates t (ctx : Rib_policy.ctx) p ~use_hooks =
  match Tbl.find_opt t.rib_in p with
  | None -> []
  | Some rib ->
    let prefix = ctx.Rib_policy.prefix in
    let own_asn = asn t in
    (* In slot order, so hooks see the candidates in (peer, session)
       order. *)
    let rec from i =
      if i >= rib.len then []
      else
        let r = rib.from.(i) and session = rib.sess.(i) in
        let raw_attr = rib.attrs.(i) in
        let peer = r.device in
        let cand =
          (* A stale route (graceful restart) remains a forwarding candidate
             while its session is down: the whole point of RFC 4724 is to
             keep forwarding on last-known-good state until resync or
             sweep. *)
          if (not (is_up r session)) && not (has_stale_mark t p ~peer ~session)
          then None
          else if Net.As_path.mem own_asn raw_attr.Net.Attr.as_path then
            None (* standard AS-path loop prevention *)
          else
            match Policy.apply (ingress_of r) ~self:own_asn prefix raw_attr with
            | None -> None
            | Some attr ->
              if use_hooks && not (t.hooks.Rib_policy.ingress_accept ctx ~peer attr)
              then None
              else if attr == raw_attr then
                (* [receive] interned every Adj-RIB-In attribute, so one the
                   ingress policy left untouched is already canonical. *)
                Some { Path.peer; session; attr }
              else Some (Path.make ~peer ~session ~attr)
        in
        match cand with
        | None -> from (i + 1)
        | Some c -> c :: from (i + 1)
    in
    from 0

(* Gathering candidates decides nothing, so nothing is ever recorded here. *)
let no_log = Trace.create ()

let candidates ?env t prefix =
  let env =
    match env with
    | Some env -> env
    | None -> { now = 0.0; peer_layer = (fun _ -> None); log = no_log }
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

(* Computes the desired advertisement toward [r] and emits messages if it
   differs from what was last sent. *)
let advertise_to p r ~desired : outbox =
  let previous = Tbl.find_opt r.rib_out p in
  let changed =
    match (previous, desired) with
    | None, None -> false
    | Some a, Some b -> not (Net.Attr.equal a b)
    | None, Some _ | Some _, None -> true
  in
  if not changed then []
  else begin
    (match desired with
     | Some attr -> Tbl.replace r.rib_out p attr
     | None -> Tbl.remove r.rib_out p);
    let msg =
      match desired with
      | Some attr ->
        Obs.Metrics.incr m_adverts;
        Msg.Update { prefix = prefix_of p; attr }
      | None ->
        Obs.Metrics.incr m_withdraws;
        Msg.Withdraw { prefix = prefix_of p }
    in
    List.map (fun session -> (r.device, session, msg)) r.up
  end

let desired_advert t ctx prefix r ~(adv : Path.t option) ~prepare =
  match adv with
  | None -> None
  | Some path ->
    let peer = r.device in
    if path.Path.peer = peer then None (* split horizon *)
    else begin
      let own_asn = asn t in
      match Policy.apply r.egress ~self:own_asn prefix path.Path.attr with
      | None -> None
      | Some attr ->
        (match Policy.apply t.egress_all ~self:own_asn prefix attr with
         | None -> None
         | Some attr ->
           if not (t.hooks.Rib_policy.egress_accept ctx ~peer attr) then None
           else Some (prepare attr))
    end

(* One decision's adverts to every peer, in device-id order. Egress policy
   and the egress hook are per peer, but the preparation depends only on the
   post-policy attributes, and peers without an egress policy all share the
   advertised path's own: each distinct attribute is prepared (and
   interned) once. *)
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
  let records = t.peer_records in
  let rec from i =
    if i >= Array.length records then []
    else
      let r = records.(i) in
      if not r.added then from (i + 1)
      else
        let d = desired_advert t ctx prefix r ~adv ~prepare in
        (r, d) :: from (i + 1)
  in
  from 0

(* ---------------- FIB ---------------- *)

(* The one writer of [fib_table]. The first write to a prefix since the
   last report keeps the prefix's previous state; later writes find it
   kept. O(1) per write, so a [mark_all_dirty] transition that rewrites
   every prefix pays no scan. *)
let set_fib t p state =
  let before =
    match t.fib_before with
    | Some before -> before
    | None ->
      let before = Tbl.create 1 in
      t.fib_before <- Some before;
      before
  in
  if not (Tbl.mem before p) then
    Tbl.add before p (Tbl.find_opt t.fib_table p);
  match state with
  | Some state -> Tbl.replace t.fib_table p state
  | None -> Tbl.remove t.fib_table p

let take_fib_changes t =
  match t.fib_before with
  | None -> []
  | Some before ->
    t.fib_before <- None;
    (* Removed or changed entries, then new ones: each group by prefix. *)
    let changed, added =
      Tbl.fold
        (fun p was (changed, added) ->
          let after = Tbl.find_opt t.fib_table p in
          match (was, after) with
          | None, None -> (changed, added)
          | None, Some _ -> (changed, (p, after) :: added)
          | Some b, Some a when fib_state_equal a b -> (changed, added)
          | Some _, (Some _ | None) -> ((p, after) :: changed, added))
        before ([], [])
    in
    let by_prefix l =
      List.sort (fun (a, _) (b, _) -> pid_compare a b) l
      |> List.map (fun (p, state) -> (prefix_of p, state))
    in
    by_prefix changed @ by_prefix added

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
  d_adverts : (peer * Net.Attr.t option) list;
}

let compute ~commit t env p : desired =
  let prefix = prefix_of p in
  let ctx = make_ctx ~commit t env prefix in
  match origin_of t p with
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
    let native = Decision.select cands in
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
   | Some _ as state ->
     set_fib t p state;
     (* Fresh routing state supersedes any preserved-across-restart entry. *)
     Option.iter (fun s -> Tbl.remove s p) t.fib_stale
   | None ->
     (* After our own graceful restart the FIB entry outlives its RIBs:
        keep forwarding on the preserved entry until it is either
        re-learned (Some above) or expired by the stale-path sweep. *)
     if not (fib_stale_mem t p) then set_fib t p None);
  List.concat_map (fun (r, d) -> advertise_to p r ~desired:d) desired.d_adverts

(* The decision-process instrumentation lives here, on the state-driving
   path, so the [divergences] oracle checker (which recomputes every prefix
   without committing) does not inflate the decision count or spans. *)
let evaluate t env p : outbox =
  Obs.Metrics.incr m_decisions;
  Trace.decided env.log ~time:env.now ~device:(id t) ~prefix:p;
  Obs.Span.with_span "speaker.decision"
    ~attrs:(fun () ->
      [
        ("device", string_of_int (id t));
        ("prefix", Net.Prefix.to_string (prefix_of p));
      ])
  @@ fun () -> commit t p (compute ~commit:true t env p)

(* Every prefix id in any RIB (in, origin, FIB, or out), once per table
   that holds it, in no particular order. *)
let iter_known f t =
  Tbl.iter (fun p _ -> f p) t.rib_in;
  iter_origins (fun p _ -> f p) t;
  Tbl.iter (fun p _ -> f p) t.fib_table;
  Array.iter (fun r -> Tbl.iter (fun p _ -> f p) r.rib_out) t.peer_records

let knows t p =
  Tbl.mem t.rib_in p
  || Option.is_some (origin_of t p)
  || Tbl.mem t.fib_table p
  || Array.exists (fun r -> Tbl.mem r.rib_out p) t.peer_records

let known_pids t =
  let set = Tbl.create 64 in
  iter_known (fun p -> Tbl.replace set p ()) t;
  Tbl.fold (fun p () acc -> p :: acc) set [] |> sort_pids

(* ---------------- Dirty-set bookkeeping ---------------- *)

let mark_dirty t p = Tbl.replace t.dirty p ()
let mark_all_dirty t = iter_known (mark_dirty t) t

(* Non-native hooks get a context whose answers (time, live peers per
   layer) can feed into any prefix's decision, so a transition that changes
   that context conservatively invalidates everything — exactly the old
   full-table sweep. Native BGP ignores the context, which is what makes
   precise per-prefix invalidation sound. *)
let batch_invalidate t =
  if not (Rib_policy.is_native t.hooks) then mark_all_dirty t

let drain_dirty t env : outbox =
  if Tbl.length t.dirty = 0 then []
  else begin
    let pids = Tbl.fold (fun p () acc -> p :: acc) t.dirty [] |> sort_pids in
    Tbl.reset t.dirty;
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
    Tbl.reset t.dirty;
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

(* Always a walk over the ids the caller names, never the dirty set: the
   checker's job is to catch incremental-invalidation bugs, so it must not
   share the machinery it audits. [compute] mutates nothing. *)
let divergences_at t env pids =
  List.concat_map
    (fun p ->
      let d = compute ~commit:false t env p in
      let fib_ok =
        match (d.d_fib, Tbl.find_opt t.fib_table p) with
        | None, None -> true
        | Some a, Some b -> fib_state_equal a b
        (* A FIB entry preserved across our own graceful restart is
           deliberately not derivable from the (empty) RIBs yet. *)
        | None, Some _ -> fib_stale_mem t p
        | Some _, None -> false
      in
      let prefix = prefix_of p in
      let fib_div = if fib_ok then [] else [ Stale_fib { prefix } ] in
      let advert_divs =
        List.filter_map
          (fun (r, want) ->
            (* Nothing can be advertised to a peer with no open session, so
               its mirrored Adj-RIB-Out cannot be stale. *)
            if r.up = [] then None
            else
              let ok =
                match (Tbl.find_opt r.rib_out p, want) with
                | None, None -> true
                | Some a, Some b -> Net.Attr.equal a b
                | None, Some _ | Some _, None -> false
              in
              if ok then None
              else Some (Stale_advert { prefix; peer = r.device }))
          d.d_adverts
      in
      fib_div @ advert_divs)
    pids

let divergences t env = divergences_at t env (known_pids t)

(* ---------------- Transitions ---------------- *)

let originate t env prefix attr =
  let p = pid prefix in
  Tbl.replace (origins t) p (Net.Attr.intern attr);
  evaluate_pids t env [ p ]

let withdraw_origin t env prefix =
  let p = pid prefix in
  Option.iter (fun o -> Tbl.remove o p) t.origin_table;
  set_fib t p None;
  evaluate_pids t env [ p ]

(* Removes routes from (peer, session) whose stale mark is at or before
   [before], then re-evaluates the affected prefixes. This is the RFC 4724
   stale-path sweep; [before = infinity] sweeps everything still marked
   (End-of-RIB), a finite bound lets the timer sweep only marks from the
   session loss that scheduled it, not routes re-marked by a later flap. *)
let sweep_stale t env ~peer ~session ~before : outbox =
  let victims =
    match t.stale with
    | None -> []
    | Some marks ->
      Triple.fold
        (fun (p, pr, s) marked_at acc ->
          if pr = peer && s = session && marked_at <= before then p :: acc
          else acc)
        marks []
      |> List.sort_uniq pid_compare
  in
  List.iter
    (fun p ->
      clear_stale_mark t p ~peer ~session;
      Obs.Metrics.incr m_stale_swept;
      ignore (rib_delete t p ~peer ~session))
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
  Rib_policy.is_native t.hooks && Option.is_some (origin_of t p)

let selected_entries t p =
  match Tbl.find_opt t.fib_table p with
  | Some (Entries entries) when not (fib_stale_mem t p) -> Some entries
  | Some (Entries _ | Local) | None -> None

let in_selection entries ~peer ~session =
  List.exists (fun e -> e.next_hop = peer && e.session = session) entries

(* The post-policy candidate attributes of one currently-selected entry:
   the reference point for "does this new path displace the selection?". *)
let selected_member_path t rib p (m : entry) =
  let i = rib_find rib m.next_hop m.session in
  if i < 0 then None
  else
    Option.map
      (fun attr -> Path.make ~peer:m.next_hop ~session:m.session ~attr)
      (Policy.apply (ingress_of rib.from.(i)) ~self:(asn t) (prefix_of p)
         rib.attrs.(i))

(* A changed (or new) route that is not currently selected and strictly
   loses to the selection — without tying into the equal-cost set — leaves
   best path, selected set, weights, and every advert untouched. This is
   the classic incremental-BGP "worse path for a non-best route" rule. *)
let update_cannot_affect t rib p r ~session attr =
  origin_shadows t p
  || (Rib_policy.is_native t.hooks
     &&
     match selected_entries t p with
     | None -> false
     | Some ([] as _entries) -> false
     | Some (m :: _ as entries) ->
       let peer = r.device in
       (not (in_selection entries ~peer ~session))
       &&
       let own_asn = asn t in
       if Net.As_path.mem own_asn attr.Net.Attr.as_path then
         true (* loop-rejected: not a candidate, and was not selected *)
       else
         (match Policy.apply (ingress_of r) ~self:own_asn (prefix_of p) attr with
          | None -> true (* policy-rejected: not a candidate *)
          | Some cand_attr ->
            (match selected_member_path t rib p m with
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
     match Tbl.find_opt t.fib_table p with
     | None -> true
     | Some Local -> false (* unreachable without an origin entry; decide *)
     | Some (Entries entries) ->
       (not (fib_stale_mem t p))
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
    let r = peer_record t peer in
    let rib =
      match Tbl.find_opt t.rib_in p with
      | Some rib -> rib
      | None ->
        let rib = empty_rib () in
        Tbl.replace t.rib_in p rib;
        rib
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
    let i = rib_index rib peer session in
    let present = i < rib.len && rib.from.(i) == r && rib.sess.(i) = session in
    let skip =
      t.mode = Incremental
      && Rib_policy.is_native t.hooks
      &&
      if present && Net.Attr.equal rib.attrs.(i) attr then
        is_up r session || not (has_stale_mark t p ~peer ~session)
      else is_up r session && update_cannot_affect t rib p r ~session attr
    in
    if present then rib.attrs.(i) <- attr else rib_insert rib i r session attr;
    clear_stale_mark t p ~peer ~session;
    if skip then [] else evaluate_pids t env [ p ]
  | Msg.Withdraw { prefix } ->
    let p = pid prefix in
    let had_route = rib_delete t p ~peer ~session in
    let had_mark = has_stale_mark t p ~peer ~session in
    if had_mark then clear_stale_mark t p ~peer ~session;
    let skip =
      t.mode = Incremental
      && (((not had_route) && not had_mark)
         || (session_up t ~peer ~session
            && (not had_mark)
            && withdraw_cannot_affect t p ~peer ~session))
    in
    if skip then [] else evaluate_pids t env [ p ]

let set_session ?(stale = false) t env ~peer ~session ~up =
  if session < 0 then invalid_arg "Speaker.set_session: negative session";
  let r = peer_record t peer in
  let new_peer = not r.added in
  if new_peer then add_peer t ~peer ~sessions:0;
  if session >= r.count then r.count <- session + 1;
  let was = is_up r session in
  set_state r session up;
  refresh_up r;
  if up = was then []
  else begin
    if not up then begin
      if stale then
        (* Graceful restart, receiver side: keep the routes as forwarding
           candidates but mark them stale (timestamped, so a later sweep
           only collects marks from this loss). The candidate set is
           unchanged — stale routes select exactly as live ones — so no
           native decision can change and nothing needs to go dirty. *)
        Tbl.iter
          (fun p rib ->
            if rib_find rib peer session >= 0 then begin
              Triple.replace (stale_marks t) (p, peer, session) env.now;
              Obs.Metrics.incr m_stale_marked
            end)
          t.rib_in
      else
        (* Hard session reset flushes routes learned over it; each flushed
           prefix must be re-decided. *)
        Tbl.iter
          (fun p rib ->
            let i = rib_find rib peer session in
            if i >= 0 then begin
              rib_remove rib i;
              clear_stale_mark t p ~peer ~session;
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
        Tbl.fold (fun p attr acc -> (p, attr) :: acc) r.rib_out []
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
  Tbl.reset t.rib_in;
  t.stale <- None;
  Tbl.reset t.dirty;
  (* Locally originated prefixes are configuration, not learned state; they
     survive the crash (and are re-advertised once sessions come back). *)
  let learned =
    Tbl.fold
      (fun p state acc ->
        match state with Local -> acc | Entries _ -> p :: acc)
      t.fib_table []
  in
  if t.graceful_restart then
    (* Restarting-speaker side of RFC 4724: the forwarding plane is
       preserved across the control-plane restart. Learned entries stay
       installed, marked stale until re-derived from fresh RIBs or swept. *)
    List.iter (fun p -> Tbl.replace (fib_stale_table t) p ()) learned
  else begin
    t.fib_stale <- None;
    List.iter (fun p -> set_fib t p None) learned
  end;
  Array.iter
    (fun r ->
      Tbl.reset r.rib_out;
      Array.fill r.state 0 (Array.length r.state) false;
      r.up <- [])
    t.peer_records;
  (* Everything the speaker still knows must be re-decided when sessions
     come back: origins re-advertised into the (now empty) Adj-RIB-Out
     mirror, preserved FIB entries re-derived or swept. *)
  mark_all_dirty t

(* Expires FIB entries preserved across our own restart that were never
   re-learned (stale-path timer on the restarting speaker). *)
let sweep_own_stale t env : outbox =
  let victims = fib_stale_pids t in
  t.fib_stale <- None;
  List.iter (fun _ -> Obs.Metrics.incr m_stale_swept) victims;
  evaluate_pids t env victims

let set_ingress_policy t env ~peer policy =
  (peer_record t peer).ingress <- Some policy;
  (* Only routes learned from [peer] pass through this policy: prefixes
     without an Adj-RIB-In entry from it cannot change. *)
  Tbl.iter (fun p rib -> if rib_has_peer rib peer then mark_dirty t p) t.rib_in;
  batch_invalidate t;
  evaluate_batch t env

let set_egress_policy t env ~peer policy =
  (peer_record t peer).egress <- policy;
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
  Tbl.fold (fun p state acc -> (prefix_of p, state) :: acc) t.fib_table []
  |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)

let fib_lookup t prefix = Tbl.find_opt t.fib_table (pid prefix)

let fib_longest_match t destination =
  Tbl.fold
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

let ingress_policy t ~peer = Option.bind (find_peer t peer) (fun r -> r.ingress)

let rib_in_size t = Tbl.fold (fun _ rib acc -> acc + rib.len) t.rib_in 0

let advertised_to t ~peer =
  match find_peer t peer with
  | None -> []
  | Some r ->
    Tbl.fold (fun p attr acc -> (prefix_of p, attr) :: acc) r.rib_out []
    |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)

let originated t =
  Option.fold ~none:[]
    ~some:(fun o -> Tbl.fold (fun p attr acc -> (prefix_of p, attr) :: acc) o [])
    t.origin_table
  |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)

let stale_routes t =
  Option.fold ~none:[]
    ~some:(fun marks ->
      Triple.fold
        (fun (p, peer, session) marked_at acc ->
          (prefix_of p, peer, session, marked_at) :: acc)
        marks [])
    t.stale
  |> List.sort (fun (p1, pe1, s1, _) (p2, pe2, s2, _) ->
         let c = Net.Prefix.compare p1 p2 in
         if c <> 0 then c
         else
           let c = Int.compare pe1 pe2 in
           if c <> 0 then c else Int.compare s1 s2)

let fib_stale_prefixes t = List.map prefix_of (fib_stale_pids t)

let fib_find t p = Tbl.find_opt t.fib_table p
let fib_preserved = fib_stale_mem
let stale_marked = has_stale_mark

let rib_in_attr t p ~peer ~session =
  match Tbl.find_opt t.rib_in p with
  | None -> None
  | Some rib ->
    let i = rib_find rib peer session in
    if i >= 0 then Some rib.attrs.(i) else None

let rib_out_attr t ~peer p =
  match find_peer t peer with
  | None -> None
  | Some r -> Tbl.find_opt r.rib_out p

let has_stale_state t =
  (match t.stale with Some marks -> Triple.length marks > 0 | None -> false)
  || match t.fib_stale with Some s -> Tbl.length s > 0 | None -> false

let routes_from t ~peer ~session =
  Tbl.fold
    (fun p rib acc ->
      let i = rib_find rib peer session in
      if i >= 0 then (prefix_of p, rib.attrs.(i)) :: acc else acc)
    t.rib_in []
  |> List.sort (fun (a, _) (b, _) -> Net.Prefix.compare a b)
