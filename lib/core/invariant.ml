(* Observability instruments (shared registry; no-ops until enabled). *)
let m_checks = Obs.Metrics.counter "invariant.checks"
let m_violations = Obs.Metrics.counter "invariant.violations"

type kind =
  | Forwarding_loop
  | Blackhole
  | Rib_inconsistency
  | Dead_next_hop
  | Unstable
  | Session_stale
  | Stale_route
  | Dual_leader
  | Stale_epoch_write

let kind_name = function
  | Forwarding_loop -> "forwarding-loop"
  | Blackhole -> "blackhole"
  | Rib_inconsistency -> "rib-inconsistency"
  | Dead_next_hop -> "dead-next-hop"
  | Unstable -> "unstable"
  | Session_stale -> "session-stale"
  | Stale_route -> "stale-route"
  | Dual_leader -> "dual-leader"
  | Stale_epoch_write -> "stale-epoch-write"

type violation = {
  device : int option;
  prefix : Net.Prefix.t option;
  kind : kind;
  detail : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "[%s]" (kind_name v.kind);
  Option.iter (fun d -> Format.fprintf ppf " device %d" d) v.device;
  Option.iter (fun p -> Format.fprintf ppf " %a" Net.Prefix.pp p) v.prefix;
  Format.fprintf ppf ": %s" v.detail

(* ---------------- The sweep frame ---------------- *)

(* What every check of one sweep reads, built once per sweep: the graph in
   dense positions with each device's speaker, and the network's known
   prefix ids sorted by prefix. The checks probe speaker state by prefix id
   and push what they find onto [out], newest first; the sweep reverses it
   once. Nothing keeps a frame after its sweep. *)
type frame = {
  net : Bgp.Network.t;
  topo : Topology.Frame.t;
  devices : int list;  (* sorted *)
  speakers : Bgp.Speaker.t array;  (* by position *)
  known : int list;
  (* The blackhole search's work arrays, by position: a position is
     reached by the current search when its stamp is the search's. *)
  reached : int array;
  queue : int array;
  mutable search : int;
  mutable out : violation list;
}

let frame net =
  let topo = Topology.Frame.make (Bgp.Network.graph net) in
  let n = Topology.Frame.size topo in
  {
    net;
    topo;
    devices = Topology.Frame.devices topo;
    speakers = Array.map (Bgp.Network.speaker net) (Topology.Frame.ids topo);
    known = Bgp.Network.known_pids net;
    reached = Array.make n 0;
    queue = Array.make n 0;
    search = 0;
    out = [];
  }

let push fr v = fr.out <- v :: fr.out

let speaker_of fr d =
  let i = Topology.Frame.position fr.topo d in
  if i >= 0 then fr.speakers.(i) else Bgp.Network.speaker fr.net d

(* ---------------- Forwarding loops ---------------- *)

let check_forwarding ?prefix ~lookup ~devices () =
  List.map
    (fun cycle ->
      {
        device = (match cycle with d :: _ -> Some d | [] -> None);
        prefix;
        kind = Forwarding_loop;
        detail =
          "cycle " ^ String.concat " -> " (List.map string_of_int cycle);
      })
    (Dataplane.Metrics.find_forwarding_loops ~lookup ~devices)

let forwarding fr prefix p =
  List.iter (push fr)
    (check_forwarding ~prefix
       ~lookup:(fun d -> Bgp.Speaker.fib_find (speaker_of fr d) p)
       ~devices:fr.devices ())

(* ---------------- Blackholes ---------------- *)

(* One breadth-first search from every origin of the prefix at once, over
   up links: a device it reaches with no route has a surviving physical
   path to some origin. Origins hold [Local], so they are never reported. *)
let blackholes fr prefix p =
  fr.search <- fr.search + 1;
  let stamp = fr.search and reached = fr.reached and queue = fr.queue in
  let route i = Bgp.Speaker.fib_find fr.speakers.(i) p in
  let tail = ref 0 in
  Array.iteri
    (fun i _ ->
      match route i with
      | Some Bgp.Speaker.Local ->
        reached.(i) <- stamp;
        queue.(!tail) <- i;
        incr tail
      | Some (Bgp.Speaker.Entries _) | None -> ())
    fr.speakers;
  let head = ref 0 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    Array.iter
      (fun j ->
        if reached.(j) <> stamp then begin
          reached.(j) <- stamp;
          queue.(!tail) <- j;
          incr tail
        end)
      (Topology.Frame.up fr.topo x)
  done;
  let ids = Topology.Frame.ids fr.topo in
  Array.iteri
    (fun i d ->
      if reached.(i) = stamp then
        match route i with
        | None ->
          push fr
            {
              device = Some d;
              prefix = Some prefix;
              kind = Blackhole;
              detail = "no route although a physical path to an origin survives";
            }
        | Some _ -> ())
    ids

(* ---------------- Per-entry RIB / liveness checks ---------------- *)

let entries fr prefix p =
  let graph = Topology.Frame.graph fr.topo in
  Array.iteri
    (fun i d ->
      let sp = fr.speakers.(i) in
      match Bgp.Speaker.fib_find sp p with
      | Some Bgp.Speaker.Local | None -> ()
      | Some (Bgp.Speaker.Entries _) when Bgp.Speaker.fib_preserved sp p ->
        (* The whole entry set is preserved from before the device's own
           graceful restart; its justifying RIBs are deliberately gone.
           The stale check reports it instead (a leak only at
           quiescence). *)
        ()
      | Some (Bgp.Speaker.Entries es) ->
        List.iter
          (fun (e : Bgp.Speaker.entry) ->
            let peer = e.Bgp.Speaker.next_hop
            and session = e.Bgp.Speaker.session in
            if Option.is_none (Bgp.Speaker.rib_in_attr sp p ~peer ~session)
            then
              push fr
                {
                  device = Some d;
                  prefix = Some prefix;
                  kind = Rib_inconsistency;
                  detail =
                    Printf.sprintf
                      "FIB entry via %d session %d has no Adj-RIB-In route"
                      peer session;
                };
            let link_up =
              match Topology.Graph.find_link graph d peer with
              | Some link -> link.Topology.Graph.up
              | None -> false
            in
            (* Forwarding on a stale route over an up link is the
               sanctioned graceful-restart state (reported by the stale
               check if it persists), not a dead next hop. *)
            if
              not
                (link_up
                && (Bgp.Speaker.session_up sp ~peer ~session
                   || Bgp.Speaker.stale_marked sp p ~peer ~session))
            then
              push fr
                {
                  device = Some d;
                  prefix = Some prefix;
                  kind = Dead_next_hop;
                  detail =
                    Printf.sprintf
                      "FIB entry via %d session %d references a dead next \
                       hop"
                      peer session;
                })
          es)
    (Topology.Frame.ids fr.topo)

(* ---------------- Graceful-restart stale state ---------------- *)

(* Stale marks are legitimate only while a restart/resync is in progress; a
   mark that survives to quiescence means the sweep machinery leaked. A
   speaker with neither marks nor preserved entries has nothing to list. *)
let stale d sp =
  if not (Bgp.Speaker.has_stale_state sp) then []
  else
    List.map
      (fun (prefix, peer, session, marked_at) ->
        {
          device = Some d;
          prefix = Some prefix;
          kind = Stale_route;
          detail =
            Printf.sprintf
              "route from peer %d session %d still stale (marked at %.4fs)"
              peer session marked_at;
        })
      (Bgp.Speaker.stale_routes sp)
    @ List.map
        (fun prefix ->
          {
            device = Some d;
            prefix = Some prefix;
            kind = Stale_route;
            detail = "FIB entry preserved across restart was never re-learned";
          })
        (Bgp.Speaker.fib_stale_prefixes sp)

(* ---------------- Session staleness ---------------- *)

(* For every session both ends consider established, what the sender's
   Adj-RIB-Out holds must match what the receiver's Adj-RIB-In heard. A
   divergence at quiescence means the transport silently ate messages — the
   blinded-session failure mode that, without liveness timers, no other
   check can see (each end is internally converged on its own inputs).
   One walk over the known ids probes both tables: a route sent and not
   heard (or heard differently) is reported in prefix order, then every
   route heard and no longer sent. *)
let session_direction fr ~src ~dst session =
  let sender = speaker_of fr src and receiver = speaker_of fr dst in
  if
    Bgp.Speaker.session_up sender ~peer:dst ~session
    && Bgp.Speaker.session_up receiver ~peer:src ~session
  then begin
    let violation p detail =
      {
        device = Some dst;
        prefix = Some (Net.Intern.Prefix_id.value p);
        kind = Session_stale;
        detail;
      }
    in
    let ghosts =
      List.fold_left
        (fun ghosts p ->
          match
            ( Bgp.Speaker.rib_out_attr sender ~peer:dst p,
              Bgp.Speaker.rib_in_attr receiver p ~peer:src ~session )
          with
          | None, None -> ghosts
          | _ when Bgp.Speaker.stale_marked receiver p ~peer:src ~session ->
            ghosts
          | Some sent, Some got ->
            if not (Net.Attr.equal got sent) then
              push fr
                (violation p
                   (Printf.sprintf
                      "route from %d session %d differs from what the peer \
                       advertised"
                      src session));
            ghosts
          | Some _, None ->
            push fr
              (violation p
                 (Printf.sprintf
                    "peer %d advertised this prefix on session %d but it was \
                     never received"
                    src session));
            ghosts
          | None, Some _ -> p :: ghosts)
        [] fr.known
    in
    List.iter
      (fun p ->
        push fr
          (violation p
             (Printf.sprintf
                "route held from %d session %d is no longer in the peer's \
                 Adj-RIB-Out"
                src session)))
      (List.rev ghosts)
  end

let session_staleness fr =
  List.iter
    (fun (link : Topology.Graph.link) ->
      if link.Topology.Graph.up then
        for session = 0 to link.Topology.Graph.sessions - 1 do
          session_direction fr ~src:link.a ~dst:link.b session;
          session_direction fr ~src:link.b ~dst:link.a session
        done)
    (Topology.Graph.links (Topology.Frame.graph fr.topo))

(* ---------------- Stability ---------------- *)

(* Every device re-decides, afresh, exactly the prefixes it knows:
   the frame's sorted list filtered by the speaker, so the ids come in
   prefix order as the speaker's own walk would give them. *)
let stability fr =
  let env = Bgp.Network.env fr.net in
  Array.iteri
    (fun i d ->
      let sp = fr.speakers.(i) in
      List.iter
        (fun div ->
          push fr
            (match div with
             | Bgp.Speaker.Stale_fib { prefix } ->
               {
                 device = Some d;
                 prefix = Some prefix;
                 kind = Unstable;
                 detail = "installed FIB differs from decision-process output";
               }
             | Bgp.Speaker.Stale_advert { prefix; peer } ->
               {
                 device = Some d;
                 prefix = Some prefix;
                 kind = Unstable;
                 detail =
                   Printf.sprintf
                     "advertisement to peer %d differs from decision-process \
                      output"
                     peer;
               }))
        (Bgp.Speaker.divergences_at sp env
           (List.filter (Bgp.Speaker.knows sp) fr.known)))
    (Topology.Frame.ids fr.topo)

(* ---------------- Entry points ---------------- *)

let found fr = List.rev fr.out

let check_stale net devices =
  List.concat_map (fun d -> stale d (Bgp.Network.speaker net d)) devices

let check_session_staleness net =
  let fr = frame net in
  session_staleness fr;
  found fr

let sweep ?prefixes net =
  Obs.Span.with_span "invariant.sweep" @@ fun () ->
  let fr = frame net in
  let per_prefix prefix p =
    forwarding fr prefix p;
    blackholes fr prefix p;
    entries fr prefix p
  in
  (match prefixes with
   | Some ps ->
     List.iter (fun prefix -> per_prefix prefix (Net.Intern.Prefix_id.id prefix)) ps
   | None ->
     List.iter (fun p -> per_prefix (Net.Intern.Prefix_id.value p) p) fr.known);
  stability fr;
  Array.iteri
    (fun i d -> List.iter (push fr) (stale d fr.speakers.(i)))
    (Topology.Frame.ids fr.topo);
  session_staleness fr;
  found fr

(* The last sweep: the stamp of the network it read, the prefixes it was
   asked about, and what it found. A sweep reads only state the stamp
   covers and changes nothing, so asking again before the stamp moves gets
   the same answer. *)
let last_sweep = ref None

let check ?prefixes net =
  Obs.Metrics.incr m_checks;
  let stamp = Bgp.Network.stamp net in
  let found =
    match !last_sweep with
    | Some (s, ps, found)
      when Bgp.Network.stamp_equal s stamp
           && Option.equal (List.equal Net.Prefix.equal) ps prefixes ->
      found
    | Some _ | None ->
      let found = sweep ?prefixes net in
      last_sweep := Some (stamp, prefixes, found);
      found
  in
  Obs.Metrics.incr ~by:(List.length found) m_violations;
  found

let record net violations =
  let time = Bgp.Network.now net in
  let trace = Bgp.Network.trace net in
  List.iter
    (fun v ->
      Bgp.Trace.record trace
        (Bgp.Trace.Violation
           {
             time;
             device = v.device;
             prefix = v.prefix;
             kind = kind_name v.kind;
             detail = v.detail;
           }))
    violations

let monitor ?(period = 0.005) ~until net =
  if period <= 0.0 then invalid_arg "Invariant.monitor: period must be positive";
  let queue = Bgp.Network.queue net in
  let rec arm () =
    if Bgp.Network.now net +. period <= until then
      Dsim.Event_queue.schedule queue ~delay:period tick
  and tick () =
    record net (check net);
    arm ()
  in
  arm ()

(* ---------------- Control-plane HA ---------------- *)

let check_ha ~grants ~commits =
  (* Dual leader: two different epochs' lease validity windows overlap —
     at some instant two holders both believed they led. CAS-linearized
     acquisition only claims expired leases, so any overlap means the
     renewal/TTL arithmetic (or a partition workaround) is broken. The
     same epoch granted to two holders is the same disease through a
     different failure. *)
  let dual =
    let rec pairs = function
      | [] -> []
      | g :: rest -> List.map (fun g' -> (g, g')) rest @ pairs rest
    in
    List.filter_map
      (fun ((h1, e1, s1, x1), (h2, e2, s2, x2)) ->
        let overlap = Float.max s1 s2 < Float.min x1 x2 in
        if (e1 <> e2 && overlap) || (e1 = e2 && h1 <> h2) then
          Some
            {
              device = Some h2;
              prefix = None;
              kind = Dual_leader;
              detail =
                Printf.sprintf
                  "leases overlap: holder %d epoch %d [%.6f, %.6f) vs holder \
                   %d epoch %d [%.6f, %.6f)"
                  h1 e1 s1 x1 h2 e2 s2 x2;
            }
        else None)
      (pairs grants)
  in
  (* Stale-epoch write: a mutation committed under epoch e after some
     epoch e' > e had already been granted — the fence (agent- or
     NSDB-side) let a deposed leader's write through. Epoch 0 marks
     unfenced single-controller operation and is exempt. *)
  let stale =
    List.filter_map
      (fun (time, e) ->
        if e = 0 then None
        else
          match
            List.find_opt
              (fun (_, e', s', _) -> e' > e && s' <= time)
              grants
          with
          | Some (h', e', s', _) ->
            Some
              {
                device = Some h';
                prefix = None;
                kind = Stale_epoch_write;
                detail =
                  Printf.sprintf
                    "write committed at %.6f under epoch %d after epoch %d \
                     was granted at %.6f"
                    time e e' s';
              }
          | None -> None)
      commits
  in
  dual @ stale
