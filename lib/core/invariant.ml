(* Observability instruments (shared registry; no-ops until enabled). *)
let m_checks = Obs.Metrics.counter "invariant.checks"
let m_violations = Obs.Metrics.counter "invariant.violations"

type kind =
  | Forwarding_loop
  | Blackhole
  | Rib_inconsistency
  | Dead_next_hop
  | Unstable
  | Compiled_mismatch
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
  | Compiled_mismatch -> "compiled-mismatch"
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

(* ---------------- Blackholes ---------------- *)

(* Devices physically connected to any of [origins] over up links. *)
let reachable_from graph origins =
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun d ->
      Hashtbl.replace seen d ();
      Queue.push d queue)
    origins;
  while not (Queue.is_empty queue) do
    let d = Queue.pop queue in
    List.iter
      (fun ((n : Topology.Node.t), _link) ->
        if not (Hashtbl.mem seen n.Topology.Node.id) then begin
          Hashtbl.replace seen n.Topology.Node.id ();
          Queue.push n.Topology.Node.id queue
        end)
      (Topology.Graph.neighbors graph d)
  done;
  seen

let check_blackholes net graph devices prefix =
  let lookup d = Bgp.Network.fib net d prefix in
  let origins =
    List.filter
      (fun d -> match lookup d with Some Bgp.Speaker.Local -> true | _ -> false)
      devices
  in
  if origins = [] then []
  else begin
    let reachable = reachable_from graph origins in
    List.filter_map
      (fun d ->
        if
          Hashtbl.mem reachable d
          && (not (List.mem d origins))
          && lookup d = None
        then
          Some
            {
              device = Some d;
              prefix = Some prefix;
              kind = Blackhole;
              detail =
                "no route although a physical path to an origin survives";
            }
        else None)
      devices
  end

(* ---------------- Per-entry RIB / liveness checks ---------------- *)

let check_entries net graph devices prefix =
  List.concat_map
    (fun d ->
      let sp = Bgp.Network.speaker net d in
      match Bgp.Speaker.fib_lookup sp prefix with
      | Some Bgp.Speaker.Local | None -> []
      | Some (Bgp.Speaker.Entries _)
        when List.exists (Net.Prefix.equal prefix)
               (Bgp.Speaker.fib_stale_prefixes sp) ->
        (* The whole entry set is preserved from before the device's own
           graceful restart; its justifying RIBs are deliberately gone.
           [check_stale] reports it instead (a leak only at quiescence). *)
        []
      | Some (Bgp.Speaker.Entries entries) ->
        let rib = Bgp.Speaker.adj_rib_in sp prefix in
        List.concat_map
          (fun (e : Bgp.Speaker.entry) ->
            let justified =
              List.exists
                (fun (peer, session, _) ->
                  peer = e.Bgp.Speaker.next_hop
                  && session = e.Bgp.Speaker.session)
                rib
            in
            let rib_v =
              if justified then []
              else
                [ {
                    device = Some d;
                    prefix = Some prefix;
                    kind = Rib_inconsistency;
                    detail =
                      Printf.sprintf
                        "FIB entry via %d session %d has no Adj-RIB-In route"
                        e.Bgp.Speaker.next_hop e.Bgp.Speaker.session;
                  } ]
            in
            let link_up =
              match Topology.Graph.find_link graph d e.Bgp.Speaker.next_hop with
              | Some link -> link.Topology.Graph.up
              | None -> false
            in
            let alive =
              link_up
              && Bgp.Speaker.session_up sp ~peer:e.Bgp.Speaker.next_hop
                   ~session:e.Bgp.Speaker.session
            in
            (* Forwarding on a stale route over an up link is the sanctioned
               graceful-restart state (reported by [check_stale] if it
               persists), not a dead next hop. *)
            let stale_sanctioned =
              link_up
              && Bgp.Speaker.is_stale sp prefix ~peer:e.Bgp.Speaker.next_hop
                   ~session:e.Bgp.Speaker.session
            in
            let dead_v =
              if alive || stale_sanctioned then []
              else
                [ {
                    device = Some d;
                    prefix = Some prefix;
                    kind = Dead_next_hop;
                    detail =
                      Printf.sprintf
                        "FIB entry via %d session %d references a dead next \
                         hop"
                        e.Bgp.Speaker.next_hop e.Bgp.Speaker.session;
                  } ]
            in
            rib_v @ dead_v)
          entries)
    devices

(* ---------------- Graceful-restart stale state ---------------- *)

(* Stale marks are legitimate only while a restart/resync is in progress; a
   mark that survives to quiescence means the sweep machinery leaked. *)
let check_stale net devices =
  List.concat_map
    (fun d ->
      let sp = Bgp.Network.speaker net d in
      let route_leaks =
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
      in
      let fib_leaks =
        List.map
          (fun prefix ->
            {
              device = Some d;
              prefix = Some prefix;
              kind = Stale_route;
              detail = "FIB entry preserved across restart was never re-learned";
            })
          (Bgp.Speaker.fib_stale_prefixes sp)
      in
      route_leaks @ fib_leaks)
    devices

(* ---------------- Session staleness ---------------- *)

(* For every session both ends consider established, what the sender's
   Adj-RIB-Out holds must match what the receiver's Adj-RIB-In heard. A
   divergence at quiescence means the transport silently ate messages — the
   blinded-session failure mode that, without liveness timers, no other
   check can see (each end is internally converged on its own inputs). *)
let check_session_staleness net =
  let graph = Bgp.Network.graph net in
  let direction src dst session =
    let sender = Bgp.Network.speaker net src in
    let receiver = Bgp.Network.speaker net dst in
    if
      not
        (Bgp.Speaker.session_up sender ~peer:dst ~session
        && Bgp.Speaker.session_up receiver ~peer:src ~session)
    then []
    else begin
      let sent = Bgp.Speaker.advertised_to sender ~peer:dst in
      let heard = Bgp.Speaker.routes_from receiver ~peer:src ~session in
      let stale prefix =
        Bgp.Speaker.is_stale receiver prefix ~peer:src ~session
      in
      let missing =
        List.filter_map
          (fun (prefix, attr) ->
            if stale prefix then None
            else
              match List.assoc_opt prefix heard with
              | Some got when Net.Attr.equal got attr -> None
              | Some _ ->
                Some
                  {
                    device = Some dst;
                    prefix = Some prefix;
                    kind = Session_stale;
                    detail =
                      Printf.sprintf
                        "route from %d session %d differs from what the peer \
                         advertised"
                        src session;
                  }
              | None ->
                Some
                  {
                    device = Some dst;
                    prefix = Some prefix;
                    kind = Session_stale;
                    detail =
                      Printf.sprintf
                        "peer %d advertised this prefix on session %d but it \
                         was never received"
                        src session;
                  })
          sent
      in
      let ghost =
        List.filter_map
          (fun (prefix, _) ->
            if stale prefix || List.mem_assoc prefix sent then None
            else
              Some
                {
                  device = Some dst;
                  prefix = Some prefix;
                  kind = Session_stale;
                  detail =
                    Printf.sprintf
                      "route held from %d session %d is no longer in the \
                       peer's Adj-RIB-Out"
                      src session;
                })
          heard
      in
      missing @ ghost
    end
  in
  List.concat_map
    (fun (link : Topology.Graph.link) ->
      if not link.Topology.Graph.up then []
      else
        List.concat_map
          (fun session ->
            direction link.a link.b session @ direction link.b link.a session)
          (List.init link.Topology.Graph.sessions Fun.id))
    (Topology.Graph.links graph)

(* ---------------- Stability ---------------- *)

let check_stability net devices =
  let env = Bgp.Network.env net in
  List.concat_map
    (fun d ->
      let sp = Bgp.Network.speaker net d in
      List.map
        (function
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
            })
        (Bgp.Speaker.divergences sp env))
    devices

(* ---------------- Entry points ---------------- *)

let sweep ?prefixes net =
  Obs.Span.with_span "invariant.sweep" @@ fun () ->
  let graph = Bgp.Network.graph net in
  let devices =
    List.map (fun n -> n.Topology.Node.id) (Topology.Graph.nodes graph)
  in
  let prefixes =
    match prefixes with
    | Some ps -> ps
    | None -> Bgp.Network.known_prefixes net
  in
  let per_prefix =
    List.concat_map
      (fun prefix ->
        check_forwarding ~prefix
          ~lookup:(fun d -> Bgp.Network.fib net d prefix)
          ~devices ()
        @ check_blackholes net graph devices prefix
        @ check_entries net graph devices prefix)
      prefixes
  in
  per_prefix @ check_stability net devices @ check_stale net devices
  @ check_session_staleness net

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

let check_compiled net (compiled : Fallback_compiler.compiled) =
  List.filter_map
    (fun (device, peer, policy) ->
      let sp = Bgp.Network.speaker net device in
      match Bgp.Speaker.ingress_policy sp ~peer with
      | Some installed when installed = policy -> None
      | Some _ | None ->
        Some
          {
            device = Some device;
            prefix = None;
            kind = Compiled_mismatch;
            detail =
              Printf.sprintf
                "compiled ingress policy for peer %d is not installed" peer;
          })
    compiled.Fallback_compiler.ingress_policies

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
