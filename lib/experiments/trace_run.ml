(* The `centralium trace` runner: executes a scenario with provenance on
   (and a span recorder, for the Perfetto export), then renders the
   network's provenance DAG, the convergence critical path for the traced
   prefix, and — for the chaos scenario — the blackhole attribution joining
   the loss integral's segments to the FIB events that opened/closed them.

   The human and --json outputs contain only virtual-time data, so they
   are byte-identical across runs at the same seed; --perfetto adds the
   span tree, whose wall-clock fallbacks are not deterministic. *)

type format = Human | Json | Perfetto

type summary = {
  scenario : string;
  seed : int;
  prefix : string;
  causal_events : int;
  critical_events : int;
  convergence_s : float option;
  blackhole_seconds : float;
  attributed_seconds : float;
  attributed_segments : int;
}

let scenarios = [ "converge"; "chaos" ]

let prefix_name id =
  if id < 0 then "-" else Net.Prefix.to_string (Net.Intern.Prefix_id.value id)

let origin_attr () =
  Net.Attr.make
    ~communities:
      (Net.Community.Set.singleton
         Net.Community.Well_known.backbone_default_route)
    ()

(* Hand-checkable convergence: a small Clos slice (2 pods, 2 of everything),
   constant 1 ms link latency, one origin announce from the first EB. The
   critical path is then literally the hop chain EB -> FAUU -> FADU -> SSW
   -> FSW -> RSW with 1 ms wire edges, and its per-edge delays sum to the
   observed convergence time. *)
let run_converge ~seed ~prefix () =
  let f =
    Topology.Clos.fabric ~pods:2 ~rsws_per_pod:2 ~fsws_per_pod:2
      ~ssws_per_plane:2 ~grids:2 ~fauus_per_grid:2 ~ebs:2 ()
  in
  let net =
    Bgp.Network.create ~seed ~latency:(fun _ -> 0.001) f.Topology.Clos.graph
  in
  let origin = List.hd f.Topology.Clos.ebs in
  Bgp.Network.originate net origin prefix (origin_attr ());
  ignore (Bgp.Network.converge net);
  ([], 0.0)

let run_chaos ~seed ~gr () =
  let m = Scenarios.Chaos.run_mode ~seed ~gr () in
  let segments =
    List.map
      (fun (s : Dataplane.Metrics.loss_segment) ->
        (s.seg_from, s.seg_until, s.seg_blackholed))
      m.Scenarios.Chaos.loss_segments
  in
  (segments, m.Scenarios.Chaos.blackhole_seconds)

let human_lines ~scenario ~seed ~gr ~prefix ~causal ~chain ~attribution
    ~blackhole_seconds =
  let pfx = Net.Prefix.to_string prefix in
  let buf = ref [] in
  let line fmt = Printf.ksprintf (fun s -> buf := s :: !buf) fmt in
  line "trace: scenario=%s seed=%d gr=%b prefix=%s causal-events=%d" scenario
    seed gr pfx (Obs.Causal.length causal);
  (match chain with
   | None -> line "no FIB change recorded for %s" pfx
   | Some chain ->
     List.iter (fun l -> buf := l :: !buf)
       (Obs.Causal.chain_lines ~prefix_name chain));
  if attribution <> [] || blackhole_seconds > 0.0 then begin
    line "blackhole attribution for %s (total %.6f blackhole-seconds):" pfx
      blackhole_seconds;
    let describe ids =
      match ids with
      | [] -> "(pre-existing state)"
      | ids ->
        String.concat "; "
          (List.map
             (fun id ->
               match Obs.Causal.event causal id with
               | Some ev ->
                 Printf.sprintf "#%d %s t=%.6f" id
                   (Obs.Causal.kind_label ev.Obs.Causal.kind)
                   ev.Obs.Causal.time
               | None -> Printf.sprintf "#%d" id)
             ids)
    in
    List.iter
      (fun (a : Obs.Causal.attributed) ->
        line "  [%.6f, %.6f) fraction %.4f = %.6fs  opened by %s  closed by %s"
          a.a_from a.a_until a.a_fraction a.a_seconds
          (describe a.a_opened_by) (describe a.a_closed_by))
      attribution
  end;
  List.rev !buf

let json_doc ~scenario ~seed ~gr ~prefix ~causal ~chain ~attribution
    ~blackhole_seconds ~attributed_seconds =
  Obs.Json.Obj
    [
      ("scenario", Obs.Json.String scenario);
      ("seed", Obs.Json.Int seed);
      ("gr", Obs.Json.Bool gr);
      ("prefix", Obs.Json.String (Net.Prefix.to_string prefix));
      ("causal_events", Obs.Json.Int (Obs.Causal.length causal));
      ("critical_path",
       match chain with
       | Some chain -> Obs.Causal.chain_to_json ~prefix_name chain
       | None -> Obs.Json.Null);
      ("blackhole_seconds", Obs.Json.Float blackhole_seconds);
      ("attributed_seconds", Obs.Json.Float attributed_seconds);
      ("blackhole_attribution",
       Obs.Json.List (List.map Obs.Causal.attributed_to_json attribution));
      ("events", Obs.Causal.to_json ~prefix_name causal);
    ]

let run ?(seed = 42) ?(gr = true) ?(prefix = Net.Prefix.default_v4) ~scenario
    ~format ~write () =
  let spans = Obs.Span.create () in
  let execute () =
    Obs.Span.with_recorder spans @@ fun () ->
    match scenario with
    | "converge" -> Ok (run_converge ~seed ~prefix ())
    | "chaos" -> Ok (run_chaos ~seed ~gr ())
    | other ->
      Error
        (Printf.sprintf "unknown trace scenario %S (available: %s)" other
           (String.concat ", " scenarios))
  in
  match Bgp.Trace.with_provenance execute with
  | (Error _ as e), _ -> e
  | Ok (segments, blackhole_seconds), logs ->
    (* Each scenario runs one network. *)
    let causal = Bgp.Trace.dag (List.hd logs) in
    (* Chaos schedules can leave scopes open at the export point. *)
    Obs.Span.close_open spans;
    let pid = Net.Intern.Prefix_id.id prefix in
    let chain = Obs.Causal.critical_path causal ~prefix:pid in
    let attribution = Obs.Causal.attribute causal ~prefix:pid ~segments in
    let attributed_seconds =
      List.fold_left
        (fun acc (a : Obs.Causal.attributed) -> acc +. a.a_seconds)
        0.0 attribution
    in
    (match format with
     | Human ->
       List.iter
         (fun l -> write (l ^ "\n"))
         (human_lines ~scenario ~seed ~gr ~prefix ~causal ~chain ~attribution
            ~blackhole_seconds)
     | Json ->
       write
         (Obs.Json.to_string
            (json_doc ~scenario ~seed ~gr ~prefix ~causal ~chain ~attribution
               ~blackhole_seconds ~attributed_seconds));
       write "\n"
     | Perfetto ->
       write
         (Obs.Json.to_string (Obs.Export.perfetto ~spans ~causal ~prefix_name ()));
       write "\n");
    Ok
      {
        scenario;
        seed;
        prefix = Net.Prefix.to_string prefix;
        causal_events = Obs.Causal.length causal;
        critical_events =
          (match chain with
           | Some c -> List.length c.Obs.Causal.c_events
           | None -> 0);
        convergence_s =
          (match chain with Some c -> Some c.Obs.Causal.c_total | None -> None);
        blackhole_seconds;
        attributed_seconds;
        attributed_segments = List.length attribution;
      }
