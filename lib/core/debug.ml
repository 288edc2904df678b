type path_set_trial = {
  set_name : string;
  matched_candidates : int;
  required : int;
  chosen : bool;
}

type verdict =
  | No_matching_statement
  | Path_set_chosen of { statement : string; trials : path_set_trial list }
  | Native_fallback of { statement : string; trials : path_set_trial list }
  | Withdrawn_min_next_hop of {
      statement : string;
      available : int;
      required : int;
      fib_kept_warm : bool;
    }

type explanation = {
  verdict : verdict;
  selected_count : int;
  advertised : string option;
  weights_prescribed : bool;
  critical_path : string list;
}

let statements_of engine =
  List.concat_map
    (fun (ps : Path_selection.t) -> ps.Path_selection.statements)
    (Engine.rpa engine).Rpa.path_selection

let denominator (ctx : Bgp.Rib_policy.ctx) (paths : Bgp.Path.t list) =
  match paths with
  | [] -> 0
  | first :: _ ->
    (match ctx.Bgp.Rib_policy.peer_layer first.Bgp.Path.peer with
     | None -> List.length paths
     | Some layer -> ctx.Bgp.Rib_policy.live_peers_in_layer layer)

let required_of ctx mnh ~reference =
  match mnh with
  | None -> 1
  | Some (Path_selection.Count n) -> max 1 n
  | Some (Path_selection.Fraction _ as f) ->
    max 1
      (Path_selection.required_count f ~denominator:(denominator ctx reference))

let trials_of ctx (st : Path_selection.statement) candidates =
  let rec walk chosen_already acc = function
    | [] -> List.rev acc
    | (set : Path_selection.path_set) :: rest ->
      let matching =
        List.filter
          (fun (p : Bgp.Path.t) ->
            Signature.matches set.Path_selection.ps_signature p.Bgp.Path.attr)
          candidates
      in
      let required =
        required_of ctx set.Path_selection.ps_min_next_hop ~reference:matching
      in
      let chosen =
        (not chosen_already)
        && matching <> []
        && List.length matching >= required
      in
      walk (chosen_already || chosen)
        ({
           set_name = set.Path_selection.ps_name;
           matched_candidates = List.length matching;
           required;
           chosen;
         }
         :: acc)
        rest
  in
  walk false [] st.Path_selection.path_sets

let explain engine ~(ctx : Bgp.Rib_policy.ctx) ~candidates =
  let native = Bgp.Decision.select ~multipath:true candidates in
  let selection = Engine.evaluate_selection engine ~ctx ~candidates ~native in
  let attrs = List.map (fun (p : Bgp.Path.t) -> p.Bgp.Path.attr) candidates in
  let statement =
    List.find_opt
      (fun (st : Path_selection.statement) ->
        Destination.matches st.Path_selection.destination
          ctx.Bgp.Rib_policy.prefix ~route_attrs:attrs)
      (statements_of engine)
  in
  let verdict =
    match statement with
    | None -> No_matching_statement
    | Some st ->
      let trials = trials_of ctx st candidates in
      if List.exists (fun t -> t.chosen) trials then
        Path_set_chosen { statement = st.Path_selection.st_name; trials }
      else if
        selection.Bgp.Rib_policy.advertise = None
        && st.Path_selection.bgp_native_min_next_hop <> None
      then begin
        let nat_selected, _ = native in
        Withdrawn_min_next_hop
          {
            statement = st.Path_selection.st_name;
            available = List.length nat_selected;
            required =
              required_of ctx st.Path_selection.bgp_native_min_next_hop
                ~reference:nat_selected;
            fib_kept_warm = selection.Bgp.Rib_policy.keep_fib_warm;
          }
      end
      else Native_fallback { statement = st.Path_selection.st_name; trials }
  in
  let weights_prescribed =
    Engine.evaluate_weights engine ~ctx
      ~selected:selection.Bgp.Rib_policy.selected
    <> None
  in
  {
    verdict;
    selected_count = List.length selection.Bgp.Rib_policy.selected;
    advertised =
      Option.map
        (fun (p : Bgp.Path.t) ->
          Format.asprintf "via %d [%a]" p.Bgp.Path.peer Net.As_path.pp
            p.Bgp.Path.attr.Net.Attr.as_path)
        selection.Bgp.Rib_policy.advertise;
    weights_prescribed;
    critical_path = [];
  }

let pp_trial ppf t =
  Format.fprintf ppf "  path set %-12s matched %d (required %d)%s@."
    t.set_name t.matched_candidates t.required
    (if t.chosen then "  <- CHOSEN" else "")

let pp_explanation ppf e =
  (match e.verdict with
   | No_matching_statement ->
     Format.fprintf ppf "no RPA statement covers this destination: native BGP@."
   | Path_set_chosen { statement; trials } ->
     Format.fprintf ppf "statement %S, priority walk:@." statement;
     List.iter (pp_trial ppf) trials
   | Native_fallback { statement; trials } ->
     Format.fprintf ppf "statement %S: no path set matched, native fallback@."
       statement;
     List.iter (pp_trial ppf) trials
   | Withdrawn_min_next_hop { statement; available; required; fib_kept_warm } ->
     Format.fprintf ppf
       "statement %S: BgpNativeMinNextHop violated (%d < %d): WITHDRAWN%s@."
       statement available required
       (if fib_kept_warm then " (FIB kept warm)" else ""));
  Format.fprintf ppf "selected %d path(s); advertised: %s; weights: %s@."
    e.selected_count
    (Option.value e.advertised ~default:"(withdrawn)")
    (if e.weights_prescribed then "prescribed by Route Attribute RPA"
     else "native");
  if e.critical_path <> [] then begin
    Format.fprintf ppf "how this route got here (convergence %s):@."
      "critical path";
    List.iter (fun line -> Format.fprintf ppf "%s@." line) e.critical_path
  end

let active_rpas net agent ~device =
  let native = Bgp.Rib_policy.is_native (Bgp.Speaker.hooks (Bgp.Network.speaker net device)) in
  match Switch_agent.current_rpa agent ~device with
  | Some rpa when not (Rpa.is_empty rpa) ->
    if native then [ "WARNING: agent view has RPAs but speaker runs native hooks" ]
    else Rpa.config_lines rpa
  | Some _ | None ->
    if native then [ "(native BGP, no RPAs)" ]
    else [ "WARNING: speaker runs RPA hooks unknown to the agent" ]

(* The causal citation: the chain of events that put the current FIB entry
   for [prefix] on [device], rendered for the operator. *)
let causal_citation causal ~device prefix =
  match causal with
  | None -> []
  | Some log ->
    let prefix_name id =
      if id < 0 then "-" else Net.Prefix.to_string (Net.Intern.Prefix_id.value id)
    in
    (match
       Obs.Causal.critical_path ~device log
         ~prefix:(Net.Intern.Prefix_id.id prefix)
     with
     | Some chain -> Obs.Causal.chain_lines ~prefix_name chain
     | None -> [])

let explain_route ?causal net agent ~device prefix =
  let speaker = Bgp.Network.speaker net device in
  match Switch_agent.current_rpa agent ~device with
  | Some rpa when not (Rpa.is_empty rpa) ->
    let engine = Engine.create rpa in
    let env = Bgp.Network.env net in
    let ctx =
      {
        Bgp.Rib_policy.device;
        prefix;
        now = env.Bgp.Speaker.now;
        commit = false;
        peer_layer = env.Bgp.Speaker.peer_layer;
        live_peers_in_layer =
          (fun layer ->
            List.length
              (List.filter
                 (fun (peer, _) ->
                   match env.Bgp.Speaker.peer_layer peer with
                   | Some l -> Topology.Node.layer_equal l layer
                   | None -> false)
                 (Bgp.Speaker.peers speaker)));
      }
    in
    (* Candidates gathered under the live environment, so session-dependent
       filtering reflects the network's current simulated time. *)
    let e =
      explain engine ~ctx
        ~candidates:(Bgp.Speaker.candidates ~env speaker prefix)
    in
    Some { e with critical_path = causal_citation causal ~device prefix }
  | Some _ | None -> None
