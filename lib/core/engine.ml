(* Observability instruments (shared registry; no-ops until enabled). *)
let m_cache_hits = Obs.Metrics.counter "engine.cache.hits"
let m_cache_misses = Obs.Metrics.counter "engine.cache.misses"
let m_selections = Obs.Metrics.counter "engine.selections"

type mutable_stats = {
  mutable hit_count : int;
  mutable miss_count : int;
  mutable selection_count : int;
}

type t = {
  rpa : Rpa.t;
  cache_enabled : bool;
  (* (attribute intern id, signature index) packed into one int -> the
     attribute and whether the signature matched it. Holding the attribute
     keeps it interned, so an equal attribute met later gets the same id
     and the key tells apart exactly what the attributes do; keys of one
     attribute are consecutive, so the identity hash spreads them over the
     buckets. *)
  sig_cache : (Net.Attr.t * bool) Net.Int_table.t;
  (* signatures indexed by physical identity *)
  signatures : Signature.t array;
  (* the RPA's statements flattened across its policies, in order; the
     RPA is immutable, so this is done once per engine *)
  ps_statements : Path_selection.statement list;
  ra_statements : Route_attribute.statement list;
  m_stats : mutable_stats;
  mutable on_withdraw : (prefix:Net.Prefix.t -> statement:string -> unit) option;
}

let create ?(cache = true) rpa =
  let ps_statements =
    List.concat_map
      (fun (ps : Path_selection.t) -> ps.Path_selection.statements)
      rpa.Rpa.path_selection
  in
  let ra_statements =
    List.concat_map
      (fun (ra : Route_attribute.t) -> ra.Route_attribute.statements)
      rpa.Rpa.route_attribute
  in
  (* Every signature the RPA mentions, in a stable order, so each gets a
     cache id. *)
  let signatures =
    List.concat_map
      (fun st ->
        List.map
          (fun set -> set.Path_selection.ps_signature)
          st.Path_selection.path_sets)
      ps_statements
    @ List.concat_map
        (fun st ->
          List.map
            (fun w -> w.Route_attribute.w_signature)
            st.Route_attribute.next_hop_weights)
        ra_statements
  in
  {
    rpa;
    cache_enabled = cache;
    sig_cache = Net.Int_table.create 256;
    signatures = Array.of_list signatures;
    ps_statements;
    ra_statements;
    m_stats = { hit_count = 0; miss_count = 0; selection_count = 0 };
    on_withdraw = None;
  }

let rpa t = t.rpa

let set_on_withdraw t f = t.on_withdraw <- f

type stats = { hits : int; misses : int; selections : int; max_bucket : int }

let stats t =
  {
    hits = t.m_stats.hit_count;
    misses = t.m_stats.miss_count;
    selections = t.m_stats.selection_count;
    max_bucket = (Net.Int_table.stats t.sig_cache).Hashtbl.max_bucket_length;
  }

let reset_stats t =
  t.m_stats.hit_count <- 0;
  t.m_stats.miss_count <- 0;
  t.m_stats.selection_count <- 0

let clear_cache t = Net.Int_table.reset t.sig_cache

(* Physical-identity lookup: RPA structures are immutable, so the same
   signature value keeps its index for the engine's lifetime. *)
let sig_id t s =
  let n = Array.length t.signatures in
  let rec find i = if i >= n then -1 else if t.signatures.(i) == s then i else find (i + 1) in
  find 0

let sig_matches t s attr =
  if not t.cache_enabled then begin
    t.m_stats.miss_count <- t.m_stats.miss_count + 1;
    Obs.Metrics.incr m_cache_misses;
    Signature.matches s attr
  end
  else begin
    let id = sig_id t s in
    if id < 0 then Signature.matches s attr
    else
      let attr = Net.Attr.intern attr in
      let key = (Net.Attr.id attr * Array.length t.signatures) + id in
      match Net.Int_table.find_opt t.sig_cache key with
      | Some (_, result) ->
        t.m_stats.hit_count <- t.m_stats.hit_count + 1;
        Obs.Metrics.incr m_cache_hits;
        result
      | None ->
        t.m_stats.miss_count <- t.m_stats.miss_count + 1;
        Obs.Metrics.incr m_cache_misses;
        let result = Signature.matches s attr in
        Net.Int_table.replace t.sig_cache key (attr, result);
        result
  end

(* ---------------- Selection ---------------- *)

let candidate_attrs candidates = List.map (fun p -> p.Bgp.Path.attr) candidates

(* The denominator for fractional thresholds: how many of the device's live
   peers sit in the layer the candidate paths come from. *)
let fraction_denominator (ctx : Bgp.Rib_policy.ctx) (paths : Bgp.Path.t list) =
  match paths with
  | [] -> 0
  | first :: _ ->
    (match ctx.Bgp.Rib_policy.peer_layer first.Bgp.Path.peer with
     | None -> List.length paths
     | Some layer -> ctx.Bgp.Rib_policy.live_peers_in_layer layer)

let required ctx mnh ~reference =
  max 1
    (match mnh with
     | Path_selection.Count n -> n
     | Path_selection.Fraction _ ->
       Path_selection.required_count mnh
         ~denominator:(fraction_denominator ctx reference))

let threshold_met ctx mnh ~matching ~reference =
  List.length matching >= required ctx mnh ~reference

let find_statement (type a) (statements : a list) ~destination_of ctx candidates =
  let attrs = candidate_attrs candidates in
  List.find_opt
    (fun st ->
      Destination.matches (destination_of st) ctx.Bgp.Rib_policy.prefix
        ~route_attrs:attrs)
    statements

let native_fallback t ctx (st : Path_selection.statement)
    ~native:(nat_selected, nat_best) : Bgp.Rib_policy.selection =
  match st.Path_selection.bgp_native_min_next_hop with
  | None ->
    { Bgp.Rib_policy.selected = nat_selected; advertise = nat_best;
      keep_fib_warm = false }
  | Some mnh ->
    if threshold_met ctx mnh ~matching:nat_selected ~reference:nat_selected then
      { Bgp.Rib_policy.selected = nat_selected; advertise = nat_best;
        keep_fib_warm = false }
    else begin
      (* Violated with nothing to fall back to: withdraw; optionally keep
         the forwarding entries warm (Figure 14's knob). *)
      (match t.on_withdraw with
       | Some f when ctx.Bgp.Rib_policy.commit ->
         f ~prefix:ctx.Bgp.Rib_policy.prefix
           ~statement:st.Path_selection.st_name
       | Some _ | None -> ());
      {
        Bgp.Rib_policy.selected =
          (if st.Path_selection.keep_fib_warm_if_mnh_violated then nat_selected
           else []);
        advertise = None;
        keep_fib_warm = st.Path_selection.keep_fib_warm_if_mnh_violated;
      }
    end

let evaluate_selection t ~(ctx : Bgp.Rib_policy.ctx) ~candidates ~native :
    Bgp.Rib_policy.selection =
  t.m_stats.selection_count <- t.m_stats.selection_count + 1;
  Obs.Metrics.incr m_selections;
  Obs.Span.with_span "engine.select"
    ~attrs:(fun () ->
      [
        ("prefix", Net.Prefix.to_string ctx.Bgp.Rib_policy.prefix);
        ("candidates", string_of_int (List.length candidates));
      ])
  @@ fun () ->
  match
    find_statement
      t.ps_statements
      ~destination_of:(fun st -> st.Path_selection.destination)
      ctx candidates
  with
  | None ->
    let selected, advertise = native in
    { Bgp.Rib_policy.selected; advertise; keep_fib_warm = false }
  | Some st ->
    let rec walk = function
      | [] -> native_fallback t ctx st ~native
      | set :: rest ->
        let matching =
          List.filter
            (fun p ->
              sig_matches t set.Path_selection.ps_signature p.Bgp.Path.attr)
            candidates
        in
        let enough =
          matching <> []
          &&
          match set.Path_selection.ps_min_next_hop with
          | None -> true
          | Some mnh -> threshold_met ctx mnh ~matching ~reference:matching
        in
        if enough then begin
          let advertise =
            if t.rpa.Rpa.advertise_least_favorable then
              Bgp.Decision.least_favorable matching
            else
              (* Ablation of the Section 5.3.1 rule: advertise the most
                 preferred path instead (causes the Figure 9 loop). *)
              (match List.sort Bgp.Decision.preference_compare matching with
               | best :: _ -> Some best
               | [] -> None)
          in
          { Bgp.Rib_policy.selected = matching; advertise; keep_fib_warm = false }
        end
        else walk rest
    in
    walk st.Path_selection.path_sets

(* ---------------- Weights ---------------- *)

let evaluate_weights t ~(ctx : Bgp.Rib_policy.ctx) ~selected =
  let live =
    List.filter
      (fun st -> not (Route_attribute.expired st ~now:ctx.Bgp.Rib_policy.now))
      t.ra_statements
  in
  match
    find_statement live
      ~destination_of:(fun st -> st.Route_attribute.destination)
      ctx selected
  with
  | None -> None
  | Some st ->
    let weight_of (p : Bgp.Path.t) =
      match
        List.find_opt
          (fun w -> sig_matches t w.Route_attribute.w_signature p.Bgp.Path.attr)
          st.Route_attribute.next_hop_weights
      with
      | Some w -> w.Route_attribute.weight
      | None -> st.Route_attribute.default_weight
    in
    Some (List.map (fun p -> (p, weight_of p)) selected)

(* ---------------- Filters ---------------- *)

(* A filter with no statements restricts no peer, so an RPA without any
   skips the peer-layer lookup (the common case: every candidate and every
   advert of every decision passes through here). *)
let filter_accepts t direction (ctx : Bgp.Rib_policy.ctx) ~peer =
  let filters = t.rpa.Rpa.route_filter in
  List.for_all (fun rf -> List.is_empty rf.Route_filter.statements) filters
  ||
  let layer = ctx.Bgp.Rib_policy.peer_layer peer in
  List.for_all
    (fun rf ->
      Route_filter.allows rf direction ~peer ~layer ctx.Bgp.Rib_policy.prefix)
    filters

(* ---------------- Hooks ---------------- *)

let hooks t : Bgp.Rib_policy.hooks =
  {
    Bgp.Rib_policy.name = "rpa";
    ingress_accept =
      (fun ctx ~peer _attr -> filter_accepts t Route_filter.Ingress ctx ~peer);
    select =
      (fun ctx ~candidates ~native -> evaluate_selection t ~ctx ~candidates ~native);
    weights = (fun ctx ~selected -> evaluate_weights t ~ctx ~selected);
    egress_accept =
      (fun ctx ~peer _attr -> filter_accepts t Route_filter.Egress ctx ~peer);
  }
