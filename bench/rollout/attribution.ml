(* Per-layer attribution of a traced round.

   Every job runs inside a root span ([bench.job]) recorded by a recorder
   of its own, which is folded into per-name totals as soon as the job
   ends, so a traced round never holds more than one job's spans. A span's
   self time is its duration minus the durations of its direct children; a
   layer's self time is the sum over the spans whose name starts with the
   layer ([agent.reconcile] belongs to [agent]). The root keeps as self
   time only what no layer span covers, so its share of the job total is
   the part of the end-to-end time the layers leave unexplained. Span
   times come from [Sys.time]: they are process CPU seconds. *)

let root = "bench.job"

(* Spans one job may record; a dropped span fails the run. *)
let max_spans = 8_000_000

(* The largest job kept for the Perfetto file, in spans. *)
let perfetto_max_spans = 250_000

type row = {
  name : string;
  calls : int;
  total_s : float;
  self_s : float;
}

type summary = {
  rows : row list;  (* sorted by name *)
  spans : int;
  dropped : int;
  perfetto : Obs.Span.t option;  (* the largest job within the cap *)
}

type state = {
  by_name : (string, int * float * float) Hashtbl.t;
  mutable spans_seen : int;
  mutable dropped_seen : int;
  mutable best : (int * Obs.Span.t) option;
}

let active : state option ref = ref None

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Folds one job's spans into [st]. Span ids are dense from 0. *)
let absorb st recorder =
  let spans = Obs.Span.spans recorder in
  let n = List.length spans in
  let dur (s : Obs.Span.span) = s.wall_stop_s -. s.wall_start_s in
  let children = Array.make n 0. in
  List.iter
    (fun (s : Obs.Span.span) ->
      Option.iter (fun p -> children.(p) <- children.(p) +. dur s) s.parent)
    spans;
  List.iter
    (fun (s : Obs.Span.span) ->
      let calls, total, self =
        Option.value (Hashtbl.find_opt st.by_name s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace st.by_name s.name
        (calls + 1, total +. dur s, self +. (dur s -. children.(s.id))))
    spans;
  st.spans_seen <- st.spans_seen + n;
  st.dropped_seen <- st.dropped_seen + Obs.Span.dropped recorder;
  match st.best with
  | Some (m, _) when m >= n -> ()
  | _ -> if n <= perfetto_max_spans then st.best <- Some (n, recorder)

(* Runs [f] as one job: a root span. In a traced round the job gets a
   recorder of its own and the shared metrics registry records while it
   runs, so set-up and the benchmark's checks between jobs count in
   neither. *)
let job f =
  match !active with
  | None -> Obs.Span.with_span root f
  | Some st ->
    let recorder = Obs.Span.create ~max_spans () in
    Layers.record_metrics true;
    let r =
      Fun.protect
        ~finally:(fun () -> Layers.record_metrics false)
        (fun () -> Obs.Span.with_recorder recorder (fun () -> Obs.Span.with_span root f))
    in
    absorb st recorder;
    r

(* Runs [f] as a traced round, from a reset metrics registry; the registry
   keeps the jobs' values after [f]. *)
let traced f =
  let st =
    { by_name = Hashtbl.create 32; spans_seen = 0; dropped_seen = 0; best = None }
  in
  Layers.reset_metrics ();
  active := Some st;
  let r = Fun.protect ~finally:(fun () -> active := None) f in
  let rows =
    Hashtbl.fold
      (fun name (calls, total_s, self_s) acc -> { name; calls; total_s; self_s } :: acc)
      st.by_name []
    |> List.sort (fun a b -> compare a.name b.name)
  in
  ( r,
    {
      rows;
      spans = st.spans_seen;
      dropped = st.dropped_seen;
      perfetto = Option.map snd st.best;
    } )

let find rows name = List.find_opt (fun r -> r.name = name) rows
let calls rows name = match find rows name with Some r -> r.calls | None -> 0

let self_ms rows name =
  match find rows name with Some r -> 1000. *. r.self_s | None -> 0.

(* (layer, self seconds), largest first. *)
let layers rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let l = layer_of r.name in
      Hashtbl.replace tbl l (r.self_s +. Option.value (Hashtbl.find_opt tbl l) ~default:0.))
    rows;
  Hashtbl.fold (fun l s acc -> (l, s) :: acc) tbl []
  |> List.sort (fun (a, x) (b, y) -> compare (y, a) (x, b))

let job_total_s rows = match find rows root with Some r -> r.total_s | None -> 0.

let unattributed_frac rows =
  match find rows root with
  | Some r when r.total_s > 0. -> r.self_s /. r.total_s
  | Some _ | None -> 0.
