type key = string * (string * string) list

type t = {
  mutable on : bool;
  counters : (key, counter) Hashtbl.t;
  gauges : (key, gauge) Hashtbl.t;
  histograms : (key, histogram) Hashtbl.t;
}

and counter = {
  c_owner : t;
  c_name : string;
  c_labels : (string * string) list;
  mutable c_value : int;
}

and gauge = {
  g_owner : t;
  g_name : string;
  g_labels : (string * string) list;
  mutable g_value : float;
}

and histogram = {
  h_owner : t;
  h_name : string;
  h_labels : (string * string) list;
  mutable h_data : float array;
  mutable h_len : int;
}

let create ?(enabled = false) () =
  {
    on = enabled;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let default = create ()

let set_enabled t on = t.on <- on
let is_enabled t = t.on

let reset t =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.0) t.gauges;
  Hashtbl.iter (fun _ h -> h.h_len <- 0) t.histograms

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let intern table key make =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = make () in
    Hashtbl.replace table key v;
    v

(* ---------------- Counters ---------------- *)

let counter ?(registry = default) ?(labels = []) name =
  let labels = normalize_labels labels in
  intern registry.counters (name, labels) (fun () ->
      { c_owner = registry; c_name = name; c_labels = labels; c_value = 0 })

let incr ?(by = 1) c =
  if c.c_owner.on then c.c_value <- c.c_value + by

let value c = c.c_value

(* ---------------- Gauges ---------------- *)

let gauge ?(registry = default) ?(labels = []) name =
  let labels = normalize_labels labels in
  intern registry.gauges (name, labels) (fun () ->
      { g_owner = registry; g_name = name; g_labels = labels; g_value = 0.0 })

let set_gauge g v = if g.g_owner.on then g.g_value <- v
let add_gauge g v = if g.g_owner.on then g.g_value <- g.g_value +. v
let gauge_value g = g.g_value

(* ---------------- Histograms ---------------- *)

let histogram ?(registry = default) ?(labels = []) name =
  let labels = normalize_labels labels in
  intern registry.histograms (name, labels) (fun () ->
      { h_owner = registry; h_name = name; h_labels = labels;
        h_data = [||]; h_len = 0 })

let observe h x =
  if h.h_owner.on then begin
    if h.h_len = Array.length h.h_data then begin
      let grown = Array.make (max 64 (2 * Array.length h.h_data)) 0.0 in
      Array.blit h.h_data 0 grown 0 h.h_len;
      h.h_data <- grown
    end;
    h.h_data.(h.h_len) <- x;
    h.h_len <- h.h_len + 1
  end

let samples h = Array.to_list (Array.sub h.h_data 0 h.h_len)

let summary h = if h.h_len = 0 then None else Some (Dsim.Stats.summarize (samples h))

(* ---------------- Export ---------------- *)

let summary_fields (s : Dsim.Stats.summary) =
  [
    ("count", Json.Int s.count);
    ("mean", Json.Float s.mean);
    ("min", Json.Float s.min);
    ("max", Json.Float s.max);
    ("p50", Json.Float s.p50);
    ("p90", Json.Float s.p90);
    ("p95", Json.Float s.p95);
    ("p99", Json.Float s.p99);
  ]

let labels_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let sorted_fold table extract =
  Hashtbl.fold (fun key v acc -> (key, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (_, v) -> extract v)

let snapshot t =
  let counters =
    sorted_fold t.counters (fun c ->
        Json.Obj
          [
            ("name", Json.String c.c_name);
            ("labels", labels_json c.c_labels);
            ("value", Json.Int c.c_value);
          ])
  in
  let gauges =
    sorted_fold t.gauges (fun g ->
        Json.Obj
          [
            ("name", Json.String g.g_name);
            ("labels", labels_json g.g_labels);
            ("value", Json.Float g.g_value);
          ])
  in
  let histograms =
    sorted_fold t.histograms (fun h ->
        let stats =
          match summary h with
          | None -> [ ("count", Json.Int 0) ]
          | Some s -> summary_fields s
        in
        Json.Obj
          (("name", Json.String h.h_name)
           :: ("labels", labels_json h.h_labels)
           :: stats))
  in
  Json.Obj
    [
      ("counters", Json.List counters);
      ("gauges", Json.List gauges);
      ("histograms", Json.List histograms);
    ]
