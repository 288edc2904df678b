let transit_share (result : Traffic.result) ~device ~total =
  if total <= 0.0 then 0.0
  else
    Option.value (Hashtbl.find_opt result.Traffic.transit device) ~default:0.0
    /. total

let funneling result ~members ~total =
  List.fold_left
    (fun acc device -> Float.max acc (transit_share result ~device ~total))
    0.0 members

let loss_fraction (result : Traffic.result) ~total =
  if total <= 0.0 then 0.0
  else (result.Traffic.dropped +. result.Traffic.looped) /. total

let blackholed_fraction (result : Traffic.result) ~total =
  if total <= 0.0 then 0.0 else result.Traffic.dropped /. total

let looped_fraction (result : Traffic.result) ~total =
  if total <= 0.0 then 0.0 else result.Traffic.looped /. total

let find_forwarding_loops ~lookup ~devices =
  (* DFS with colors; 0/absent = white, 1 = on current path, 2 = done.
     [path] holds the devices from the current one's parent back to the
     root, so hitting a gray node yields the cycle as the path segment back
     to that node. *)
  let color = Hashtbl.create 64 in
  let cycles = ref [] in
  let normalize cycle =
    (* Rotate so the smallest id leads: the same cycle found from different
       entry points is reported once. *)
    match cycle with
    | [] -> []
    | _ :: _ ->
      let smallest = List.fold_left min max_int cycle in
      let rec rotate n = function
        | d :: rest when d <> smallest && n < List.length cycle ->
          rotate (n + 1) (rest @ [ d ])
        | rotated -> rotated
      in
      rotate 0 cycle
  in
  let rec visit path device =
    match Hashtbl.find_opt color device with
    | Some 2 -> ()
    | Some 1 ->
      let rec back_to = function
        | [] -> []
        | d :: rest -> if d = device then [] else d :: back_to rest
      in
      let cycle = normalize (device :: List.rev (back_to path)) in
      if cycle <> [] && not (List.mem cycle !cycles) then
        cycles := cycle :: !cycles
    | Some _ | None ->
      Hashtbl.replace color device 1;
      (match lookup device with
       | Some (Bgp.Speaker.Entries entries) ->
         List.iter
           (fun e -> visit (device :: path) e.Bgp.Speaker.next_hop)
           entries
       | Some Bgp.Speaker.Local | None -> ());
      Hashtbl.replace color device 2
  in
  List.iter (fun d -> visit [] d) devices;
  List.rev !cycles

let max_funneling_over_timeline ~timeline ~demands ~members =
  let total = Traffic.total_demand demands in
  List.fold_left
    (fun (worst, at) (time, snapshot) ->
      let result = Traffic.route_snapshot snapshot ~demands in
      let f = funneling result ~members ~total in
      if f > worst then (f, time) else (worst, at))
    (0.0, 0.0) timeline

type loss_integral = {
  blackhole_seconds : float;
  loss_seconds : float;
  duration : float;
}

type loss_segment = {
  seg_from : float;
  seg_until : float;
  seg_blackholed : float;
  seg_lost : float;
}

let loss_segments ~initial ~timeline ~demands ~from_time ~until =
  let total = Traffic.total_demand demands in
  (* Same arithmetic as [blackholed_fraction] / [loss_fraction], over the
     loss-only propagation. *)
  let fractions snapshot =
    if total <= 0.0 then (0.0, 0.0)
    else
      let l = Traffic.loss_snapshot snapshot ~demands in
      ( l.Traffic.loss_dropped /. total,
        (l.Traffic.loss_dropped +. l.Traffic.loss_looped) /. total )
  in
  let initial_snapshot = Hashtbl.create 16 in
  List.iter
    (fun (device, state) -> Hashtbl.replace initial_snapshot device state)
    initial;
  (* Piecewise-constant decomposition: each FIB snapshot holds from its
     change instant until the next one (the initial snapshot from
     [from_time]); the last segment extends to [until]. Segments are
     clamped to the [from_time, until) window; empty ones are dropped. *)
  let rec segments snapshot start = function
    | [] -> [ (snapshot, start, until) ]
    | (time, next) :: rest -> (snapshot, start, time) :: segments next time rest
  in
  List.filter_map
    (fun (snapshot, start, stop) ->
      let seg_from = Float.max start from_time in
      let seg_until = Float.min stop until in
      if seg_until -. seg_from <= 0.0 then None
      else
        let blackholed, lost = fractions snapshot in
        Some { seg_from; seg_until; seg_blackholed = blackholed; seg_lost = lost })
    (segments initial_snapshot from_time timeline)

let loss_integrals ~initial ~timeline ~demands ~from_time ~until =
  (* Folding the clamped segments in order reproduces the pre-decomposition
     arithmetic bit for bit, so integral totals and per-segment attribution
     can never disagree. *)
  List.fold_left
    (fun acc seg ->
      let width = seg.seg_until -. seg.seg_from in
      {
        blackhole_seconds = acc.blackhole_seconds +. (seg.seg_blackholed *. width);
        loss_seconds = acc.loss_seconds +. (seg.seg_lost *. width);
        duration = acc.duration +. width;
      })
    { blackhole_seconds = 0.0; loss_seconds = 0.0; duration = 0.0 }
    (loss_segments ~initial ~timeline ~demands ~from_time ~until)

let max_link_utilization (result : Traffic.result) ~capacity =
  Hashtbl.fold
    (fun link load acc ->
      let cap = capacity link in
      if cap <= 0.0 then acc else Float.max acc (load /. cap))
    result.Traffic.link_load 0.0
