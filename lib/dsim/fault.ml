type profile = {
  drop_prob : float;
  delay_prob : float;
  delay_mean : float;
  reorder_prob : float;
}

let none =
  { drop_prob = 0.0; delay_prob = 0.0; delay_mean = 0.0; reorder_prob = 0.0 }

let light =
  { drop_prob = 0.01; delay_prob = 0.1; delay_mean = 0.005; reorder_prob = 0.05 }

let heavy =
  { drop_prob = 0.1; delay_prob = 0.3; delay_mean = 0.02; reorder_prob = 0.2 }

let severe =
  { drop_prob = 0.25; delay_prob = 0.4; delay_mean = 0.03; reorder_prob = 0.25 }

type fate = { dropped : bool; extra_delay : float; reorder : bool }

let pass = { dropped = false; extra_delay = 0.0; reorder = false }

type t = { rng : Rng.t; prof : profile }

let create ~seed prof = { rng = Rng.create seed; prof }

let profile t = t.prof

let fate t =
  if Rng.float t.rng 1.0 < t.prof.drop_prob then
    { dropped = true; extra_delay = 0.0; reorder = false }
  else begin
    let extra_delay =
      if Rng.float t.rng 1.0 < t.prof.delay_prob then
        Rng.exponential t.rng ~mean:t.prof.delay_mean
      else 0.0
    in
    let reorder = Rng.float t.rng 1.0 < t.prof.reorder_prob in
    { dropped = false; extra_delay; reorder }
  end

(* ---------------- Schedules ---------------- *)

type action =
  | Flap_link of { a : int; b : int; at : float; duration : float }
  | Restart_speaker of { device : int; at : float; recovery : float }

type schedule = action list

let action_time = function
  | Flap_link { at; _ } | Restart_speaker { at; _ } -> at

let random_schedule ~seed ~links ~devices ~horizon ?(flaps = 4) ?(restarts = 1)
    () =
  let rng = Rng.create seed in
  let duration () = 0.001 +. Rng.float rng (0.01 -. 0.001) in
  let flap_actions =
    if links = [] then []
    else
      List.init flaps (fun _ ->
          let a, b = Rng.pick rng links in
          Flap_link { a; b; at = Rng.float rng horizon; duration = duration () })
  in
  let restart_actions =
    if devices = [] then []
    else
      List.init restarts (fun _ ->
          Restart_speaker
            {
              device = Rng.pick rng devices;
              at = Rng.float rng horizon;
              recovery = duration ();
            })
  in
  List.stable_sort
    (fun x y -> Float.compare (action_time x) (action_time y))
    (flap_actions @ restart_actions)

let pp_action ppf = function
  | Flap_link { a; b; at; duration } ->
    Format.fprintf ppf "flap %d-%d at %.4fs for %.4fs" a b at duration
  | Restart_speaker { device; at; recovery } ->
    Format.fprintf ppf "restart %d at %.4fs, recover after %.4fs" device at
      recovery
