type summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if q <= 0.0 then sorted.(0)
  else if q >= 100.0 then sorted.(n - 1)
  else begin
    let rank = q /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let mean = function
  | [] -> invalid_arg "Stats.mean: empty"
  | samples ->
    List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let stddev samples =
  let m = mean samples in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 samples
    /. float_of_int (List.length samples)
  in
  sqrt var

let summarize samples =
  if samples = [] then invalid_arg "Stats.summarize: empty";
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  {
    count = n;
    mean = mean samples;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 50.0;
    p90 = percentile sorted 90.0;
    p95 = percentile sorted 95.0;
    p99 = percentile sorted 99.0;
  }

let cdf ?(points = 50) samples =
  if samples = [] then []
  else begin
    let sorted = Array.of_list samples in
    Array.sort Float.compare sorted;
    let n = Array.length sorted in
    let points = min points n in
    List.init points (fun i ->
        let frac = float_of_int (i + 1) /. float_of_int points in
        let idx = min (n - 1) (int_of_float (Float.ceil (frac *. float_of_int n)) - 1) in
        (sorted.(max 0 idx), frac))
  end

let pp_cdf_ascii ?(width = 40) ?(unit_label = "") ppf points =
  List.iter
    (fun (value, frac) ->
      let bar = int_of_float (frac *. float_of_int width) in
      Format.fprintf ppf "%10.4g %s |%s %3.0f%%@." value unit_label
        (String.make bar '#') (frac *. 100.0))
    points

let histogram ~buckets samples =
  let bounds = Array.of_list (List.sort_uniq Float.compare buckets) in
  let n = Array.length bounds in
  let counts = Array.make n 0 in
  let overflow = ref 0 in
  (* Binary search for the first bound >= x; [n] means above every bound. *)
  let bucket_of x =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if x <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  in
  List.iter
    (fun x ->
      let i = bucket_of x in
      if i >= n then incr overflow else counts.(i) <- counts.(i) + 1)
    samples;
  (List.init n (fun i -> (bounds.(i), counts.(i))), !overflow)
