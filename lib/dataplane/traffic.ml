type result = {
  delivered : float;
  dropped : float;
  looped : float;
  transit : (int, float) Hashtbl.t;
  link_load : (int * int, float) Hashtbl.t;
  delivered_at : (int, float) Hashtbl.t;
}

let add table key v =
  let current = Option.value (Hashtbl.find_opt table key) ~default:0.0 in
  Hashtbl.replace table key (current +. v)

let total_demand demands = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 demands

(* The per-device and per-link accounting [route] reports on top of the
   totals. *)
type ledger = {
  l_transit : (int, float) Hashtbl.t;
  l_link_load : (int * int, float) Hashtbl.t;
  l_delivered_at : (int, float) Hashtbl.t;
}

(* A device's forwarding decision, looked up at most once per call;
   [Split] carries the entries' weight sum. *)
type hop = Deliver | Drop | Split of float * Bgp.Speaker.entry list

(* Per-call state of the propagation, indexed by device id. [next] and
   [inflow] swap at every round; [stamp.(d) = r] says round [r] has
   already pushed volume to [next.(d)] (the demands are round 0). *)
type state = {
  mutable hops : hop option array;  (* None until looked up *)
  mutable hashes : int array;  (* [Hashtbl.hash d], -1 until needed *)
  mutable inflow : float array;  (* volume arriving this round *)
  mutable next : float array;  (* volume arriving next round *)
  mutable stamp : int array;
  mutable fresh : int array;  (* next round's devices, first push first *)
  mutable count : int;  (* devices in [fresh] *)
  mutable order : int array;  (* the same devices, in visit order *)
  mutable starts : int array;  (* bucket offsets of the counting sort *)
}

let state size =
  {
    hops = Array.make size None;
    hashes = Array.make size (-1);
    inflow = Array.make size 0.0;
    next = Array.make size 0.0;
    stamp = Array.make size (-1);
    fresh = Array.make size 0;
    count = 0;
    order = Array.make size 0;
    starts = Array.make 64 0;
  }

let grow s device =
  let size = max (device + 1) (2 * Array.length s.stamp) in
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.hops <- extend s.hops None;
  s.hashes <- extend s.hashes (-1);
  s.inflow <- extend s.inflow 0.0;
  s.next <- extend s.next 0.0;
  s.stamp <- extend s.stamp (-1);
  s.fresh <- extend s.fresh 0;
  s.order <- extend s.order 0

(* [add next device v] of a table: a device's first push of the round
   adds to 0.0, like [add]'s default, and takes the next slot. Inlined so
   that [v] is not boxed. *)
let[@inline] push s round device v =
  if device >= Array.length s.stamp then grow s device;
  if s.stamp.(device) = round then s.next.(device) <- s.next.(device) +. v
  else begin
    s.stamp.(device) <- round;
    s.next.(device) <- 0.0 +. v;
    if s.hashes.(device) < 0 then s.hashes.(device) <- Hashtbl.hash device;
    s.fresh.(s.count) <- device;
    s.count <- s.count + 1
  end

(* Puts the devices pushed this round in the order in which [Hashtbl.iter]
   walks an unrandomized [Hashtbl.create 64] that holds them, the table
   this core replaced, so every float sum keeps its order of additions.
   The stdlib table walks buckets in index order, bucket
   [Hashtbl.hash d land (w - 1)]; its width [w] starts at 64 and doubles
   while it holds more than [2 w] keys; [replace] of a new key conses it
   onto its bucket and a resize keeps each bucket's order, so a bucket
   lists its keys newest first. That is the demands' order; every later
   round was copied from the round's table with [reset] and [replace],
   which reverses each bucket back into first-push order. A stable
   counting sort by bucket reproduces both in O(devices + w). [starts]
   is all zeros between calls: only the used buckets get an offset, and
   they are cleared at the end. *)
let sort s ~newest_first =
  let k = s.count in
  let rec width w = if k > 2 * w then width (2 * w) else w in
  let w = width 64 in
  let mask = w - 1 in
  if Array.length s.starts < w then s.starts <- Array.make w 0;
  let starts = s.starts and hashes = s.hashes and fresh = s.fresh in
  for i = 0 to k - 1 do
    let b = hashes.(fresh.(i)) land mask in
    starts.(b) <- starts.(b) + 1
  done;
  let offset = ref 0 in
  for b = 0 to w - 1 do
    let n = starts.(b) in
    if n > 0 then begin
      starts.(b) <- !offset;
      offset := !offset + n
    end
  done;
  let order = s.order in
  for j = 0 to k - 1 do
    let device = fresh.(if newest_first then k - 1 - j else j) in
    let b = hashes.(device) land mask in
    order.(starts.(b)) <- device;
    starts.(b) <- starts.(b) + 1
  done;
  for i = 0 to k - 1 do
    starts.(hashes.(fresh.(i)) land mask) <- 0
  done

let hop s lookup device =
  match s.hops.(device) with
  | Some h -> h
  | None ->
    let h =
      match lookup device with
      | Some Bgp.Speaker.Local -> Deliver
      | None -> Drop
      | Some (Bgp.Speaker.Entries entries) ->
        let sum =
          List.fold_left (fun acc e -> acc + e.Bgp.Speaker.weight) 0 entries
        in
        Split (float_of_int sum, entries)
    in
    s.hops.(device) <- Some h;
    h

(* Splits [device]'s volume of round [round] over its entries. *)
let rec spread s ledger round device weight_sum = function
  | [] -> ()
  | e :: rest ->
    let share =
      s.inflow.(device) *. float_of_int e.Bgp.Speaker.weight /. weight_sum
    in
    (match ledger with
     | Some l -> add l.l_link_load (device, e.Bgp.Speaker.next_hop) share
     | None -> ());
    push s round e.Bgp.Speaker.next_hop share;
    spread s ledger round device weight_sum rest

(* The propagation core shared by [route] and [loss_snapshot]; with no
   ledger it only accumulates the totals. The ledger is write-only here,
   so both callers visit the same devices in the same order and therefore
   get bit-identical totals. Volume still in flight after [max_rounds]
   (far above any Clos diameter) is looped. Returns
   (delivered, dropped, looped). *)
let max_rounds = 64

let propagate ~lookup ~demands ledger =
  let highest = List.fold_left (fun m (device, _) -> max m device) 0 demands in
  let s = state (max 64 (highest + 1)) in
  List.iter (fun (device, volume) -> push s 0 device volume) demands;
  sort s ~newest_first:true;
  let delivered = ref 0.0 and dropped = ref 0.0 in
  let round = ref 0 in
  while s.count > 0 && !round < max_rounds do
    incr round;
    let k = s.count in
    let inflow = s.next in
    s.next <- s.inflow;
    s.inflow <- inflow;
    s.count <- 0;
    for i = 0 to k - 1 do
      (* [push] may grow the arrays: read them through [s]. *)
      let device = s.order.(i) in
      let volume = s.inflow.(device) in
      if volume > 0.0 then begin
        (match ledger with Some l -> add l.l_transit device volume | None -> ());
        match hop s lookup device with
        | Deliver -> (
          delivered := !delivered +. volume;
          match ledger with
          | Some l -> add l.l_delivered_at device volume
          | None -> ())
        | Drop -> dropped := !dropped +. volume
        | Split (weight_sum, entries) ->
          spread s ledger !round device weight_sum entries
      end
    done;
    sort s ~newest_first:false
  done;
  let looped = ref 0.0 in
  for i = 0 to s.count - 1 do
    looped := !looped +. s.next.(s.order.(i))
  done;
  (!delivered, !dropped, !looped)

let route ~lookup ~demands () =
  let l =
    {
      l_transit = Hashtbl.create 64;
      l_link_load = Hashtbl.create 64;
      l_delivered_at = Hashtbl.create 8;
    }
  in
  let delivered, dropped, looped = propagate ~lookup ~demands (Some l) in
  {
    delivered;
    dropped;
    looped;
    transit = l.l_transit;
    link_load = l.l_link_load;
    delivered_at = l.l_delivered_at;
  }

let route_prefix network prefix ~demands =
  route
    ~lookup:(fun device -> Bgp.Network.fib network device prefix)
    ~demands ()

let route_destination network destination ~demands =
  route
    ~lookup:(fun device ->
      Option.map snd
        (Bgp.Speaker.fib_longest_match
           (Bgp.Network.speaker network device)
           destination))
    ~demands ()

let route_snapshot snapshot ~demands =
  route ~lookup:(Hashtbl.find_opt snapshot) ~demands ()

type loss = { loss_dropped : float; loss_looped : float }

let loss_snapshot snapshot ~demands =
  let _, loss_dropped, loss_looped =
    propagate ~lookup:(Hashtbl.find_opt snapshot) ~demands None
  in
  { loss_dropped; loss_looped }
