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

(* The propagation core shared by [route] and [loss_snapshot]; with no
   ledger it only accumulates the totals. The ledger is write-only here,
   so both callers see the same inflow/next insertion and iteration order
   and therefore bit-identical totals. Volume still in flight after
   [max_rounds] (far above any Clos diameter) is looped. Returns
   (delivered, dropped, looped). *)
let max_rounds = 64

let propagate ~lookup ~demands ledger =
  let delivered = ref 0.0 and dropped = ref 0.0 in
  let inflow = Hashtbl.create 64 in
  List.iter (fun (device, volume) -> add inflow device volume) demands;
  let rounds = ref 0 in
  let remaining () = Hashtbl.fold (fun _ v acc -> acc +. v) inflow 0.0 in
  while Hashtbl.length inflow > 0 && !rounds < max_rounds do
    incr rounds;
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun device volume ->
        if volume > 0.0 then begin
          Option.iter (fun l -> add l.l_transit device volume) ledger;
          match lookup device with
          | Some Bgp.Speaker.Local ->
            delivered := !delivered +. volume;
            Option.iter (fun l -> add l.l_delivered_at device volume) ledger
          | None -> dropped := !dropped +. volume
          | Some (Bgp.Speaker.Entries entries) ->
            let weight_sum =
              List.fold_left
                (fun acc e -> acc + e.Bgp.Speaker.weight)
                0 entries
            in
            List.iter
              (fun e ->
                let share =
                  volume
                  *. float_of_int e.Bgp.Speaker.weight
                  /. float_of_int weight_sum
                in
                Option.iter
                  (fun l -> add l.l_link_load (device, e.Bgp.Speaker.next_hop) share)
                  ledger;
                add next e.Bgp.Speaker.next_hop share)
              entries
        end)
      inflow;
    Hashtbl.reset inflow;
    Hashtbl.iter (fun device volume -> Hashtbl.replace inflow device volume) next
  done;
  (!delivered, !dropped, remaining ())

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
