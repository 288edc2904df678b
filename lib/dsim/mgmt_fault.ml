type profile = {
  rpc_loss_prob : float;
  rpc_timeout_prob : float;
  rpc_transient_prob : float;
  nsdb_loss_prob : float;
}

let none =
  {
    rpc_loss_prob = 0.0;
    rpc_timeout_prob = 0.0;
    rpc_transient_prob = 0.0;
    nsdb_loss_prob = 0.0;
  }

let flaky =
  {
    rpc_loss_prob = 0.06;
    rpc_timeout_prob = 0.05;
    rpc_transient_prob = 0.05;
    nsdb_loss_prob = 0.03;
  }

let hostile =
  {
    rpc_loss_prob = 0.2;
    rpc_timeout_prob = 0.15;
    rpc_transient_prob = 0.2;
    nsdb_loss_prob = 0.1;
  }

type rpc_fate = Deliver | Lose | Time_out | Transient of string

type ha_profile = {
  leader_crash_times : float list;
  lease_partitions : (float * float) list;
}

let ha_none = { leader_crash_times = []; lease_partitions = [] }

type t = {
  rng : Rng.t;
  prof : profile;
  crash_after_ops : int option;
  mutable op_count : int;
  ha : ha_profile;
  mutable pending_crashes : float list;
}

let create ?crash_after_ops ?(ha = ha_none) ~seed prof =
  {
    rng = Rng.create seed;
    prof;
    crash_after_ops;
    op_count = 0;
    ha;
    pending_crashes = List.sort compare ha.leader_crash_times;
  }

let profile t = t.prof
let ops t = t.op_count

let transient_reasons =
  [| "agent busy"; "agent restarting"; "rpc channel reset" |]

(* One uniform draw partitioned into fate intervals: a single RNG
   consumption per operation keeps the op→draw correspondence trivial to
   reason about when reproducing a schedule. *)
let rpc_fate t =
  t.op_count <- t.op_count + 1;
  let u = Rng.float t.rng 1.0 in
  let p = t.prof in
  if u < p.rpc_loss_prob then Lose
  else if u < p.rpc_loss_prob +. p.rpc_timeout_prob then Time_out
  else if u < p.rpc_loss_prob +. p.rpc_timeout_prob +. p.rpc_transient_prob
  then
    Transient
      transient_reasons.(Rng.int t.rng (Array.length transient_reasons))
  else Deliver

let nsdb_write_ok t =
  t.op_count <- t.op_count + 1;
  Rng.float t.rng 1.0 >= t.prof.nsdb_loss_prob

let crashed t =
  match t.crash_after_ops with
  | None -> false
  | Some n -> t.op_count >= n

let ha_profile t = t.ha

let leader_crash_due t ~now =
  match t.pending_crashes with
  | next :: rest when now >= next ->
    t.pending_crashes <- rest;
    true
  | _ -> false

let lease_reachable t ~now =
  not (List.exists (fun (a, b) -> now >= a && now < b) t.ha.lease_partitions)
