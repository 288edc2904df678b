type selection = {
  selected : Path.t list;
  advertise : Path.t option;
  keep_fib_warm : bool;
}

type ctx = {
  device : int;
  prefix : Net.Prefix.t;
  now : float;
  commit : bool;
  peer_layer : int -> Topology.Node.layer option;
  live_peers_in_layer : Topology.Node.layer -> int;
}

type hooks = {
  name : string;
  ingress_accept : ctx -> peer:int -> Net.Attr.t -> bool;
  select : ctx -> candidates:Path.t list ->
           native:(Path.t list * Path.t option) -> selection;
  weights : ctx -> selected:Path.t list -> (Path.t * int) list option;
  egress_accept : ctx -> peer:int -> Net.Attr.t -> bool;
}

let native =
  {
    name = "native";
    ingress_accept = (fun _ ~peer:_ _ -> true);
    select =
      (fun _ ~candidates:_ ~native:(selected, advertise) ->
        { selected; advertise; keep_fib_warm = false });
    weights = (fun _ ~selected:_ -> None);
    egress_accept = (fun _ ~peer:_ _ -> true);
  }

let is_native hooks = String.equal hooks.name "native"
