(** Pre/post-deployment network health checks (Section 5, controller
    functions 1 and 4).

    The controller verifies prerequisites before pushing RPAs (general
    network health such as congestion-freeness, expected RIB states) and
    validates expected changes afterwards (new paths selected, no funneling,
    no loss). *)

type check = { check_name : string; run : unit -> (unit, string) result }

val all_pass : check list -> bool

val failures : check list -> (string * string) list

(** {1 Built-in checks} *)

val route_present : Bgp.Network.t -> device:int -> Net.Prefix.t -> check

val path_count_at_least :
  Bgp.Network.t -> device:int -> Net.Prefix.t -> count:int -> check
(** The device's FIB holds at least [count] next hops for the prefix
    ("expected changes to RIB and FIB, e.g. new paths are selected"). *)

val no_loss :
  Bgp.Network.t -> Net.Prefix.t -> demands:(int * float) list -> check
(** Routing the demands drops or loops nothing. *)

val congestion_free :
  Bgp.Network.t ->
  Net.Prefix.t ->
  demands:(int * float) list ->
  members:int list ->
  max_share:float ->
  check
(** No single device of [members] carries more than [max_share] of the
    demand — the anti-funneling gate. *)

val loop_free : Bgp.Network.t -> Net.Prefix.t -> devices:int list -> check
