(** Builders for the paper's topologies.

    Each builder returns the graph plus named handles to the node groups the
    corresponding experiment manipulates. Node ids are dense from 0 so they
    can index arrays in the BGP and data-plane layers. *)

(** {1 Figure 1: the full five-layer fabric} *)

type fabric = {
  graph : Graph.t;
  rsws : int list;
  fsws : int list;
  ssws : int list;
  fadus : int list;
  fauus : int list;
  ebs : int list;
}

val fabric :
  ?pods:int ->
  ?rsws_per_pod:int ->
  ?fsws_per_pod:int ->
  ?ssws_per_plane:int ->
  ?grids:int ->
  ?fauus_per_grid:int ->
  ?ebs:int ->
  unit ->
  fabric
(** Wiring follows Appendix A.1: every RSW connects to all FSWs of its pod;
    FSW number [i] of each pod connects to all SSWs of plane [i] (so the
    number of planes equals [fsws_per_pod]); SSW number [n] of every plane
    connects to FADU number [n] of every grid (so each grid has
    [ssws_per_plane] FADUs); FADUs and FAUUs of a grid are fully meshed;
    every FAUU connects to every EB. Defaults build a small but complete
    fabric: 4 pods x 4 RSW x 4 FSW, 4 planes x 4 SSW, 2 grids, 2 FAUU/grid,
    4 EB. *)

(** {1 Figure 2: capacity expansion replacing FAv1 + Edge with FAv2} *)

type expansion = {
  xgraph : Graph.t;
  xfsws : int list;
  xssws : int list;
  fav1 : int list;
  edge : int list;
  backbone : int;  (** origin of the default route *)
  mutable fav2 : int list;  (** grows as {!add_fav2} is called *)
}

val expansion : unit -> expansion
(** Initial state: 4 FSWs - 4 SSWs - 4 FAv1 - 2 Edge - backbone, with full
    bipartite wiring between consecutive layers. The default route reaches
    an SSW with AS-path length 3 (FAv1, Edge, BB). *)

val add_fav2 : expansion -> int
(** Activates one new FAv2 switch wired to every SSW and to the backbone,
    creating the shorter (length 2) path of the transitory state of
    Figure 2. Returns its node id. *)

(** {1 Figure 4: SSW/FADU decommission mesh} *)

type decommission = {
  dgraph : Graph.t;
  planes : int list list;  (** [planes.(p)] = SSW ids of plane [p], by number *)
  grids : int list list;   (** [grids.(g)] = FADU ids of grid [g], by number *)
  north_origin : int;      (** virtual backbone node above all FADUs *)
  south_origin : int;      (** virtual rack node below all SSWs *)
}

val decommission : ?planes:int -> ?grids:int -> ?per:int -> unit -> decommission
(** [per] SSWs per plane and FADUs per grid; SSW number [n] of every plane
    connects only to FADU number [n] of every grid (the Figure 4 wiring). *)

val ssws_numbered : decommission -> int -> int list
(** All SSW-[n] across planes. *)

val fadus_numbered : decommission -> int -> int list
(** All FADU-[n] across grids. *)

(** {1 Figure 5: EB - UU - DU with parallel sessions} *)

type wcmp_convergence = {
  wgraph : Graph.t;
  ebs : int list;   (** 8 backbone devices originating the prefixes *)
  uus : int list;   (** 4 uplink units *)
  dus : int list;   (** 1 downlink unit; two sessions per UU-DU pair *)
}

val wcmp_convergence : unit -> wcmp_convergence

(** {1 Figure 9: mixed RPA / native speakers} *)

type mixed = {
  mgraph : Graph.t;
  origin : int;  (** upstream origin of prefix D, peer of R1 *)
  r : int array; (** [r.(1)] … [r.(6)]; index 0 unused *)
}

val mixed_dissemination : unit -> mixed
(** Edges: origin-R1, R1-R2, R2-R6, R1-R3, R3-R4, R4-R5, R5-R6. R6 sees
    prefix D via R2 (short) and via R5 (long). *)

(** {1 Figure 10: FA / DMAG rollout topology} *)

type rollout = {
  rgraph : Graph.t;
  rbackbone : int;
  rfas : int list;   (** FA1, FA2: direct path to backbone *)
  rdmag : int;       (** backup aggregation: FA-DMAG-backbone *)
  rssws : int list;  (** 4, each wired to both FAs *)
  rfsws : int list;  (** 4, each wired to every SSW *)
}

val rollout : unit -> rollout

(** {1 Figure 14: SEV topology (misconfigured KeepFibWarm)} *)

type sev = {
  sgraph : Graph.t;
  sbackbone : int;
  sfas : int list;     (** last element is the not-production-ready FA *)
  bad_fa : int;
  sssws : int list;    (** 4, each wired to every FA *)
  sfsws : int list;    (** 4, each wired to every SSW *)
}

val sev : unit -> sev
(** Four FAs, all connected to the SSWs below; all but [bad_fa] also
    connect to the backbone above (the bad FA is missing its backbone
    cabling). *)
