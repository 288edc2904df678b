(** Debuggability tooling (Section 7.2).

    Reasoning about an RPA-switch's behavior is non-trivial: RPAs are
    deployed ad-hoc, their intent known to few operators. The paper's
    mitigation is tooling that (1) shows all active RPAs on a switch and
    (2) highlights the active RPA given a particular route. This module is
    that tooling: {!explain} traces one evaluation end-to-end and renders
    why each candidate was admitted/selected/advertised. *)

type path_set_trial = {
  set_name : string;
  matched_candidates : int;
  required : int;
  chosen : bool;
}

type verdict =
  | No_matching_statement
      (** no Path Selection statement covers this destination: native BGP *)
  | Path_set_chosen of { statement : string; trials : path_set_trial list }
      (** the priority walk, ending at the chosen set *)
  | Native_fallback of { statement : string; trials : path_set_trial list }
      (** all path sets failed; native selection applies *)
  | Withdrawn_min_next_hop of {
      statement : string;
      available : int;
      required : int;
      fib_kept_warm : bool;
    }

type explanation = {
  verdict : verdict;
  selected_count : int;
  advertised : string option;  (** rendered path, [None] = withdrawn *)
  weights_prescribed : bool;  (** a Route Attribute statement applied *)
  critical_path : string list;
      (** from {!explain_route}, when the network's log holds provenance
          ({!Bgp.Trace.with_provenance}): the rendered convergence critical
          path of the device's FIB entry — how the route got here, hop by
          hop with per-edge delays. Empty otherwise. *)
}

val explain :
  Engine.t ->
  ctx:Bgp.Rib_policy.ctx ->
  candidates:Bgp.Path.t list ->
  explanation
(** Re-runs the evaluation with tracing; does not perturb the engine's
    cache statistics semantics (it uses the same cache). *)

val pp_explanation : Format.formatter -> explanation -> unit

val active_rpas : Bgp.Network.t -> Switch_agent.t -> device:int -> string list
(** Tool (1): the rendered RPAs currently installed on a switch, according
    to the agent's current view, cross-checked against whether the
    speaker's hooks are native. *)

val explain_route :
  Bgp.Network.t -> Switch_agent.t -> device:int -> Net.Prefix.t ->
  explanation option
(** Tool (2): explains the device's live evaluation for a prefix using its
    actual candidates; [None] if no RPA is installed (native BGP). When the
    network's log holds provenance, the explanation also cites the
    convergence critical path of the device's FIB entry
    ({!Obs.Causal.critical_path} over {!Bgp.Trace.dag}). *)
