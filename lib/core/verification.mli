(** Pre-deployment verification (Section 7.1).

    Centralium is a hybrid system with functional and configuration
    dependencies between its centralized and distributed halves; the paper
    prevents incompatible changes from reaching production with an
    emulation suite that validates end-to-end routing intent on a
    reduced-scale network incorporating both BGP and the controller. This
    module is that suite: a {!spec} builds a small emulated network and a
    plan, {!qualify} deploys through the real controller and validates the
    intent checks, and {!standard_suite} bundles the qualification runs
    that gate every change to this codebase's RPA feature. *)

type spec = {
  spec_name : string;
  build : unit -> Bgp.Network.t * Controller.plan * Health.check list;
      (** Returns the converged reduced-scale network, the plan compiled
          against it, and the end-to-end intent checks to hold after
          deployment (the plan's own pre/post checks also apply). *)
}

type outcome = {
  outcome_name : string;
  deployed : bool;
  intent_failures : (string * string) list;  (** (check, reason) *)
  errors : string list;  (** controller-level failures *)
}

val passed : outcome -> bool

val qualify : spec -> outcome
(** Builds the spec and deploys it through the real controller with the
    lint and verify gates enforced (see {!Controller.set_linter} and
    {!Controller.set_verifier}): error-severity findings from either fail
    qualification, as [lint CODE: msg] or [verify CODE: msg], before
    anything is deployed. Then evaluates the intent checks. Each gate runs
    once per spec. *)

val qualify_all : spec list -> outcome list

val pp_outcome : Format.formatter -> outcome -> unit

val standard_suite : ?seed:int -> unit -> spec list
(** Emulations of the three core intents: path equalization on the
    expansion topology (no funneling with the new layer live), the
    min-next-hop guard on the decommission mesh (route present, withdrawn
    below threshold), and safe rollout ordering on the Figure 10 topology
    (loop- and funnel-free at the end state).

    [seed] (default 31) seeds the first emulation's network; the other two
    use [seed + 1] and [seed + 2], preserving the historical 31/32/33
    assignment at the default. *)
