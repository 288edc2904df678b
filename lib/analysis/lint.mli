(** The static RPA analyzer (pre-deployment lint).

    Checks a deployment plan — or a bare per-device RPA — {e without
    constructing a BGP network}: every check is a decision over the plan's
    own structure, the topology graph, and the language algebra of path
    signatures. Diagnostics come back sorted by {!Diagnostic.sort}, so the
    output (human or JSON) is deterministic for a given input.

    Severity policy: findings that make a plan wrong on any network are
    errors (unmatchable signatures, overlapping steering domains,
    statically black-holed steered prefixes, unsafe phase order, duplicate
    targets, conflicting weight prescriptions); findings that are
    suspicious but can be intentional are warnings (shadowed entries,
    redundant allow rules, merge artifacts, the Figure 9
    [advertise_least_favorable] ablation). All language-level procedures
    resolve conservatively when capped, so the analyzer can miss a finding
    under adversarial state blowup but never fabricates one.

    Loading this module registers the analyzer with
    {!Centralium.Controller.set_linter}, which arms the lint gate of
    [Controller.deploy*], the lint gate of [Controller.remove] and the
    lint pass of [Verification.standard_suite] in any binary linked
    against [analysis]. *)

val check_rpa :
  ?device:int ->
  ?positions:Centralium.Rpa_parser.located_statement list ->
  Centralium.Rpa.t ->
  Diagnostic.t list
(** Device-local checks: signature emptiness, path-set and weight-entry
    shadowing, overlapping steering domains across statements, redundant
    allow rules, filters black-holing steered prefixes, duplicate blocks
    and statements, the dissemination-rule hazard. [positions] (from
    {!Centralium.Rpa_parser.parse_located}) attaches line/column to
    diagnostics that name a statement. *)

val check_plan :
  Topology.Graph.t ->
  Centralium.Controller.plan ->
  Diagnostic.t list
(** {!check_rpa} for every device, plus plan-level checks: phase/RPA
    coverage, devices targeted twice or bound to more than one RPA, and
    {!Centralium.Deployment.is_safe_order} from the [Eb] layer (the
    backbone origination of every standard-suite plan) in the plan's own
    direction ({!Centralium.Controller.direction}): a
    plan whose every RPA is empty is a removal and must start closest to
    the origination layer; any other plan is an install and must start
    furthest from it. *)

val plans_conflict :
  Centralium.Controller.plan -> Centralium.Controller.plan -> bool
(** Cross-plan conflict predicate for the admission queue: two plans
    conflict when they target a common device, steer/weight overlapping
    destination prefixes, or share a tagged destination community (the
    destinations {!Eq_class.selectors} lists).
    Loading this module registers it with
    {!Centralium.Ops.set_conflict_probe}, so queues in any binary linked
    against [analysis] serialize such pairs. *)
