(** Typed, severity-ranked findings emitted by the static RPA analyzer.

    Diagnostics are pure data: a stable machine-readable code, a severity,
    an optional location (device / RPA block / statement / source position),
    and a human message. They carry no closures and no references into the
    analyzed plan, so they serialize deterministically — {!to_json} over a
    {!sort}ed list is byte-identical across runs for the same input. *)

type severity = Error | Warning | Info

type code =
  | Empty_signature  (** a path signature that can match no route *)
  | Signature_overlap
      (** two statements claim overlapping (prefix-set x path-set) domains,
          violating RPA orthogonality *)
  | Shadowed_statement
      (** an earlier entry makes a later one unreachable (priority path-set
          lists, first-match weight lists) *)
  | Prefix_shadowed
      (** a destination prefix or allow rule is subsumed by another *)
  | Filter_blackhole
      (** a route filter statically drops a prefix another statement
          steers *)
  | Unsafe_phase_order  (** violates {!Centralium.Deployment.is_safe_order} *)
  | Duplicate_target  (** a device appears in more than one phase *)
  | Plan_coverage  (** phases and per-device RPAs disagree on the targets *)
  | Merge_conflict
      (** same-name RPA blocks or statements with different content *)
  | Least_favorable_off
      (** [advertise_least_favorable = false]: the Figure 9 loop hazard *)
  | Community_collision
      (** two route-attribute statements claim the same community or
          overlapping prefixes *)
  | Forwarding_loop_static
      (** the symbolic phase verifier found a FIB cycle in a deployment
          state (a phase boundary, a mixed frontier, or a propagation
          round within one) *)
  | Blackhole_static
      (** the verifier found a device with a surviving physical path to an
          origin of a destination class but no forwarding entry for it *)
  | Reachability_loss
      (** a device that delivered a destination class in the baseline
          state no longer does in a later deployment state, although its
          own forwarding entry survives — the walk dies downstream *)
  | Analysis_capped
      (** a language-level decision procedure hit its state budget and
          resolved conservatively, suppressing a potential finding *)

val code_to_string : code -> string
(** Stable kebab-case slug, e.g. ["empty-signature"]. *)

type t = {
  code : code;
  severity : severity;
  device : int option;
  rpa : string option;  (** name of the RPA block *)
  statement : string option;
  line : int option;
  col : int option;  (** from {!Centralium.Rpa_parser.parse_located} *)
  message : string;
}

val make :
  ?device:int ->
  ?rpa:string ->
  ?statement:string ->
  ?pos:Centralium.Rpa_parser.pos ->
  severity ->
  code ->
  string ->
  t

val compare : t -> t -> int
(** Total order: severity (errors first), then code, device, rpa,
    statement, message. Used by {!sort} to make output deterministic. *)

val sort : t list -> t list

val has_errors : t list -> bool

val to_human : t -> string
(** One line: ["error[empty-signature] device 3 rpa r st s: message"]. *)

val finding : t -> Centralium.Controller.lint_finding
(** The controller's view of a diagnostic, read by its lint and verify
    gates: error severity, {!code_to_string}, {!to_human}. *)

val to_json : t -> Obs.Json.t
(** Object with fields (in this order): [code], [severity], [device],
    [rpa], [statement], [line], [col], [message]. Absent locations render
    as [null] so the shape is fixed. *)

val report_json : t list -> Obs.Json.t
(** [{ "errors": n, "warnings": n, "diagnostics": [...] }] over the sorted
    list. *)
