(** The seeded defect corpus: one deliberately broken plan or RPA per
    defect class the analyzer must catch.

    This is the analyzer's acceptance harness — [centralium lint
    --selftest] and the CI lint-smoke job both run it and fail if any
    seeded defect goes undetected. Each case builds its defective input
    from scratch (no shared mutable state), runs the analyzer, and checks
    that a diagnostic with the expected code is present. *)

type case = {
  case_name : string;
  expect : Diagnostic.code;
  findings : unit -> Diagnostic.t list;
      (** runs the analyzer over the seeded input *)
}

val cases : case list
(** Every case: the lint corpus followed by the symbolic phase-verifier
    plants — defects invisible to syntactic lint (a mutual-steer
    forwarding loop, a frontier-transient min-next-hop blackhole, a
    reachability loss behind a loop) that only the forwarding model over
    planned deployment states exposes. *)

type result = {
  r_case : string;
  r_expect : Diagnostic.code;
  r_detected : bool;
  r_findings : Diagnostic.t list;
}

val run : unit -> result list

val run_verifier : unit -> result list
(** {!run} restricted to the phase-verifier plants ([centralium
    verify-plan --selftest]). *)

val all_detected : result list -> bool
