(** A minimal JSON value type with a hand-rolled emitter and parser.

    The observability layer exports run logs as JSONL (one JSON value per
    line); this repository deliberately takes no JSON library dependency,
    so the emitter and the (strict, recursive-descent) parser live here.
    The parser exists mostly so tests can assert that everything the
    emitter writes round-trips. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. Non-finite floats render as [null] —
    JSON has no representation for them. Finite floats render with the
    shortest of [%.12g] / [%.17g] that parses back to the identical bit
    pattern, so numeric exports round-trip exactly. Control characters in
    strings are escaped ([\uXXXX] or the named escapes), so every emitted
    line is valid JSON. *)

val of_string : string -> (t, string) result
(** Strict parse of a single JSON value (surrounding whitespace allowed).
    Numbers without [.], [e] or [E] that fit in an OCaml [int] parse as
    [Int], everything else as [Float]. *)

(** {1 Accessors}

    Shallow helpers for tests and consumers; all return [None] on a type
    mismatch or missing key. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts both [Int] and [Float]. *)

val to_str : t -> string option
