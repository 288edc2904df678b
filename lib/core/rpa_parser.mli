(** Parser for the Figure 7 RPA configuration syntax.

    Operators author RPAs as configuration (the paper reports 150+ RPA
    commits per year); this module parses the same syntax that
    {!Rpa.config_lines} renders, giving a round trip

    {[ Rpa_parser.parse (String.concat "\n" (Rpa.config_lines rpa)) ]}

    that reconstructs an equivalent RPA. Whitespace and newlines are not
    significant. The [advertise_least_favorable] dissemination flag is not
    part of the surface syntax (it is a protocol invariant, not operator
    intent) and always parses as [true]. *)

type pos = { line : int; col : int }
(** 1-based source position of a token's first character. *)

type located_statement = {
  ls_kind : [ `Path_selection | `Route_attribute | `Route_filter ];
  ls_rpa : string;  (** name of the enclosing RPA block *)
  ls_statement : string;  (** statement name *)
  ls_pos : pos;  (** position of the statement's name token *)
}
(** One entry of the statement index built by {!parse_located}: where each
    [Statement] block starts in the source text. The static analyzer uses
    this to attach line/column information to diagnostics on parsed RPA
    configuration. *)

val parse : string -> (Rpa.t, string) result
(** Parses zero or more [PathSelectionRpa], [RouteAttributeRpa] and
    [RouteFilterRpa] blocks and merges them. Error messages carry a
    ["line L, column C: "] prefix pointing at the offending token. *)

val parse_located : string -> (Rpa.t * located_statement list, string) result
(** Like {!parse}, but also returns the statement index, in source order. *)

val find_statement :
  located_statement list ->
  kind:[ `Path_selection | `Route_attribute | `Route_filter ] ->
  statement:string ->
  located_statement option
(** First index entry for a statement of the given kind and name. *)
