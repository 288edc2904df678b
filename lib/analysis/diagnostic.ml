type severity = Error | Warning | Info

type code =
  | Empty_signature
  | Signature_overlap
  | Shadowed_statement
  | Prefix_shadowed
  | Filter_blackhole
  | Unsafe_phase_order
  | Duplicate_target
  | Plan_coverage
  | Merge_conflict
  | Least_favorable_off
  | Community_collision
  | Forwarding_loop_static
  | Blackhole_static
  | Reachability_loss
  | Analysis_capped

let code_to_string = function
  | Empty_signature -> "empty-signature"
  | Signature_overlap -> "signature-overlap"
  | Shadowed_statement -> "shadowed-statement"
  | Prefix_shadowed -> "prefix-shadowed"
  | Filter_blackhole -> "filter-blackhole"
  | Unsafe_phase_order -> "unsafe-phase-order"
  | Duplicate_target -> "duplicate-target"
  | Plan_coverage -> "plan-coverage"
  | Merge_conflict -> "merge-conflict"
  | Least_favorable_off -> "least-favorable-off"
  | Community_collision -> "community-collision"
  | Forwarding_loop_static -> "forwarding-loop"
  | Blackhole_static -> "blackhole"
  | Reachability_loss -> "reachability-loss"
  | Analysis_capped -> "analysis-capped"

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Fixed rank so the sort order is stable even if constructors move. *)
let code_rank = function
  | Empty_signature -> 0
  | Signature_overlap -> 1
  | Shadowed_statement -> 2
  | Prefix_shadowed -> 3
  | Filter_blackhole -> 4
  | Unsafe_phase_order -> 5
  | Duplicate_target -> 6
  | Plan_coverage -> 7
  | Merge_conflict -> 8
  | Least_favorable_off -> 9
  | Community_collision -> 10
  | Forwarding_loop_static -> 11
  | Blackhole_static -> 12
  | Reachability_loss -> 13
  | Analysis_capped -> 14

type t = {
  code : code;
  severity : severity;
  device : int option;
  rpa : string option;
  statement : string option;
  line : int option;
  col : int option;
  message : string;
}

let make ?device ?rpa ?statement ?pos severity code message =
  let line, col =
    match pos with
    | None -> (None, None)
    | Some p -> (Some p.Centralium.Rpa_parser.line, Some p.Centralium.Rpa_parser.col)
  in
  { code; severity; device; rpa; statement; line; col; message }

let opt_compare cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = Int.compare (code_rank a.code) (code_rank b.code) in
    if c <> 0 then c
    else
      let c = opt_compare Int.compare a.device b.device in
      if c <> 0 then c
      else
        let c = opt_compare String.compare a.rpa b.rpa in
        if c <> 0 then c
        else
          let c = opt_compare String.compare a.statement b.statement in
          if c <> 0 then c else String.compare a.message b.message

let sort diags = List.sort_uniq compare diags

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

let to_human d =
  let where =
    List.filter_map
      (fun x -> x)
      [
        Option.map (Printf.sprintf "device %d") d.device;
        Option.map (Printf.sprintf "rpa %s") d.rpa;
        Option.map (Printf.sprintf "statement %s") d.statement;
        (match (d.line, d.col) with
         | Some l, Some c -> Some (Printf.sprintf "line %d:%d" l c)
         | _ -> None);
      ]
  in
  let loc = match where with [] -> "" | ws -> " " ^ String.concat " " ws in
  Printf.sprintf "%s[%s]%s: %s"
    (severity_to_string d.severity)
    (code_to_string d.code) loc d.message

let finding d =
  {
    Centralium.Controller.lint_error = d.severity = Error;
    lint_code = code_to_string d.code;
    lint_message = to_human d;
  }

let json_opt_int = function None -> Obs.Json.Null | Some n -> Obs.Json.Int n

let json_opt_str = function
  | None -> Obs.Json.Null
  | Some s -> Obs.Json.String s

let to_json d =
  Obs.Json.Obj
    [
      ("code", Obs.Json.String (code_to_string d.code));
      ("severity", Obs.Json.String (severity_to_string d.severity));
      ("device", json_opt_int d.device);
      ("rpa", json_opt_str d.rpa);
      ("statement", json_opt_str d.statement);
      ("line", json_opt_int d.line);
      ("col", json_opt_int d.col);
      ("message", Obs.Json.String d.message);
    ]

let report_json diags =
  let sorted = sort diags in
  let count sev = List.length (List.filter (fun d -> d.severity = sev) sorted) in
  Obs.Json.Obj
    [
      ("errors", Obs.Json.Int (count Error));
      ("warnings", Obs.Json.Int (count Warning));
      ("diagnostics", Obs.Json.List (List.map to_json sorted));
    ]
