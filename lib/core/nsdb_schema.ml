let string_at db path =
  match Nsdb.Replicated.get_one db ~path with
  | Some (Nsdb.String s) -> Some s
  | Some _ | None -> None

let int_at db path =
  match Nsdb.Replicated.get_one db ~path with
  | Some (Nsdb.Int n) -> Some n
  | Some _ | None -> None

(* Every parsed key has three segments; [i] picks the variable one. *)
let segment i path =
  match String.split_on_char '/' path with
  | [ _; _; _ ] as segments -> Some (List.nth segments i)
  | _ -> None

type journal_field =
  [ `Status | `Next_phase | `Total_phases | `Completed_seq | `Remediation ]

let journal plan = "journal/" ^ plan

let journal_key plan (field : journal_field) =
  journal plan ^ "/"
  ^
  match field with
  | `Status -> "status"
  | `Next_phase -> "next_phase"
  | `Total_phases -> "total_phases"
  | `Completed_seq -> "completed_seq"
  | `Remediation -> "remediation"

let journal_watch plan = journal plan ^ "/**"
let journal_statuses = "journal/*/status"
let journal_plan = segment 1
let journal_seq = "journal_meta/seq"
let plan_records plan = "plans/" ^ plan
let plan_device plan device =
  Printf.sprintf "%s/devices/%d" (plan_records plan) device

type queue_field = [ `Plan | `Tenant | `Class | `State ]

let queue_field_name : queue_field -> string = function
  | `Plan -> "plan"
  | `Tenant -> "tenant"
  | `Class -> "class"
  | `State -> "state"

let queue_entry seq = Printf.sprintf "opsq/%08d" seq
let queue_key seq field = queue_entry seq ^ "/" ^ queue_field_name field
let queue_all field = "opsq/*/" ^ queue_field_name field
let queue_seq path = Option.bind (segment 1 path) int_of_string_opt

type queue_state = Queued | Started | Done

let queue_states = [ (Queued, "queued"); (Started, "started"); (Done, "done") ]
let encode_queue_state state = List.assoc state queue_states

let decode_queue_state name =
  List.find_map
    (fun (state, n) -> if String.equal n name then Some state else None)
    queue_states

let submissions = "opsq_meta/subs"
let shed n = Printf.sprintf "opsq_meta/shed/%08d" n
let sheds = "opsq_meta/shed/*"
let shed_index path = Option.bind (segment 2 path) int_of_string_opt

let encode_shed ~tenant ~plan reason =
  Printf.sprintf "%s:%s:%s" tenant plan reason

(* The reason may quote a verifier error holding more ':'. *)
let decode_shed detail =
  match String.split_on_char ':' detail with
  | tenant :: plan :: (_ :: _ as reason) ->
    Some (tenant, plan, String.concat ":" reason)
  | _ -> None

let ha_lease = "ha/lease"
let ha_epoch = "ha/epoch"

(* %.17g round-trips the float bit-exactly: re-encoding a decoded lease
   yields the same string, which compare_and_set relies on. *)
let encode_lease ~holder ~epoch ~expiry =
  Printf.sprintf "%d:%d:%.17g" holder epoch expiry

let decode_lease s =
  match String.split_on_char ':' s with
  | [ h; e; x ] -> (
    try Some (int_of_string h, int_of_string e, float_of_string x)
    with Failure _ -> None)
  | _ -> None
