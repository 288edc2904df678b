(* FIB states live here, below [Speaker], so that the speaker can record
   its decisions into the log its FIB events are written to. *)
type fib_state =
  | Local
  | Entries of entry list

and entry = { next_hop : int; session : int; weight : int }

let entry_equal a b =
  a.next_hop = b.next_hop && a.session = b.session && a.weight = b.weight

let fib_state_equal a b =
  match (a, b) with
  | Local, Local -> true
  | Entries xs, Entries ys -> List.equal entry_equal xs ys
  | Local, Entries _ | Entries _, Local -> false

type event =
  | Fib_change of {
      time : float;
      device : int;
      prefix : Net.Prefix.t;
      state : fib_state option;
    }
  | Message_sent of {
      time : float;
      src : int;
      dst : int;
      session : int;
      msg : Msg.t;
    }
  | Message_dropped of {
      time : float;
      src : int;
      dst : int;
      session : int;
      msg : Msg.t;
    }
  | Speaker_restarted of { time : float; device : int }
  | Session_event of {
      time : float;
      device : int;
      peer : int;
      session : int;
      event : string;
    }
  | Violation of {
      time : float;
      device : int option;
      prefix : Net.Prefix.t option;
      kind : string;
      detail : string;
    }

(* One node of the causal DAG, in id order. A node that is also a trace
   event keeps that event and adds only its parent (and, for a send, the
   split of its wire delay); the DAG fields are derived from the event when
   a snapshot is taken. The provenance-only acts carry their DAG event. *)
type node =
  | Logged of { event : event; kind : Obs.Causal.kind; parent : int }
  | Sent of {
      event : event;
      parent : int;
      prop : float;
      queue : float;
      fault : float;
    }
  | Only of Obs.Causal.event

module Tbl = Net.Int_table

(* Provenance: the DAG nodes, the current cause ("cursor") that threads
   causality through synchronous call chains (deliver -> receive -> decide
   -> FIB change), and each device's latest decision per prefix, so that a
   send or FIB change made at the decision's instant parents to it even
   after the cursor has moved on. The decisions are one table of prefix ids
   per device: a restart drops its own device's table. Nothing folds over
   them. *)
type provenance = {
  mutable nodes : node array;
  mutable len : int;
  mutable cursor : int;
  decisions : (int * float) Tbl.t Tbl.t;
}

(* Events live in an append-friendly growable array; the forward list the
   public API exposes is memoized against the current length so repeated
   [events] calls on an unchanged trace (fib_timeline, the invariant
   monitor, exporters) cost nothing after the first. *)
type t = {
  mutable arr : event array;
  mutable count : int;
  mutable memo : event list;
  mutable memo_count : int;
  prov : provenance option;
}

(* The logs created inside [with_provenance], newest first. *)
let scope : t list ref option ref = ref None

let create () =
  let prov =
    Option.map
      (fun _ ->
        { nodes = [||]; len = 0; cursor = -1; decisions = Tbl.create 64 })
      !scope
  in
  let t = { arr = [||]; count = 0; memo = []; memo_count = 0; prov } in
  Option.iter (fun logs -> logs := t :: !logs) !scope;
  t

let with_provenance f =
  let previous = !scope in
  let logs = ref [] in
  scope := Some logs;
  let result = Fun.protect ~finally:(fun () -> scope := previous) f in
  (result, List.rev !logs)

(* A full array [a], doubled. *)
let grown a fill =
  let bigger = Array.make (max 64 (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let record t event =
  if t.count = Array.length t.arr then t.arr <- grown t.arr event;
  t.arr.(t.count) <- event;
  t.count <- t.count + 1

let length t = t.count

let iter t f =
  for i = 0 to t.count - 1 do
    f t.arr.(i)
  done

let events t =
  if t.memo_count <> t.count then begin
    let rec build i acc = if i < 0 then acc else build (i - 1) (t.arr.(i) :: acc) in
    t.memo <- build (t.count - 1) [];
    t.memo_count <- t.count
  end;
  t.memo

let rev_filter_map f t =
  let acc = ref [] in
  iter t (fun e -> match f e with Some x -> acc := x :: !acc | None -> ());
  List.rev !acc

let count p t =
  let n = ref 0 in
  iter t (fun e -> if p e then incr n);
  !n

let messages_sent t =
  count (function Message_sent _ -> true | _ -> false) t

let messages_dropped t =
  count (function Message_dropped _ -> true | _ -> false) t

let fib_change_count t =
  count (function Fib_change _ -> true | _ -> false) t

let violations t =
  rev_filter_map
    (function
      | Violation { time; device; prefix; kind; detail } ->
        Some (time, device, prefix, kind, detail)
      | Fib_change _ | Message_sent _ | Message_dropped _ | Speaker_restarted _
      | Session_event _ ->
        None)
    t

let violation_count t = count (function Violation _ -> true | _ -> false) t

(* Provenance lives in its own nodes, so it survives the clear. *)
let clear t =
  t.arr <- [||];
  t.count <- 0;
  t.memo <- [];
  t.memo_count <- 0

let fib_timeline t ~prefix ~initial =
  let current = Hashtbl.create 16 in
  List.iter (fun (device, state) -> Hashtbl.replace current device state) initial;
  let snapshot () = Hashtbl.copy current in
  let relevant =
    rev_filter_map
      (function
        | Fib_change { time; device; prefix = p; state }
          when Net.Prefix.equal p prefix ->
          Some (time, device, state)
        | Fib_change _ | Message_sent _ | Message_dropped _
        | Speaker_restarted _ | Session_event _ | Violation _ ->
          None)
      t
  in
  (* Group consecutive changes at the same instant into one snapshot. *)
  let rec go acc = function
    | [] -> List.rev acc
    | (time, device, state) :: rest ->
      (match state with
       | Some s -> Hashtbl.replace current device s
       | None -> Hashtbl.remove current device);
      (match rest with
       | (t2, _, _) :: _ when t2 = time -> go acc rest
       | _ :: _ | [] -> go ((time, snapshot ()) :: acc) rest)
  in
  go [] relevant

(* ---------------- Acts ---------------- *)

(* Keepalives prove liveness but never carry routes, so they are not DAG
   nodes (hold expiry shows up as its own session root instead). *)
let routing = function
  | Msg.Keepalive -> false
  | Msg.Update _ | Msg.Withdraw _ | Msg.Eor -> true

let msg_pid msg =
  Option.fold ~none:(-1) ~some:Net.Intern.Prefix_id.id (Msg.prefix msg)

let push p node =
  if p.len = Array.length p.nodes then p.nodes <- grown p.nodes node;
  p.nodes.(p.len) <- node;
  p.len <- p.len + 1;
  p.len - 1

let only p ~kind ~parent ~time ~device ~peer ~session ~prefix ~note =
  push p
    (Only { Obs.Causal.id = p.len; parent; kind; time; device; peer; session;
            prefix; note; d_prop = 0.0; d_queue = 0.0; d_fault = 0.0 })

(* The parent of a send or FIB change: the decision [device] made for
   [prefix] at exactly [time], if any, else the current cause. An older
   decision is stale state (a session resend replaying Adj-RIB-Out). *)
let cause p ~device ~prefix ~time =
  match Tbl.find_opt p.decisions device with
  | None -> p.cursor
  | Some decided -> (
    match Tbl.find_opt decided prefix with
    | Some (id, at) when at = time -> id
    | Some _ | None -> p.cursor)

let set_cause t id = match t.prov with Some p -> p.cursor <- id | None -> ()

let fib_change t ~time ~device prefix state =
  let event = Fib_change { time; device; prefix; state } in
  record t event;
  match t.prov with
  | None -> ()
  | Some p ->
    let prefix = Net.Intern.Prefix_id.id prefix in
    let parent = cause p ~device ~prefix ~time in
    ignore (push p (Logged { event; kind = Fib; parent }))

let sent t ~time ~src ~dst ~session msg ~prop ~queue ~fault =
  let event = Message_sent { time; src; dst; session; msg } in
  record t event;
  match t.prov with
  | Some p when routing msg ->
    let parent = cause p ~device:src ~prefix:(msg_pid msg) ~time in
    push p (Sent { event; parent; prop; queue; fault })
  | Some _ | None -> -1

let dropped t ~time ~src ~dst ~session msg =
  record t (Message_sent { time; src; dst; session; msg });
  let event = Message_dropped { time; src; dst; session; msg } in
  record t event;
  match t.prov with
  | Some p when routing msg ->
    let parent = cause p ~device:src ~prefix:(msg_pid msg) ~time in
    ignore (push p (Logged { event; kind = Drop; parent }))
  | Some _ | None -> ()

let delivered t ~time ~src ~dst ~session msg ~send =
  match t.prov with
  | Some p when routing msg ->
    p.cursor <-
      only p ~kind:Recv ~parent:send ~time ~device:dst ~peer:src ~session
        ~prefix:(msg_pid msg) ~note:(Msg.kind_label msg)
  | Some _ | None -> ()

let lost t ~time ~src ~dst ~session msg ~send ~reason =
  match t.prov with
  | Some p when routing msg ->
    ignore
      (only p ~kind:Drop ~parent:send ~time ~device:dst ~peer:src ~session
         ~prefix:(msg_pid msg) ~note:reason)
  | Some _ | None -> ()

let decided t ~time ~device ~prefix =
  match t.prov with
  | None -> ()
  | Some p ->
    let id =
      only p ~kind:Decide ~parent:p.cursor ~time ~device ~peer:(-1)
        ~session:(-1) ~prefix ~note:""
    in
    let decided =
      match Tbl.find_opt p.decisions device with
      | Some decided -> decided
      | None ->
        let decided = Tbl.create 16 in
        Tbl.replace p.decisions device decided;
        decided
    in
    Tbl.replace decided prefix (id, time)

let originated t ~time ~device prefix ~withdraw =
  match t.prov with
  | None -> ()
  | Some p ->
    p.cursor <-
      only p
        ~kind:(if withdraw then Origin_withdraw else Origin)
        ~parent:(-1) ~time ~device ~peer:(-1) ~session:(-1)
        ~prefix:(Net.Intern.Prefix_id.id prefix) ~note:""

let configured t ~time ~device ~peer note =
  match t.prov with
  | None -> ()
  | Some p ->
    p.cursor <-
      only p ~kind:Config ~parent:(-1) ~time ~device ~peer ~session:(-1)
        ~prefix:(-1) ~note

let restarted t ~time ~device =
  let event = Speaker_restarted { time; device } in
  record t event;
  match t.prov with
  | None -> -1
  | Some p ->
    (* The crash wipes the device's RIBs: its old decisions can no longer
       cause anything. Peers' decisions stay valid. *)
    Tbl.remove p.decisions device;
    p.cursor <- push p (Logged { event; kind = Restart; parent = -1 });
    p.cursor

let session_act t ~kind ~logged ~time ~device ~peer ~session ~parent tag =
  let event = Session_event { time; device; peer; session; event = tag } in
  if logged then record t event;
  match t.prov with
  | None -> -1
  | Some p ->
    p.cursor <-
      (if logged then push p (Logged { event; kind; parent })
       else
         only p ~kind ~parent ~time ~device ~peer ~session ~prefix:(-1)
           ~note:tag);
    p.cursor

let session t ~logged = session_act t ~kind:Session ~logged

let sweep t ~time ~device ~peer ~session ~parent tag =
  ignore
    (session_act t ~kind:Sweep ~logged:true ~time ~device ~peer ~session
       ~parent tag)

(* ---------------- DAG snapshot ---------------- *)

(* The DAG event a logged trace event stands for. *)
let derived ~id ~kind ~parent ~d_prop ~d_queue ~d_fault event =
  let time, device, peer, session, prefix, note =
    match event with
    | Fib_change { time; device; prefix; state } ->
      ( time, device, -1, -1, Net.Intern.Prefix_id.id prefix,
        if Option.is_some state then "install" else "remove" )
    | Message_sent { time; src; dst; session; msg }
    | Message_dropped { time; src; dst; session; msg } ->
      (time, src, dst, session, msg_pid msg, Msg.kind_label msg)
    | Speaker_restarted { time; device } -> (time, device, -1, -1, -1, "")
    | Session_event { time; device; peer; session; event } ->
      (time, device, peer, session, -1, event)
    | Violation _ -> invalid_arg "Trace.dag: a violation is not a DAG node"
  in
  { Obs.Causal.id; parent; kind; time; device; peer; session; prefix; note;
    d_prop; d_queue; d_fault }

let dag_event id = function
  | Only ev -> ev
  | Logged { event; kind; parent } ->
    derived ~id ~kind ~parent ~d_prop:0.0 ~d_queue:0.0 ~d_fault:0.0 event
  | Sent { event; parent; prop; queue; fault } ->
    derived ~id ~kind:Send ~parent ~d_prop:prop ~d_queue:queue ~d_fault:fault
      event

let dag t =
  Obs.Causal.of_array
    (match t.prov with
     | None -> [||]
     | Some p -> Array.init p.len (fun id -> dag_event id p.nodes.(id)))

(* ---------------- JSON export ---------------- *)

let attr_to_json (attr : Net.Attr.t) =
  let base =
    [
      ("origin", Obs.Json.String (Net.Attr.origin_to_string attr.Net.Attr.origin));
      ("as_path", Obs.Json.String (Net.As_path.to_string attr.Net.Attr.as_path));
      ("local_pref", Obs.Json.Int attr.Net.Attr.local_pref);
      ("med", Obs.Json.Int attr.Net.Attr.med);
      ("communities",
       Obs.Json.List
         (List.map
            (fun c -> Obs.Json.String (Net.Community.to_string c))
            (Net.Community.Set.elements attr.Net.Attr.communities)));
    ]
  in
  let lb =
    match attr.Net.Attr.link_bandwidth with
    | Some w -> [ ("link_bandwidth", Obs.Json.Int w) ]
    | None -> []
  in
  Obs.Json.Obj (base @ lb)

let msg_to_json = function
  | Msg.Update { prefix; attr } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.String "update");
        ("prefix", Obs.Json.String (Net.Prefix.to_string prefix));
        ("attr", attr_to_json attr);
      ]
  | Msg.Withdraw { prefix } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.String "withdraw");
        ("prefix", Obs.Json.String (Net.Prefix.to_string prefix));
      ]
  | Msg.Keepalive -> Obs.Json.Obj [ ("kind", Obs.Json.String "keepalive") ]
  | Msg.Eor -> Obs.Json.Obj [ ("kind", Obs.Json.String "eor") ]

let fib_state_to_json = function
  | None -> Obs.Json.Null
  | Some Local -> Obs.Json.String "local"
  | Some (Entries entries) ->
    Obs.Json.List
      (List.map
         (fun e ->
           Obs.Json.Obj
             [
               ("next_hop", Obs.Json.Int e.next_hop);
               ("session", Obs.Json.Int e.session);
               ("weight", Obs.Json.Int e.weight);
             ])
         entries)

let opt_int = function Some i -> Obs.Json.Int i | None -> Obs.Json.Null

let opt_prefix = function
  | Some p -> Obs.Json.String (Net.Prefix.to_string p)
  | None -> Obs.Json.Null

let event_to_json = function
  | Fib_change { time; device; prefix; state } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "fib_change");
        ("time", Obs.Json.Float time);
        ("device", Obs.Json.Int device);
        ("prefix", Obs.Json.String (Net.Prefix.to_string prefix));
        ("state", fib_state_to_json state);
      ]
  | Message_sent { time; src; dst; session; msg } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "message_sent");
        ("time", Obs.Json.Float time);
        ("src", Obs.Json.Int src);
        ("dst", Obs.Json.Int dst);
        ("session", Obs.Json.Int session);
        ("msg", msg_to_json msg);
      ]
  | Message_dropped { time; src; dst; session; msg } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "message_dropped");
        ("time", Obs.Json.Float time);
        ("src", Obs.Json.Int src);
        ("dst", Obs.Json.Int dst);
        ("session", Obs.Json.Int session);
        ("msg", msg_to_json msg);
      ]
  | Speaker_restarted { time; device } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "speaker_restarted");
        ("time", Obs.Json.Float time);
        ("device", Obs.Json.Int device);
      ]
  | Session_event { time; device; peer; session; event } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "session_event");
        ("time", Obs.Json.Float time);
        ("device", Obs.Json.Int device);
        ("peer", Obs.Json.Int peer);
        ("session", Obs.Json.Int session);
        ("event", Obs.Json.String event);
      ]
  | Violation { time; device; prefix; kind; detail } ->
    Obs.Json.Obj
      [
        ("type", Obs.Json.String "violation");
        ("time", Obs.Json.Float time);
        ("device", opt_int device);
        ("prefix", opt_prefix prefix);
        ("kind", Obs.Json.String kind);
        ("detail", Obs.Json.String detail);
      ]
