(* Per-prefix provenance DAG for route propagation.

   Every causally relevant act in the BGP layer — an origin announce, a
   message send, its delivery, the decision it triggers, the FIB change
   that decision commits — is one immutable event whose [parent] points at
   the event that caused it. Event ids are positions in the DAG, and since
   the simulation clock is monotone the DAG is sorted by time: analysis
   never needs to sort.

   This module only analyses a DAG. The network's event log
   ([Bgp.Trace]) records it and hands out snapshots.

   Devices and prefixes are plain ints: the obs library sits below net,
   so callers pass [Net.Intern.Prefix_id.id] values and supply a
   [prefix_name] callback at export time. *)

type kind =
  | Origin
  | Origin_withdraw
  | Recv
  | Decide
  | Send
  | Drop
  | Fib
  | Restart
  | Session
  | Sweep
  | Config

let kind_label = function
  | Origin -> "origin"
  | Origin_withdraw -> "origin-withdraw"
  | Recv -> "recv"
  | Decide -> "decide"
  | Send -> "send"
  | Drop -> "drop"
  | Fib -> "fib"
  | Restart -> "restart"
  | Session -> "session"
  | Sweep -> "sweep"
  | Config -> "config"

type event = {
  id : int;
  parent : int;  (* -1 = root *)
  kind : kind;
  time : float;  (* sim seconds *)
  device : int;
  peer : int;     (* -1 when not applicable *)
  session : int;  (* -1 when not applicable *)
  prefix : int;   (* interned prefix id; -1 when not prefix-scoped *)
  note : string;
  (* Wire-trip attribution, set on [Send] events only: drawn propagation
     latency, extra fault-model delay, and FIFO queue wait at the head of
     the channel. Their sum is the edge delay to the matching [Recv]. *)
  d_prop : float;
  d_queue : float;
  d_fault : float;
}

(* A snapshot: [events.(i).id = i]. *)
type t = event array

let of_array events = events
let length t = Array.length t
let events t = Array.to_list t
let event t id = if id >= 0 && id < Array.length t then Some t.(id) else None

let default_prefix_name p = if p < 0 then "-" else Printf.sprintf "pfx#%d" p

let event_to_json ?(prefix_name = default_prefix_name) ev =
  let base =
    [
      ("id", Json.Int ev.id);
      ("parent", if ev.parent < 0 then Json.Null else Json.Int ev.parent);
      ("kind", Json.String (kind_label ev.kind));
      ("t", Json.Float ev.time);
      ("device", Json.Int ev.device);
      ("peer", if ev.peer < 0 then Json.Null else Json.Int ev.peer);
      ("session", if ev.session < 0 then Json.Null else Json.Int ev.session);
      ("prefix",
       if ev.prefix < 0 then Json.Null else Json.String (prefix_name ev.prefix));
      ("note", Json.String ev.note);
    ]
  in
  let wire =
    if ev.kind = Send then
      [
        ("d_prop", Json.Float ev.d_prop);
        ("d_queue", Json.Float ev.d_queue);
        ("d_fault", Json.Float ev.d_fault);
      ]
    else []
  in
  Json.Obj (base @ wire)

let to_json ?prefix_name t =
  Json.List (List.map (event_to_json ?prefix_name) (events t))

(* ---------------- Critical path ---------------- *)

type edge = {
  e_from : int;
  e_to : int;
  e_label : string;
  e_delay : float;
  e_parts : (string * float) list;
}

type chain = {
  c_prefix : int;
  c_events : event list;  (* root first *)
  c_edges : edge list;    (* between consecutive [c_events] *)
  c_total : float;        (* terminal time - root time *)
}

(* Last FIB change for [prefix] (optionally at [device]) — the DAG is
   time-sorted, so scanning backwards finds the quiescence point: the
   latest install/remove, ties broken by highest id. *)
let terminal_fib ?device t ~prefix =
  let rec scan i =
    if i < 0 then None
    else
      let ev = t.(i) in
      if
        ev.kind = Fib && ev.prefix = prefix
        && (match device with None -> true | Some d -> ev.device = d)
      then Some ev
      else scan (i - 1)
  in
  scan (Array.length t - 1)

let edge_between a b =
  let delay = b.time -. a.time in
  let plain label =
    { e_from = a.id; e_to = b.id; e_label = label; e_delay = delay; e_parts = [] }
  in
  match (a.kind, b.kind) with
  | Send, (Recv | Drop) ->
    {
      e_from = a.id;
      e_to = b.id;
      e_label = "wire";
      e_delay = delay;
      e_parts =
        [ ("prop", a.d_prop); ("fault", a.d_fault); ("queue", a.d_queue) ];
    }
  | _, Decide -> plain "decision"
  | _, Send -> plain "emit"
  | _, Drop -> plain "drop"
  | _, Fib -> plain "install"
  | _, Sweep -> plain "sweep-timer"
  | _, Session -> plain "session"
  | _, _ -> plain "causes"

let critical_path ?device t ~prefix =
  match terminal_fib ?device t ~prefix with
  | None -> None
  | Some terminal ->
    let rec ancestors ev acc =
      if ev.parent < 0 then ev :: acc
      else ancestors t.(ev.parent) (ev :: acc)
    in
    let evs = ancestors terminal [] in
    let rec edges = function
      | a :: (b :: _ as rest) -> edge_between a b :: edges rest
      | [ _ ] | [] -> []
    in
    let root = List.hd evs in
    Some
      {
        c_prefix = prefix;
        c_events = evs;
        c_edges = edges evs;
        c_total = terminal.time -. root.time;
      }

let event_descr ev =
  match ev.kind with
  | Origin -> Printf.sprintf "origin announce at device %d" ev.device
  | Origin_withdraw -> Printf.sprintf "origin withdraw at device %d" ev.device
  | Recv ->
    Printf.sprintf "recv %s at device %d from %d (session %d)" ev.note
      ev.device ev.peer ev.session
  | Decide -> Printf.sprintf "decision at device %d" ev.device
  | Send ->
    Printf.sprintf "send %s from device %d to %d (session %d)" ev.note
      ev.device ev.peer ev.session
  | Drop ->
    Printf.sprintf "drop (%s) %d -> %d" ev.note ev.device ev.peer
  | Fib -> Printf.sprintf "fib %s at device %d" ev.note ev.device
  | Restart -> Printf.sprintf "speaker restart at device %d" ev.device
  | Session ->
    Printf.sprintf "session %s at device %d (peer %d)" ev.note ev.device
      ev.peer
  | Sweep -> Printf.sprintf "sweep (%s) at device %d" ev.note ev.device
  | Config -> Printf.sprintf "config %s at device %d" ev.note ev.device

let chain_lines ?(prefix_name = default_prefix_name) chain =
  match chain.c_events with
  | [] -> []
  | root :: _ ->
    let header =
      Printf.sprintf "critical path for %s: %d events, %.6fs total"
        (prefix_name chain.c_prefix)
        (List.length chain.c_events)
        chain.c_total
    in
    let rec go evs edges acc =
      match (evs, edges) with
      | [], _ -> List.rev acc
      | ev :: evs', edges ->
        let edge_txt, edges' =
          match edges with
          | [] -> ("", [])
          | e :: rest ->
            let parts =
              if e.e_parts = [] then ""
              else
                " ("
                ^ String.concat ", "
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s %.6f" k v)
                       e.e_parts)
                ^ ")"
            in
            (Printf.sprintf "  [+%.6f %s%s]" e.e_delay e.e_label parts, rest)
        in
        let line =
          Printf.sprintf "  t=+%.6f  %s%s" (ev.time -. root.time)
            (event_descr ev) edge_txt
        in
        go evs' edges' (line :: acc)
    in
    (* Edge i sits between event i and event i+1; print it on event i+1's
       line (the edge that led here). *)
    let first_line = Printf.sprintf "  t=+%.6f  %s" 0.0 (event_descr root) in
    header :: first_line :: go (List.tl chain.c_events) chain.c_edges []

let chain_to_json ?(prefix_name = default_prefix_name) chain =
  Json.Obj
    [
      ("prefix", Json.String (prefix_name chain.c_prefix));
      ("total_s", Json.Float chain.c_total);
      ("events",
       Json.List (List.map (event_to_json ~prefix_name) chain.c_events));
      ("edges",
       Json.List
         (List.map
            (fun e ->
              Json.Obj
                [
                  ("from", Json.Int e.e_from);
                  ("to", Json.Int e.e_to);
                  ("label", Json.String e.e_label);
                  ("delay_s", Json.Float e.e_delay);
                  ("parts",
                   Json.Obj
                     (List.map (fun (k, v) -> (k, Json.Float v)) e.e_parts));
                ])
            chain.c_edges));
    ]

(* ---------------- Blackhole attribution ---------------- *)

type attributed = {
  a_from : float;
  a_until : float;
  a_fraction : float;
  a_seconds : float;
  a_opened_by : int list;
  a_closed_by : int list;
}

let fib_ids_at t ~prefix time =
  let rec go i acc =
    if i < 0 then acc
    else
      let ev = t.(i) in
      let acc =
        if ev.kind = Fib && ev.prefix = prefix && ev.time = time then
          ev.id :: acc
        else acc
      in
      (* The DAG is time-sorted: once past events strictly before [time], stop. *)
      if ev.time < time then acc else go (i - 1) acc
  in
  go (Array.length t - 1) []

let last_fib_before t ~prefix time =
  let rec scan i =
    if i < 0 then []
    else
      let ev = t.(i) in
      if ev.kind = Fib && ev.prefix = prefix && ev.time < time then [ ev.id ]
      else scan (i - 1)
  in
  scan (Array.length t - 1)

let attribute t ~prefix ~segments =
  List.filter_map
    (fun (sfrom, suntil, fraction) ->
      let width = suntil -. sfrom in
      if width <= 0.0 || fraction = 0.0 then None
      else
        let opened =
          match fib_ids_at t ~prefix sfrom with
          | [] -> last_fib_before t ~prefix sfrom
          | ids -> ids
        in
        let closed = fib_ids_at t ~prefix suntil in
        Some
          {
            a_from = sfrom;
            a_until = suntil;
            a_fraction = fraction;
            a_seconds = fraction *. width;
            a_opened_by = opened;
            a_closed_by = closed;
          })
    segments

let attributed_to_json a =
  Json.Obj
    [
      ("from_s", Json.Float a.a_from);
      ("until_s", Json.Float a.a_until);
      ("fraction", Json.Float a.a_fraction);
      ("seconds", Json.Float a.a_seconds);
      ("opened_by", Json.List (List.map (fun i -> Json.Int i) a.a_opened_by));
      ("closed_by", Json.List (List.map (fun i -> Json.Int i) a.a_closed_by));
    ]
