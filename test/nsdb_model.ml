(* The replicated NSDB as it was written before fan-out became the
   replication log replayed at once: writes fan out to every live replica
   until [enable_async] switches to a leader plus a replication log, and
   each of [set], [delete], [lag], [lag_peak], [snapshot_ships], [flush],
   [fail_replica] and [recover_replica] branches on the mode. Kept
   verbatim, with the store it wraps, as the model that test_properties
   compares [Centralium.Nsdb.Replicated] against. Values are
   [Centralium.Nsdb.value]s, so reads, snapshots and batches of the two
   compare directly. *)

open Centralium

type value = Nsdb.value =
  | String of string
  | Int of int
  | Float of float
  | Bool of bool
  | Rpa of Rpa.t

let value_equal a b =
  match (a, b) with
  | String x, String y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Rpa x, Rpa y -> Rpa.equal x y
  | (String _ | Int _ | Float _ | Bool _ | Rpa _), _ -> false

(* A leaf holds no children table: a node makes one on its first child and
   keeps it. [delete] notifies in the tables' iteration order, so every
   table starts at the same size, [Hashtbl.create 4]. *)
type node = {
  mutable node_value : value option;
  mutable children : (string, node) Hashtbl.t option;
}

let new_node () = { node_value = None; children = None }

let child node seg =
  match node.children with None -> None | Some c -> Hashtbl.find_opt c seg

let iter_children f node = Option.iter (Hashtbl.iter f) node.children

let fold_children f node acc =
  match node.children with None -> acc | Some c -> Hashtbl.fold f c acc

type subscription = { pattern : string list; callback : string -> value option -> unit }

type t = {
  root : node;
  subscriptions : (int, subscription) Hashtbl.t;
  mutable next_sub : int;
}

let create () =
  { root = new_node (); subscriptions = Hashtbl.create 8; next_sub = 0 }

let split path =
  match String.split_on_char '/' path with
  | [] | [ "" ] -> invalid_arg "Nsdb: empty path"
  | segments ->
    if List.exists (fun s -> s = "") segments then
      invalid_arg (Printf.sprintf "Nsdb: empty segment in path %S" path);
    segments

let join segments = String.concat "/" segments

let rec pattern_matches pattern concrete =
  match (pattern, concrete) with
  | [], [] -> true
  | "**" :: ps, cs ->
    pattern_matches ps cs
    || (match cs with
        | [] -> false
        | _ :: rest -> pattern_matches pattern rest)
  | p :: ps, c :: cs -> (p = "*" || p = c) && pattern_matches ps cs
  | [], _ :: _ | _ :: _, [] -> false

let notify t concrete_segments value =
  let concrete = join concrete_segments in
  Hashtbl.iter
    (fun _ sub ->
      if pattern_matches sub.pattern concrete_segments then
        sub.callback concrete value)
    t.subscriptions

let set t ~path value =
  let segments = split path in
  if List.exists (fun s -> String.contains s '*') segments then
    invalid_arg "Nsdb.set: wildcard in path";
  let rec go node = function
    | [] -> node.node_value <- Some value
    | seg :: rest ->
      let children =
        match node.children with
        | Some c -> c
        | None ->
          let c = Hashtbl.create 4 in
          node.children <- Some c;
          c
      in
      let next =
        match Hashtbl.find_opt children seg with
        | Some c -> c
        | None ->
          let c = new_node () in
          Hashtbl.replace children seg c;
          c
      in
      go next rest
  in
  go t.root segments;
  notify t segments (Some value)

let find_node t segments =
  let rec go node = function
    | [] -> Some node
    | seg :: rest ->
      (match child node seg with
       | Some c -> go c rest
       | None -> None)
  in
  go t.root segments

let get_one t ~path =
  match find_node t (split path) with
  | Some node -> node.node_value
  | None -> None

let get t ~path =
  let segments = split path in
  let results = ref [] in
  let rec go node prefix = function
    | [] ->
      (match node.node_value with
       | Some v -> results := (join (List.rev prefix), v) :: !results
       | None -> ())
    | "**" :: rest as pattern ->
      (* Zero segments... *)
      go node prefix rest;
      (* ...or descend one level, keeping the pattern. *)
      iter_children (fun seg c -> go c (seg :: prefix) pattern) node
    | "*" :: rest -> iter_children (fun seg c -> go c (seg :: prefix) rest) node
    | seg :: rest ->
      (match child node seg with
       | Some c -> go c (seg :: prefix) rest
       | None -> ())
  in
  go t.root [] segments;
  (* Patterns with several ** can derive the same concrete path twice. *)
  List.sort_uniq compare !results

let rec collect_values node prefix acc =
  let acc =
    match node.node_value with
    | Some v -> (join (List.rev prefix), v) :: acc
    | None -> acc
  in
  fold_children (fun seg c acc -> collect_values c (seg :: prefix) acc) node acc

let get_subtree t ~path =
  let segments = split path in
  match find_node t segments with
  | None -> []
  | Some node -> List.sort compare (collect_values node (List.rev segments) [])

let delete t ~path =
  let segments = split path in
  match segments with
  | [] -> ()
  | _ :: _ ->
    let rec parent_of node = function
      | [ last ] -> Some (node, last)
      | seg :: rest ->
        (match child node seg with
         | Some c -> parent_of c rest
         | None -> None)
      | [] -> None
    in
    (match parent_of t.root segments with
     | None -> ()
     | Some (parent, last) ->
       (match child parent last with
        | None -> ()
        | Some victim ->
          let removed = collect_values victim (List.rev segments) [] in
          Option.iter (fun c -> Hashtbl.remove c last) parent.children;
          List.iter
            (fun (concrete, _) ->
              notify t (String.split_on_char '/' concrete) None)
            removed))

let paths t = List.map fst (collect_values t.root [] []) |> List.sort compare

let size t = List.length (collect_values t.root [] [])

let memory_estimate_bytes t =
  (* Structural model: a tree node costs ~128 bytes of bookkeeping; values
     cost their rendered size. *)
  let rec count node =
    let own =
      128
      +
      match node.node_value with
      | None -> 0
      | Some (String s) -> String.length s + 24
      | Some (Int _ | Float _ | Bool _) -> 24
      | Some (Rpa r) -> 64 * Rpa.loc r
    in
    fold_children (fun _ c acc -> acc + count c) node own
  in
  count t.root

let snapshot t = List.sort compare (collect_values t.root [] [])

let restore t entries =
  Option.iter Hashtbl.reset t.root.children;
  t.root.node_value <- None;
  List.iter (fun (path, v) -> set t ~path v) entries

let subscribe t ~path callback =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  Hashtbl.replace t.subscriptions id { pattern = split path; callback };
  id

let unsubscribe t id = Hashtbl.remove t.subscriptions id

module Replicated = struct
  type store = t

  let store_set = set
  let store_get = get
  let store_get_one = get_one
  let store_delete = delete
  let store_restore = restore
  let store_snapshot = snapshot

  (* One entry of the replication log (async mode): exactly what the
     leader applied, replayed verbatim on the followers. *)
  type op = Op_set of string * value | Op_delete of string

  type batch =
    [ `Changes of (string * value option) list
    | `Resync of (string * value) list ]

  (* A fleet-level subscriber. Notifications are not delivered at write
     time: they coalesce (keep-last per path, first-touch order) into a
     bounded pending queue and are handed over as one batch per
     {!flush} — the "per simulation instant" batching of the pub/sub
     path. A subscriber whose queue overflows its limit is switched to
     resync mode: at the next flush it receives a full snapshot of the
     paths it watches instead of an (incomplete) delta stream. *)
  type sub = {
    sub_pattern : string list;
    sub_callback : batch -> unit;
    sub_limit : int;
    sub_order : string Queue.t;  (* first-touch order of pending paths *)
    sub_latest : (string, value option) Hashtbl.t;
    mutable sub_overflowed : bool;
  }

  (* Async-replication state: the leader applies writes immediately and
     appends them to the log; followers consume the log in bounded batches
     at each {!flush}, or — beyond [lag_threshold] — discard their backlog
     and take a full snapshot from the leader (snapshot shipping). *)
  type async = {
    lag_threshold : int;
    batch_budget : int;
    log : (int, op) Hashtbl.t;  (* index -> op, truncated below min applied *)
    mutable head : int;  (* next log index to assign *)
    applied : int array;  (* per replica: next log index to apply *)
    mutable base : int;  (* lowest retained log index *)
    mutable ships : int;
    mutable lag_peak : int;
  }

  type nonrec t = {
    stores : store array;
    mutable dead : bool array;
    subs : (int, sub) Hashtbl.t;
    mutable next_token : int;
    mutable overflow_resyncs : int;
    mutable async : async option;
  }

  let create ~replicas =
    if replicas < 1 then invalid_arg "Nsdb.Replicated.create: need >= 1";
    {
      stores = Array.init replicas (fun _ -> create ());
      dead = Array.make replicas false;
      subs = Hashtbl.create 4;
      next_token = 0;
      overflow_resyncs = 0;
      async = None;
    }

  let alive t =
    List.filter
      (fun i -> not t.dead.(i))
      (List.init (Array.length t.stores) Fun.id)

  let leader t = match alive t with [] -> None | first :: _ -> Some first

  let enable_async ?(lag_threshold = 64) ?(batch_budget = 32) t =
    if lag_threshold < 1 || batch_budget < 1 then
      invalid_arg "Nsdb.Replicated.enable_async: bounds must be >= 1";
    if t.async = None then
      t.async <-
        Some
          {
            lag_threshold;
            batch_budget;
            log = Hashtbl.create 64;
            head = 0;
            applied = Array.make (Array.length t.stores) 0;
            base = 0;
            ships = 0;
            lag_peak = 0;
          }

  (* {2 Fleet-level pub/sub} *)

  let subscribe ?(limit = 256) t ~path callback =
    if limit < 1 then invalid_arg "Nsdb.Replicated.subscribe: limit >= 1";
    let token = t.next_token in
    t.next_token <- token + 1;
    Hashtbl.replace t.subs token
      {
        sub_pattern = split path;
        sub_callback = callback;
        sub_limit = limit;
        sub_order = Queue.create ();
        sub_latest = Hashtbl.create 8;
        sub_overflowed = false;
      };
    token

  let unsubscribe t token = Hashtbl.remove t.subs token

  let subscriber_count t = Hashtbl.length t.subs

  let publish t concrete_segments vopt =
    let concrete = join concrete_segments in
    Hashtbl.iter
      (fun _ sub ->
        if
          (not sub.sub_overflowed)
          && pattern_matches sub.sub_pattern concrete_segments
        then
          if Hashtbl.mem sub.sub_latest concrete then
            (* Keep-last coalescing: the batch delivers only the value in
               force at flush time. *)
            Hashtbl.replace sub.sub_latest concrete vopt
          else if Queue.length sub.sub_order >= sub.sub_limit then begin
            (* Bounded queue: drop the partial delta stream and mark the
               subscriber for a full resync — shed loudly, never silently. *)
            Queue.clear sub.sub_order;
            Hashtbl.reset sub.sub_latest;
            sub.sub_overflowed <- true
          end
          else begin
            Queue.push concrete sub.sub_order;
            Hashtbl.replace sub.sub_latest concrete vopt
          end)
      t.subs

  let flush_subscribers t =
    let tokens =
      Hashtbl.fold (fun k _ acc -> k :: acc) t.subs [] |> List.sort compare
    in
    List.iter
      (fun token ->
        match Hashtbl.find_opt t.subs token with
        | None -> ()
        | Some sub ->
          if sub.sub_overflowed then begin
            sub.sub_overflowed <- false;
            t.overflow_resyncs <- t.overflow_resyncs + 1;
            let snapshot =
              match leader t with
              | None -> []
              | Some l -> store_get t.stores.(l) ~path:(join sub.sub_pattern)
            in
            sub.sub_callback (`Resync snapshot)
          end
          else if not (Queue.is_empty sub.sub_order) then begin
            let changes =
              Queue.fold
                (fun acc path -> (path, Hashtbl.find sub.sub_latest path) :: acc)
                [] sub.sub_order
              |> List.rev
            in
            Queue.clear sub.sub_order;
            Hashtbl.reset sub.sub_latest;
            sub.sub_callback (`Changes changes)
          end)
      tokens

  let overflow_resyncs t = t.overflow_resyncs

  (* {2 The write path} *)

  let append_op a op =
    Hashtbl.replace a.log a.head op;
    a.head <- a.head + 1

  let apply_op store = function
    | Op_set (path, v) -> store_set store ~path v
    | Op_delete path -> store_delete store ~path

  (* Paths that [delete path] would remove from the leader — the concrete
     notifications a subtree delete expands to. *)
  let doomed_paths t ~path =
    match leader t with
    | None -> []
    | Some l ->
      (match find_node t.stores.(l) (split path) with
       | None -> []
       | Some node ->
         List.map fst (collect_values node (List.rev (split path)) []))

  let set t ~path value =
    (match t.async with
     | None -> List.iter (fun i -> store_set t.stores.(i) ~path value) (alive t)
     | Some a ->
       append_op a (Op_set (path, value));
       (match leader t with
        | Some l ->
          store_set t.stores.(l) ~path value;
          a.applied.(l) <- a.head
        | None -> ()));
    publish t (split path) (Some value)

  let get t ~path =
    match leader t with
    | None -> failwith "Nsdb.Replicated.get: no live replica"
    | Some i -> store_get t.stores.(i) ~path

  let get_one t ~path =
    match leader t with
    | None -> failwith "Nsdb.Replicated.get_one: no live replica"
    | Some i -> store_get_one t.stores.(i) ~path

  let delete t ~path =
    let removed = doomed_paths t ~path in
    (match t.async with
     | None -> List.iter (fun i -> store_delete t.stores.(i) ~path) (alive t)
     | Some a ->
       append_op a (Op_delete path);
       (match leader t with
        | Some l ->
          store_delete t.stores.(l) ~path;
          a.applied.(l) <- a.head
        | None -> ()));
    List.iter
      (fun concrete -> publish t (String.split_on_char '/' concrete) None)
      removed

  let compare_and_set t ~path ~expected value =
    match leader t with
    | None -> failwith "Nsdb.Replicated.compare_and_set: no live replica"
    | Some i ->
      let current = store_get_one t.stores.(i) ~path in
      let matches =
        match (current, expected) with
        | None, None -> true
        | Some cur, Some exp -> value_equal cur exp
        | None, Some _ | Some _, None -> false
      in
      if matches then set t ~path value;
      matches

  (* {2 Replica catch-up} *)

  let lag t i =
    match t.async with None -> 0 | Some a -> a.head - a.applied.(i)

  let max_lag t =
    List.fold_left (fun acc i -> max acc (lag t i)) 0 (alive t)

  let snapshot_ships t = match t.async with None -> 0 | Some a -> a.ships

  let lag_peak t = match t.async with None -> 0 | Some a -> a.lag_peak

  (* Ship a full leader snapshot into replica [i]. [restore] on the
     existing store (rather than swapping in a fresh one) keeps the
     replica's own base-level subscriptions alive across the resync —
     replacing the store used to leak them as dead callbacks. *)
  let ship_snapshot t a ~from:l i =
    store_restore t.stores.(i) (store_snapshot t.stores.(l));
    a.applied.(i) <- a.head;
    a.ships <- a.ships + 1

  (* Drain replica [i]'s whole backlog from the log. Only called on a
     replica that was alive all along (leader promotion), so its cursor is
     at or above the truncation floor and every entry is still retained. *)
  let catch_up_fully t a i =
    for idx = a.applied.(i) to a.head - 1 do
      apply_op t.stores.(i) (Hashtbl.find a.log idx)
    done;
    a.applied.(i) <- a.head

  (* One replication round, called once per simulation instant by the
     churn driver: every alive follower applies at most [batch_budget]
     log entries; one beyond [lag_threshold] (or whose backlog was
     truncated away) catches up via snapshot shipping instead. Then the
     log is truncated below the slowest alive replica and the batched
     subscriber notifications are delivered. Purely a function of store
     state — bit-reproducible however coarsely it is called. *)
  let flush t =
    (match t.async with
     | None -> ()
     | Some a ->
       (match leader t with
        | None -> ()
        | Some l ->
          List.iter
            (fun i ->
              if i <> l then begin
                let lag = a.head - a.applied.(i) in
                a.lag_peak <- max a.lag_peak lag;
                if lag > a.lag_threshold || a.applied.(i) < a.base then
                  ship_snapshot t a ~from:l i
                else
                  let upto = min a.head (a.applied.(i) + a.batch_budget) in
                  for idx = a.applied.(i) to upto - 1 do
                    apply_op t.stores.(i) (Hashtbl.find a.log idx)
                  done;
                  a.applied.(i) <- upto
              end)
            (alive t);
          let floor =
            List.fold_left
              (fun acc i -> min acc a.applied.(i))
              a.head (alive t)
          in
          for idx = a.base to floor - 1 do
            Hashtbl.remove a.log idx
          done;
          a.base <- max a.base floor));
    flush_subscribers t

  let fail_replica t i =
    let old_leader = leader t in
    t.dead.(i) <- true;
    (* A follower promoted to leader first drains its backlog: reads and
       CAS are served by the leader, which must therefore be current. *)
    match (t.async, leader t) with
    | Some a, Some l when old_leader <> Some l -> catch_up_fully t a l
    | _ -> ()

  let recover_replica t i =
    (* Re-sync from the pre-recovery leader: the recovering replica may have
       missed writes while it was down (eventual consistency). Restoring in
       place preserves the replica's base-level subscriptions. *)
    let source = leader t in
    t.dead.(i) <- false;
    (match source with
     | Some l when l <> i ->
       store_restore t.stores.(i) (store_snapshot t.stores.(l))
     | Some _ | None -> ());
    match t.async with
    | Some a -> a.applied.(i) <- a.head
    | None -> ()

  let replica t i = t.stores.(i)
end
