module P = Net.Path_regex
module Int_set = Set.Make (Int)

type machine = P.sym

let of_regex = P.symbolic

let universal =
  {
    P.sym_transitions = [| [ (Some (P.Not_in []), 0) ] |];
    sym_start = 0;
    sym_accept = 0;
  }

let never =
  { P.sym_transitions = [| []; [] |]; sym_start = 0; sym_accept = 1 }

let starts_with_any asns =
  match asns with
  | [] -> never
  | _ ->
    let ranges = List.map (fun a -> (a, a)) asns in
    {
      P.sym_transitions =
        [| [ (Some (P.In ranges), 1) ]; [ (Some (P.Not_in []), 1) ] |];
      sym_start = 0;
      sym_accept = 1;
    }

let ends_with asn =
  {
    P.sym_transitions =
      [| [ (Some (P.Not_in []), 0); (Some (P.In [ (asn, asn) ]), 1) ]; [] |];
    sym_start = 0;
    sym_accept = 1;
  }

(* ---------------- representative tokens ----------------

   Every transition label is a union (or complement of a union) of
   inclusive ranges, so the token space partitions into intervals on which
   every label in play is constant. One probe token per interval explores
   the product exactly: breakpoints are each range's [lo] and [hi + 1],
   plus 0 so the partition covers the whole space. *)

let representatives machines =
  let add acc (lo, hi) = (lo :: (hi + 1) :: acc) in
  let of_label acc = function P.In rs | P.Not_in rs -> List.fold_left add acc rs in
  let breakpoints =
    List.fold_left
      (fun acc (m : machine) ->
        Array.fold_left
          (fun acc edges ->
            List.fold_left
              (fun acc (lbl, _) ->
                match lbl with None -> acc | Some l -> of_label acc l)
              acc edges)
          acc m.P.sym_transitions)
      [ 0 ] machines
  in
  List.sort_uniq Int.compare (List.filter (fun b -> b >= 0) breakpoints)

(* ---------------- subset construction ---------------- *)

let eps_closure (m : machine) set =
  let rec go acc = function
    | [] -> acc
    | s :: rest ->
      let acc, rest =
        List.fold_left
          (fun (acc, rest) (lbl, dst) ->
            match lbl with
            | None when not (Int_set.mem dst acc) ->
              (Int_set.add dst acc, dst :: rest)
            | _ -> (acc, rest))
          (acc, rest) m.P.sym_transitions.(s)
      in
      go acc rest
  in
  go set (Int_set.elements set)

let step (m : machine) set token =
  let moved =
    Int_set.fold
      (fun s acc ->
        List.fold_left
          (fun acc (lbl, dst) ->
            match lbl with
            | Some l when P.label_matches l token -> Int_set.add dst acc
            | Some _ | None -> acc)
          acc m.P.sym_transitions.(s))
      set Int_set.empty
  in
  eps_closure m moved

let key sets = List.map Int_set.elements sets

let accepts (m : machine) set = Int_set.mem m.P.sym_accept set

(* The product-state budget. It bounds the work on RPAs that lint reads
   from files. *)
let default_cap = 4096

(* BFS over the product of [machines]; [good] decides the verdict at each
   reachable state, [keep] prunes dead states, [on_cap] is the conservative
   answer when the visited-state budget runs out. *)
let product_search_capped ~good ~keep ~on_cap machines =
  let reps = representatives machines in
  let start = List.map (fun m -> eps_closure m (Int_set.singleton m.P.sym_start)) machines in
  let visited = Hashtbl.create 64 in
  Hashtbl.add visited (key start) ();
  let queue = Queue.create () in
  Queue.add start queue;
  let rec loop () =
    if Queue.is_empty queue then None
    else if Hashtbl.length visited >= default_cap then Some (on_cap, true)
    else begin
      let state = Queue.pop queue in
      if good state then Some (true, false)
      else begin
        List.iter
          (fun token ->
            let next = List.map2 (fun m s -> step m s token) machines state in
            if keep next then begin
              let k = key next in
              if not (Hashtbl.mem visited k) then begin
                Hashtbl.add visited k ();
                Queue.add next queue
              end
            end)
          reps;
        loop ()
      end
    end
  in
  (* [good] may already hold at the start state. *)
  match loop () with Some v -> v | None -> (false, false)

let intersection_nonempty_capped machines =
  match machines with
  | [] -> (true, false)
  | _ ->
    product_search_capped ~on_cap:true machines
      ~good:(fun state -> List.for_all2 accepts machines state)
      ~keep:(fun state -> List.for_all (fun s -> not (Int_set.is_empty s)) state)

let intersection_nonempty machines = fst (intersection_nonempty_capped machines)

let subsumes_capped sup sub =
  match sup with
  | [] -> (true, false) (* universal superset *)
  | _ ->
    let n_sub = List.length sub in
    let machines = sub @ sup in
    let split state =
      let rec go i acc = function
        | rest when i = 0 -> (List.rev acc, rest)
        | x :: rest -> go (i - 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      go n_sub [] state
    in
    (* A counterexample is a word [sub] accepts but [sup] does not. *)
    let counterexample, capped =
      product_search_capped ~on_cap:true machines
        ~good:(fun state ->
          let sub_part, sup_part = split state in
          List.for_all2 accepts sub sub_part
          && not (List.for_all2 accepts sup sup_part))
        ~keep:(fun state ->
          let sub_part, _ = split state in
          List.for_all (fun s -> not (Int_set.is_empty s)) sub_part)
    in
    (not counterexample, capped)

let subsumes sup sub = fst (subsumes_capped sup sub)
