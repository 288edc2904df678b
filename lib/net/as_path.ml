type segment =
  | Seq of Asn.t list
  | Set of Asn.t list

(* RFC 4271 path length is consulted on every decision-process comparison
   (the hottest compare in the simulator), so it is computed once at
   construction and carried alongside the segments. *)
type t = { segs : segment list; len : int }

let seg_len = function Seq asns -> List.length asns | Set _ -> 1

let of_segs segs =
  { segs; len = List.fold_left (fun acc s -> acc + seg_len s) 0 segs }

let empty = { segs = []; len = 0 }

let of_asns = function
  | [] -> empty
  | asns -> { segs = [ Seq asns ]; len = List.length asns }

let of_segments segs =
  of_segs
    (List.filter (function Seq [] | Set [] -> false | Seq _ | Set _ -> true) segs)

let segments t = t.segs

let prepend asn t =
  match t.segs with
  | Seq asns :: rest -> { segs = Seq (asn :: asns) :: rest; len = t.len + 1 }
  | [] | Set _ :: _ -> { segs = Seq [ asn ] :: t.segs; len = t.len + 1 }

let rec prepend_n n asn t =
  if n <= 0 then t else prepend_n (n - 1) asn (prepend asn t)

let length t = t.len

(* A direct walk: it runs on every candidate of every decision (the loop
   check), so it allocates no closure. *)
let rec mem_asns asn = function
  | [] -> false
  | a :: rest -> Asn.equal asn a || mem_asns asn rest

let rec mem_segs asn = function
  | [] -> false
  | (Seq asns | Set asns) :: rest -> mem_asns asn asns || mem_segs asn rest

let mem asn t = mem_segs asn t.segs

let asns t =
  List.concat_map (function Seq asns | Set asns -> asns) t.segs

let origin_asn t =
  match List.rev (asns t) with [] -> None | last :: _ -> Some last

let first_asn t = match asns t with [] -> None | first :: _ -> Some first

let to_string t =
  let seg_to_string = function
    | Seq asns -> String.concat " " (List.map Asn.to_string asns)
    | Set asns ->
      "{" ^ String.concat " " (List.map Asn.to_string asns) ^ "}"
  in
  String.concat " " (List.map seg_to_string t.segs)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let compare_segment a b =
  match (a, b) with
  | Seq x, Seq y | Set x, Set y ->
    List.compare Asn.compare x y
  | Seq _, Set _ -> -1
  | Set _, Seq _ -> 1

let compare a b =
  if a == b then 0 else List.compare compare_segment a.segs b.segs

let equal a b = a == b || (a.len = b.len && compare a b = 0)
