type origin = Igp | Egp | Incomplete

let origin_to_string = function
  | Igp -> "IGP"
  | Egp -> "EGP"
  | Incomplete -> "INCOMPLETE"

let origin_rank = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

type t = {
  origin : origin;
  as_path : As_path.t;
  local_pref : int;
  med : int;
  communities : Community.Set.t;
  link_bandwidth : int option;
  id : int;
}

let make ?(origin = Igp) ?(as_path = As_path.empty) ?(local_pref = 100)
    ?(med = 0) ?(communities = Community.Set.empty) ?link_bandwidth () =
  { origin; as_path; local_pref; med; communities; link_bandwidth; id = -1 }

(* Every setter clears the id, so no value carries the id of other
   contents. *)
let set_as_path as_path t =
  if as_path == t.as_path then t else { t with as_path; id = -1 }

let with_prepended asn t = set_as_path (As_path.prepend asn t.as_path) t

let set_local_pref local_pref t =
  if local_pref = t.local_pref then t else { t with local_pref; id = -1 }

let set_med med t = if med = t.med then t else { t with med; id = -1 }

(* [Set.add] and [Set.remove] return their argument when they change
   nothing. *)
let set_communities communities t =
  if communities == t.communities then t else { t with communities; id = -1 }

let add_community c t = set_communities (Community.Set.add c t.communities) t

let remove_community c t =
  set_communities (Community.Set.remove c t.communities) t

let has_community c t = Community.Set.mem c t.communities

let set_link_bandwidth link_bandwidth t =
  if Option.equal Int.equal link_bandwidth t.link_bandwidth then t
  else { t with link_bandwidth; id = -1 }

let id t = t.id

let compare a b =
  if a == b then 0
  else
    let c = Int.compare (origin_rank a.origin) (origin_rank b.origin) in
    if c <> 0 then c
    else
      let c = As_path.compare a.as_path b.as_path in
      if c <> 0 then c
      else
        let c = Int.compare a.local_pref b.local_pref in
        if c <> 0 then c
        else
          let c = Int.compare a.med b.med in
          if c <> 0 then c
          else
            let c = Community.Set.compare a.communities b.communities in
            if c <> 0 then c
            else Option.compare Int.compare a.link_bandwidth b.link_bandwidth

(* Interned values are canonical: two of them are equal only if they are
   the same value. *)
let equal a b = a == b || ((a.id < 0 || b.id < 0) && compare a b = 0)

(* Hash-consing: RIB slots across the fleet hold a handful of distinct
   attribute values, so interning makes storage shared and turns the
   hot-path [equal] (Adj-RIB-Out change detection runs it once per peer per
   decision) into a pointer check. Hashing goes through the interned ids of
   the two structured fields — flat integer hashing instead of a structural
   walk. An interned value carries its id, so interning it again, or
   comparing it with another interned value, costs no lookup. *)
module Hc = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = compare a b = 0

  let hash t =
    Hashtbl.hash
      ( origin_rank t.origin,
        Intern.As_path_id.id t.as_path,
        t.local_pref,
        t.med,
        Intern.Community_set_id.id t.communities,
        t.link_bandwidth )
end)

let hc : t Hc.t = Hc.create 1024

let intern t =
  if t.id >= 0 then t
  else
    match Hc.find_opt hc t with
    | Some c -> c
    | None ->
      let c =
        {
          t with
          as_path = Intern.As_path_id.canonical t.as_path;
          communities = Intern.Community_set_id.canonical t.communities;
          id = Hc.length hc;
        }
      in
      Hc.replace hc c c;
      c

let pp ppf t =
  Format.fprintf ppf "@[<h>lp=%d med=%d origin=%s path=[%a] comms=%a%a@]"
    t.local_pref t.med
    (origin_to_string t.origin)
    As_path.pp t.as_path Community.Set.pp t.communities
    (fun ppf -> function
      | None -> ()
      | Some bw -> Format.fprintf ppf " lbw=%d" bw)
    t.link_bandwidth
