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
            let c =
              if a.communities == b.communities then 0
              else Community.Set.compare a.communities b.communities
            in
            if c <> 0 then c
            else Option.compare Int.compare a.link_bandwidth b.link_bandwidth

(* Interned values are canonical: two of them are equal only if they are
   the same value. *)
let equal a b = a == b || ((a.id < 0 || b.id < 0) && compare a b = 0)

(* Mixes one int into a running hash: the odd multiplier carries every
   earlier word into the bits a bucket index reads. *)
let mix h x = (h * 0x9E3779B1) + x

(* By value, in one pass. The AS path hashes its segments as [caml_hash]
   does (up to nine ASNs, breadth first, so equal-length paths that differ
   only in their first ASN spread); the community set folds its elements
   without building a list. *)
let hash t =
  let h = Hashtbl.hash (As_path.segments t.as_path) in
  let h =
    Community.Set.fold (fun c h -> mix h (Community.hash c)) t.communities h
  in
  let h = mix (mix (mix h (origin_rank t.origin)) t.local_pref) t.med in
  let h = mix h (Option.value t.link_bandwidth ~default:(-1)) in
  (h lxor (h lsr 29)) land max_int

(* Hash-consing: RIB slots across the fleet hold a handful of distinct
   attribute values, so interning makes storage shared and turns the
   hot-path [equal] into a pointer check. The set holds its values
   weakly: a value stays canonical exactly as long as something outside
   the set holds it, so the attributes a converge explored and dropped are
   collected with their AS paths. Ids come from a counter and are never
   reused, so no live value carries the id a collected one had. An
   interned value carries its id, so interning it again, or comparing it
   with another interned value, costs no lookup. *)
module Hc = Weak.Make (struct
  type nonrec t = t

  let equal a b = compare a b = 0
  let hash = hash
end)

let hc = Hc.create 1024
let next_id = ref 0

(* [merge] hashes once and probes once: it returns the live equal value,
   or adds the candidate, which already carries the next id. *)
let intern t =
  if t.id >= 0 then t
  else
    let c = Hc.merge hc { t with id = !next_id } in
    if c.id = !next_id then incr next_id;
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
