(* Typed field-by-field comparison, no tuple allocation and no polymorphic
   compare: this runs once per candidate pair on every decision, and
   polymorphic compare would silently walk (or crash on) abstract interned
   state. [As_path.length] is O(1) (cached in the representation). *)
let preference_compare (a : Path.t) (b : Path.t) =
  let aa = a.Path.attr and ba = b.Path.attr in
  (* Higher local-pref preferred. *)
  let c = Int.compare ba.Net.Attr.local_pref aa.Net.Attr.local_pref in
  if c <> 0 then c
  else
    let c =
      Int.compare
        (Net.As_path.length aa.Net.Attr.as_path)
        (Net.As_path.length ba.Net.Attr.as_path)
    in
    if c <> 0 then c
    else
      let c =
        Int.compare
          (Net.Attr.origin_rank aa.Net.Attr.origin)
          (Net.Attr.origin_rank ba.Net.Attr.origin)
      in
      if c <> 0 then c
      else
        let c = Int.compare aa.Net.Attr.med ba.Net.Attr.med in
        if c <> 0 then c
        else
          let c = Int.compare a.Path.peer b.Path.peer in
          if c <> 0 then c else Int.compare a.Path.session b.Path.session

let equal_cost (a : Path.t) (b : Path.t) =
  let aa = a.Path.attr and ba = b.Path.attr in
  aa.Net.Attr.local_pref = ba.Net.Attr.local_pref
  && Net.As_path.length aa.Net.Attr.as_path
     = Net.As_path.length ba.Net.Attr.as_path
  && Net.Attr.origin_rank aa.Net.Attr.origin
     = Net.Attr.origin_rank ba.Net.Attr.origin
  && aa.Net.Attr.med = ba.Net.Attr.med

(* Single pass: find the minimum under the (total) preference order, then
   gather its equal-cost set. Candidates arrive sorted by (peer, session)
   from the Adj-RIB-In, and the equal-cost filter preserves that order, so
   the result is identical to the former sort-then-filter — without the
   O(n log n) sort on every decision. *)
let select candidates =
  match candidates with
  | [] -> ([], None)
  | first :: rest ->
    let best =
      List.fold_left
        (fun best p -> if preference_compare p best < 0 then p else best)
        first rest
    in
    (List.filter (equal_cost best) candidates, Some best)

let least_favorable = function
  | [] -> None
  | first :: rest ->
    (* Maximal under the preference order = least favorable. *)
    Some
      (List.fold_left
         (fun worst p -> if preference_compare p worst > 0 then p else worst)
         first rest)
