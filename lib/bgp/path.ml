type t = {
  peer : int;
  session : int;
  attr : Net.Attr.t;
}

(* Every candidate path is built here or from an already-interned
   Adj-RIB-In attribute, so the decision process and the RIB tables only
   ever see canonical attributes (pointer-equality fast path everywhere). *)
let make ~peer ~session ~attr = { peer; session; attr = Net.Attr.intern attr }

let as_path_length t = Net.As_path.length t.attr.Net.Attr.as_path

let compare a b =
  let c = Int.compare a.peer b.peer in
  if c <> 0 then c
  else
    let c = Int.compare a.session b.session in
    if c <> 0 then c else Net.Attr.compare a.attr b.attr

let equal a b = compare a b = 0

let pp ppf t =
  Format.fprintf ppf "@[<h>via %d.%d %a@]" t.peer t.session Net.Attr.pp t.attr
