module Prefix_id = struct
  module Tbl = Hashtbl.Make (Prefix)

  let ids : int Tbl.t = Tbl.create 256
  let values : Prefix.t array ref = ref [||]
  let next = ref 0

  let grow filler =
    let cap = Array.length !values in
    if cap = 0 then values := Array.make 64 filler
    else if !next >= cap then begin
      let bigger = Array.make (2 * cap) filler in
      Array.blit !values 0 bigger 0 cap;
      values := bigger
    end

  let id p =
    match Tbl.find_opt ids p with
    | Some i -> i
    | None ->
      let i = !next in
      grow p;
      !values.(i) <- p;
      incr next;
      Tbl.replace ids p i;
      i

  let value i =
    if i < 0 || i >= !next then
      invalid_arg (Printf.sprintf "Intern.Prefix_id.value: unknown id %d" i)
    else !values.(i)
end
