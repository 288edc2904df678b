include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

module Triple = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a, b, c) (a', b', c') =
    Int.equal a a' && Int.equal b b' && Int.equal c c'

  (* Bucket indexes are the low bits: odd multipliers carry every
     component into them, and the final shift folds the high bits down. *)
  let hash (a, b, c) =
    let h = (((a * 0x9E3779B1) + b) * 0x85EBCA77) + c in
    (h lxor (h lsr 29)) land max_int
end)
