type t = int (* high 16 bits: administrator; low 16 bits: value *)

let make high low =
  if high < 0 || high > 0xFFFF then
    invalid_arg (Printf.sprintf "Community.make: high %d out of range" high);
  if low < 0 || low > 0xFFFF then
    invalid_arg (Printf.sprintf "Community.make: low %d out of range" low);
  (high lsl 16) lor low

let high t = (t lsr 16) land 0xFFFF
let low t = t land 0xFFFF

let of_string s =
  match String.split_on_char ':' s with
  | [ h; l ] ->
    (try
       let h = int_of_string h and l = int_of_string l in
       if h < 0 || h > 0xFFFF || l < 0 || l > 0xFFFF then
         Error "community half out of range"
       else Ok (make h l)
     with _ -> Error "not a community")
  | _ -> Error "not a community"

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error e -> invalid_arg (Printf.sprintf "Community.of_string_exn %S: %s" s e)

let to_string t = Printf.sprintf "%d:%d" (high t) (low t)
let pp ppf t = Format.pp_print_string ppf (to_string t)
let compare = Int.compare
let equal = Int.equal
let hash t = t

module Set = struct
  include Set.Make (Int)

  let pp ppf s =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf c -> pp ppf c))
      (elements s)
end

module Well_known = struct
  (* Administrator 65100 is reserved in this codebase for intent tags. *)
  let backbone_default_route = make 65100 1
  let anycast_load_bearing = make 65100 2
  let rack_origin = make 65100 3
  let infrastructure = make 65100 4
  let drained = make 65100 5
end
