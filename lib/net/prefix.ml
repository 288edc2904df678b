type family = V4 | V6

(* Address bits live in [hi]/[lo] as a 128-bit big-endian quantity. IPv4
   addresses occupy the low 32 bits of [lo] with [hi = 0]. The family tag
   keeps 0.0.0.0/0 and ::/0 distinct. *)
type t = { fam : family; hi : int64; lo : int64; len : int }

let bits_of_family = function V4 -> 32 | V6 -> 128

(* Clear host bits so structurally equal prefixes compare equal. *)
let canonicalize fam hi lo len =
  let total = bits_of_family fam in
  if len < 0 || len > total then
    invalid_arg (Printf.sprintf "Prefix: mask length %d out of range" len);
  let keep_hi, keep_lo =
    match fam with
    | V4 -> (0, len)
    | V6 -> if len >= 64 then (64, len - 64) else (len, 0)
  in
  let mask keep =
    if keep <= 0 then 0L
    else if keep >= 64 then -1L
    else Int64.shift_left (-1L) (64 - keep)
  in
  let hi = Int64.logand hi (mask keep_hi) in
  let lo =
    match fam with
    | V4 ->
      (* keep_lo counts from bit 31 downward within the low 32 bits *)
      let m =
        if keep_lo <= 0 then 0L
        else if keep_lo >= 32 then 0xFFFF_FFFFL
        else
          Int64.logand 0xFFFF_FFFFL (Int64.shift_left (-1L) (32 - keep_lo))
      in
      Int64.logand lo m
    | V6 -> Int64.logand lo (mask keep_lo)
  in
  { fam; hi; lo; len }

let v4 a b c d len =
  let octet name x =
    if x < 0 || x > 255 then
      invalid_arg (Printf.sprintf "Prefix.v4: octet %s = %d" name x)
  in
  octet "a" a; octet "b" b; octet "c" c; octet "d" d;
  let lo =
    Int64.of_int (((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d) land 0xFFFFFFFF)
  in
  canonicalize V4 0L lo len

let v6 ~hi ~lo len = canonicalize V6 hi lo len

let default_v4 = v4 0 0 0 0 0
let default_v6 = v6 ~hi:0L ~lo:0L 0

let family t = t.fam
let mask_length t = t.len
let is_default t = t.len = 0

let to_string t =
  match t.fam with
  | V4 ->
    let x = Int64.to_int t.lo in
    Printf.sprintf "%d.%d.%d.%d/%d"
      ((x lsr 24) land 0xFF) ((x lsr 16) land 0xFF)
      ((x lsr 8) land 0xFF) (x land 0xFF) t.len
  | V6 ->
    let group i =
      let word = if i < 4 then t.hi else t.lo in
      let shift = 48 - (i mod 4 * 16) in
      Int64.to_int (Int64.logand (Int64.shift_right_logical word shift) 0xFFFFL)
    in
    let groups = List.init 8 group in
    (* Compress the longest run of zero groups as "::" (leftmost wins). *)
    let best_start, best_len =
      let rec scan i cur_start cur_len best_start best_len =
        if i = 8 then
          if cur_len > best_len then (cur_start, cur_len)
          else (best_start, best_len)
        else if List.nth groups i = 0 then
          let cur_start = if cur_len = 0 then i else cur_start in
          scan (i + 1) cur_start (cur_len + 1) best_start best_len
        else if cur_len > best_len then scan (i + 1) 0 0 cur_start cur_len
        else scan (i + 1) 0 0 best_start best_len
      in
      scan 0 0 0 0 0
    in
    let buf = Buffer.create 24 in
    if best_len >= 2 then begin
      List.iteri
        (fun i g ->
          if i < best_start then begin
            if i > 0 then Buffer.add_char buf ':';
            Buffer.add_string buf (Printf.sprintf "%x" g)
          end
          else if i = best_start then Buffer.add_string buf "::"
          else if i >= best_start + best_len then begin
            if i > best_start + best_len then Buffer.add_char buf ':';
            Buffer.add_string buf (Printf.sprintf "%x" g)
          end)
        groups;
      (* "::" at the very end already emitted by the i = best_start branch *)
      Buffer.add_string buf (Printf.sprintf "/%d" t.len)
    end
    else begin
      List.iteri
        (fun i g ->
          if i > 0 then Buffer.add_char buf ':';
          Buffer.add_string buf (Printf.sprintf "%x" g))
        groups;
      Buffer.add_string buf (Printf.sprintf "/%d" t.len)
    end;
    Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)

let parse_v4 s len_str =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    (try
       let a = int_of_string a and b = int_of_string b
       and c = int_of_string c and d = int_of_string d
       and len = int_of_string len_str in
       if List.exists (fun x -> x < 0 || x > 255) [ a; b; c; d ] then
         Error "octet out of range"
       else if len < 0 || len > 32 then Error "mask length out of range"
       else Ok (v4 a b c d len)
     with _ -> Error "not an IPv4 prefix")
  | _ -> Error "not an IPv4 prefix"

let parse_v6 s len_str =
  try
    let len = int_of_string len_str in
    if len < 0 || len > 128 then Error "mask length out of range"
    else begin
      let halves =
        match String.index_opt s ':' with
        | None -> Error "not an IPv6 address"
        | Some _ ->
          (* Split on "::" if present. *)
          let double =
            let rec find i =
              if i + 1 >= String.length s then None
              else if s.[i] = ':' && s.[i + 1] = ':' then Some i
              else find (i + 1)
            in
            find 0
          in
          (match double with
           | None -> Ok (s, None)
           | Some i ->
             let left = String.sub s 0 i in
             let right = String.sub s (i + 2) (String.length s - i - 2) in
             Ok (left, Some right))
      in
      match halves with
      | Error e -> Error e
      | Ok (left, right) ->
        let groups_of str =
          if str = "" then []
          else
            String.split_on_char ':' str
            |> List.map (fun g -> int_of_string ("0x" ^ g))
        in
        let lgs = groups_of left in
        let groups =
          match right with
          | None ->
            if List.length lgs <> 8 then failwith "need 8 groups" else lgs
          | Some r ->
            let rgs = groups_of r in
            let fill = 8 - List.length lgs - List.length rgs in
            if fill < 1 then failwith "bad ::"
            else lgs @ List.init fill (fun _ -> 0) @ rgs
        in
        if List.exists (fun g -> g < 0 || g > 0xFFFF) groups then
          Error "group out of range"
        else begin
          let word gs =
            List.fold_left
              (fun acc g -> Int64.logor (Int64.shift_left acc 16) (Int64.of_int g))
              0L gs
          in
          let rec take n = function
            | [] -> []
            | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
          in
          let rec drop n l =
            if n = 0 then l
            else match l with [] -> [] | _ :: rest -> drop (n - 1) rest
          in
          let hi = word (take 4 groups) and lo = word (drop 4 groups) in
          Ok (v6 ~hi ~lo len)
        end
    end
  with _ -> Error "not an IPv6 prefix"

let of_string s =
  match String.index_opt s '/' with
  | None -> Error "missing /len"
  | Some i ->
    let addr = String.sub s 0 i in
    let len_str = String.sub s (i + 1) (String.length s - i - 1) in
    if String.contains addr ':' then parse_v6 addr len_str
    else parse_v4 addr len_str

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error e -> invalid_arg (Printf.sprintf "Prefix.of_string_exn %S: %s" s e)

let compare a b =
  match (a.fam, b.fam) with
  | V4, V6 -> -1
  | V6, V4 -> 1
  | (V4 | V6), _ ->
    let c = Int64.unsigned_compare a.hi b.hi in
    if c <> 0 then c
    else
      let c = Int64.unsigned_compare a.lo b.lo in
      if c <> 0 then c else Int.compare a.len b.len

let equal a b = compare a b = 0

(* Typed, so interning a received prefix (once per BGP message) hashes
   without a tuple or [caml_hash]. Host bits are clear, so a short
   prefix's low bits are zero: the shifts fold the multiplied-up address
   bits into the low bits a bucket index reads. *)
let hash t =
  let fam = match t.fam with V4 -> 0 | V6 -> 1 in
  let h = (Int64.to_int t.hi * 0x9E3779B1) + Int64.to_int t.lo in
  let h = (h * 0x85EBCA77) + (t.len * 2) + fam in
  let h = (h lxor (h lsr 32)) * 0xC2B2AE3D in
  (h lxor (h lsr 29)) land max_int

let contains outer inner =
  outer.fam = inner.fam
  && outer.len <= inner.len
  &&
  let clipped = canonicalize inner.fam inner.hi inner.lo outer.len in
  Int64.equal clipped.hi outer.hi && Int64.equal clipped.lo outer.lo

let subdivide p =
  let total = bits_of_family p.fam in
  if p.len >= total then invalid_arg "Prefix.subdivide: host prefix";
  let len = p.len + 1 in
  let left = canonicalize p.fam p.hi p.lo len in
  let right =
    match p.fam with
    | V4 ->
      let bit = Int64.shift_left 1L (32 - len) in
      canonicalize V4 p.hi (Int64.logor p.lo bit) len
    | V6 ->
      if len <= 64 then
        let bit = Int64.shift_left 1L (64 - len) in
        canonicalize V6 (Int64.logor p.hi bit) p.lo len
      else
        let bit = Int64.shift_left 1L (128 - len) in
        canonicalize V6 p.hi (Int64.logor p.lo bit) len
  in
  (left, right)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
