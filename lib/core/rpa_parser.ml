(* Recursive-descent parser over a flat token stream; the surface syntax is
   exactly what the [config_lines] renderers emit (whitespace-insensitive).

   Every token carries the line/column of its first character so that parse
   errors — and the statement index consumed by the static analyzer — point
   at the offending spot in the operator's configuration text. *)

exception Error of string

type pos = { line : int; col : int }

type located_statement = {
  ls_kind : [ `Path_selection | `Route_attribute | `Route_filter ];
  ls_rpa : string;
  ls_statement : string;
  ls_pos : pos;
}

let fail_at pos fmt =
  Printf.ksprintf
    (fun s ->
      raise (Error (Printf.sprintf "line %d, column %d: %s" pos.line pos.col s)))
    fmt

(* ---------------- lexer ---------------- *)

type token =
  | Word of string
  | Quoted of string
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Equals
  | Comma
  | Semicolon
  | Percent

let token_to_string = function
  | Word w -> w
  | Quoted s -> Printf.sprintf "%S" s
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Lparen -> "("
  | Rparen -> ")"
  | Equals -> "="
  | Comma -> ","
  | Semicolon -> ";"
  | Percent -> "%"

let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | ':' | '/' | '-' -> true
  | _ -> false

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and bol = ref 0 in
  let i = ref 0 in
  let here () = { line = !line; col = !i - !bol + 1 } in
  let push t pos = tokens := (t, pos) :: !tokens in
  while !i < n do
    let c = src.[!i] in
    let pos = here () in
    (match c with
     | '\n' ->
       incr i;
       incr line;
       bol := !i
     | ' ' | '\t' | '\r' -> incr i
     | '{' -> push Lbrace pos; incr i
     | '}' -> push Rbrace pos; incr i
     | '[' -> push Lbracket pos; incr i
     | ']' -> push Rbracket pos; incr i
     | '(' -> push Lparen pos; incr i
     | ')' -> push Rparen pos; incr i
     | '=' -> push Equals pos; incr i
     | ',' -> push Comma pos; incr i
     | ';' -> push Semicolon pos; incr i
     | '%' -> push Percent pos; incr i
     | '"' ->
       let start = !i + 1 in
       let rec find j =
         if j >= n then fail_at pos "unterminated string"
         else if src.[j] = '"' then j
         else if src.[j] = '\n' then fail_at pos "unterminated string"
         else find (j + 1)
       in
       let close = find start in
       push (Quoted (String.sub src start (close - start))) pos;
       i := close + 1
     | _ when is_word_char c ->
       let start = !i in
       while !i < n && is_word_char src.[!i] do
         incr i
       done;
       push (Word (String.sub src start (!i - start))) pos
     | _ -> fail_at pos "unexpected character %C" c);
  done;
  (List.rev !tokens, { line = !line; col = n - !bol + 1 })

(* ---------------- token stream ---------------- *)

type stream = {
  mutable tokens : (token * pos) list;
  mutable last : pos;  (** position of the most recently examined token *)
  eof : pos;
  mutable index : located_statement list;  (** reverse order *)
}

let fail s fmt = fail_at s.last fmt

let peek s =
  match s.tokens with
  | [] -> None
  | (t, p) :: _ ->
    s.last <- p;
    Some t

let next s =
  match s.tokens with
  | [] ->
    s.last <- s.eof;
    fail s "unexpected end of input"
  | (t, p) :: rest ->
    s.tokens <- rest;
    s.last <- p;
    t

let expect s want =
  let got = next s in
  if got <> want then
    fail s "expected %s, found %s" (token_to_string want) (token_to_string got)

let word s =
  match next s with
  | Word w -> w
  | t -> fail s "expected a word, found %s" (token_to_string t)

let int_word s =
  let w = word s in
  match int_of_string_opt w with
  | Some n -> n
  | None -> fail s "expected an integer, found %s" w

let accept s want =
  match peek s with
  | Some t when t = want ->
    ignore (next s);
    true
  | Some _ | None -> false

(* Reads a statement's name and records its position in the index. *)
let statement_name s ~kind ~rpa =
  let name = word s in
  s.index <-
    { ls_kind = kind; ls_rpa = rpa; ls_statement = name; ls_pos = s.last }
    :: s.index;
  name

(* ---------------- shared pieces ---------------- *)

let comma_words s =
  (* [w1, w2, ...] with the '[' already consumed; empty allowed. *)
  if accept s Rbracket then []
  else begin
    let rec go acc =
      let w = word s in
      if accept s Comma then go (w :: acc)
      else begin
        expect s Rbracket;
        List.rev (w :: acc)
      end
    in
    go []
  end

let community_of_word s w =
  match Net.Community.of_string w with
  | Ok c -> c
  | Error e -> fail s "bad community %s: %s" w e

let prefix_of_word s w =
  match Net.Prefix.of_string w with
  | Ok p -> p
  | Error e -> fail s "bad prefix %s: %s" w e

let parse_destination s =
  (* after "destination =": tagged(a:b) or [p1, p2] *)
  match next s with
  | Word "tagged" ->
    expect s Lparen;
    let c = community_of_word s (word s) in
    expect s Rparen;
    Destination.Tagged c
  | Lbracket ->
    Destination.Prefixes (List.map (prefix_of_word s) (comma_words s))
  | t -> fail s "expected destination, found %s" (token_to_string t)

(* Signature key-value lines, ending before a terminator keyword. *)
let parse_signature s ~stop =
  let as_path_regex = ref None in
  let communities = ref [] in
  let none_of = ref [] in
  let origin_asn = ref None in
  let neighbor_asns = ref None in
  let rec go () =
    match peek s with
    | Some Rbrace -> ()
    | Some (Word w) when List.mem w stop -> ()
    | Some (Word "any") -> ignore (next s); go ()
    | Some (Word key) ->
      ignore (next s);
      expect s Equals;
      (match key with
       | "as_path_regex" ->
         (match next s with
          | Quoted src -> as_path_regex := Some src
          | t -> fail s "expected quoted regex, found %s" (token_to_string t))
       | "communities" ->
         expect s Lbracket;
         communities := List.map (community_of_word s) (comma_words s)
       | "communities_none" ->
         expect s Lbracket;
         none_of := List.map (community_of_word s) (comma_words s)
       | "origin_asn" -> origin_asn := Some (Net.Asn.of_int (int_word s))
       | "neighbor_asns" ->
         expect s Lbracket;
         neighbor_asns :=
           Some (List.map (fun w ->
               match int_of_string_opt w with
               | Some n -> Net.Asn.of_int n
               | None -> fail s "bad ASN %s" w)
               (comma_words s))
       | other -> fail s "unknown signature field %s" other);
      go ()
    | Some t -> fail s "unexpected %s in signature" (token_to_string t)
    | None -> fail s "unexpected end of signature"
  in
  go ();
  Signature.make ?as_path_regex:!as_path_regex ~communities:!communities
    ~none_of:!none_of ?origin_asn:!origin_asn ?neighbor_asns:!neighbor_asns ()

let parse_min_next_hop s =
  (* after "= ": int, optionally followed by % *)
  let n = int_word s in
  if accept s Percent then Path_selection.Fraction (float_of_int n /. 100.0)
  else Path_selection.Count n

(* ---------------- PathSelectionRpa ---------------- *)

let parse_path_set s =
  (* "PathSet" already consumed *)
  let name = word s in
  expect s Lbrace;
  let signature = parse_signature s ~stop:[ "MinNextHop" ] in
  let min_next_hop =
    match peek s with
    | Some (Word "MinNextHop") ->
      ignore (next s);
      expect s Equals;
      Some (parse_min_next_hop s)
    | Some _ | None -> None
  in
  expect s Rbrace;
  Path_selection.path_set ~name ?min_next_hop signature

let parse_ps_statement ~rpa s =
  (* "Statement" already consumed *)
  let name = statement_name s ~kind:`Path_selection ~rpa in
  expect s Lbrace;
  expect s (Word "destination");
  expect s Equals;
  let destination = parse_destination s in
  expect s (Word "PathSetList");
  expect s Equals;
  expect s Lbracket;
  let rec sets acc =
    match peek s with
    | Some (Word "PathSet") ->
      ignore (next s);
      sets (parse_path_set s :: acc)
    | Some Rbracket ->
      ignore (next s);
      List.rev acc
    | Some t -> fail s "expected PathSet or ], found %s" (token_to_string t)
    | None -> fail s "unterminated PathSetList"
  in
  let path_sets = sets [] in
  let bgp_native_min_next_hop =
    if accept s (Word "BgpNativeMinNextHop") then begin
      expect s Equals;
      Some (parse_min_next_hop s)
    end
    else None
  in
  let keep_fib_warm_if_mnh_violated =
    if accept s (Word "KeepFibWarmIfMnhViolated") then begin
      expect s Equals;
      match word s with
      | "true" -> true
      | "false" -> false
      | other -> fail s "expected true/false, found %s" other
    end
    else false
  in
  expect s Rbrace;
  Path_selection.statement ~name ~path_sets ?bgp_native_min_next_hop
    ~keep_fib_warm_if_mnh_violated destination

let parse_statements s parse_one =
  let rec go acc =
    if accept s (Word "Statement") then go (parse_one s :: acc)
    else begin
      expect s Rbrace;
      List.rev acc
    end
  in
  go []

let parse_path_selection s =
  (* "PathSelectionRpa" already consumed *)
  let name = word s in
  expect s Lbrace;
  Path_selection.make ~name (parse_statements s (parse_ps_statement ~rpa:name))

(* ---------------- RouteAttributeRpa ---------------- *)

let parse_next_hop_weight s =
  let name = word s in
  expect s Lbrace;
  let signature = parse_signature s ~stop:[ "Weight" ] in
  expect s (Word "Weight");
  expect s Equals;
  let weight = int_word s in
  expect s Rbrace;
  Route_attribute.next_hop_weight ~name signature ~weight

let parse_ra_statement ~rpa s =
  let name = statement_name s ~kind:`Route_attribute ~rpa in
  expect s Lbrace;
  expect s (Word "destination");
  expect s Equals;
  let destination = parse_destination s in
  expect s (Word "NextHopWeightList");
  expect s Equals;
  expect s Lbracket;
  let rec weights acc =
    match peek s with
    | Some (Word "NextHopWeight") ->
      ignore (next s);
      weights (parse_next_hop_weight s :: acc)
    | Some Rbracket ->
      ignore (next s);
      List.rev acc
    | Some t -> fail s "expected NextHopWeight or ], found %s" (token_to_string t)
    | None -> fail s "unterminated NextHopWeightList"
  in
  let next_hop_weights = weights [] in
  let default_weight =
    if accept s (Word "DefaultWeight") then begin
      expect s Equals;
      int_word s
    end
    else 1
  in
  let expires_at =
    if accept s (Word "ExpirationTime") then begin
      expect s Equals;
      let w = word s in
      match float_of_string_opt w with
      | Some f -> Some f
      | None -> fail s "bad expiration time %s" w
    end
    else None
  in
  expect s Rbrace;
  Route_attribute.statement ~name ~default_weight ?expires_at destination
    next_hop_weights

let parse_route_attribute s =
  let name = word s in
  expect s Lbrace;
  Route_attribute.make ~name (parse_statements s (parse_ra_statement ~rpa:name))

(* ---------------- RouteFilterRpa ---------------- *)

let layer_of_string = function
  | "RSW" -> Topology.Node.Rsw
  | "FSW" -> Topology.Node.Fsw
  | "SSW" -> Topology.Node.Ssw
  | "FADU" -> Topology.Node.Fadu
  | "FAUU" -> Topology.Node.Fauu
  | "FA" -> Topology.Node.Fa
  | "EDGE" -> Topology.Node.Edge
  | "DMAG" -> Topology.Node.Dmag
  | "EB" -> Topology.Node.Eb
  | other -> Topology.Node.Other other

let parse_peer_signature s =
  expect s Lbrace;
  expect s (Word "layers");
  expect s Equals;
  let rec words_until_semicolon acc =
    let w = word s in
    if accept s Comma then words_until_semicolon (w :: acc)
    else begin
      expect s Semicolon;
      List.rev (w :: acc)
    end
  in
  let layers =
    match words_until_semicolon [] with
    | [ "any" ] -> []
    | ls -> List.map layer_of_string ls
  in
  expect s (Word "devices");
  expect s Equals;
  let rec device_words acc =
    let w = word s in
    if accept s Comma then device_words (w :: acc) else List.rev (w :: acc)
  in
  let devices =
    match device_words [] with
    | [ "any" ] -> []
    | ds ->
      List.map (fun w ->
          match int_of_string_opt w with
          | Some d -> d
          | None -> fail s "bad device id %s" w)
        ds
  in
  expect s Rbrace;
  { Route_filter.peer_layers = layers; peer_devices = devices }

let parse_prefix_set s =
  (* "PrefixSet" consumed *)
  expect s Lbrace;
  expect s (Word "prefix");
  expect s Equals;
  let covering = prefix_of_word s (word s) in
  let min_mask_length = ref None in
  let max_mask_length = ref None in
  while accept s Semicolon do
    match word s with
    | "min_mask" ->
      expect s Equals;
      min_mask_length := Some (int_word s)
    | "max_mask" ->
      expect s Equals;
      max_mask_length := Some (int_word s)
    | other -> fail s "unknown prefix-set field %s" other
  done;
  expect s Rbrace;
  Route_filter.prefix_rule ?min_mask_length:!min_mask_length
    ?max_mask_length:!max_mask_length covering

let parse_filter s =
  (* after "XFilter =" *)
  match next s with
  | Word "allow-all" -> Route_filter.Allow_all
  | Lbracket ->
    let rec rules acc =
      match peek s with
      | Some (Word "PrefixSet") ->
        ignore (next s);
        rules (parse_prefix_set s :: acc)
      | Some Rbracket ->
        ignore (next s);
        List.rev acc
      | Some t -> fail s "expected PrefixSet or ], found %s" (token_to_string t)
      | None -> fail s "unterminated filter"
    in
    Route_filter.Allow_list (rules [])
  | t -> fail s "expected filter, found %s" (token_to_string t)

let parse_rf_statement ~rpa s =
  let name = statement_name s ~kind:`Route_filter ~rpa in
  expect s Lbrace;
  expect s (Word "PeerSignature");
  let peer = parse_peer_signature s in
  expect s (Word "IngressFilter");
  expect s Equals;
  let ingress = parse_filter s in
  expect s (Word "EgressFilter");
  expect s Equals;
  let egress = parse_filter s in
  expect s Rbrace;
  Route_filter.statement ~name ~ingress ~egress peer

let parse_route_filter s =
  let name = word s in
  expect s Lbrace;
  Route_filter.make ~name (parse_statements s (parse_rf_statement ~rpa:name))

(* ---------------- top level ---------------- *)

let parse_located src =
  match tokenize src with
  | exception Error e -> Result.Error e
  | tokens, eof ->
    let s = { tokens; last = { line = 1; col = 1 }; eof; index = [] } in
    let rec go acc =
      match peek s with
      | None -> Ok (acc, List.rev s.index)
      | Some (Word "PathSelectionRpa") ->
        ignore (next s);
        let ps = parse_path_selection s in
        go { acc with Rpa.path_selection = acc.Rpa.path_selection @ [ ps ] }
      | Some (Word "RouteAttributeRpa") ->
        ignore (next s);
        let ra = parse_route_attribute s in
        go { acc with Rpa.route_attribute = acc.Rpa.route_attribute @ [ ra ] }
      | Some (Word "RouteFilterRpa") ->
        ignore (next s);
        let rf = parse_route_filter s in
        go { acc with Rpa.route_filter = acc.Rpa.route_filter @ [ rf ] }
      | Some t ->
        fail s "expected an RPA block, found %s" (token_to_string t)
    in
    (try go Rpa.empty with Error e -> Result.Error e)

let parse src = Result.map fst (parse_located src)

let find_statement index ~kind ~statement =
  List.find_opt
    (fun ls -> ls.ls_kind = kind && String.equal ls.ls_statement statement)
    index
