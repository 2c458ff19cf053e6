(* One JSON codec (see vod_json.mli). *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse of string

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Parse (Printf.sprintf "%s at offset %d" m !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      value
    end
    else fail ("expected " ^ word)
  in
  (* [\uXXXX] with [pos] on the 'u'; leaves [pos] on the last digit *)
  let unicode_escape buf =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = 1 to 4 do
      match hex_value s.[!pos + i] with
      | Some d -> code := (!code * 16) + d
      | None -> fail "malformed \\u escape"
    done;
    Buffer.add_char buf (if !code < 0x80 then Char.chr !code else '?');
    pos := !pos + 4
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "dangling escape";
          (match s.[!pos] with
          | ('"' | '\\' | '/') as c -> Buffer.add_char buf c
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> unicode_escape buf
          | c -> fail (Printf.sprintf "unsupported escape \\%c" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  (* [items close elem] reads [elem (',' elem)* close] after the opening
     bracket; the empty collection is handled by the caller *)
  let rec items close elem acc =
    let acc = elem () :: acc in
    skip_ws ();
    match peek () with
    | ',' ->
        advance ();
        items close elem acc
    | c when c = close ->
        advance ();
        List.rev acc
    | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
  in
  let collection close elem =
    advance ();
    skip_ws ();
    if peek () = close then begin
      advance ();
      []
    end
    else items close elem []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        Obj
          (collection '}' (fun () ->
               expect '"';
               let key = string_body () in
               expect ':';
               (key, value ())))
    | '[' -> Arr (collection ']' value)
    | '"' ->
        advance ();
        Str (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> Num (number ())
    | _ -> fail "unexpected character"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field key = function Obj fields -> List.assoc_opt key fields | _ -> None
