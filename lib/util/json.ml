type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let max_depth = 512

(* ---------------- rendering ---------------------------------------- *)

let render_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec render = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int n -> string_of_int n
  | Float f -> render_float f
  | Str s -> "\"" ^ Emit.json_escape s ^ "\""
  | List xs -> "[" ^ String.concat "," (List.map render xs) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> "\"" ^ Emit.json_escape k ^ "\":" ^ render v) fields)
    ^ "}"
  | Raw s -> s

(* ---------------- parsing ------------------------------------------ *)

exception Bad of string

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\r' || s.[!pos] = '\n') do
      incr pos
    done
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let code = ref 0 in
          for _ = 1 to 4 do
            let d = hex_digit (next ()) in
            if d < 0 then fail "bad \\u escape";
            code := (!code lsl 4) lor d
          done;
          (* A lone surrogate half is no scalar value; pairs are not
             combined, so each half reads as '?'. *)
          if !code >= 0xD800 && !code <= 0xDFFF then Buffer.add_char buf '?'
          else Buffer.add_utf_8_uchar buf (Uchar.of_int !code)
        | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  (* [depth] counts the containers around the value; opening one more
     past [max_depth] is an error, so the recursion stays shallow. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then (incr pos; Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match next () with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then (incr pos; List [])
      else
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match next () with
          | ',' -> elements (v :: acc)
          | ']' -> List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some c when is_num_char c ->
      let start = !pos in
      while !pos < n && is_num_char s.[!pos] do incr pos done;
      let raw = String.sub s start (!pos - start) in
      (match int_of_string_opt raw with
      | Some n -> Int n
      | None -> (
        match float_of_string_opt raw with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" raw)))
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok v
  with Bad msg -> Error msg

(* ---------------- accessors ---------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

(* [-2^62, 2^62): the floats [int_of_float] maps onto [min_int, max_int]. *)
let int_lo = Float.of_int min_int
let int_hi = -.int_lo

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f && f >= int_lo && f < int_hi -> Some (int_of_float f)
  | _ -> None

let to_float = function Int n -> Some (Float.of_int n) | Float f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None
let obj_or_empty = function Obj fields -> fields | _ -> []
