external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

(* Digits of a non-positive [m], most significant first. Working on the
   non-positive side keeps [min_int] exact: its negation overflows. *)
let rec add_neg_digits b m =
  if m <= -10 then add_neg_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

(* Printf's "%h" is this primitive with the default precision (-6: as many
   digits as the value needs) and the default sign flag '-'. *)
let add_hex_float b f = Buffer.add_string b (hexstring_of_float f (-6) '-')

let hex_digit n = Char.unsafe_chr (if n < 10 then 48 + n else 87 + n)

let add_json_escaped b s =
  let n = String.length s in
  (* Copy unescaped runs whole: most strings have no byte to escape. *)
  let rec go run i =
    if i = n then Buffer.add_substring b s run (i - run)
    else
      let c = String.unsafe_get s i in
      if c <> '"' && c <> '\\' && Char.code c >= 0x20 then go run (i + 1)
      else begin
        Buffer.add_substring b s run (i - run);
        (match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b (hex_digit (Char.code c lsr 4));
          Buffer.add_char b (hex_digit (Char.code c land 15)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  add_json_escaped b s;
  Buffer.contents b
