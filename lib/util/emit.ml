(* Two characters as the little-endian 16-bit word that writes them in
   order, so one [Buffer.add_uint16_le] writes both. *)
let pair c0 c1 = Char.code c0 lor (Char.code c1 lsl 8)

let hex_digit n = Char.unsafe_chr (if n < 10 then 48 + n else 87 + n)

(* [decimal_pairs.(x)] writes 0..99 as two decimal digits, [hex_pairs.(x)]
   0..255 as two hex digits. *)
let decimal_pairs =
  Array.init 100 (fun x -> pair (Char.chr (48 + (x / 10))) (Char.chr (48 + (x mod 10))))
let hex_pairs = Array.init 256 (fun x -> pair (hex_digit (x lsr 4)) (hex_digit (x land 15)))

(* Digits of a non-positive [m], most significant first, two at a time.
   Working on the non-positive side keeps [min_int] exact: its negation
   overflows. *)
let rec add_neg_digits b m =
  if m <= -100 then begin
    add_neg_digits b (m / 100);
    Buffer.add_uint16_le b (Array.unsafe_get decimal_pairs (-(m mod 100)))
  end
  else if m <= -10 then Buffer.add_uint16_le b (Array.unsafe_get decimal_pairs (-m))
  else Buffer.add_char b (Char.unsafe_chr (48 - m))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b n
  end
  else add_neg_digits b (-n)

let fraction_mask = 0xf_ffff_ffff_ffff

(* The hex digits of a nonzero 52-bit fraction [m], two at a time from the
   top, leaving off a last digit that would be a trailing zero. *)
let rec add_fraction b m =
  if m <> 0 then begin
    let top = m lsr 44 and rest = (m lsl 8) land fraction_mask in
    if rest = 0 && top land 15 = 0 then Buffer.add_char b (hex_digit (top lsr 4))
    else begin
      Buffer.add_uint16_le b (Array.unsafe_get hex_pairs top);
      add_fraction b rest
    end
  end

(* Printf's "%h" is the runtime's caml_hexstring_of_float with the default
   precision (as many digits as the value needs) and sign flag '-'. This
   writes the same bytes from the float's bits, with no string per call:
   an optional '-', then "nan" or "infinity", or else "0x", the leading
   digit (1 normal, 0 subnormal or zero), the 52-bit fraction as hex digits
   with trailing zeros dropped (and the '.' with them), and the binary
   exponent as "p" and a signed decimal. *)
let add_hex_float b f =
  let bits = Int64.bits_of_float f in
  let exp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.to_int bits land fraction_mask in
  if Int64.compare bits 0L < 0 then Buffer.add_char b '-';
  if exp = 0x7ff then Buffer.add_string b (if frac = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string b (if exp = 0 then "0x0" else "0x1");
    if frac <> 0 then begin
      Buffer.add_char b '.';
      add_fraction b frac
    end;
    let e = if exp = 0 then if frac = 0 then 0 else -1022 else exp - 1023 in
    Buffer.add_string b (if e < 0 then "p-" else "p+");
    add_int b (abs e)
  end

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
