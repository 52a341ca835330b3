module Emit = Dhdl_util.Emit

type t =
  | Fix of { signed : bool; int_bits : int; frac_bits : int }
  | Flt of { exp_bits : int; sig_bits : int }
  | Bool

let float32 = Flt { exp_bits = 8; sig_bits = 24 }
let float64 = Flt { exp_bits = 11; sig_bits = 53 }
let int32 = Fix { signed = true; int_bits = 32; frac_bits = 0 }
let int16 = Fix { signed = true; int_bits = 16; frac_bits = 0 }
let int8 = Fix { signed = true; int_bits = 8; frac_bits = 0 }
let uint32 = Fix { signed = false; int_bits = 32; frac_bits = 0 }
let bool_t = Bool

let fixed ?(signed = true) ~int_bits ~frac_bits () =
  assert (int_bits >= 0 && frac_bits >= 0 && int_bits + frac_bits > 0);
  Fix { signed; int_bits; frac_bits }

let bits = function
  | Fix { int_bits; frac_bits; _ } -> int_bits + frac_bits
  | Flt { exp_bits; sig_bits } -> exp_bits + sig_bits
  | Bool -> 1

let is_float = function Flt _ -> true | Fix _ | Bool -> false
let is_fixed = function Fix _ -> true | Flt _ | Bool -> false
let is_bool = function Bool -> true | Fix _ | Flt _ -> false

let to_buffer b = function
  | Fix { signed; int_bits; frac_bits } ->
    Buffer.add_string b (if signed then "Fix(" else "UFix(");
    Emit.add_int b int_bits;
    Buffer.add_char b '.';
    Emit.add_int b frac_bits;
    Buffer.add_char b ')'
  | Flt { exp_bits; sig_bits } ->
    Buffer.add_string b "Float(";
    Emit.add_int b exp_bits;
    Buffer.add_char b ',';
    Emit.add_int b sig_bits;
    Buffer.add_char b ')'
  | Bool -> Buffer.add_string b "Bool"

let to_string t =
  let b = Buffer.create 16 in
  to_buffer b t;
  Buffer.contents b

let equal a b =
  match (a, b) with
  | Fix x, Fix y -> x.signed = y.signed && x.int_bits = y.int_bits && x.frac_bits = y.frac_bits
  | Flt x, Flt y -> x.exp_bits = y.exp_bits && x.sig_bits = y.sig_bits
  | Bool, Bool -> true
  | (Fix _ | Flt _ | Bool), _ -> false
