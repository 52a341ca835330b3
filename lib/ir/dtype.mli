(** DHDL data types.

    DHDL supports variable bit-width fixed-point types, variable-precision
    floating point types, and booleans (paper, Section III.B). Bit widths
    drive both BRAM geometry and primitive resource characterization. *)

type t =
  | Fix of { signed : bool; int_bits : int; frac_bits : int }
  | Flt of { exp_bits : int; sig_bits : int }
  | Bool

val float32 : t
(** IEEE-754 single precision (8-bit exponent, 24-bit significand). *)

val float64 : t
val int32 : t
val int16 : t
val int8 : t
val uint32 : t
val bool_t : t

val fixed : ?signed:bool -> int_bits:int -> frac_bits:int -> unit -> t

val bits : t -> int
(** Total storage width in bits. *)

val is_float : t -> bool
val is_fixed : t -> bool
val is_bool : t -> bool

val to_string : t -> string
(** E.g. "Float(8,24)", "Fix(32.0)", "UFix(16.8)", "Bool". *)

val to_buffer : Buffer.t -> t -> unit
(** Append the bytes of [to_string t]; the one writer behind it. *)

val equal : t -> t -> bool
