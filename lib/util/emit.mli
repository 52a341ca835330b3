(** Buffer writers for the hot serializers (design keys, checkpoint
    entries, JSON strings).

    Each writer appends exactly the bytes of the standard formatter it
    names, without going through [Printf] or an intermediate string, so a
    serializer can switch to them and keep its output byte-identical. *)

val add_int : Buffer.t -> int -> unit
(** The bytes of [string_of_int n] (and of [Printf "%d"]), [min_int] and
    [max_int] included. *)

val add_hex_float : Buffer.t -> float -> unit
(** The bytes of [Printf.sprintf "%h" f]: the C99 hex literal that
    [float_of_string] reads back bit for bit, and [nan] (or [-nan]),
    [infinity] and [-infinity] for the special values. *)

val add_json_escaped : Buffer.t -> string -> unit
(** The JSON string body of [s], without the surrounding quotes: the
    double quote and the backslash are backslash-escaped, newline, return
    and tab become the two-byte escapes n, r and t, other bytes below 0x20
    become a six-byte u00XX escape (lowercase hex), and every other byte is
    copied as is. *)

val json_escape : string -> string
(** [add_json_escaped] into a fresh string. The one JSON string escaper:
    diagnostics, telemetry exports, the serve protocol and checkpoints all
    call it. *)
