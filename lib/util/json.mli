(** The one JSON reader and the generic JSON writer.

    Every JSON document the program reads goes through {!parse}: serve
    requests and replies (newline-delimited, one value per line), the
    server's session files, checkpoint lines ([Checkpoint.load]) and
    telemetry JSONL ([Obs.summary_of_jsonl]). Checkpoints and telemetry
    exports write their own bytes, escaping strings through {!Emit};
    {!render} is the writer for everything else, and adds one
    non-standard constructor, {!Raw}, which splices an already-rendered
    JSON fragment verbatim — used to embed reports the lint/absint passes
    render themselves. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Pre-rendered JSON, emitted verbatim by {!render}; never produced
          by {!parse}. *)

val max_depth : int
(** 512: the deepest nesting of arrays and objects {!parse} accepts. The
    deepest documents the program writes have 8 levels ([dhdl analyze
    APP --json]) and 9 (a served [analyze] reply, which wraps it). *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; anything after
    the value is an error). Never raises: [Error] carries a message with
    the byte offset where reading stopped.

    What it accepts, beyond and short of RFC 8259:
    - Numbers are read as one run of the bytes [0-9 + - . e E]. A run
      [int_of_string] takes is an [Int], so [+7] and [01] read as [7] and
      [1]; any other run [float_of_string] takes is a [Float], so [.5],
      [5.] and integers beyond [int]'s range ([9999999999999999999])
      read as floats, and [1e400] as [infinity]. [nan], [inf] and
      underscores are rejected.
    - Strings may hold any raw byte but ['"'] and ['\\'], control bytes
      included, and are returned as bytes. [\u] takes exactly four hex
      digits: a Unicode scalar value becomes its UTF-8 bytes ([é] is
      ["\xc3\xa9"]), and each half of a surrogate (U+D800–U+DFFF) becomes
      ['?'], so pairs are not combined.
    - An array or object nested more than {!max_depth} deep is an
      [Error], found at its opening bracket; the reader never recurses
      deeper than that.
    - Duplicate object keys are kept, in order; {!member} returns the
      first. *)

val render : t -> string
(** Compact single-line rendering (never contains ['\n'], so a rendered
    value is always one wire line). A non-finite [Float] renders as [nan],
    [inf] or [-inf], which {!parse} rejects. *)

(** {1 Accessors} — total lookups used by the decoders. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_string : t -> string option

val to_int : t -> int option
(** [Int] directly; a [Float] converts only when it is integral and in
    [[-2^62, 2^62)], the range of [int], so [1e300] is [None], not 0. *)

val to_float : t -> float option
(** [Float] directly; an [Int] converts. *)

val to_bool : t -> bool option
val to_list : t -> t list option

val obj_or_empty : t -> (string * t) list
(** The fields of an object, [[]] for anything else. *)
