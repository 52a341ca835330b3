(** Canonical identity for an elaborated DHDL design.

    A key names a design by content, not by provenance: two designs with
    the same graph get the same key no matter which app generator, sweep,
    request or process produced them. That property is what lets the
    evaluation layer memoize analysis verdicts and estimates across
    sweeps, resumed sessions and server requests ([Eval] in lib/dse), and
    what gives a surrogate model a stable per-design identity.

    The key is split into two digests:

    - the {b skeleton} covers everything about the graph's {e shape} —
      controller tree, statement opcodes, operand kinds, memory names /
      kinds / element types / dimensionality, counter and loop labels,
      patterns and pipelining — but none of the numeric values a design
      point binds. Every point of one app's parameter sweep shares a
      skeleton.
    - the {b binding} covers exactly those numbers: parameter values,
      memory dimensions, inferred banking and double-buffering, counter
      bounds and strides, parallelization factors, tile sizes and
      offsets, and literal constants.

    Unlike [Ir.design_hash] (a non-cryptographic [Hashtbl.hash] of a
    partial serialization, kept for cheap fingerprinting), a key digests
    the {e full} canonical serialization — including tile offsets, memory
    kinds, inferred banks/double flags, counter names and loop patterns —
    through MD5, so collisions are not a practical concern for cache
    keying. Keys are only meaningful for elaborated designs: banking and
    double-buffering inference ([Builder] / [Transform]) must already
    have run, which is true of every design an app generator returns.

    The serialization is written straight into its buffers ([Emit] in
    lib/util), but its bytes are exactly those of the earlier [Printf]
    serializer ([string_of_int], ["%h"], [Dtype.to_string]), which
    test/oracle keeps verbatim and compares against. So every key, every
    cache entry and golden file keyed by one, and every gate system
    grouped by one, is unchanged. *)

type t = {
  skeleton : string;  (** hex digest of the parameter-free graph shape *)
  binding : string;  (** hex digest of the numeric parameter binding *)
}

val of_design : Dhdl_ir.Ir.design -> t

(** The skeleton digest is the family identity shared by every point of
    one app's parameter sweep. The symbolic legality layer ([Symbolic] in
    lib/absint, [Symgate] in lib/dse) derives and routes constraint
    systems by it. *)
val skeleton : t -> string

val binding : t -> string

(** ["<skeleton>:<binding>"] — the full key, suitable as a cache key or a
    stable external identifier for one design instance. *)
val to_string : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
