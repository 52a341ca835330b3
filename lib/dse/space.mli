(** Design parameter spaces and the paper's pruning heuristics.

    A space is a named cartesian product of integer parameter domains plus a
    legality predicate. Section IV.C prunes the raw space to a "legal"
    subspace: parallelization factors that divide iteration counts, tile
    sizes that divide data dimensions, banking folded into parallelization,
    and bounded on-chip memory sizes. *)

type point = (string * int) list
(** One assignment of every parameter, in declaration order. *)

type t

val make :
  name:string ->
  dims:(string * int list) list ->
  ?legal:(point -> bool) ->
  ?sizes:(string * int) list ->
  unit ->
  t
(** [dims] gives each parameter its candidate values (already pruned to
    divisors where applicable); [legal] rejects cross-parameter illegal
    combinations (e.g. tile buffers exceeding the on-chip budget).
    [sizes] records the dataset sizes the space was built for, which
    gives it a {!family}: each of the seven apps' [space] functions
    passes the sizes it was called with. A space made without sizes (a
    test's toy space) has no family. *)

val name : t -> string
val dims : t -> (string * int list) list

val legal : t -> point -> bool
(** The legality predicate [make] was given. *)

(** {1 Families}

    A family is a space's name plus the dataset sizes it was built for.
    Two spaces of one family pair every point with the same design, so
    [Eval]'s point index files a point's design key under
    [(family, point)] and answers a revisit without generating it, and
    [Eval.gate] files a space's gate under its family. That rests on one
    contract, which every caller of [Explore.run] and
    [Eval.gate] keeps: a space that carries sizes is always paired with
    its app's generator at those sizes. *)

type family

val family : t -> family option
(** [None] for a space made without [sizes]. *)

val point_key : family -> point -> string
(** The point index's key of [point] in [family]: the family's name and
    sizes, then each [name=value] of the point, each field length-prefixed
    so two different pairs never render alike. *)

val raw_size : t -> int
(** Cartesian-product cardinality before the legality predicate. *)

val enumerate : t -> point list
(** All legal points (intended for spaces that fit in memory). *)

val sample : t -> seed:int -> max_points:int -> point list
(** Up to [max_points] distinct legal points, uniformly sampled with a
    deterministic seed; falls back to full enumeration when the raw space
    is not much larger than the request. Illegal points are discarded
    immediately, as in the paper. *)

val decoder : t -> int -> point
(** [decoder t] decodes a flat index below [raw_size t] into its point
    (mixed radix, the last dimension varying fastest), as [sample] draws
    them. Partially apply it once: the candidate arrays are built when
    [t] is given. *)

val mem_limit_words : int
(** Default cap on each on-chip memory (words), the "total size of each
    local memory is limited to a fixed maximum value" heuristic. *)

val divisors_for : int -> int list
(** Candidate tile sizes / parallelization factors for an extent: its
    divisors (capped at the extent). *)

val par_candidates : int -> int list
(** Divisors of the extent that are <= 64 — sensible vector widths. *)
