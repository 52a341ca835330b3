(** Integer helpers used by tiling/banking arithmetic. *)

val ceil_div : int -> int -> int
(** [ceil_div a b] is the ceiling of a/b for positive [b]. *)

val floor_div : int -> int -> int
(** [floor_div a b] is the floor of a/b for any non-zero [b], either sign
    of [a] or [b]; [-(floor_div (-a) b)] is the ceiling. *)

val round_up : int -> int -> int
(** [round_up a m] is the least multiple of [m] that is >= [a]. *)

val gcd : int -> int -> int
val lcm : int -> int -> int

val divisors : int -> int list
(** All positive divisors of [n] (n > 0), in increasing order. The paper's
    pruning heuristic only considers divisor tile sizes and parallelization
    factors (Section IV.C). *)

val divisors_up_to : int -> int -> int list
(** [divisors_up_to n cap] keeps divisors of [n] that are <= [cap]. *)

val pow2_up_to : int -> int list
(** Powers of two [1; 2; ...] not exceeding the bound. *)

val is_pow2 : int -> bool

val next_pow2 : int -> int
(** Smallest power of two >= n (n >= 1). *)

val ilog2_ceil : int -> int
(** Ceiling of log2 for n >= 1; [ilog2_ceil 1 = 0]. *)

val clamp : lo:int -> hi:int -> int -> int

val prod : int list -> int
(** Product of a list (1 for the empty list); used for memory volumes. *)
