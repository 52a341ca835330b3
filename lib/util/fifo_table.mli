(** A hash table bounded by entry count that evicts in insertion order
    (first in, first out): deterministic, and O(1) per insertion. Not
    synchronized; a caller shared across domains locks around it.

    Eval's design-key caches and the DSE server's reply cache are both
    this table. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** A table holding at most [cap] entries; a cap of [0] holds none. *)

val cap : ('k, 'v) t -> int
val find_opt : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> int
(** [add t k v] binds [k] to [v] unless [k] is bound already (then it is
    a no-op, so the eviction order never holds a key twice), evicts the
    oldest entries while the table holds more than [cap], and returns how
    many it evicted. *)
