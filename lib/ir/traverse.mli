(** Generic walks over the controller hierarchy. *)

val children : Ir.ctrl -> Ir.ctrl list
(** Direct sub-controllers (empty for leaves). *)

val iter_ctrl : (Ir.ctrl -> unit) -> Ir.ctrl -> unit
(** Pre-order traversal including the root. *)

val fold_ctrl : ('a -> Ir.ctrl -> 'a) -> 'a -> Ir.ctrl -> 'a
(** Pre-order fold including the root. *)

val all_ctrls : Ir.design -> Ir.ctrl list
(** Every controller in the design, pre-order. *)

val ctrls_with_replication : Ir.design -> (Ir.ctrl * int) list
(** Every controller paired with its hardware replication factor: the
    product of the parallelization factors of its ancestor [Loop]
    controllers. An outer loop with par = p instantiates p copies of its
    stage subtree (Section III.B.3). The loop node itself is not replicated
    by its own factor. *)

val mem_replication : Ir.design -> Ir.mem -> int
(** Max replication factor over all controllers accessing the memory: the
    number of duplicated buffer instances the hardware needs. 1 when the
    memory is only touched at top level. It walks the whole design; a
    caller that wants every memory's factor uses {!mem_replications}. *)

val mem_replications : Ir.design -> (Ir.mem * int) list
(** Every memory of [d.d_mems], in order, paired with its
    {!mem_replication} factor, all from one walk of the controller tree. *)

val pipes : Ir.design -> Ir.ctrl list
(** Just the [Pipe] nodes. *)

val tile_transfers : Ir.design -> Ir.ctrl list
(** The [Tile_load]/[Tile_store] nodes (off-chip memory streams). *)

val depth : Ir.ctrl -> int
(** Height of the controller tree (a lone Pipe has depth 1). *)

val count : (Ir.ctrl -> bool) -> Ir.design -> int

val stmt_count : Ir.design -> int
(** Total primitive statements across all Pipe bodies (pre-replication). *)

val body_stmts : Ir.ctrl -> Ir.stmt list
(** Statements of a [Pipe]; empty for other controllers. *)

val iterators_in_scope : Ir.design -> Ir.ctrl -> string list
(** Counter names bound by the controller itself and all its ancestors.
    Raises [Not_found] when the controller is not part of the design. *)
