(** Abstract-domain signature for the forward fixpoint engine.

    A domain abstracts the float values flowing through a DHDL design:
    iterator values (from counter bounds), [Sop] arithmetic, and the
    contents of memory cells (registers, BRAMs, queues). The engine
    ({!Engine.Make}) is parametric in the domain; {!Interval} tracks
    numeric ranges and {!Affine} tracks [c0 + sum ci*iter_i] shapes with
    iterator-dependence sets. *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op

module type S = sig
  type t

  val name : string

  val top : t
  (** No information: any value. *)

  val bottom : t
  (** Unreachable / no value. *)

  val is_bottom : t -> bool
  val equal : t -> t -> bool

  val join : t -> t -> t
  (** Least upper bound (control-flow merge, repeated writes to a cell). *)

  val widen : t -> t -> t
  (** [widen old incoming] accelerates convergence on loop-carried cells;
      must satisfy [widen old v] ⊒ [join old v] and stabilize any
      ascending chain in finitely many steps. It must also leave a
      stable cell alone: [equal (join old v) old] implies
      [equal (widen old v) old]. The engine relies on this to keep the
      access facts of a converged round of joins rather than record
      them in a further widening pass. *)

  val of_const : float -> t
  val of_counter : Ir.counter -> t
  (** Abstract value of the counter's iterator over all its iterations
      ([bottom] for a zero-trip counter). *)

  val transfer : Op.t -> t list -> t
  (** Abstract [Op.eval]. Must be sound for any argument count (return
      [top] on arity mismatch rather than raising). *)

  val load : addr:t list -> content:t -> t
  (** Value produced by [Sload]: [content] is the memory cell's abstract
      content (the join of everything stored plus its initial value),
      [addr] the abstract per-dimension address. *)

  val pop : t
  (** Value produced by [Spop] (order-dependent, typically [top]). *)

  val to_string : t -> string
end
