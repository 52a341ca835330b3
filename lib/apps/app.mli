(** Benchmark application interface.

    Each benchmark of Table II is a parameterized DHDL program: a function
    from (dataset sizes, design parameters) to a design instance, together
    with its design space for exploration and its CPU workload model for the
    Figure 6 comparison. *)

type sizes = (string * int) list
type params = (string * int) list

type t = {
  name : string;
  description : string;
  paper_sizes : sizes;  (** Dataset sizes from Table II. *)
  test_sizes : sizes;  (** Scaled-down sizes for functional validation. *)
  default_params : sizes -> params;  (** A sensible mid-range design point. *)
  space : sizes -> Dhdl_dse.Space.t;
  generate : sizes:sizes -> params:params -> Dhdl_ir.Ir.design;
  cpu_workload : sizes -> Dhdl_cpu.Cost_model.workload;
}

val size : sizes -> string -> int
(** Look up a dimension; raises [Failure] with a helpful message. *)

val get : params -> string -> int -> int
(** [get params name default] with a default for omitted parameters. *)

val must_divide : string -> int -> extent:string * int -> unit
(** [must_divide name v ~extent:(dim, n)] checks, in a generator, that
    the tile parameter [name] = [v] divides the extent [dim] = [n] it
    tiles, and raises [Failure] naming all four otherwise. *)

val generate_default : t -> sizes -> Dhdl_ir.Ir.design
(** Instantiate at the default parameters. *)

val resolve : t -> sizes -> params -> params
(** [resolve t sizes overrides] is the full binding a partial one names:
    [default_params sizes] in their order, each replaced by its override
    when [overrides] names it. An override that names no parameter is
    refused with a [Failure] that names it, so a misspelt name never
    yields the default design. Every entry point that builds a design
    from user parameters (the CLI and the DSE server) resolves through
    {!Request}, which calls this, so they agree on the design. *)

val divisor_tile : n:int -> cap:int -> par:int -> int
(** Largest divisor of [n] at most [cap] divisible by [par] (falls back to
    the largest divisor, then [n]); keeps default design points legal.
    Found by scanning down from [min cap n], at most that many steps and
    no allocation, so resolving a served request's defaults costs well
    under a microsecond. [n] and [par] are positive. *)
