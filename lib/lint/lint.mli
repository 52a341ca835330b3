(** Static-analysis (lint) framework for DHDL designs.

    Diagnostics are the shared {!Dhdl_ir.Diag} type also emitted by
    {!Dhdl_ir.Analysis.validate_diags}; lint passes add hazard, race,
    capacity and dead-code checks on top of well-formedness. Each pass is a
    pure [Ir.design -> Diagnostic.t list] function registered in
    {!passes}; {!check} runs the whole registry (plus the validator) and
    returns a sorted, deduplicated report. *)

module Ir = Dhdl_ir.Ir
module Diagnostic = Dhdl_ir.Diag
module Target = Dhdl_device.Target

type pass = {
  code : string;  (** Stable diagnostic code, e.g. ["L001"]. *)
  title : string;  (** Short kebab-case name, e.g. ["parallel-race"]. *)
  doc : string;  (** One-line description of what the pass flags. *)
  run : Ir.design -> Diagnostic.t list;
}

val passes : ?dev:Target.t -> unit -> pass list
(** The registry, in code order (L001–L013). [dev] parameterizes the
    device-fit pass; defaults to {!Target.stratix_v}. L009–L011 are backed
    by the abstract-interpretation framework in {!Dhdl_absint}; L012 and
    L013 by its loop-carried dependence analysis
    ({!Dhdl_absint.Dependence}), which also settles L001's race
    candidates. *)

val proof_codes : string list
(** The codes of the proof-backed passes (L009–L013): every error they emit
    cites a concrete counterexample, so error-level pruning on them alone
    is sound even when the heuristic passes are disabled. *)

val heuristic_codes : string list
(** The complement of {!proof_codes} over the registry: the heuristic
    passes that still run when a caller (the evaluation layer's lint-only
    path, taken when proof-backed pruning is off) skips the proof-backed
    passes. *)

val check : ?dev:Target.t -> ?validate:bool -> ?only:string list -> Ir.design -> Diagnostic.t list
(** Run the validator ([validate] defaults to [true]) and every registered
    pass; the result is sorted by severity then code and deduplicated.
    [only] restricts the registry to the passes with the given codes (the
    validator is still controlled by [validate]). *)

val errors : Diagnostic.t list -> Diagnostic.t list
val has_errors : Diagnostic.t list -> bool

val summary : Diagnostic.t list -> string
(** ["N error(s), M warning(s), K info(s)"]. *)

val render_text : design:Ir.design -> Diagnostic.t list -> string
(** Human-readable report: a summary header plus one line per diagnostic
    (["<design>: clean"] when empty). *)

val render_json : design:Ir.design -> Diagnostic.t list -> string
(** Machine-readable report: one JSON object with severity counts and the
    diagnostic array. *)

val exit_code : ?fail_on:Diagnostic.severity -> Diagnostic.t list -> int
(** Process exit code: 2 when errors are present, 1 when the most severe
    diagnostic is at or above [fail_on] (default [Error]) without being an
    error, 0 otherwise. *)
