(** One design point, asked about by name: the request layer both front
    ends share.

    A caller names a benchmark and a partial binding; this module owns
    everything from there to a typed result with its JSON document:
    - looking the benchmark up in {!Registry};
    - resolving the binding against the app's defaults ({!App.resolve})
      and checking it, once, where it enters;
    - elaborating the design and running one of four requests on it —
      estimate, lint, analyze and symbolic analyze;
    - turning any exception a resolved point still raises into a
      [Failure] that names the stage.

    Each front end keeps only what is its own. [bin/dhdl.ml] keeps
    argument parsing, exit codes and its text layout. The server's
    supervisor keeps protocol decoding, the decision to degrade an
    estimate (queue depth, NN fallbacks) and the reply envelope; where a
    served payload wraps the CLI's document (lint adds [clean] and
    [errors], analyze adds [clean]) it wraps this module's value.

    Every refusal and every stage failure is a [Failure] whose message
    names the parameter or the stage: the CLI prints it as [dhdl: error:]
    and exits 1, the server answers it as [bad_request]. Nothing else
    escapes.

    Lint, analyze and symbolic analyze take no estimator: they read the
    design, or the app's space, and nothing the correction networks
    learned. So [dhdl lint] and [dhdl analyze] train nothing, and a served
    lint or analyze never waits for training. *)

module Json = Dhdl_util.Json
module Ir = Dhdl_ir.Ir
module Diag = Dhdl_ir.Diag
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Absint = Dhdl_absint.Absint
module Dependence = Dhdl_absint.Dependence
module Symbolic = Dhdl_absint.Symbolic

val app : string -> App.t
(** The registered benchmark of that name; [Failure] lists the
    available names otherwise. *)

val binding : string -> App.params -> App.t * App.params
(** [binding name overrides] is the benchmark and the full binding its
    overrides name ({!App.resolve} at paper sizes), without elaborating.
    Refused with a [Failure] that names the parameter:
    - a name that is not one of the app's parameters;
    - a [tile*] below 1;
    - a [par*] below 1 or above the largest candidate its dimension
      samples (16–192 across the apps; read once from the paper-size
      spaces, never per request);
    - a [meta*] other than 0 or 1.

    Any other value resolves, however far from the sampled candidates:
    a proof rejects it, not this check. *)

(** A checked, resolved and elaborated design point. *)
type point = { app : App.t; binding : App.params; design : Ir.design }

val point : string -> App.params -> point
(** {!binding}, then the generator. A generator exception becomes a
    [Failure] prefixed [generator:] ({!Outcome.stage_name}). *)

(** {1 Estimate} *)

type estimate = {
  e_app : App.t;
  e_binding : App.params;
  e_degraded : bool;
  e_eval : Outcome.evaluation;
}

val estimate : ?degraded:bool -> Eval.t -> point -> estimate
(** The corrected estimate with fit and utilization, through
    {!Eval.evaluation} and its cache; with [~degraded:true], the raw
    analytical model instead (no NN corrections, no cache). An exception
    becomes a [Failure] prefixed [estimator:]. *)

(** A checked, resolved point bound to its design through [Eval]'s point
    index: the served estimate's way in, which generates a revisited
    point only when the estimate cache misses. *)
type bound = { b_app : App.t; b_binding : App.params; b_bound : Eval.bound }

val bind : Eval.t -> string -> App.params -> bound
(** {!binding}, then {!Eval.bind} under the app's paper-size family
    (its name and paper sizes, computed once at start, as a paper-size
    sweep files its points), with the app's generator at paper sizes. A
    point the index lacks is generated here, and a generator exception
    becomes a [Failure] prefixed [generator:], as in {!point}. *)

val estimate_bound : ?degraded:bool -> Eval.t -> bound -> estimate
(** {!estimate} of a bound point: the corrected path through
    {!Eval.bound_evaluation}, the degraded one on the design, generated
    now if [bind] did not. Same values and failures as {!estimate} of
    {!point}. *)

val estimate_json : estimate -> Json.t
(** The served estimate payload: app, resolved params, degraded, cycles,
    seconds, area, utilization percentages and fit. *)

(** {1 Lint} *)

type lint = { l_point : point; l_diags : Diag.t list }

val lint : point -> lint
(** Every lint pass over the design. An exception becomes a [Failure]
    prefixed [lint:]. *)

val lint_text : lint -> string
val lint_json : lint -> Json.t
(** The [dhdl lint --json] document of one design. *)

(** {1 Analyze} *)

type analysis = { a_point : point; a_absint : Absint.report; a_deps : Dependence.report }

val analyze : point -> analysis
(** The abstract-interpretation proofs and the loop-carried dependence
    analysis of the design. An exception becomes a [Failure] prefixed
    [lint:] (the proof half of lint). *)

val analysis_clean : analysis -> bool
(** No refutation in either report. *)

val analysis_text : analysis -> string
val analysis_json : analysis -> Json.t
(** [{"absint":…,"dependence":…}], the [dhdl analyze --json] document. *)

(** {1 Symbolic analyze} *)

type symbolic = {
  s_app : App.t;
  s_binding : App.params;
  s_systems : Symbolic.system list;
  s_verdict : Symbolic.verdict;
}

val symbolic : string -> App.params -> symbolic
(** Derive the app's symbolic constraint systems ({!Dhdl_dse.Symgate})
    and decide the checked binding without elaborating it. The gate
    refutes only, so the verdict is [Refuted] or [Unknown]. An exception
    becomes a [Failure] prefixed [lint:]. *)

val symbolic_refuted : symbolic -> bool

val symbolic_text : symbolic -> string
(** Every system, then the point's verdict line. *)

val symbolic_json : symbolic -> Json.t
(** [{"systems":[…],"point":{…},"verdict":{"kind":…}}]. *)
