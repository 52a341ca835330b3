(** The one way to turn a design (or a design-space point) into an
    outcome.

    [Eval] owns the generate -> lint/absint -> estimate pipeline that
    used to be spliced inline into [Explore], the serve supervisor,
    [bin/dhdl] and the benches. Every caller now goes through a shared
    [Eval.t], which keys each elaborated design by its canonical
    {!Dhdl_model.Design_key} and memoizes the two expensive stages behind
    bounded content-addressed caches:

    - {b analysis} verdicts (lint + abstract-interpretation pruning) are
      keyed by the design key plus the enabled analysis set, so any two
      points that elaborate to the same graph share one proof effort —
      across sweeps, resumed sessions and server requests alike;
    - {b estimates} (area/cycles plus fit and utilization) are keyed by
      the full design key, which makes repeated, overlapping or resumed
      sweeps near-free once warm;
    - {b gates} (the symbolic legality systems {!Symgate} derives for a
      space) are keyed by the space's parameter names plus every probe's
      point and design key, so a repeated sweep of one space, in any
      session, derives its gate once (see {!gate}).

    Cached values are pure functions of their key (one [Eval.t] wraps one
    estimator, hence one device and one trained correction), so results
    are bit-identical with the cache cold, warm, or disabled; eviction is
    deterministic FIFO in insertion order. When fault injection is armed
    ([Faults.active ()]) the analysis and estimate caches are bypassed
    entirely — injected faults are keyed per call site and per point, and
    serving a memoized result would replay another point's fault
    decision. (The sweep never asks for a gate while faults are armed.)

    Thread-safety: an [Eval.t] may be shared freely across domains (the
    parallel sweep engine and the serve supervisor both do); the caches
    are mutex-guarded and hit/miss accounting is atomic. *)

module Estimator = Dhdl_model.Estimator

(** Per-pipeline-stage wall-second accumulators, written only when a
    caller passes [?stages] (the profiled sweep path). [s_probe] is the
    time spent deriving keys and probing/filling the caches — kept apart
    from [s_analyze] so cache overhead never masquerades as analysis
    work in [Profile]'s attribution. *)
type stages = {
  mutable s_generate : float;
  mutable s_probe : float;
  mutable s_analyze : float;
  mutable s_estimate : float;
}

val fresh_stages : unit -> stages

type t

(** Cumulative accounting across the analysis and estimate caches since
    [create]. Gate lookups are not counted here (they report through the
    [dse.symgate.hit] / [dse.symgate.miss] Obs counters), so a sweep's
    [Explore.result] hit/miss counts stay per-point. *)
type stats = { hits : int; misses : int; evictions : int }

(** [create est] wraps an estimator in an evaluation pipeline.
    [analysis_cap] and [estimate_cap] bound the two per-design caches
    (entries, not bytes); a cap of [0] disables that cache. Defaults hold
    a full paper-scale sweep (75k points) without eviction. The gate memo
    has a fixed bound of 64 spaces and is disabled with the analysis
    cache ([analysis_cap = 0], what [dhdl dse --no-cache] builds). *)
val create : ?analysis_cap:int -> ?estimate_cap:int -> Estimator.t -> t

(** The wrapped estimator, for callers that need device/board facts or
    the uncorrected model (degraded serve replies, utilization math). *)
val estimator : t -> Estimator.t

val stats : t -> stats

(** [evaluate t ~lint ~absint ~index ~generate point] runs the full
    barriered pipeline for one design-space point: every failure mode
    becomes a classified {!Outcome.entry} instead of an exception.
    [index] keys the deterministic fault-injection sites
    ([dse.generator] / [dse.lint] / [dse.estimator] / [dse.non_finite])
    so a resumed or parallel sweep replays the same faults at the same
    points. *)
val evaluate :
  t ->
  ?stages:stages ->
  lint:bool ->
  absint:bool ->
  index:int ->
  generate:(Space.point -> Dhdl_ir.Ir.design) ->
  Space.point ->
  Outcome.entry

(** [estimate t design] is the single-design entry point (CLI estimate /
    compare, serve requests, benches): a corrected estimate through the
    estimate cache. [~cache:false] forces a fresh run of the estimator —
    measurement paths (Table IV timings, microbenches) use it so cached
    repeats never flatter the paper's ms-per-design numbers. *)
val estimate : ?cache:bool -> t -> Dhdl_ir.Ir.design -> Estimator.estimate

(** [evaluation t point design] is {!estimate} plus fit and utilization,
    packaged as an {!Outcome.evaluation} (no fault sites, no exception
    barrier — callers that need those use {!evaluate}). *)
val evaluation :
  ?cache:bool -> t -> Space.point -> Dhdl_ir.Ir.design -> Outcome.evaluation

(** [gate t ~space ~generate] is [Symgate.derive ~space ~generate ()],
    memoized. It always generates and keys the 48 probes (a few ms); it
    skips the derivation itself (about 0.2 s for kmeans, 1.8 s for gda)
    when an earlier call saw the same parameter names, probe points and
    probe designs. The key is built from that content, not from
    [generate]'s identity: the server and the CLI build a fresh closure per
    session, and one space name can stand for several sizes. Derivation
    reads nothing else, so a hit returns exactly what a fresh derivation
    would. *)
val gate :
  t -> space:Space.t -> generate:(Space.point -> Dhdl_ir.Ir.design) -> Symgate.t
