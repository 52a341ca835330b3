(** The one way to turn a design (or a design-space point) into an
    outcome.

    [Eval] owns the generate -> lint/absint -> estimate pipeline that
    used to be spliced inline into [Explore], the serve supervisor,
    [bin/dhdl] and the benches. Every caller now goes through a shared
    [Eval.t], which keys each elaborated design by its canonical
    {!Dhdl_model.Design_key} and memoizes the expensive stages behind
    bounded tables:

    - {b analysis} verdicts (lint + abstract-interpretation pruning) are
      keyed by the design key plus whether the proof passes ran, so any two
      points that elaborate to the same graph share one proof effort —
      across sweeps, resumed sessions and server requests alike;
    - {b estimates} (area/cycles plus fit and utilization) are keyed by
      the full design key, which makes repeated, overlapping or resumed
      sweeps near-free once warm;
    - {b gates} (the symbolic legality systems {!Symgate} derives for a
      space) are keyed by the space's family, a space's name plus the
      dataset sizes it was built for ({!Space.family}), so a repeated
      sweep of one family, in any session, derives its gate once (see
      {!gate});
    - the {b point index} maps a (family, point) pair to that point's
      design key. It answers no question itself: it lets a revisited
      point reach the two content-addressed caches above without being
      generated or keyed. {!evaluate} and {!bound_evaluation} look a
      point up first and generate its design only when the analysis or
      estimate cache misses. A space without a family never touches it.

    Cached values are pure functions of their key (one [Eval.t] wraps one
    estimator, hence one device and one trained correction), so results
    are bit-identical with the caches cold, warm, or disabled; eviction
    is deterministic FIFO in insertion order. The analysis and estimate
    caches stay the only source of answers, so the point index changes
    how often a design is generated and nothing else: hit/miss counts,
    checkpoints and served replies are the same with it or without it.

    {b The family contract.} A space that carries sizes is always
    paired with its app's generator at those sizes: whoever passes such
    a space to {!evaluate} (through [Explore.run]) or {!gate}, and the
    request layer, which binds served points under the paper-size
    family, must pass [generate = app.generate ~sizes] for the app whose
    [space sizes] built it. The index files a point's key, and the gate
    memo a gate, under the family alone, so a generator that broke the
    pairing would be answered with another generator's designs or gate.
    A wrapper that elaborates the same designs (one that counts its
    calls, say) keeps the pairing; a caller whose generator fails or
    elaborates differently builds its space without sizes.

    When fault injection is armed ([Faults.active ()]) the analysis and
    estimate caches and the point index are bypassed entirely — injected
    faults are keyed per call site and per point, and serving a memoized
    result would replay another point's fault decision. (The sweep never
    asks for a gate while faults are armed.) The index is also off when
    both caches are ([dhdl dse --no-cache]).

    Thread-safety: an [Eval.t] may be shared freely across domains (the
    parallel sweep engine and the serve supervisor both do); the tables
    are mutex-guarded and hit/miss accounting is atomic.

    {b Timing.} [Eval] reads no clock. With the {!Dhdl_obs.Obs} sink on,
    {!evaluate} records an [eval.generate] span around each generator
    call and an [eval.analyze] span around each lint/absint run (cache
    misses only); the estimator records its own [estimate] span.
    {!Profile} builds a sweep's lanes from these spans. *)

module Estimator = Dhdl_model.Estimator

type t

(** Cumulative accounting across the analysis and estimate caches since
    [create]. Gate and point-index lookups are not counted here (they
    report through the [dse.symgate.*] and [dse.index.*] Obs counters),
    so a sweep's [Explore.result] hit/miss counts stay per-point. *)
type stats = { hits : int; misses : int; evictions : int }

(** [create est] wraps an estimator in an evaluation pipeline.
    [analysis_cap] and [estimate_cap] bound the two per-design caches
    (entries, not bytes); a cap of [0] disables that cache. Defaults hold
    a full paper-scale sweep (75k points) without eviction. The gate memo
    has a fixed bound of 64 families and is disabled with the analysis
    cache ([analysis_cap = 0]). The point index holds as many points as
    the larger of the two caps, so it is off only when both caches are
    (what [dhdl dse --no-cache] builds). *)
val create : ?analysis_cap:int -> ?estimate_cap:int -> Estimator.t -> t

(** The wrapped estimator, for callers that need device/board facts or
    the uncorrected model (degraded serve replies, utilization math). *)
val estimator : t -> Estimator.t

val stats : t -> stats

(** [evaluate t ?family ~absint ~index ~generate point] runs the full
    barriered pipeline for one design-space point: every failure mode
    becomes a classified {!Outcome.entry} instead of an exception. Lint
    always runs; [absint] adds the proof passes (bounds, banking and
    dependence), whose refutations prune the point as
    {!Outcome.Absint_pruned} or {!Outcome.Dep_pruned}.
    [index] keys the deterministic fault-injection sites
    ([dse.generator] / [dse.lint] / [dse.estimator] / [dse.non_finite])
    so a resumed or parallel sweep replays the same faults at the same
    points. With [family] (the point's space's {!Space.family}) the point
    index is consulted first: a point it has seen is generated only if
    a cache misses, and a generator that raises then still yields a
    [Generator_error] entry. [generate] must be the family's app
    generator at the family's sizes (see the contract above). *)
val evaluate :
  t ->
  ?family:Space.family ->
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
    memoized by [space]'s family: the first call for a family derives
    (12–24 ms for gemm, kmeans or gda, its 48 probes generated and
    keyed), and every later call returns that gate without generating,
    keying or looking up any probe. Derivation reads only the space and
    [generate], and the family contract pairs a family with one
    generator, so a hit returns exactly what a fresh derivation would,
    the systems compiled for {!Symgate.refutes} included; the server and
    the CLI may pass a fresh closure per session. A space without a
    family derives on every call. The memo holds 64 families, FIFO, and
    its hits and misses count under the [dse.symgate.*] Obs counters. *)
val gate :
  t -> space:Space.t -> generate:(Space.point -> Dhdl_ir.Ir.design) -> Symgate.t

(** {1 Served points}

    A point the request layer answers outside a sweep, bound to its
    design through the point index. *)

(** A point and its design, generated at bind time or, after an index
    hit, only when a cache misses. *)
type bound

(** [bind ?family t ~generate point] looks [point] up in the point index
    under [family]. On a hit it generates nothing; otherwise (no family,
    index off, faults armed, or a miss) it generates the design now, so
    a generator exception escapes [bind] itself. [generate] must be the
    family's app generator at the family's sizes. *)
val bind :
  ?family:Space.family ->
  t ->
  generate:(Space.point -> Dhdl_ir.Ir.design) ->
  Space.point ->
  bound

(** The design, generated now if [bind] did not. *)
val bound_design : bound -> Dhdl_ir.Ir.design

(** [bound_evaluation t b] is [evaluation t point (bound_design b)],
    generating the design only when the estimate cache misses. *)
val bound_evaluation : t -> bound -> Outcome.evaluation
