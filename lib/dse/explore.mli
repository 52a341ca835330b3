(** Design-space exploration driver (steps 2-4 of the paper's Figure 1).

    Walks a parameter space, instantiates the design generator at each legal
    point, runs the estimator, classifies validity against the device, and
    extracts the Pareto frontier in the (cycles, ALM-utilization) plane used
    throughout Figure 5.

    The sweep is fault-tolerant: each point's generate → lint → estimate
    pipeline runs inside an exception barrier, so one bad point becomes a
    classified {!failure} in the result instead of killing a 75,000-point
    run. Sweeps can checkpoint to disk and resume after a crash, and a
    deadline turns a too-long run into a flagged partial result.

    Sweeps are configured through a {!Config.t} record, built only by
    {!Config.make}. One loop runs every sweep: workers claim contiguous
    index {e chunks} of 16 points, and a worker that finishes a chunk
    records, under the sweep's one lock, every finished chunk that is
    next in sampling-index order. Worker 0 is the calling domain and
    [Config.jobs - 1] domains are spawned. Results and checkpoint files
    are bit-identical across every jobs level and {!Eval} cache
    temperature.

    Per-point evaluation itself — generate → lint/absint → estimate
    behind the design-key caches — lives in {!Eval}; [run] takes the
    {!Eval.t} so concurrent and consecutive sweeps can share one
    memo. *)

module Estimator = Dhdl_model.Estimator

type evaluation = Outcome.evaluation = {
  point : Space.point;
  estimate : Estimator.estimate;
  valid : bool;  (** Fits on the target device. *)
  alm_pct : float;
  dsp_pct : float;
  bram_pct : float;
}

(** Which pipeline stage a failed point died in (see {!Outcome}). *)
type failure_stage = Outcome.failure_stage =
  | Generator_error
  | Lint_error
  | Estimator_error
  | Non_finite_estimate

type failure = Outcome.failure = {
  f_index : int;  (** Index of the point in sampling order. *)
  f_point : Space.point;
  f_stage : failure_stage;
  f_message : string;
}

type result = {
  space_name : string;
  param_names : string list;  (** Parameter names in point order. *)
  evaluations : evaluation list;  (** Every point that estimated successfully. *)
  pareto : evaluation list;  (** Pareto-optimal valid designs. *)
  failures : failure list;  (** Classified per-point failures, in index order. *)
  raw_space : int;  (** Cardinality before pruning/sampling. *)
  sampled : int;  (** Sampled points, including pruned and failed ones. *)
  processed : int;  (** Points actually consumed; < [sampled] iff [truncated]. *)
  lint_pruned : int;  (** Points dropped before estimation by lint errors. *)
  absint_pruned : int;
      (** Points whose error-level diagnostics included an abstract-
          interpretation proof (L009 out-of-bounds / L010 bank conflict,
          each with a concrete witness) — provably broken hardware dropped
          before estimation. *)
  dep_pruned : int;
      (** Points whose only error-level diagnostics were dependence
          refutations of the chosen parallelization (L013: a proven
          same-cycle lane conflict with a concrete witness) — the design
          is sound sequentially but the sampled [par] is illegal. *)
  sym_pruned : int;
      (** Points refuted {e before elaboration} by the symbolic legality
          predicate ({!Dhdl_absint.Symbolic} via {!Symgate}): the derived
          constraint system proved concrete analysis would refute them, so
          they were never generated. Disjoint from [absint_pruned] /
          [dep_pruned] — a point counts there only when it reached the
          concrete passes. *)
  resumed : int;  (** Points reused from a checkpoint instead of recomputed. *)
  truncated : bool;  (** The deadline stopped the sweep early. *)
  jobs : int;  (** Workers the sweep ran with (1 = the calling domain alone). *)
  elapsed_seconds : float;  (** Wall-clock duration of the whole sweep. *)
  cpu_seconds : float;
      (** The process's user + system CPU seconds over the sweep
          ([Sys.time]: every domain's, a concurrent sweep's included). *)
  cache_hits : int;
      (** {!Eval} cache hits (analysis + estimate) during this sweep: the
          delta of {!Eval.stats} across the run. With a shared [Eval.t]
          under concurrent sweeps the attribution of a hit to one sweep
          is approximate; totals across sweeps are exact. *)
  cache_misses : int;  (** Counterpart of [cache_hits]. *)
}

(** Sweep configuration: one validated record instead of the
    labelled-optional-argument signature [run] used to have. {!Config.make}
    is the only way to build one. *)
module Config : sig
  type t = private {
    seed : int;  (** Sampling seed (the paper uses 2016). *)
    max_points : int;  (** Sampling budget (the paper's cap is 75,000). *)
    absint : bool;
        (** Prune points the proof-backed passes refute: L009/L010
            abstract-interpretation errors count as [absint_pruned],
            L013 dependence refutations as [dep_pruned]. Heuristic lint
            errors always prune, as [lint_pruned]. *)
    symbolic : bool;
        (** Gate points through the pre-elaboration symbolic refutation
            predicate (default on). Effective only when [absint] is on
            (otherwise pruning would change the result set) and fault
            injection is not armed. Symbolically refuted points count as
            [sym_pruned] and are never generated; every other point runs
            the full pipeline. *)
    jobs : int;
        (** Workers (default 1): the calling domain and [jobs - 1]
            spawned domains, so at 1 none is spawned. *)
    tick_every : int;  (** Progress tick on stderr every N points; 0 off. *)
    checkpoint : string option;  (** JSONL checkpoint path. *)
    checkpoint_every : int;  (** Periodic write cadence; 0 = only at end. *)
    resume : bool;  (** Reuse entries from [checkpoint] before computing. *)
    deadline_seconds : float option;  (** Stop consuming points after this. *)
    stop_requested : (unit -> bool) option;
        (** Cooperative cancellation hook, polled after every consumed
            point (all jobs levels). Returning [true] stops the sweep
            exactly like an expired deadline: the result is flagged
            [truncated] and the final checkpoint is still written, so a
            cancelled sweep resumes where it stopped. The DSE server's
            [dse_cancel] and graceful shutdown both ride this hook. A hook
            that raises is treated as a stop request. *)
  }

  val max_jobs : int
  (** Upper bound accepted for [jobs] (64). *)

  val make :
    ?seed:int ->
    ?max_points:int ->
    ?absint:bool ->
    ?symbolic:bool ->
    ?jobs:int ->
    ?tick_every:int ->
    ?checkpoint:string ->
    ?checkpoint_every:int ->
    ?resume:bool ->
    ?deadline_seconds:float ->
    ?stop_requested:(unit -> bool) ->
    unit ->
    t
  (** Every field defaults to the paper's settings (seed 2016, up to
      75,000 sampled points, proof pruning and the symbolic gate on, one
      job, a tick every 1,000 points, a checkpoint flush every 500). The
      result is validated: raises [Failure] with a CLI-renderable message
      on [resume] without [checkpoint], [jobs] outside [1, max_jobs],
      negative budgets or cadences, or a non-finite/negative deadline. *)
end

val run :
  Config.t ->
  Eval.t ->
  space:Space.t ->
  generate:(Space.point -> Dhdl_ir.Ir.design) ->
  result
(** [run config ev ~space ~generate] — the single sweep entry point.
    Each point goes through {!Eval.evaluate} on [ev], so designs already
    proven or estimated — by an earlier sweep, a resumed session, or a
    concurrent server request sharing the same [Eval.t] — skip those
    stages via the design-key caches ([cache_hits]/[cache_misses] in the
    result account for both).

    {b The contract on [generate].} When [space] carries dataset sizes
    (every registry app's [space sizes] does), [generate] must be that
    app's generator at those sizes, or a wrapper that elaborates the same
    designs: [ev]'s point index files each point's design key under the
    space's {!Space.family}, so a point this [Eval.t] has seen in that
    family, in any sweep or served request, reaches the caches without
    being generated, and a warm re-sweep generates nothing: its gate is
    {!Eval.gate}'s memo of the family. A space made without sizes has no
    family, every point is generated and the gate is derived afresh, as
    before.
    Each generated design runs through {!Dhdl_lint.Lint.check} against
    the estimator's device and points with error-level diagnostics are
    pruned before estimation. Errors split by origin: points with
    heuristic lint errors count in [lint_pruned]; points whose errors
    include an abstract-interpretation proof ({!Dhdl_lint.Lint.proof_codes}:
    L009 out-of-bounds, L010 bank conflict) count in [absint_pruned];
    points whose only errors are dependence refutations of the chosen
    parallelization (L013) count in [dep_pruned]. With [config.absint]
    off the proof passes are skipped.

    {b Symbolic gate.} When [config.symbolic] and [config.absint] are
    both on and fault injection is idle, the sweep
    first derives one symbolic constraint system per design-family
    skeleton from a small fixed-seed probe sample ({!Symgate.derive},
    recorded under the [dse.symgate] span) and consults it before each
    point's pipeline: symbolically refuted points become
    {!Outcome.Sym_pruned} without ever being generated, and every other
    point runs the full pipeline. The gate is derived once, before any
    worker starts, so parallel and resumed sweeps keep their
    bit-identity guarantees; a checkpoint written with the gate on
    differs from one written with it off only in entries' pruned kind
    ([sym_pruned] vs [absint_pruned]/[dep_pruned]).

    {b One loop at every jobs level.} Workers claim contiguous runs of
    16 point indices (a {e chunk}) from a shared atomic cursor and
    evaluate each chunk into a buffer only they own. A worker that
    finishes a chunk takes the sweep's one record lock, files the chunk
    by its chunk number, and records every filed chunk that is now next
    in sampling-index order. Worker 0 is the calling domain and
    [config.jobs - 1] domains are spawned: with [config.jobs = 1] no
    domain is spawned and each chunk is recorded as soon as it is
    computed, so a process may still fork after such a sweep. Because sampling is
    seeded, fault sites are keyed per point index
    ({!Dhdl_util.Faults.with_key}) and the pipeline shares no mutable
    per-sweep state (the {!Eval} caches memoize pure functions of the
    design key), the result — evaluations, failures, Pareto set,
    counters — and its checkpoint file are {e bit-identical} at every
    jobs level and cache temperature; only
    [elapsed_seconds]/[cpu_seconds] differ. The estimator and generator
    must not hide process-global mutable state for this to hold (every
    in-tree app and the estimator satisfy this). Spawned workers'
    telemetry lands in per-domain scratch buffers
    ({!Dhdl_obs.Obs.with_domain_buffer}), and only the holder of the
    record lock writes the checkpoint file.

    {b Failure.} An exception in any worker — a failed checkpoint flush
    ([Sys_error] naming the file), a failed [Domain.spawn] — stops every
    worker, and nothing is recorded after it. [run] re-raises the first
    one unchanged, and only once every spawned domain has been joined,
    so no worker outlives the call.

    {b Fault isolation.} Each point runs inside an exception barrier: an
    exception from the generator, the lint pass, or the estimator — or an
    estimate containing non-finite or negative values — is recorded as a
    {!failure} (classified by {!failure_stage}) and the sweep continues.
    The {!Dhdl_util.Faults} sites [dse.generator] / [dse.lint] /
    [dse.estimator] / [dse.non_finite], keyed by point index, inject
    deterministic faults into each barrier for testing.

    {b Checkpoint / resume.} With [config.checkpoint = Some path] the
    sweep writes [path] (JSONL, see {!Checkpoint}) every
    [checkpoint_every] processed points (default 500; [0] disables
    periodic writes) and once at the end: the first write replaces the
    file atomically, later ones append the new entries. With [config.resume = true] it
    first loads [path] (if present), validates that the checkpoint belongs
    to this exact sweep (space, seed, max_points, sample count, parameter
    names — raising [Failure] otherwise), and reuses its entries instead
    of recomputing them ([resumed] counts reuses). Because sampling is
    seeded and fault sites are keyed by index, a resumed sweep produces
    evaluations structurally identical to an uninterrupted one — at any
    jobs level, including resuming a sequential checkpoint in parallel or
    vice versa.

    {b Deadline.} With [config.deadline_seconds = Some d] the sweep stops
    consuming points once [d] seconds have elapsed, flags the result
    [truncated], and still writes a final checkpoint — so a later resume
    finishes the job. Under [jobs > 1] the deadline stops every worker
    from pulling further indices; already-completed chunks beyond a
    truncation gap are recorded after the join (the checkpoint addresses
    entries by index, so a resume reuses them all).

    When the {!Dhdl_obs.Obs} sink is enabled the sweep records counters
    ([dse.points_sampled] / [dse.lint_pruned] / [dse.absint_pruned] /
    [dse.dep_pruned] / [dse.sym_pruned] / [dse.estimated] /
    [dse.unfit] / [dse.cache.hit] / [dse.cache.miss] / [dse.cache.evict]
    / [dse.symgate.hit] / [dse.symgate.miss] / [dse.index.hit] /
    [dse.index.miss] / [dse.index.evict]
    / [dse.failed.generator] / [dse.failed.lint] /
    [dse.failed.estimator] / [dse.failed.non_finite] — all pre-registered
    at zero — plus [dse.resumed] on resume; each outcome is counted
    once, when it is recorded, a reused point only under
    [dse.resumed]), a [dse.ms_per_design] histogram over estimated
    points, the [dse.reorder.max_occupancy] gauge (the most chunks ever
    parked ahead of an unrecorded one), and a progress tick on stderr
    every [tick_every] points (default 1000).

    {b Spans.} The sink is also the sweep's only timer. A [dse.run] span
    covers the whole call. Setup is [dse.sample], [dse.resume] (the
    checkpoint load), [dse.symgate] and, at the end, [dse.pareto]. Each
    worker's loop is a [dse.worker] span (attribute [worker], its index)
    on its own track: 0 for worker 0, on the calling domain, and [k] for
    spawned worker [k]. Inside it every computed point is a [dse.point]
    span, a wait for the record lock a [dse.lock_wait] span (only when
    [Mutex.try_lock] fails, so never at [jobs = 1]) and each recording
    under the lock a [dse.record] span, which holds the periodic
    [dse.checkpoint] writes. Recording past a truncation gap is one more
    [dse.record] and the final flush one more [dse.checkpoint], both
    after the join. {!Profile.of_snapshot} turns these spans into lanes.
    Spawned workers record into their own domain buffers, so during a
    sweep only worker 0 takes the sink mutex and the telemetry adds no
    contention between workers. Spans never touch the pipeline's inputs,
    so results and checkpoints are bit-identical with the sink on or
    off. With the sink disabled (the default) none of this costs a clock
    read. *)

val unfit_count : result -> int
(** Evaluated points that do not fit the device ([valid = false]) —
    distinct from [lint_pruned], which never reached the estimator. *)

val failed_count : result -> int
(** [List.length r.failures]. *)

val failure_counts : result -> (failure_stage * int) list
(** Failures bucketed by stage, every stage present (possibly at 0). *)

val best : result -> evaluation option
(** Fastest valid design (first Pareto point by cycles). *)

val pareto_of : evaluation list -> evaluation list
(** Frontier minimizing (cycles, ALM%) over valid evaluations. *)

val seconds_per_design : result -> float
(** Average {e wall-clock} time per design point that actually produced an
    estimate — lint-pruned and failed points skip or abort the estimator
    and would deflate the metric (Table IV's metric). With [jobs > 1] this
    can shrink with the worker count. *)

val cpu_seconds_per_design : result -> float
(** Average {e process CPU} time per estimated design point
    ([cpu_seconds] over successful evaluations). With [jobs > 1] it
    includes every domain's coordination, so it is not comparable with
    the [jobs = 1] figure. *)

val to_csv : result -> string
(** The successful evaluations as CSV (one row per estimated point:
    parameters, estimated cycles, ALM/DSP/BRAM utilization, validity,
    Pareto membership) — the raw data behind a Figure 5 panel, ready for
    external plotting. *)
