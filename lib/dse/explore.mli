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

    Sweeps are configured through a {!Config.t} record (defaults +
    [with_*] builders) and, with [Config.jobs] > 1, run on a pool of
    worker domains that claim contiguous index {e chunks} and whose
    outcome chunks a collector merges back in sampling-index order —
    results and checkpoint files are bit-identical across every jobs
    level, chunk size, and {!Eval} cache temperature.

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
  jobs : int;  (** Worker domains the sweep ran with (1 = sequential). *)
  elapsed_seconds : float;  (** Wall-clock duration of the whole sweep. *)
  cpu_seconds : float;
      (** Aggregate CPU seconds spent inside point pipelines, summed over
          all workers — equals roughly [elapsed_seconds] when [jobs = 1]
          and up to [jobs ×] it when parallel. *)
  cache_hits : int;
      (** {!Eval} cache hits (analysis + estimate) during this sweep: the
          delta of {!Eval.stats} across the run. With a shared [Eval.t]
          under concurrent sweeps the attribution of a hit to one sweep
          is approximate; totals across sweeps are exact. *)
  cache_misses : int;  (** Counterpart of [cache_hits]. *)
  attribution : Profile.t option;
      (** Where every worker- and collector-second went ([Some] iff
          [Config.profile] was set): per-worker
          {generate, analyze, estimate, send-block, idle} and collector
          {recv-block, reorder-stall, write, merge} accounting, plus peak
          channel queue depth and reorder-buffer occupancy. See
          {!Profile}. *)
}

(** Sweep configuration: one validated record instead of the
    labelled-optional-argument signature [run] used to have. Start from
    {!Config.default} (the paper's settings: seed 2016, up to 75,000
    sampled points, lint pruning on, sequential) and refine with the
    [with_*] builders, or construct in one call with {!Config.make}. *)
module Config : sig
  type t = {
    seed : int;  (** Sampling seed (the paper uses 2016). *)
    max_points : int;  (** Sampling budget (the paper's cap is 75,000). *)
    lint : bool;  (** Prune error-level heuristic lint diagnostics. *)
    absint : bool;
        (** Prune points the proof-backed passes refute: L009/L010
            abstract-interpretation errors count as [absint_pruned],
            L013 dependence refutations as [dep_pruned]. Runs the proof
            passes alone when [lint] is off. *)
    symbolic : bool;
        (** Gate points through the pre-elaboration symbolic refutation
            predicate (default on). Effective only when [lint] and
            [absint] are both on (otherwise pruning would change the
            result set) and fault injection is not armed. Symbolically
            refuted points count as [sym_pruned] and are never
            generated; every other point runs the full pipeline. *)
    jobs : int;  (** Worker domains; 1 (default) = sequential. *)
    chunk : int;
        (** Points per cursor claim and per worker→collector message when
            [jobs > 1] (default 16). Larger chunks cut channel traffic
            and wakeups; smaller chunks balance load better near the end
            of a sweep. No effect on results: the collector releases
            chunks in index order, so entries and checkpoints stay
            bit-identical across chunk sizes. Ignored when [jobs = 1]. *)
    tick_every : int;  (** Progress tick on stderr every N points; 0 off. *)
    checkpoint : string option;  (** JSONL checkpoint path. *)
    checkpoint_every : int;  (** Periodic write cadence; 0 = only at end. *)
    resume : bool;  (** Reuse entries from [checkpoint] before computing. *)
    deadline_seconds : float option;  (** Stop consuming points after this. *)
    profile : bool;
        (** Attribute worker/collector time (see {!Profile}); fills
            [result.attribution]. Independent of the Obs sink — when both
            are on, wait histograms and per-domain claim counters are also
            recorded. Off (the default) the sweep pays only a per-stage
            branch, keeping jobs=1 throughput within noise of unprofiled
            builds. *)
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

  val max_chunk : int
  (** Upper bound accepted for [chunk] (65536). *)

  val default : t

  val make :
    ?seed:int ->
    ?max_points:int ->
    ?lint:bool ->
    ?absint:bool ->
    ?symbolic:bool ->
    ?jobs:int ->
    ?chunk:int ->
    ?tick_every:int ->
    ?checkpoint:string ->
    ?checkpoint_every:int ->
    ?resume:bool ->
    ?deadline_seconds:float ->
    ?profile:bool ->
    ?stop_requested:(unit -> bool) ->
    unit ->
    t
  (** Smart constructor: every field defaults to {!default}'s value and the
      result is validated (raises [Failure] with a CLI-renderable message
      on [jobs] outside [1, max_jobs], negative budgets or cadences, a
      non-finite/negative deadline, or [resume] without [checkpoint]). *)

  val with_seed : int -> t -> t
  val with_max_points : int -> t -> t
  val with_lint : bool -> t -> t
  val with_absint : bool -> t -> t
  val with_symbolic : bool -> t -> t

  val with_jobs : int -> t -> t
  (** Raises [Failure] unless [1 <= jobs <= max_jobs]. *)

  val with_chunk : int -> t -> t
  (** Raises [Failure] unless [1 <= chunk <= max_chunk]. *)

  val with_checkpoint : ?every:int -> string -> t -> t
  (** Set the checkpoint path and (optionally) the periodic write cadence. *)

  val with_resume : bool -> t -> t
  (** The [resume]/[checkpoint] pairing is checked when the config is
      consumed by {!run} (or built by {!make}), so builder order between
      [with_resume] and [with_checkpoint] does not matter. *)

  val with_deadline : float -> t -> t

  val with_profile : bool -> t -> t
  (** Toggle time attribution; see {!Profile} and [result.attribution]. *)
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
    being generated, and a warm re-sweep generates nothing, gate probes
    included. A space made without sizes has no family and every point is
    generated, as before.
    When [config.lint] is [true] (the default), each generated design runs
    through {!Dhdl_lint.Lint.check} against the estimator's device and
    points with error-level diagnostics are pruned before estimation.
    Errors split by origin: points with heuristic lint errors count in
    [lint_pruned]; points whose errors include an abstract-interpretation
    proof ({!Dhdl_lint.Lint.proof_codes}: L009 out-of-bounds, L010 bank
    conflict) count in [absint_pruned]; points whose only errors are
    dependence refutations of the chosen parallelization (L013) count in
    [dep_pruned]. With [config.absint] off the proof passes are skipped;
    with [config.lint] off but [config.absint] on, only the proof passes
    run (no validator, no heuristics).

    {b Symbolic gate.} When [config.symbolic], [config.lint] and
    [config.absint] are all on and fault injection is idle, the sweep
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

    {b Parallel sweeps.} With [config.jobs = n > 1], [n] worker domains
    claim contiguous runs of [config.chunk] point indices from a shared
    atomic cursor, evaluate each chunk into a buffer only they own, and
    send the collector (the calling domain) one message per chunk; the
    collector merges whole chunks back in sampling-index order through a
    chunk-granular reorder buffer. Because sampling is seeded, fault
    sites are keyed per point index ({!Dhdl_util.Faults.with_key}) and
    the pipeline shares no mutable per-sweep state (the {!Eval} caches
    memoize pure functions of the design key), the parallel result —
    evaluations, failures, Pareto set, counters — and its checkpoint file
    are {e bit-identical} to the sequential run's at any chunk size and
    cache temperature; only [elapsed_seconds]/[cpu_seconds] differ. The
    estimator and generator must not hide process-global mutable state for
    this to hold (every in-tree app and the estimator satisfy this).
    Worker telemetry lands in per-domain scratch buffers
    ({!Dhdl_obs.Obs.with_domain_buffer}), and only the collector writes
    the checkpoint file.

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
    from pulling further indices; already-completed points beyond a
    truncation gap are kept (the checkpoint addresses entries by index,
    so a resume reuses them all).

    When the {!Dhdl_obs.Obs} sink is enabled the sweep records counters
    ([dse.points_sampled] / [dse.lint_pruned] / [dse.absint_pruned] /
    [dse.dep_pruned] / [dse.sym_pruned] / [dse.estimated] /
    [dse.unfit] / [dse.cache.hit] / [dse.cache.miss] / [dse.cache.evict]
    / [dse.symgate.hit] / [dse.symgate.miss] / [dse.index.hit] /
    [dse.index.miss] / [dse.index.evict]
    / [dse.failed.generator] / [dse.failed.lint] /
    [dse.failed.estimator] / [dse.failed.non_finite] — all pre-registered
    at zero — plus [dse.resumed] on resume), a [dse.ms_per_design]
    histogram over estimator calls, a per-point [dse.point] span for every
    100th point, and a progress tick on stderr every [tick_every] points
    (default 1000). With the sink disabled (the default) none of this
    costs anything.

    {b Profiling.} With [config.profile = true] the sweep additionally
    attributes every worker-second to
    {generate, cache-probe, analyze, estimate, send-block, idle} and every
    collector-second to {recv-block, reorder-stall, write, merge},
    returning the breakdown in [result.attribution] (see {!Profile}).
    Attribution accumulators are owned by exactly one domain each, so
    profiling adds no cross-domain contention and — because it never
    touches the point pipeline's inputs — leaves results and checkpoints
    bit-identical to unprofiled runs at every jobs level. When the Obs
    sink is {e also} enabled, the sweep records [dse.chan.send_wait_us] /
    [dse.chan.recv_wait_us] wait histograms, [dse.chan.max_queue_depth] /
    [dse.reorder.max_occupancy] gauges, and per-domain [dse.claims.w<k>]
    cursor-claim counters. *)

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
    shrinks with the worker count; use {!cpu_seconds_per_design} for a
    number comparable across jobs levels. *)

val cpu_seconds_per_design : result -> float
(** Average {e aggregate-CPU} time per estimated design point
    ([cpu_seconds] over successful evaluations) — invariant to [jobs], so
    throughput stays comparable with sequential and historical BENCH
    entries. *)

val to_csv : result -> string
(** The successful evaluations as CSV (one row per estimated point:
    parameters, estimated cycles, ALM/DSP/BRAM utilization, validity,
    Pareto membership) — the raw data behind a Figure 5 panel, ready for
    external plotting. *)
