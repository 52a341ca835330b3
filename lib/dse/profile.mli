(** Contention-aware sweep attribution: where every second of an
    {!Explore.run} went, read from the {!Dhdl_obs.Obs} spans the sweep
    records. This is the only code that turns spans into lanes; a sweep
    has no other timer.

    The taxonomy (see DESIGN.md):
    {ul
    {- [setup]: the run's own [dse.sample], [dse.resume] (checkpoint
       load), [dse.symgate] (gate derivation or memo hit) and
       [dse.pareto] spans;}
    {- a worker: the spans on its track inside its [dse.worker] span.
       [generate], [analyze] (lint + abstract interpretation) and
       [estimate] are the [eval.generate], [eval.analyze] and
       [estimate] spans; [cache-probe] is the rest of its [dse.point]
       spans; [send-block] is [dse.lock_wait], the wait for the record
       lock ({e contention}; exactly 0 at [jobs = 1]); [idle] is the
       residual ({e stall}). Its wall leaves out its [dse.record]
       spans, which are the collector's;}
    {- the collector: every [dse.record] span plus the final checkpoint
       flush, split into [checkpoint write] (the [dse.checkpoint] spans)
       and [merge] (the residual). At [jobs = 1] setup, the worker's
       wall and the collector's make the [dse.run] span;}
    {- [max_reorder_occupancy]: the [dse.reorder.max_occupancy] gauge,
       the most chunks ever parked ahead of one still being computed (0
       at [jobs = 1]).}} *)

module Obs = Dhdl_obs.Obs

type worker = {
  w_domain : int;  (** Worker index, 0-based ([jobs = 1] has exactly one). *)
  w_points : int;
      (** Points this worker computed. Points reused from a checkpoint
          count for no worker, so the workers' sum is
          [processed - resumed] at every jobs level. *)
  w_wall_s : float;
      (** The worker's own wall-clock span, less the seconds it spent
          recording (those are the collector's). *)
  w_generate_s : float;
  w_probe_s : float;
      (** The gate verdict, design-key derivation and {!Eval} cache
          probes and fills: [dse.point] time outside the generate,
          analyze and estimate spans, kept apart from [w_analyze_s] so
          memoization overhead never masquerades as analysis work. *)
  w_analyze_s : float;  (** Lint + absint + dependence checking (misses only). *)
  w_estimate_s : float;
  w_send_block_s : float;  (** Waiting for the record lock. *)
  w_idle_s : float;  (** Residual: [wall - (the five above)], clamped at 0. *)
}

type collector = {
  c_wall_s : float;  (** Seconds spent recording, summed over workers, plus the final flush. *)
  c_write_s : float;  (** Checkpoint file writes ([dse.checkpoint]). *)
  c_merge_s : float;  (** Residual: recording outcomes and rendering checkpoint entries. *)
}

type t = {
  jobs : int;
  wall_s : float;  (** Whole-sweep wall clock: the [dse.run] span. *)
  setup_s : float;  (** Sampling, checkpoint load, gate and Pareto front. *)
  workers : worker list;  (** One per worker, in index order (worker 0 is the calling domain). *)
  collector : collector;
  max_reorder_occupancy : int;  (** Peak chunks parked ahead of an unrecorded one. *)
}

val of_snapshot : Obs.snapshot -> t option
(** The attribution of the most recent [dse.run] in the snapshot, from
    the spans that start inside it, or [None] when the snapshot holds no
    sweep (the sink was off). Read it right after the sweep: a later
    sweep becomes the most recent. *)

val worker_seconds : t -> float
(** Sum of per-worker wall spans (the denominator of scaling math). *)

val work_fraction : t -> float
(** Share of accounted worker time doing real work
    (generate + cache-probe + analyze + estimate). *)

val contention_fraction : t -> float
(** Share of accounted worker time blocked on the record lock
    (send-block). *)

val stall_fraction : t -> float
(** Share of accounted worker time idle (the residual category).
    [work_fraction + contention_fraction + stall_fraction = 1.0] exactly
    (fractions are taken over the accounted sum, not raw wall time). *)

val top_contender : t -> string * float
(** The contended resource with the most seconds lost to it — the record
    lock (send-block summed over workers) or the checkpoint write — or
    [("none", 0.)] when nothing waited. *)

val render : t -> string
(** Human-readable attribution report: headline fractions, top contended
    resource, a per-worker table, and the collector breakdown with the
    peak parked chunks. *)

val to_json : t -> string
(** The whole record as one JSON object (fractions included), embeddable
    in [dhdl profile --json] and BENCH_dse.json. *)
