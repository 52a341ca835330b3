(** Contention-aware sweep attribution: where every worker-second and
    collector-second of a profiled {!Explore.run} went.

    The taxonomy (see DESIGN.md):
    {ul
    {- worker time splits into [generate] (design elaboration),
       [cache-probe] (deriving design keys and probing/filling the
       {!Eval} caches), [analyze] (lint + abstract interpretation),
       [estimate] (the area/cycle/NN estimator), [send-block] (waiting
       for the sweep's record lock while another worker records —
       {e contention}; timed only when [Mutex.try_lock] fails, so exactly
       0 at [jobs = 1]), and [idle] (the residual: cursor claims,
       fault-key bookkeeping, loop overhead — {e stall});}
    {- the collector is no thread of its own: it is every second any
       worker spent recording chunks under the record lock, split into
       [checkpoint write] and [merge] (recording outcomes and accounting
       — the residual). Each worker's wall leaves its own recording
       seconds out, so at [jobs = 1] the worker's wall plus the
       collector's is the sweep's wall;}
    {- [max_reorder_occupancy] is the most chunks ever parked: filed
       ahead of an earlier chunk that was still being computed (0 at
       [jobs = 1], where chunks finish in index order).}}

    Attribution is measured with plain [Unix.gettimeofday] stamps
    accumulated into per-worker records that only the owning domain
    writes, or under the record lock the sweep takes anyway, so
    profiling itself adds no cross-domain contention; it is entirely
    independent of the {!Dhdl_obs.Obs} sink (which, when also enabled,
    additionally receives the occupancy gauge and per-worker
    counters). *)

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
      (** Design-key derivation + {!Eval} cache probes and fills — kept
          apart from [w_analyze_s] so memoization overhead never
          masquerades as analysis work. *)
  w_analyze_s : float;  (** Lint + absint + dependence checking (misses only). *)
  w_estimate_s : float;
  w_send_block_s : float;  (** Waiting for the record lock. *)
  w_idle_s : float;  (** Residual: [wall - (the five above)], clamped at 0. *)
}

type collector = {
  c_wall_s : float;  (** Seconds spent recording, summed over workers. *)
  c_write_s : float;  (** Checkpoint serialization + file writes. *)
  c_merge_s : float;  (** Residual: recording/accounting outcomes. *)
}

type t = {
  jobs : int;
  wall_s : float;  (** Whole-sweep wall clock. *)
  workers : worker list;  (** One per worker, in index order (worker 0 is the calling domain). *)
  collector : collector;
  max_reorder_occupancy : int;  (** Peak chunks parked ahead of an unrecorded one. *)
}

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

val contenders : t -> (string * float) list
(** Seconds lost per contended resource: the record lock (send-block
    summed over workers) and the checkpoint write. *)

val top_contender : t -> string * float
(** The {!contenders} entry with the most seconds ([("none", 0.)] when
    nothing waited). *)

val render : t -> string
(** Human-readable attribution report: headline fractions, top contended
    resource, a per-worker table, and the collector breakdown with the
    peak parked chunks. *)

val to_json : t -> string
(** The whole record as one JSON object (fractions included), embeddable
    in [dhdl profile --json] and BENCH_dse.json. *)
