(** Contention-aware sweep attribution: where every worker-second and
    collector-second of a profiled {!Explore.run} went.

    The taxonomy (see DESIGN.md):
    {ul
    {- worker time splits into [generate] (design elaboration),
       [cache-probe] (deriving design keys and probing/filling the
       {!Eval} caches), [analyze] (lint + abstract interpretation),
       [estimate] (the area/cycle/NN estimator), [send-block] (blocked acquiring the
       collector-channel mutex — {e contention}), and [idle] (the residual:
       cursor claims, fault-key bookkeeping, loop overhead — {e stall});}
    {- collector time splits into [recv-block] (blocked waiting for worker
       messages), [checkpoint write], and [merge] (releasing outcomes and
       accounting — the residual);}
    {- the reorder buffer reports the total latency outcomes spent parked
       out of sampling-index order (this {e overlaps} recv-block: the
       collector is usually blocked while an entry is parked) plus its
       peak occupancy;}
    {- at [jobs = 1] the collector is the one worker's own hand-off of
       each chunk: its wall is the time spent recording outcomes and
       writing the checkpoint, which the worker's wall leaves out, and
       recv-block, reorder-stall and send-block are 0.}}

    Attribution is measured with plain [Unix.gettimeofday] stamps
    accumulated into per-worker records that only the owning domain
    writes, so profiling itself adds no cross-domain contention; it is
    entirely independent of the {!Dhdl_obs.Obs} sink (which, when also
    enabled, additionally receives wait histograms and per-domain
    counters). *)

type worker = {
  w_domain : int;  (** Worker index, 0-based ([jobs = 1] has exactly one). *)
  w_points : int;
      (** Points this worker computed. Points reused from a checkpoint
          count for no worker, so the workers' sum is
          [processed - resumed] at every jobs level. *)
  w_wall_s : float;  (** The worker's own wall-clock span. *)
  w_generate_s : float;
  w_probe_s : float;
      (** Design-key derivation + {!Eval} cache probes and fills — kept
          apart from [w_analyze_s] so memoization overhead never
          masquerades as analysis work. *)
  w_analyze_s : float;  (** Lint + absint + dependence checking (misses only). *)
  w_estimate_s : float;
  w_send_block_s : float;  (** Blocked sending to the collector channel. *)
  w_idle_s : float;  (** Residual: [wall - (the five above)], clamped at 0. *)
}

type collector = {
  c_wall_s : float;
  c_recv_block_s : float;  (** Blocked waiting on the channel. *)
  c_reorder_stall_s : float;
      (** Total time outcomes sat parked in the reorder buffer waiting for
          a preceding index; overlaps [c_recv_block_s]. *)
  c_write_s : float;  (** Checkpoint serialization + file writes. *)
  c_merge_s : float;  (** Residual: releasing/accounting outcomes. *)
}

type t = {
  jobs : int;
  wall_s : float;  (** Whole-sweep wall clock. *)
  workers : worker list;  (** One per worker domain, in index order. *)
  collector : collector;
  max_queue_depth : int;  (** Peak collector-channel queue length. *)
  max_reorder_occupancy : int;  (** Peak parked entries in the reorder buffer. *)
}

val worker_seconds : t -> float
(** Sum of per-worker wall spans (the denominator of scaling math). *)

val work_fraction : t -> float
(** Share of accounted worker time doing real work
    (generate + cache-probe + analyze + estimate). *)

val contention_fraction : t -> float
(** Share of accounted worker time blocked on shared resources
    (send-block). *)

val stall_fraction : t -> float
(** Share of accounted worker time idle (the residual category).
    [work_fraction + contention_fraction + stall_fraction = 1.0] exactly
    (fractions are taken over the accounted sum, not raw wall time). *)

val contenders : t -> (string * float) list
(** Seconds lost per contended resource: collector-channel send / recv,
    reorder buffer, checkpoint write. *)

val top_contender : t -> string * float
(** The {!contenders} entry with the most seconds ([("none", 0.)] when
    nothing waited). *)

val render : t -> string
(** Human-readable attribution report: headline fractions, top contended
    resource, a per-worker table, and the collector breakdown. *)

val to_json : t -> string
(** The whole record as one JSON object (fractions included), embeddable
    in [dhdl profile --json] and BENCH_dse.json. *)
