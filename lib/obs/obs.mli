(** Telemetry core: hierarchical spans, counters / gauges / histograms, and
    three exporters (summary table, JSONL event log, Chrome [trace_event]
    JSON loadable in chrome://tracing or Perfetto).

    The sink is a process-global ambient singleton so hot paths can be
    instrumented without threading a handle through every signature. It is
    disabled by default: every recording entry point first checks one
    mutable flag and returns immediately, so instrumented code pays no
    allocation and no lock when telemetry is off. When enabled, mutation of
    the sink is serialized by a mutex (safe under domains; span nesting
    depth is tracked globally, so spans from concurrent domains interleave
    their depths but never corrupt the sink).

    Spans carry a {e track} identity (an integer lane, 0 = the main
    domain) assigned by {!with_domain_buffer}, so the Chrome exporter
    renders one lane per worker domain instead of a single interleaved
    track. Histogram sample buffers are bounded: each histogram keeps at
    most [hist_cap] samples, drawn uniformly from the full stream by a
    deterministic per-histogram seeded reservoir (algorithm R), while the
    true stream length is tracked exactly and exported alongside the
    sampled percentiles. *)

type attrs = (string * string) list

type span = {
  sp_name : string;
  sp_start_us : float;  (** Start, microseconds since [enable]. *)
  sp_dur_us : float;  (** Duration in microseconds. *)
  sp_depth : int;  (** Nesting depth; 0 for root spans. *)
  sp_seq : int;  (** Start-order sequence number (stable sort key). *)
  sp_track : int;
      (** Lane identity: 0 for spans recorded on the calling domain's
          global path, the [track] given to {!with_domain_buffer} for
          buffered spans. Rendered as the Chrome trace [tid]. *)
  sp_attrs : attrs;
}

type snapshot = {
  snap_spans : span list;  (** In start order. *)
  snap_counters : (string * int) list;  (** Sorted by name. *)
  snap_gauges : (string * float) list;  (** Sorted by name. *)
  snap_hists : (string * float array) list;
      (** Sorted by name; the {e kept} (reservoir-sampled) samples in
          insertion order. *)
  snap_hist_totals : (string * int) list;
      (** Sorted by name; the true number of [observe] calls per
          histogram, [>=] the kept sample count. *)
}

(** {1 Lifecycle} *)

val default_hist_cap : int
(** Default bound on kept samples per histogram (8192). *)

val enable : ?clock:(unit -> float) -> ?hist_cap:int -> unit -> unit
(** Install a fresh live sink (discarding any previous one). [clock]
    defaults to [Unix.gettimeofday]; tests inject a deterministic clock.
    [hist_cap] (default {!default_hist_cap}, clamped to [>= 1]) bounds the
    kept samples per histogram. Timestamps are recorded relative to the
    moment of [enable]. *)

val disable : unit -> unit
(** Drop the sink; instrumented paths return to the no-op fast path. *)

val enabled : unit -> bool

(** {1 Recording} *)

val span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [span name f] times [f] and records a completed span (also on
    exception). When disabled this is exactly [f ()]. *)

val count : ?by:int -> string -> unit
(** Increment a named counter. [count ~by:0 name] registers the counter at
    zero without incrementing (so reports show it even when never hit). *)

val counter_value : string -> int
(** Current value, 0 when absent or disabled. *)

val gauge : string -> float -> unit
(** Set a named gauge to its latest value. *)

val observe : string -> float -> unit
(** Append a sample to a named histogram (e.g. per-design estimation ms).
    Past [hist_cap] samples the histogram keeps a uniform reservoir and
    the exact total count; percentiles become sampled estimates. *)

val tick : ?every:int -> label:string -> total:int -> int -> unit
(** [tick ~label ~total i] prints a progress line to stderr every [every]
    (default 1000) increments while enabled; no-op when disabled. *)

val with_domain_buffer : ?track:int -> (unit -> 'a) -> 'a
(** [with_domain_buffer ?track f] runs [f] with a domain-local scratch
    buffer installed: {!span}, {!count} and {!observe} from the calling
    domain record into the buffer without touching the sink mutex, and the
    buffer is merged into the global sink under a single lock acquisition
    when [f] returns (also on exception). Parallel DSE worker domains wrap
    their whole work loop in this so per-point telemetry never contends
    on the hot path. [track] (default 0) tags the buffered spans' lane
    identity: a sweep passes each spawned worker's index [k >= 1], and
    worker 0, on the calling domain, records on track 0. Counter totals
    merge exactly; histogram reservoirs merge by replaying the kept
    samples into the global reservoir with the dropped remainder added to
    the true count; buffered spans receive fresh global sequence numbers
    at flush time, in the order they started, so they sort after spans
    already in the sink and a parent before its children. The time the
    flush spends waiting for the sink mutex is recorded in the
    [obs.flush_wait_us] histogram — the only self-contention the profiler
    can add, kept measurable on purpose. {!counter_value} and {!snapshot}
    only see the buffer's contents after the flush. Scopes nest (inner
    flushes restore the outer buffer); with the sink disabled this is
    exactly [f ()]. *)

val fresh_track : unit -> int
(** Allocate a fresh {e request} lane: a track id from a process-wide
    counter starting at 100 (reset by {!enable}), a range the exporters
    render as ["request N"] instead of ["worker N"]. Safe from any
    domain. *)

val with_request_track : ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [with_request_track name f] runs [f] under {!with_domain_buffer} on a
    {!fresh_track} lane with one root {!span} [name] covering all of it —
    the per-request wrapper the DSE server puts around each handler, so a
    single Chrome trace shows every request on its own lane. Exactly
    [f ()] when the sink is disabled. *)

(** {1 Export} *)

val snapshot : unit -> snapshot
(** Copy of the sink's current contents; empty when disabled. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile (argument in percent, e.g. [95.0]) over a copy
    of the samples; 0 on empty input. *)

val render_summary : snapshot -> string
(** Human-readable tables: counters, gauges, histogram aggregates
    (true count / kept samples / mean / p50 / p95 / max) and per-name
    span rollups. *)

val to_jsonl : snapshot -> string
(** One JSON object per line: spans in start order (with their [track]),
    then counters, gauges, and histogram aggregates ([count] is the true
    total, [sampled] the kept reservoir size). Times and values are
    written with three decimals; a non-finite one, which JSON cannot
    hold, is written [null]. *)

val to_chrome_trace : snapshot -> string
(** Chrome [trace_event] JSON ("X" complete events for spans, "C" counter
    events), loadable in chrome://tracing and Perfetto. Each span track
    becomes its own [tid] lane with a [thread_name] metadata record
    ("main" for track 0, "worker N" for low tracks, "request N" for
    {!fresh_track} lanes); counters and gauges render on track 0. *)

val summary_of_jsonl : string -> (string, string) result
(** Re-render the {!render_summary} tables from a previously exported
    {!to_jsonl} event log (e.g. recorded by [dhdl dse --jsonl] on a CI
    box), without re-running the workload. Histogram rows reuse the
    recorded aggregates, and a [null] where a number belongs reads as
    nan. [Error msg] names the first malformed line. *)
