(** The DSE server's supervisor: session table, admission control, and
    the single worker that executes requests.

    The supervisor owns a bounded pending queue fed by {!submit} (called
    from the socket event loop or directly by in-process tests) and
    drained by one worker domain ({!start}); long-running sweeps run on
    their own domains, tracked in the session table and cancellable
    through the {!Dhdl_dse.Explore} [stop_requested] hook. The robustness
    contract, layer by layer:

    - {b Admission control}: when the pending queue holds
      [queue_capacity] requests, {!submit} sheds the request with a typed
      [overloaded] reply carrying a [retry_after_ms] hint — it never
      blocks the event loop and never drops silently.
    - {b Deadlines}: a request's [deadline_ms] is measured from
      admission. Work still queued when it expires answers
      [deadline_exceeded]; a [dse_start]'s remaining budget becomes the
      sweep's deadline, so an over-budget sweep truncates, checkpoints,
      and stays resumable.
    - {b Degradation}: when the queue is [degrade_depth] deep at
      dispatch time, or the [estimator.nn_fallback] counter has tripped
      [nn_fallback_limit] times since startup, estimate requests answer
      from the raw analytical model and flag [degraded: true].
    - {b Idempotent retries}: final replies are cached by request id, so
      a client resending an id (after a timeout it cannot distinguish
      from loss) gets the original reply, not a re-execution.
      [overloaded]/[draining] rejections are not cached.
    - {b Quarantine}: a request whose handler crashes
      [quarantine_threshold] times (each attempt re-rolled via the
      [serve.handler] fault site keyed by (id, attempt)) is parked with a
      [quarantined] reply carrying its full error chain.
    - {b Crash-only sessions}: all sweep state lives in {!Session}
      directories; {!drain} cancels running sweeps so they checkpoint,
      and a [kill -9] loses at most the entries since the last periodic
      checkpoint write.

    Expected handler errors ([Failure] from bad arguments, unknown
    benchmarks, missing fields) are [bad_request] replies, not crashes —
    only escaping exceptions count toward quarantine. The estimate,
    estimate_batch, lint and analyze handlers ask {!Dhdl_apps.Request},
    which checks each binding and turns what a checked point still
    raises into such a [Failure], so no binding a client sends can crash
    a handler.

    Every estimate — the [estimate] verb, each [estimate_batch] item, and
    every point of every sweep the supervisor starts — goes through one
    shared {!Dhdl_dse.Eval.t} wrapping [config.estimator], so its
    design-key caches are {e cross-request}: a design proved or estimated
    for one client answers the next client (or the next sweep) from the
    cache. Degraded estimates bypass it by design. *)

type config = {
  sessions_root : string;  (** Directory holding {!Session} state. *)
  estimator : Dhdl_model.Estimator.t Lazy.t;
      (** Forced on first use, from the worker domain only. *)
  queue_capacity : int;  (** Pending-queue bound; over it = [overloaded]. *)
  degrade_depth : int;  (** Queue depth at dispatch that degrades estimates. *)
  quarantine_threshold : int;  (** Handler crashes before a request is parked. *)
  nn_fallback_limit : int;
      (** [estimator.nn_fallback] trips (measured via the Obs counter,
          so only meaningful with the sink enabled) after which estimates
          degrade; [0] disables this trigger. *)
  dse_jobs : int;  (** Worker domains per sweep. *)
  dse_checkpoint_every : int;  (** Sweep checkpoint cadence (points). *)
}

val default_config :
  sessions_root:string -> estimator:Dhdl_model.Estimator.t Lazy.t -> config
(** [queue_capacity 64], [degrade_depth 16], [quarantine_threshold 3],
    [nn_fallback_limit 25], [dse_jobs 1], [dse_checkpoint_every 8]. *)

type t

val create : config -> t
(** Build the supervisor without starting the worker — requests submitted
    before {!start} queue up (the admission tests rely on this). *)

val start : t -> unit
(** Spawn the worker domain. Idempotent. *)

val submit : t -> Protocol.request -> reply_to:(Protocol.reply -> unit) -> unit
(** Admit one request. [reply_to] is invoked exactly once per call —
    immediately for cached/[overloaded]/[draining] outcomes, from the
    worker otherwise. It may be called from the worker domain and must
    not raise (a raise is swallowed so a dead connection cannot kill the
    worker). *)

val draining : t -> bool
(** Set by a [shutdown] request or {!drain}; new submissions answer
    [draining]. *)

val queue_depth : t -> int

val drain : t -> unit
(** Graceful shutdown: refuse new work, finish every queued request,
    stop the worker, cancel running sweeps (they truncate and write a
    final checkpoint), and join every domain. Safe to call twice. *)
