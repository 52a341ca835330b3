(** The DSE server's supervisor: session table, admission control, and
    the execution of requests.

    The supervisor owns a bounded pending queue fed by {!submit} and
    emptied one request at a time by {!run_next}, which runs the request
    on the caller's thread: the socket event loop calls both between its
    [select] polls, and in-process callers (tests, benchmarks) drive the
    same two functions. A [t] belongs to that one thread. Only sweeps run
    elsewhere: each [dse_start] spawns a domain for its sweep, tracked in
    the session table and cancellable through the {!Dhdl_dse.Explore}
    [stop_requested] hook. The robustness contract, layer by layer:

    - {b Admission control}: when the pending queue holds
      [queue_capacity] requests, {!submit} sheds the request with a typed
      [overloaded] reply carrying a [retry_after_ms] hint — it never
      blocks the event loop and never drops silently.
    - {b Deadlines}: a request's [deadline_ms] is measured from
      admission ({!submit}; on the server, when the event loop reads the
      request line). Work still queued when it expires answers
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
      [overloaded]/[draining] rejections are not cached. The cache keeps
      the newest {!reply_cache_cap} replies and evicts the oldest first
      (counted as [serve.reply_cache.evict]); an evicted id that comes
      back runs again.
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
      (** Forced on first use, by the thread that runs requests. *)
  queue_capacity : int;  (** Pending-queue bound; over it = [overloaded]. *)
  degrade_depth : int;  (** Queue depth at dispatch that degrades estimates. *)
  quarantine_threshold : int;  (** Handler crashes before a request is parked. *)
  nn_fallback_limit : int;
      (** [estimator.nn_fallback] trips (measured via the Obs counter,
          so only meaningful with the sink enabled) after which estimates
          degrade; [0] disables this trigger. *)
  dse_jobs : int;
      (** Workers per sweep. Not part of a session's identity: a session
          resumes at this server's level whatever level it started at. *)
  dse_checkpoint_every : int;  (** Sweep checkpoint cadence (points). *)
}

val default_config :
  sessions_root:string -> estimator:Dhdl_model.Estimator.t Lazy.t -> config
(** [queue_capacity 64], [degrade_depth 16], [quarantine_threshold 3],
    [nn_fallback_limit 25], [dse_jobs 1], [dse_checkpoint_every 8]. *)

type t

val reply_cache_cap : int
(** How many final replies the idempotency cache keeps: 4,500, the
    replies of {!Client.retry_window_s} at 4,000 replies a second. *)

val create : config -> t
(** Build the supervisor. Submitted requests queue until {!run_next}
    runs them. *)

val submit : t -> Protocol.request -> reply_to:(Protocol.reply -> unit) -> unit
(** Admit one request. [reply_to] is invoked exactly once per call —
    before [submit] returns for cached/[overloaded]/[draining] outcomes,
    from the {!run_next} that runs the request otherwise. It must not
    raise (a raise is swallowed, so a dead connection cannot fail the
    caller). *)

val run_next : t -> bool
(** Run the oldest queued request to its final reply on the caller's
    thread, deliver it, and return [true]; [false] when nothing is
    queued. Blocks for as long as the handler runs (a [dse_cancel] also
    waits for its sweep's final checkpoint). *)

val draining : t -> bool
(** Set by a [shutdown] request or {!drain}; new submissions answer
    [draining]. *)

val queue_depth : t -> int

val drain : t -> unit
(** Graceful shutdown: refuse new work, run every queued request, cancel
    running sweeps (they truncate and write a final checkpoint), and join
    their domains. Safe to call twice. *)
