(** Client for the DSE server: one-shot connections with timeouts,
    jittered exponential backoff, and idempotent retries.

    Each {!call} opens a fresh connection, sends one request line, and
    waits up to [timeout_s] for the reply line. Retryable outcomes —
    connection refused (server restarting), timeout (reply lost), and
    typed [overloaded]/[draining] rejections — are retried up to
    [max_attempts] times {e with the same request id}: the server caches
    final replies by id, so a retry after a lost reply returns the
    original result instead of re-executing, and a retry after
    [overloaded] honors the server's [retry_after_ms] hint. Backoff is
    exponential with deterministic multiplicative jitter drawn from a
    seeded {!Dhdl_util.Rng}, so a thundering herd of restarted clients
    decorrelates yet every test run replays identically. *)

type t

val create :
  ?timeout_s:float ->
  ?max_attempts:int ->
  ?backoff_ms:int ->
  ?seed:int ->
  socket_path:string ->
  unit ->
  t
(** Defaults: [timeout_s 10.], [max_attempts 5], [backoff_ms 25] (half
    the first retry's base delay; the base doubles each attempt), [seed 42]
    (jitter stream). SIGPIPE is ignored from here on, process-wide, so a
    server that hangs up before reading fails the write with EPIPE
    instead of killing the caller. *)

val call : t -> Protocol.request -> (Protocol.reply, string) result
(** Send one request, retrying as described above. [Ok] is the server's
    reply (which may itself be a typed error such as [quarantined] —
    retryable rejections are only surfaced once attempts are exhausted);
    [Error] means no reply was obtained (server unreachable, every
    attempt timed out / was shed, or the server hung up before reading:
    [Error "send: ..."]). *)

val retry_window_s : float
(** The longest a {!call} at the default [max_attempts] and [backoff_ms]
    spends backing off between its first and last attempt: 1.125 s. The
    server sizes its reply cache from it. *)

val wait_ready : ?timeout_s:float -> t -> bool
(** Poll [ping] until the server answers (true) or the timeout elapses
    (false). Used by tests and by [dhdl client --wait]. *)
