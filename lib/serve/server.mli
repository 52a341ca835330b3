(** The socket front end: a select-based event loop speaking the
    newline-delimited JSON {!Protocol} over a Unix domain socket.

    The loop is the server's one thread. Each turn it polls the listener
    and the live connections (kept in a table keyed by fd), reads what is
    readable — every complete line is parsed and admitted or shed by
    {!Supervisor.submit} — and then runs one queued request with
    {!Supervisor.run_next}, which renders the reply and writes it to its
    connection. While requests are queued the poll does not wait. So:
    - a request's deadline counts from when the loop reads its line;
    - a line that arrives while a handler runs is read, then admitted or
      shed, once that handler returns;
    - the process has no thread but this one until a [dse_start] spawns
      a domain for its sweep.

    Robustness at this layer:
    - transient socket faults (the [serve.sock_read] / [serve.sock_write]
      sites) are absorbed by bounded retry;
    - a line that fails to parse answers a [bad_request] reply instead of
      dropping the connection;
    - a peer that disappears leaves the poll set; replies to it are
      discarded (SIGPIPE is ignored). Its fd stays open until the drain,
      so descriptor numbers only grow, and [select] fails once one
      reaches [FD_SETSIZE] (1,024): about 1,020 connections;
    - SIGTERM / SIGINT (or a [shutdown] request) flip the drain flag: the
      listener closes, queued work finishes, running sweeps cancel and
      checkpoint ({!Supervisor.drain}), and [run] returns. A [kill -9]
      instead loses nothing but the uncheckpointed tail — sessions are
      crash-only ({!Session}). *)

val run : ?install_signals:bool -> socket_path:string -> Supervisor.config -> unit
(** Bind [socket_path] (an existing socket file is replaced — crash
    leftovers are expected), serve until drained, clean up, return.
    [install_signals] (default [true]) installs the SIGTERM/SIGINT drain
    handlers; in-process test servers run with it [false] so they don't
    steal the host's handlers. SIGPIPE is always ignored. *)
