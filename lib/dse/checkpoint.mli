(** Crash-safe JSONL checkpoints for DSE sweeps.

    A checkpoint is a single JSONL file: a header line carrying the sweep
    identity (space name, seed, max_points, sampled total, parameter names
    in point order), then one line per processed point in sampling order —
    [eval] (the full evaluation, floats as bit-exact C99 hex literals),
    [pruned] (dropped by an error-level lint diagnostic) or [failed]
    (classified {!Outcome.failure_stage} plus message).

    {!save} writes atomically (temp file + rename), so the file on disk is
    always a complete snapshot: a sweep killed mid-write resumes from the
    previous checkpoint rather than a torn one. Hex-float round-tripping
    makes a resumed sweep's evaluations structurally equal to an
    uninterrupted run's.

    A sweep that rewrites its checkpoint as it goes keeps a {!writer}: it
    renders each entry once, on {!append}, and every {!flush} replaces the
    file with the rendered bytes by the same atomic protocol. {!render}
    and {!save} are a writer filled from a whole [t], so there is one
    rendering path and the bytes are the same either way.

    {!load} additionally tolerates a {e torn tail}: when only the final
    JSONL line fails to parse (a crash truncated an append from a
    non-atomic writer, or a copy was cut short), the line is dropped, the
    complete prefix loads normally, and [truncated_tail] flags the loss so
    resume reports can surface it. Corruption anywhere before the final
    line is still rejected. *)

type t = {
  space_name : string;
  seed : int;
  max_points : int;
  total : int;  (** Points sampled by the sweep being checkpointed. *)
  params : string list;  (** Parameter names, in point order. *)
  entries : (int * Outcome.entry) list;  (** Ascending by point index. *)
  truncated_tail : bool;
      (** Set by {!load} when a torn final line was dropped; [false] for
          checkpoints built in memory, and ignored by {!render}/{!save}. *)
}

val version : int
(** Format version written in the header; {!load} rejects others. *)

val render : t -> string
(** The JSONL text. Deterministic: two identical sweeps render
    byte-identical checkpoints (used by the golden-file tests). *)

val save : path:string -> t -> unit
(** Atomically replace [path] with [render t] (writes [path ^ ".tmp"],
    then renames). *)

type writer
(** A checkpoint being built: the header and the entries appended so
    far, already rendered. Single owner; not thread-safe. *)

val writer : t -> writer
(** A writer holding [t]'s header and [t.entries] ([truncated_tail] is
    ignored). A sweep starts one with no entries. *)

val append : writer -> int -> Outcome.entry -> unit
(** [append w i e] renders entry [e] at point index [i] onto [w]. Entries
    are written in append order; a sweep appends in ascending index
    order. *)

val flush : path:string -> writer -> unit
(** Atomically replace [path] with the writer's bytes, which equal
    [render] of its header and entries so far. The buffer is written as
    is (no copy) and stays in [w], so later appends and flushes extend
    it. *)

val load : path:string -> (t, string) result
(** Parse a checkpoint; [Error] describes a missing, unreadable, corrupt,
    or wrong-version file. *)
