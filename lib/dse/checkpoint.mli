(** Crash-safe JSONL checkpoints for DSE sweeps.

    A checkpoint is a single JSONL file: a header line carrying the sweep
    identity (space name, seed, max_points, sampled total, parameter names
    in point order), then one line per processed point in sampling order —
    [eval] (the full evaluation, floats as bit-exact C99 hex literals),
    [pruned] (dropped by an error-level heuristic lint diagnostic),
    [absint_pruned] (refuted by an abstract-interpretation proof),
    [dep_pruned] (refuted by the dependence analysis), [sym_pruned]
    (refuted by the symbolic gate before elaboration) or [failed]
    (classified {!Outcome.failure_stage} plus message).

    {!save} writes atomically (temp file + rename), so the file on disk is
    always a complete snapshot. Hex-float round-tripping makes a resumed
    sweep's evaluations structurally equal to an uninterrupted run's.

    A sweep that writes its checkpoint as it goes keeps a {!writer}: it
    renders each entry once, on {!append}, straight into the writer's
    buffer. The first {!flush} replaces the file atomically, like {!save};
    every later flush appends only the bytes rendered since the previous
    one, as long as the file is still the one that flush left (see
    {!flush}). {!render} and {!save} are a writer filled from a whole [t],
    so there is one rendering path and the bytes are the same either way.

    {b Crash guarantee.} The file always starts with a complete header and
    is always a byte prefix of what the writer rendered. A kill during an
    append can leave one partial final line, so a [torn] tail can come
    from this module's own writer, not only from a torn copy.

    {!load} tolerates that {e torn tail}: when only the final JSONL line
    fails to parse, the line is dropped, the complete prefix loads
    normally, and [truncated_tail] flags the loss so resume reports can
    surface it. A resumed sweep recomputes the dropped point, and its
    first flush replaces the file, so it still converges to an
    uninterrupted run's bytes. Corruption anywhere before the final line
    is still rejected, and so are entry indices that do not strictly
    increase. *)

type t = {
  space_name : string;
  seed : int;
  max_points : int;
  total : int;  (** Points sampled by the sweep being checkpointed. *)
  params : string list;  (** Parameter names, in point order. *)
  entries : (int * Outcome.entry) list;
      (** Strictly ascending by point index; a deadline may leave gaps. *)
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
    far, already rendered, and what the last {!flush} left on disk.
    Single owner; not thread-safe. *)

val writer : t -> writer
(** A writer holding [t]'s header and [t.entries] ([truncated_tail] is
    ignored). A sweep starts one with no entries. *)

val append : writer -> int -> Outcome.entry -> unit
(** [append w i e] renders entry [e] at point index [i] onto [w]. Entries
    are written in append order; a sweep appends in strictly ascending
    index order, which {!load} checks. *)

val flush : path:string -> writer -> unit
(** Make [path] hold the writer's bytes, which equal [render] of its
    header and entries so far.

    After a flush the writer records the path, the written file's device
    and inode (from [fstat]) and its length. The next flush to the same
    path opens it with [O_APPEND] and, if it is still that file with that
    length, writes only the new bytes. Otherwise — the first flush
    (a resumed sweep's too, which drops any torn tail), another path, a
    file that was replaced, truncated, grown or deleted — it replaces the
    file atomically (writes [path ^ ".tmp"], then renames). The record is
    cleared before writing, so a flush that raises leaves the next one to
    replace the file whole. *)

val load : path:string -> (t, string) result
(** Parse a checkpoint, each line with [Dhdl_util.Json.parse]; [Error]
    describes a missing, unreadable, corrupt, or wrong-version file. An
    integer field must hold an integer lexeme: [7.0] or [1e3] where an
    integer belongs is corruption. *)
