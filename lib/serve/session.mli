(** Crash-only DSE session store.

    A session is a directory under the server's sessions root whose {e
    files are the state} — there is no in-memory truth to lose:

    - [spec.json] — the sweep identity ([app], [seed], [max_points],
      [jobs]), written once at [dse_start] and validated on every
      restart/resume;
    - [checkpoint.jsonl] — the {!Dhdl_dse.Checkpoint} file the sweep
      itself maintains (replaced atomically on its first write, appended
      to after that, bit-identical across jobs levels and resume
      boundaries);
    - [done.json] — the result summary, written atomically when the sweep
      runs to completion;
    - [error.json] — a classified failure, written when the sweep domain
      dies (the error chain, so a poisoned sweep is diagnosable).

    Recovery after [kill -9] is therefore a directory scan: [done.json]
    present → finished; otherwise a checkpoint → interrupted at its entry
    count (resume continues bit-identically); otherwise fresh. Writes go
    through a bounded-retry wrapper probing the [serve.session_store]
    fault site, so the soak tests can exercise transient-store behavior
    deterministically. *)

exception Store_error of string
(** A session file could not be written (wraps the [Sys_error]). *)

type spec = {
  s_app : string;
  s_seed : int;
  s_max_points : int;
  s_jobs : int;
}

(** Disk-derived session state (never cached across requests). *)
type status =
  | Unknown  (** No such session directory. *)
  | Fresh of spec  (** Spec written, sweep not yet checkpointed. *)
  | Interrupted of spec * int * bool
      (** Sweep stopped (crash, cancel, or deadline) with [n] checkpoint
          entries; the [bool] is the checkpoint's [truncated_tail] flag,
          set when a kill cut the sweep's last append mid-line. *)
  | Failed of spec * string  (** The sweep domain died; the message. *)
  | Done of spec * Json.t  (** Completed; the [done.json] summary. *)

val id_ok : string -> bool
(** Valid session ids: nonempty, [[A-Za-z0-9._-]] only (no path
    tricks), at most 64 chars. *)

val dir : root:string -> string -> string
val checkpoint_path : root:string -> string -> string

val write_spec : root:string -> string -> spec -> unit
(** Create the session directory and write [spec.json] atomically.
    Raises {!Store_error}. *)

val load_spec : root:string -> string -> spec option

val mark_done : root:string -> string -> Json.t -> unit
(** Write [done.json] atomically. Raises {!Store_error}. *)

val mark_failed : root:string -> string -> string -> unit
(** Write [error.json] atomically. Raises {!Store_error}. *)

val status : root:string -> string -> status
(** Derive the session's state from its files alone. *)

val list : root:string -> string list
(** Session ids present under [root], sorted. *)
