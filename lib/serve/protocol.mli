(** Wire protocol of the DSE server: newline-delimited JSON requests and
    replies over a Unix domain socket.

    One request per line, one reply per line. A request is an object
    carrying a client-chosen [id] (echoed in the reply, and the key for
    idempotent retries and quarantine accounting), a [verb], an optional
    [deadline_ms] budget, and verb-specific fields:

    {v
    {"id":"r1","verb":"estimate","deadline_ms":2000,
     "app":"dotproduct","params":{"tileSize":1200,"par":4}}
    {"id":"r2","verb":"dse_start","app":"dotproduct","session":"s1",
     "seed":2016,"max_points":500}
    {"id":"r4","verb":"estimate_batch","deadline_ms":5000,
     "specs":[{"app":"dotproduct","params":{"tileSize":1200}},
              {"app":"gemm"}]}
    {"id":"r3","verb":"dse_status","session":"s1"}
    v}

    A reply either succeeds —
    [{"id":"r1","ok":{...}}] (estimate payloads carry ["degraded":true]
    when the server answered from the raw analytical model) — or fails
    with a typed error:
    [{"id":"r2","error":{"code":"overloaded","message":"...",
    "retry_after_ms":75}}]. Every admitted request gets exactly one
    reply; overload, expiry, drain, and handler crashes are replies
    ({!error_code}), never silence. *)

type verb =
  | Ping  (** Liveness probe; replies [{"pong":true}]. *)
  | Estimate
  | Estimate_batch
      (** N estimate specs in one request under one deadline; the reply
          carries one typed entry per spec, in order (see [q_specs]). *)
  | Lint
  | Analyze
  | Dse_start
  | Dse_status
  | Dse_cancel
  | Shutdown  (** Ask the server to drain and exit (like SIGTERM). *)

val verb_name : verb -> string
val verb_of_name : string -> verb option

type request = {
  q_id : string;  (** Client-chosen id; reuse it when retrying. *)
  q_verb : verb;
  q_deadline_ms : int option;
      (** Whole-request budget in milliseconds, measured from admission;
          expired work answers [deadline_exceeded]. *)
  q_app : string option;  (** Benchmark name (estimate/lint/analyze/dse_start). *)
  q_params : (string * int) list;  (** Design parameters; [[]] = defaults. *)
  q_session : string option;  (** Session id (dse_* verbs). *)
  q_seed : int option;  (** Sweep seed (dse_start; default 2016). *)
  q_max_points : int option;  (** Sweep budget (dse_start). *)
  q_specs : (string * (string * int) list) list;
      (** [estimate_batch] items, in reply order: [(app, params)] pairs
          carried as [{"specs":[{"app":"...","params":{...}},...]}]. The
          whole batch shares the request's single [deadline_ms]; items
          reached after expiry answer per-item [deadline_exceeded]
          entries inside the (successful) batch reply. *)
}

val request :
  ?deadline_ms:int ->
  ?app:string ->
  ?params:(string * int) list ->
  ?session:string ->
  ?seed:int ->
  ?max_points:int ->
  ?specs:(string * (string * int) list) list ->
  id:string ->
  verb ->
  request

val parse_request : string -> (request, string) result
(** Decode one wire line. The error is a human message (the server turns
    it into a [bad_request] reply). *)

val render_request : request -> string
(** One wire line, no trailing newline. *)

(** Typed reply errors. [Overloaded] and [Draining] are {e pre-admission}
    rejections — retryable, never cached against the request id. The rest
    are final. *)
type error_code =
  | Overloaded  (** Pending queue full; honor [retry_after_ms]. *)
  | Draining  (** Server is shutting down; try another instance. *)
  | Deadline_exceeded
  | Quarantined
      (** The request crashed its handler [quarantine_threshold] times
          and was parked; [err_chain] is the per-attempt error chain. *)
  | Bad_request
  | Unknown_session
  | Internal

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

type err = {
  err_code : error_code;
  err_message : string;
  err_retry_after_ms : int option;  (** Only on [Overloaded]. *)
  err_chain : string list;  (** Only on [Quarantined]: one message per crash. *)
}

type reply = {
  r_id : string;
  r_body : (Dhdl_util.Json.t, err) result;  (** [Ok payload] or a typed error. *)
}

val ok : id:string -> Dhdl_util.Json.t -> reply
val error : ?retry_after_ms:int -> ?chain:string list -> id:string -> error_code -> string -> reply
val render_reply : reply -> string
val parse_reply : string -> (reply, string) result

val is_retryable : reply -> bool
(** [Overloaded] or [Draining] — safe to resend with the same id. *)
