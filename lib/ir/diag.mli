(** Typed diagnostics shared by {!Analysis.validate} and the [Dhdl_lint]
    pass framework. A diagnostic pins a machine-readable code (["V..."] for
    well-formedness, ["L..."] for lint passes), a severity, the controller
    path from the design root, the memory involved (when one is), and a
    human-readable message. *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** Stable diagnostic code, e.g. ["L001"]. *)
  severity : severity;
  path : string list;  (** Controller labels from the root to the site. *)
  mem : string option;  (** Memory involved, when the diagnostic has one. *)
  message : string;
}

val make : ?path:string list -> ?mem:string -> code:string -> severity:severity -> string -> t

val makef :
  ?path:string list ->
  ?mem:string ->
  code:string ->
  severity:severity ->
  ('a, unit, string, t) format4 ->
  'a
(** [Printf]-style constructor. *)

val severity_name : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val severity_rank : severity -> int
(** [Error] = 0 (most severe), [Warning] = 1, [Info] = 2. *)

val compare : t -> t -> int
(** Orders by severity (errors first), then code, then site. *)

val count : severity -> t list -> int

val max_severity : t list -> severity option
(** Most severe level present; [None] on an empty list. *)

val to_string : t -> string
(** One human-readable line: [severity[code] path: message [mem m]]. *)

val to_json : t -> string
(** One JSON object (hand-rolled, no external dependency). *)

