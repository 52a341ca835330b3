(* The typed diagnostic core shared by the well-formedness validator
   (Analysis.validate) and the lint pass framework (Dhdl_lint). It lives in
   dhdl_ir so both layers can emit the same type without a dependency
   cycle. *)

module Emit = Dhdl_util.Emit

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  path : string list;
  mem : string option;
  message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let make ?(path = []) ?mem ~code ~severity message = { code; severity; path; mem; message }

let makef ?path ?mem ~code ~severity fmt =
  Printf.ksprintf (fun message -> make ?path ?mem ~code ~severity message) fmt

let compare a b =
  let c = Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else Stdlib.compare (a.path, a.mem, a.message) (b.path, b.mem, b.message)

let count severity diags = List.length (List.filter (fun d -> d.severity = severity) diags)

let max_severity diags =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.severity
      | Some s -> if severity_rank d.severity < severity_rank s then Some d.severity else acc)
    None diags

let to_string d =
  let where = match d.path with [] -> "" | p -> String.concat "/" p ^ ": " in
  let mem = match d.mem with None -> "" | Some m -> Printf.sprintf " [mem %s]" m in
  Printf.sprintf "%s[%s] %s%s%s" (severity_name d.severity) d.code where d.message mem

let to_json d =
  let path = String.concat ", " (List.map (fun p -> "\"" ^ Emit.json_escape p ^ "\"") d.path) in
  let mem = match d.mem with None -> "null" | Some m -> "\"" ^ Emit.json_escape m ^ "\"" in
  Printf.sprintf
    "{\"code\": \"%s\", \"severity\": \"%s\", \"path\": [%s], \"mem\": %s, \"message\": \"%s\"}"
    (Emit.json_escape d.code) (severity_name d.severity) path mem (Emit.json_escape d.message)
