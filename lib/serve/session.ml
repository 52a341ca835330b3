module Faults = Dhdl_util.Faults
module Json = Dhdl_util.Json
module Obs = Dhdl_obs.Obs
module Checkpoint = Dhdl_dse.Checkpoint

exception Store_error of string

type spec = {
  s_app : string;
  s_seed : int;
  s_max_points : int;
}

type status =
  | Unknown
  | Fresh of spec
  | Interrupted of spec * int * bool
  | Failed of spec * string
  | Done of spec * Json.t

let id_ok id =
  let ok_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '.' || c = '_' || c = '-'
  in
  id <> "" && String.length id <= 64 && String.for_all ok_char id
  (* "." / ".." are all-ok-chars but escape the root. *)
  && id <> "." && id <> ".."

let dir ~root id = Filename.concat root id
let checkpoint_path ~root id = Filename.concat (dir ~root id) "checkpoint.jsonl"
let spec_path ~root id = Filename.concat (dir ~root id) "spec.json"
let done_path ~root id = Filename.concat (dir ~root id) "done.json"
let error_path ~root id = Filename.concat (dir ~root id) "error.json"

(* The [serve.session_store] fault site models transient store failures:
   each probe that fires burns one retry (counted in the Obs sink), and
   the bounded loop then performs the real write — so injected store
   faults slow a request down but never lose session state, which is what
   the soak test asserts. *)
let rec with_store_retry ?(attempts = 8) f =
  if attempts > 1 && Faults.fires "serve.session_store" then begin
    Obs.count "serve.store_retry";
    with_store_retry ~attempts:(attempts - 1) f
  end
  else f ()

let mkdir_p path =
  (* Two levels at most (root/session); create both, ignore existing. *)
  let mk p = try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
  let parent = Filename.dirname path in
  if parent <> "" && parent <> "/" && not (Sys.file_exists parent) then mk parent;
  mk path

let write_atomic path content =
  with_store_retry @@ fun () ->
  try
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content);
    Sys.rename tmp path
  with Sys_error msg -> raise (Store_error msg)

let read_file path =
  try
    let ic = open_in_bin path in
    Some
      (Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic)))
  with Sys_error _ -> None

let write_spec ~root id spec =
  (try mkdir_p (dir ~root id) with Unix.Unix_error (e, _, _) -> raise (Store_error (Unix.error_message e)));
  write_atomic (spec_path ~root id)
    (Json.render
       (Json.Obj
          [
            ("app", Json.Str spec.s_app);
            ("seed", Json.Int spec.s_seed);
            ("max_points", Json.Int spec.s_max_points);
          ]))

let load_spec ~root id =
  match read_file (spec_path ~root id) with
  | None -> None
  | Some text -> (
    match Json.parse text with
    | Error _ -> None
    | Ok j ->
      (* Older servers also wrote the sweep's ["jobs"]; it is no part of
         the identity and is ignored. *)
      let int_field name = Option.bind (Json.member name j) Json.to_int in
      let app = Option.bind (Json.member "app" j) Json.to_string in
      (match (app, int_field "seed", int_field "max_points") with
      | Some s_app, Some s_seed, Some s_max_points -> Some { s_app; s_seed; s_max_points }
      | _ -> None))

let mark_done ~root id summary = write_atomic (done_path ~root id) (Json.render summary)

let mark_failed ~root id message =
  write_atomic (error_path ~root id) (Json.render (Json.Obj [ ("message", Json.Str message) ]))

let status ~root id =
  if not (Sys.file_exists (dir ~root id)) then Unknown
  else
    match load_spec ~root id with
    | None -> Unknown
    | Some spec -> (
      match read_file (done_path ~root id) with
      | Some text -> (
        match Json.parse text with
        | Ok summary -> Done (spec, summary)
        | Error _ -> Done (spec, Json.Obj []))
      | None -> (
        match read_file (error_path ~root id) with
        | Some text ->
          let message =
            match Json.parse text with
            | Ok j -> Option.value (Option.bind (Json.member "message" j) Json.to_string) ~default:text
            | Error _ -> text
          in
          Failed (spec, message)
        | None ->
          let cp = checkpoint_path ~root id in
          if not (Sys.file_exists cp) then Fresh spec
          else (
            match Checkpoint.load ~path:cp with
            | Ok c ->
              Interrupted (spec, List.length c.Checkpoint.entries, c.Checkpoint.truncated_tail)
            | Error _ -> Fresh spec)))

let list ~root =
  match Sys.readdir root with
  | entries ->
    Array.to_list entries
    |> List.filter (fun id -> id_ok id && Sys.is_directory (Filename.concat root id))
    |> List.sort compare
  | exception Sys_error _ -> []
