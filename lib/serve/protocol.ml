module Json = Dhdl_util.Json

type verb =
  | Ping
  | Estimate
  | Estimate_batch
  | Lint
  | Analyze
  | Dse_start
  | Dse_status
  | Dse_cancel
  | Shutdown

let verb_name = function
  | Ping -> "ping"
  | Estimate -> "estimate"
  | Estimate_batch -> "estimate_batch"
  | Lint -> "lint"
  | Analyze -> "analyze"
  | Dse_start -> "dse_start"
  | Dse_status -> "dse_status"
  | Dse_cancel -> "dse_cancel"
  | Shutdown -> "shutdown"

let all_verbs =
  [ Ping; Estimate; Estimate_batch; Lint; Analyze; Dse_start; Dse_status; Dse_cancel; Shutdown ]

let verb_of_name name = List.find_opt (fun v -> verb_name v = name) all_verbs

type request = {
  q_id : string;
  q_verb : verb;
  q_deadline_ms : int option;
  q_app : string option;
  q_params : (string * int) list;
  q_session : string option;
  q_seed : int option;
  q_max_points : int option;
  q_specs : (string * (string * int) list) list;
}

let request ?deadline_ms ?app ?(params = []) ?session ?seed ?max_points ?(specs = []) ~id verb =
  {
    q_id = id;
    q_verb = verb;
    q_deadline_ms = deadline_ms;
    q_app = app;
    q_params = params;
    q_session = session;
    q_seed = seed;
    q_max_points = max_points;
    q_specs = specs;
  }

let parse_request line =
  match Json.parse line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> (
    match Json.(member "id" j |> Option.map to_string) with
    | None | Some None -> Error "missing string field \"id\""
    | Some (Some id) -> (
      match Json.(member "verb" j |> Option.map to_string) with
      | None | Some None -> Error "missing string field \"verb\""
      | Some (Some name) -> (
        match verb_of_name name with
        | None ->
          Error
            (Printf.sprintf "unknown verb %S (have: %s)" name
               (String.concat ", " (List.map verb_name all_verbs)))
        | Some verb ->
          let int_field name = Option.bind (Json.member name j) Json.to_int in
          let str_field name = Option.bind (Json.member name j) Json.to_string in
          let params_of p =
            List.fold_left
              (fun acc (k, v) ->
                match (acc, Json.to_int v) with
                | Error e, _ -> Error e
                | Ok _, None -> Error (Printf.sprintf "parameter %S is not an integer" k)
                | Ok acc, Some n -> Ok ((k, n) :: acc))
              (Ok []) (Json.obj_or_empty p)
            |> Result.map List.rev
          in
          let params =
            match Json.member "params" j with None -> Ok [] | Some p -> params_of p
          in
          let specs =
            match Json.member "specs" j with
            | None -> Ok []
            | Some p -> (
              match Json.to_list p with
              | None -> Error "\"specs\" must be a list"
              | Some items ->
                List.fold_left
                  (fun acc item ->
                    match acc with
                    | Error e -> Error e
                    | Ok acc -> (
                      match Json.(member "app" item |> Fun.flip Option.bind to_string) with
                      | None -> Error "every spec needs a string field \"app\""
                      | Some app -> (
                        match
                          match Json.member "params" item with
                          | None -> Ok []
                          | Some sp -> params_of sp
                        with
                        | Error e -> Error e
                        | Ok sp -> Ok ((app, sp) :: acc))))
                  (Ok []) items
                |> Result.map List.rev)
          in
          (match (params, specs) with
          | Error e, _ | _, Error e -> Error e
          | Ok q_params, Ok q_specs ->
            (match int_field "deadline_ms" with
            | Some d when d < 0 -> Error "deadline_ms must be >= 0"
            | deadline ->
              Ok
                {
                  q_id = id;
                  q_verb = verb;
                  q_deadline_ms = deadline;
                  q_app = str_field "app";
                  q_params;
                  q_session = str_field "session";
                  q_seed = int_field "seed";
                  q_max_points = int_field "max_points";
                  q_specs;
                })))))

let render_request r =
  let opt name f v = Option.map (fun v -> (name, f v)) v in
  Json.render
    (Json.Obj
       (List.filter_map Fun.id
          [
            Some ("id", Json.Str r.q_id);
            Some ("verb", Json.Str (verb_name r.q_verb));
            opt "deadline_ms" (fun n -> Json.Int n) r.q_deadline_ms;
            opt "app" (fun s -> Json.Str s) r.q_app;
            (if r.q_params = [] then None
             else Some ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.q_params)));
            opt "session" (fun s -> Json.Str s) r.q_session;
            opt "seed" (fun n -> Json.Int n) r.q_seed;
            opt "max_points" (fun n -> Json.Int n) r.q_max_points;
            (if r.q_specs = [] then None
             else
               Some
                 ( "specs",
                   Json.List
                     (List.map
                        (fun (app, params) ->
                          Json.Obj
                            (("app", Json.Str app)
                            ::
                            (if params = [] then []
                             else
                               [
                                 ( "params",
                                   Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) params) );
                               ])))
                        r.q_specs) ));
          ]))

(* ---------------- replies ------------------------------------------ *)

type error_code =
  | Overloaded
  | Draining
  | Deadline_exceeded
  | Quarantined
  | Bad_request
  | Unknown_session
  | Internal

let error_code_name = function
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Deadline_exceeded -> "deadline_exceeded"
  | Quarantined -> "quarantined"
  | Bad_request -> "bad_request"
  | Unknown_session -> "unknown_session"
  | Internal -> "internal"

let all_error_codes =
  [ Overloaded; Draining; Deadline_exceeded; Quarantined; Bad_request; Unknown_session; Internal ]

let error_code_of_name name =
  List.find_opt (fun c -> error_code_name c = name) all_error_codes

type err = {
  err_code : error_code;
  err_message : string;
  err_retry_after_ms : int option;
  err_chain : string list;
}

type reply = {
  r_id : string;
  r_body : (Json.t, err) result;
}

let ok ~id payload = { r_id = id; r_body = Ok payload }

let error ?retry_after_ms ?(chain = []) ~id code message =
  {
    r_id = id;
    r_body =
      Error
        {
          err_code = code;
          err_message = message;
          err_retry_after_ms = retry_after_ms;
          err_chain = chain;
        };
  }

let render_reply r =
  let body =
    match r.r_body with
    | Ok payload -> ("ok", payload)
    | Error e ->
      ( "error",
        Json.Obj
          (List.filter_map Fun.id
             [
               Some ("code", Json.Str (error_code_name e.err_code));
               Some ("message", Json.Str e.err_message);
               Option.map (fun ms -> ("retry_after_ms", Json.Int ms)) e.err_retry_after_ms;
               (if e.err_chain = [] then None
                else Some ("chain", Json.List (List.map (fun m -> Json.Str m) e.err_chain)));
             ]) )
  in
  Json.render (Json.Obj [ ("id", Json.Str r.r_id); body ])

let parse_reply line =
  match Json.parse line with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok j -> (
    match Json.(member "id" j |> Option.map to_string) with
    | None | Some None -> Error "missing string field \"id\""
    | Some (Some id) -> (
      match (Json.member "ok" j, Json.member "error" j) with
      | Some payload, None -> Ok { r_id = id; r_body = Ok payload }
      | None, Some e -> (
        let str name = Option.bind (Json.member name e) Json.to_string in
        match Option.bind (str "code") error_code_of_name with
        | None -> Error "error reply with missing or unknown \"code\""
        | Some code ->
          Ok
            {
              r_id = id;
              r_body =
                Error
                  {
                    err_code = code;
                    err_message = Option.value (str "message") ~default:"";
                    err_retry_after_ms = Option.bind (Json.member "retry_after_ms" e) Json.to_int;
                    err_chain =
                      (match Option.bind (Json.member "chain" e) Json.to_list with
                      | None -> []
                      | Some xs -> List.filter_map Json.to_string xs);
                  };
            })
      | _ -> Error "reply must have exactly one of \"ok\" / \"error\""))

let is_retryable r =
  match r.r_body with
  | Ok _ -> false
  | Error e -> ( match e.err_code with Overloaded | Draining -> true | _ -> false)
