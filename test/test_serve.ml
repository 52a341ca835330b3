(* The DSE server: protocol codecs, supervisor robustness layers
   (admission control, deadlines, degradation, idempotent retries,
   quarantine), crash-only sessions, the socket front end, and the two
   ISSUE acceptance proofs — SIGKILL + restart + resume is byte-identical
   to an uninterrupted sweep, and under injected faults every request
   gets exactly one typed reply. Runs under `dune runtest` and the
   focused `dune build @serve` pre-merge alias.

   Ordering matters: the suites that fork (the kill/recovery integration
   test and the CLI exit-code checks) run first, before any test spawns
   a domain in this process — forking a multi-domain OCaml runtime is
   not safe. *)

module Sjson = Dhdl_util.Json
module P = Dhdl_serve.Protocol
module Session = Dhdl_serve.Session
module Supervisor = Dhdl_serve.Supervisor
module Server = Dhdl_serve.Server
module Client = Dhdl_serve.Client
module Faults = Dhdl_util.Faults
module Obs = Dhdl_obs.Obs
module Estimator = Dhdl_model.Estimator
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Checkpoint = Dhdl_dse.Checkpoint
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Request = Dhdl_apps.Request
module Space = Dhdl_dse.Space

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

let with_faults f = Fun.protect ~finally:Faults.reset f

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_serve_" ^ name)

let counter = ref 0

let fresh_id prefix =
  incr counter;
  Printf.sprintf "%s-%d" prefix !counter

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_root name =
  let dir = tmp (fresh_id name) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  dir

let poll_until ?(timeout_s = 60.0) f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "timed out waiting for condition"
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

(* ---- reply plumbing ------------------------------------------------ *)

let payload reply =
  match reply.P.r_body with
  | Ok j -> j
  | Error e ->
    Alcotest.failf "expected ok reply for %s, got %s: %s" reply.P.r_id
      (P.error_code_name e.P.err_code) e.P.err_message

let err_of reply =
  match reply.P.r_body with
  | Error e -> e
  | Ok j -> Alcotest.failf "expected error reply for %s, got ok %s" reply.P.r_id (Sjson.render j)

let field name j =
  match Sjson.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S in %s" name (Sjson.render j)

let sfield name j =
  match Sjson.to_string (field name j) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string in %s" name (Sjson.render j)

let ifield name j =
  match Sjson.to_int (field name j) with
  | Some n -> n
  | None -> Alcotest.failf "field %S is not an int in %s" name (Sjson.render j)

let bfield name j =
  match Sjson.to_bool (field name j) with
  | Some b -> b
  | None -> Alcotest.failf "field %S is not a bool in %s" name (Sjson.render j)

(* One-shot mailbox for a reply. [wait] runs [sup]'s queued requests on
   this thread, as the server's event loop does, until the reply is in. *)
let inbox sup =
  let slot = ref None in
  let put reply = slot := Some reply in
  let rec wait () =
    match !slot with
    | Some v ->
      slot := None;
      v
    | None ->
      if Supervisor.run_next sup then wait ()
      else Alcotest.fail "the queue ran dry before the reply was delivered"
  in
  (put, wait)

(* Submit one request and wait for its reply, round-tripped through the
   wire codec so Raw payload fragments come back as parsed JSON and every
   in-process test also exercises render/parse. *)
let rpc sup req =
  let put, wait = inbox sup in
  Supervisor.submit sup req ~reply_to:put;
  let reply = wait () in
  match P.parse_reply (P.render_reply reply) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "reply for %s does not round-trip: %s" req.P.q_id msg

let sup_config ?root ?(queue_capacity = 64) ?(degrade_depth = 16) ?(quarantine_threshold = 3)
    ?(nn_fallback_limit = 25) ?(checkpoint_every = 8) ?(dse_jobs = 1) () =
  let root = match root with Some r -> r | None -> fresh_root "sup" in
  {
    Supervisor.sessions_root = root;
    estimator = Lazy.from_val (Lazy.force estimator);
    queue_capacity;
    degrade_depth;
    quarantine_threshold;
    nn_fallback_limit;
    dse_jobs;
    dse_checkpoint_every = checkpoint_every;
  }

let with_sup cfg f =
  let sup = Supervisor.create cfg in
  Fun.protect ~finally:(fun () -> Supervisor.drain sup) (fun () -> f sup)

let must_call client req =
  match Client.call client req with
  | Ok reply -> reply
  | Error msg -> Alcotest.failf "request %s got no reply: %s" req.P.q_id msg

(* In-process socket server on its own domain. The finally block always
   sends a shutdown (a no-op if the test already did) so a failed
   assertion cannot leave the server domain spinning forever. *)
let with_server ~socket cfg f =
  let server = Domain.spawn (fun () -> Server.run ~install_signals:false ~socket_path:socket cfg) in
  Fun.protect
    ~finally:(fun () ->
      let stopper = Client.create ~timeout_s:2.0 ~max_attempts:1 ~socket_path:socket () in
      ignore (Client.call stopper (P.request ~id:(fresh_id "stop") P.Shutdown));
      Domain.join server)
    (fun () ->
      let client = Client.create ~timeout_s:10.0 ~socket_path:socket () in
      if not (Client.wait_ready ~timeout_s:60.0 client) then
        Alcotest.fail "server did not come up";
      f client)

(* ==================================================================== *)
(* 1. Crash recovery over the real server: fork, SIGKILL, restart,      *)
(*    resume — final checkpoint byte-identical to an uninterrupted run. *)
(* ==================================================================== *)

let spawn_server ~socket ~root ~cache () =
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        Unix.dup2 devnull Unix.stdin;
        Unix.dup2 devnull Unix.stdout;
        Unix.dup2 devnull Unix.stderr;
        Unix.close devnull;
        let estimator =
          lazy
            (match Estimator.load cache with
            | Some est -> est
            | None -> Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())
        in
        let cfg =
          {
            (Supervisor.default_config ~sessions_root:root ~estimator) with
            Supervisor.dse_checkpoint_every = 4;
          }
        in
        Server.run ~socket_path:socket cfg;
        0
      with _ -> 2
    in
    Unix._exit code
  | pid -> pid

let test_kill_resume_byte_identical () =
  let socket = tmp "kill.sock" in
  let root = fresh_root "kill_sessions" in
  let cache = tmp "kill_est.cache" in
  (* Train once and share the weights through the marshal cache, so both
     server processes and the golden run estimate bit-identically. *)
  let est = Lazy.force estimator in
  Estimator.save est cache;
  let seed = 11 and max_points = 200 in
  let sid = "kill-test" in
  let cp = Session.checkpoint_path ~root sid in
  let entries_on_disk () =
    match Checkpoint.load ~path:cp with
    | Ok c -> List.length c.Checkpoint.entries
    | Error _ -> 0
  in
  let start_req id = P.request ~id ~app:"dotproduct" ~session:sid ~seed ~max_points P.Dse_start in
  let client = Client.create ~timeout_s:10.0 ~socket_path:socket () in
  (* Server #1: start the sweep, wait for two checkpoint writes, then
     kill -9 — no drain, no final checkpoint, crash-only residue only. *)
  let pid1 = spawn_server ~socket ~root ~cache () in
  check_bool "server 1 came up" true (Client.wait_ready ~timeout_s:60.0 client);
  let p = payload (must_call client (start_req "kr-start")) in
  check_bool "sweep started" true (bfield "started" p);
  poll_until ~timeout_s:120.0 (fun () -> if entries_on_disk () >= 8 then Some () else None);
  Unix.kill pid1 Sys.sigkill;
  let _, st1 = Unix.waitpid [] pid1 in
  check_bool "died by signal, not exit" true (st1 = Unix.WSIGNALED Sys.sigkill);
  let survivors = entries_on_disk () in
  check_bool "checkpoint survived the kill" true (survivors >= 8);
  check_bool "killed mid-sweep" true (survivors < max_points);
  (match Session.status ~root sid with
  | Session.Interrupted _ -> ()
  | st ->
    Alcotest.failf "expected an interrupted session after kill -9, got %s"
      (match st with
      | Session.Unknown -> "unknown"
      | Session.Fresh _ -> "fresh"
      | Session.Interrupted _ -> "interrupted"
      | Session.Failed _ -> "failed"
      | Session.Done _ -> "done"));
  (* Server #2: same socket, same root. Re-issuing the same dse_start
     resumes from the surviving checkpoint and runs to completion. *)
  let pid2 = spawn_server ~socket ~root ~cache () in
  check_bool "server 2 came up" true (Client.wait_ready ~timeout_s:60.0 client);
  let p2 = payload (must_call client (start_req "kr-resume")) in
  check_bool "resume started" true (bfield "started" p2);
  check_bool "resumed from the surviving prefix" true (ifield "resumed_entries" p2 >= 8);
  let summary =
    poll_until ~timeout_s:300.0 (fun () ->
        match
          (must_call client (P.request ~id:(fresh_id "kr-st") ~session:sid P.Dse_status)).P.r_body
        with
        | Ok p when sfield "state" p = "done" -> Some (field "summary" p)
        | _ -> None)
  in
  check_int "every point processed" max_points (ifield "processed" summary);
  check_bool "summary counts the reused prefix" true (ifield "resumed" summary >= 8);
  ignore (must_call client (P.request ~id:"kr-bye" P.Shutdown));
  let _, st2 = Unix.waitpid [] pid2 in
  check_bool "server 2 drained and exited cleanly" true (st2 = Unix.WEXITED 0);
  (* The acceptance proof: the recovered checkpoint is byte-identical to
     one written by an uninterrupted run with the same configuration. *)
  let golden = tmp "kill_golden.jsonl" in
  (try Sys.remove golden with Sys_error _ -> ());
  let app = Registry.find "dotproduct" in
  let sizes = app.App.paper_sizes in
  let cfg =
    Explore.Config.make ~seed ~max_points ~jobs:1 ~checkpoint:golden ~checkpoint_every:4
      ~tick_every:0 ()
  in
  ignore
    (Explore.run cfg (Eval.create est)
       ~space:(app.App.space sizes)
       ~generate:(fun pt -> app.App.generate ~sizes ~params:pt));
  check_str "kill + restart + resume converges to the uninterrupted golden bytes"
    (read_file golden) (read_file cp);
  Sys.remove golden;
  Sys.remove cache;
  rm_rf root

(* ==================================================================== *)
(* 2. CLI consistency: errors and exit codes                            *)
(* ==================================================================== *)

let dhdl_exe = Filename.concat (Filename.concat ".." "bin") "dhdl.exe"

(* With [timeout_s], a run still going after that long is killed, so a
   runaway fails its test instead of hanging the suite. *)
let run_cli ?timeout_s args =
  let base = tmp (fresh_id "cli") in
  let out_path = base ^ ".out" and err_path = base ^ ".err" in
  let openw p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out_fd = openw out_path and err_fd = openw err_path in
  let pid = Unix.create_process dhdl_exe (Array.of_list (dhdl_exe :: args)) devnull out_fd err_fd in
  Unix.close devnull;
  Unix.close out_fd;
  Unix.close err_fd;
  let status =
    match timeout_s with
    | None -> snd (Unix.waitpid [] pid)
    | Some s ->
      let deadline = Unix.gettimeofday () +. s in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.002;
          wait ()
        | 0, _ ->
          Unix.kill pid Sys.sigkill;
          snd (Unix.waitpid [] pid)
        | _, status -> status
      in
      wait ()
  in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  let out = read_file out_path and err = read_file err_path in
  Sys.remove out_path;
  Sys.remove err_path;
  (code, out, err)

let expect_cli_error args fragment =
  let code, _, err = run_cli args in
  check_int (String.concat " " args ^ " exits 1") 1 code;
  check_bool "stderr is prefixed dhdl: error:" true (contains err "dhdl: error:");
  check_bool "stderr hints at --help" true (contains err "dhdl --help");
  check_bool (Printf.sprintf "stderr mentions %S" fragment) true (contains err fragment)

let test_cli_unknown_subcommand () = expect_cli_error [ "frobnicate" ] "frobnicate"
(* cmdliner reports a bare unknown top-level flag as a missing COMMAND;
   the consistent part is the prefix, the hint, and the exit code. *)
let test_cli_unknown_flag () = expect_cli_error [ "--frobnicate" ] "COMMAND"
let test_cli_unknown_sub_flag () = expect_cli_error [ "list"; "--frobnicate" ] "frobnicate"
let test_cli_unknown_benchmark () = expect_cli_error [ "lint"; "nosuchapp" ] "unknown benchmark"

let test_cli_client_unreachable () =
  expect_cli_error
    [ "client"; "--attempts"; "1"; "--socket"; tmp "nosock.sock"; "ping" ]
    "dhdl: error:"

(* Below one training sample the estimator cannot be built: the shared
   --train-samples term refuses the value before any work starts. *)
let test_cli_train_samples_below_one () =
  expect_cli_error [ "estimate"; "gda"; "--train-samples"; "0" ] "must be >= 1 (got 0)";
  expect_cli_error [ "dse"; "gda"; "--train-samples=-5" ] "must be >= 1 (got -5)"

let test_cli_success_still_zero () =
  let code, out, _ = run_cli [ "list" ] in
  check_int "dhdl list exits 0" 0 code;
  check_bool "lists the paper benchmarks" true (contains out "dotproduct")

(* A binding the request layer refuses, or a point whose generator
   fails, ends in one [dhdl: error:] line and exit 1, before any
   estimator is trained: nothing reaches stdout. *)
let test_cli_hostile_bindings () =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let t0 = Unix.gettimeofday () in
      let code, out, err = run_cli ~timeout_s:5.0 args in
      let dt = Unix.gettimeofday () -. t0 in
      check_int (what ^ " exits 1") 1 code;
      check_str (what ^ " prints nothing on stdout") "" out;
      check_int
        (what ^ " prints one dhdl: error: line")
        1
        (List.length
           (List.filter
              (String.starts_with ~prefix:"dhdl: error:")
              (String.split_on_char '\n' err)));
      check_bool (Printf.sprintf "%s answers within a second (%.3f s)" what dt) true (dt < 1.0))
    [
      [ "estimate"; "gda"; "tile=0" ];
      [ "lint"; "gda"; "tile=0" ];
      [ "analyze"; "gda"; "tile=0" ];
      [ "estimate"; "gda"; "bogus=3" ];
      [ "estimate"; "kmeans"; "meta=7" ];
      [ "estimate"; "dotproduct"; "tile=7" ];
      [ "lint"; "kmeans"; "parDist=4611686018427387903" ];
    ]

(* With no sweep running, `dhdl serve` is one thread: its event loop runs
   every request itself. Skipped where /proc is absent. *)
let test_serve_one_thread () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let socket = tmp (fresh_id "thread.sock") in
  let root = fresh_root "thread" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process dhdl_exe
      [| dhdl_exe; "serve"; "--socket"; socket; "--sessions"; root |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      rm_rf root)
  @@ fun () ->
  let client = Client.create ~timeout_s:10.0 ~socket_path:socket () in
  check_bool "server came up" true (Client.wait_ready ~timeout_s:60.0 client);
  check_bool "pong" true (bfield "pong" (payload (must_call client (P.request ~id:"one-thread" P.Ping))));
  check_int "threads of the serving process" 1
    (Array.length (Sys.readdir (Printf.sprintf "/proc/%d/task" pid)))

(* ==================================================================== *)
(* 2b. Golden point corpus: what the CLI prints and the server answers  *)
(*     for one design point, pinned by exit code and digest             *)
(* ==================================================================== *)

(* Every app's defaults, kmeans at two refuted parDist values (12 with a
   2-D witness), and a dotproduct point whose tile its par does not
   divide. *)
let corpus_bindings =
  List.map (fun (a : App.t) -> (a.App.name, [])) Registry.all
  @ [
      ("kmeans", [ ("parDist", 12) ]);
      ("kmeans", [ ("parDist", 16) ]);
      ("dotproduct", [ ("tile", 1000); ("par", 7) ]);
    ]

let corpus_cli_modes =
  [
    ("estimate", [ "estimate" ]);
    ("lint", [ "lint" ]);
    ("lint-json", [ "lint"; "--json" ]);
    ("analyze", [ "analyze" ]);
    ("analyze-json", [ "analyze"; "--json" ]);
    ("symbolic", [ "analyze"; "--symbolic" ]);
    ("symbolic-json", [ "analyze"; "--symbolic"; "--json" ]);
  ]

let corpus_line mode app params outcome text =
  Printf.sprintf "%s %s %s %s %s" mode app
    (match params with
    | [] -> "-"
    | _ -> String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params))
    outcome
    (Digest.to_hex (Digest.string text))

(* The estimate's [setup] lines name the cache file and its [estimation]
   line times the run; neither is part of the answer. *)
let answer_lines out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"[setup]" l
           || String.starts_with ~prefix:"  estimation :" l))
  |> String.concat "\n"

let corpus_cli ~cache =
  List.concat_map
    (fun (app, params) ->
      let args = List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) params in
      List.map
        (fun (mode, verb) ->
          let extra = if mode = "estimate" then [ "--cache"; cache ] else [] in
          let code, out, _ = run_cli ((verb @ (app :: args)) @ extra) in
          corpus_line mode app params (string_of_int code) (answer_lines out))
        corpus_cli_modes)
    corpus_bindings

(* The served payloads, ids dropped: the reply body exactly as the wire
   carries it. *)
let corpus_served ~cache =
  let est =
    match Estimator.load cache with
    | Some est -> est
    | None -> Estimator.create ~seed:2016 ~train_samples:200 ()
  in
  let cfg =
    { (sup_config ()) with Supervisor.estimator = Lazy.from_val est }
  in
  with_sup cfg @@ fun sup ->
  List.concat_map
    (fun (app, params) ->
      List.map
        (fun verb ->
          let put, wait = inbox sup in
          Supervisor.submit sup (P.request ~id:(fresh_id "corpus") ~app ~params verb) ~reply_to:put;
          let outcome, text =
            match (wait ()).P.r_body with
            | Ok j -> ("ok", Sjson.render j)
            | Error e -> (P.error_code_name e.P.err_code, e.P.err_message)
          in
          corpus_line ("serve-" ^ P.verb_name verb) app params outcome text)
        [ P.Estimate; P.Lint; P.Analyze ])
    corpus_bindings

(* test/golden/points.txt holds one line per run: mode, app, binding,
   exit code (or reply code) and the MD5 of the output. On a mismatch the
   whole actual corpus is written to points.actual beside the test. *)
let test_golden_corpus () =
  let cache = tmp (fresh_id "corpus-est.cache") in
  (* Train once: the first run writes the cache every later one loads. *)
  let code, _, _ = run_cli [ "estimate"; "dotproduct"; "--cache"; cache ] in
  check_int "training run exits 0" 0 code;
  let actual =
    Fun.protect
      ~finally:(fun () -> try Sys.remove cache with Sys_error _ -> ())
      (fun () -> corpus_cli ~cache @ corpus_served ~cache)
  in
  let expected =
    String.split_on_char '\n' (read_file (Filename.concat "golden" "points.txt"))
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  if actual <> expected then begin
    let oc = open_out "points.actual" in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc
  end;
  Alcotest.(check (list string)) "golden point corpus" expected actual

(* ==================================================================== *)
(* 3. JSON codec                                                        *)
(* ==================================================================== *)

let test_json_roundtrip () =
  let values =
    [
      Sjson.Null;
      Sjson.Bool true;
      Sjson.Bool false;
      Sjson.Int 0;
      Sjson.Int (-12);
      Sjson.Float 3.5;
      Sjson.Float 2.0;
      Sjson.Str "";
      Sjson.Str "with \"quotes\", \\slashes\\ and\nnewlines\tplus\rreturns";
      Sjson.List [];
      Sjson.List [ Sjson.Int 1; Sjson.Str "two"; Sjson.Null ];
      Sjson.Obj [];
      Sjson.Obj
        [
          ("a", Sjson.Int 1);
          ("b", Sjson.List [ Sjson.Bool true; Sjson.Obj [ ("c", Sjson.Str "d") ] ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let rendered = Sjson.render v in
      check_bool "single line" false (contains rendered "\n");
      match Sjson.parse rendered with
      | Error msg -> Alcotest.failf "%s does not parse back: %s" rendered msg
      | Ok v' -> check_bool (rendered ^ " round-trips") true (v = v'))
    values

let test_json_raw_splice () =
  check_str "raw fragments splice verbatim" "{\"r\":{\"x\":1},\"n\":2}"
    (Sjson.render (Sjson.Obj [ ("r", Sjson.Raw "{\"x\":1}"); ("n", Sjson.Int 2) ]))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Sjson.parse s with
      | Ok v -> Alcotest.failf "%S should not parse, got %s" s (Sjson.render v)
      | Error msg -> check_bool "error has an offset" true (contains msg "offset"))
    [ ""; "{"; "[1,"; "nul"; "{\"a\"}"; "1 2"; "{\"a\":1} trailing"; "\"unterminated" ]

let test_json_accessors () =
  let j = Sjson.Obj [ ("i", Sjson.Int 3); ("f", Sjson.Float 4.0); ("s", Sjson.Str "x") ] in
  check_bool "member present" true (Sjson.member "i" j = Some (Sjson.Int 3));
  check_bool "member missing" true (Sjson.member "nope" j = None);
  check_bool "member on non-object" true (Sjson.member "i" (Sjson.Int 1) = None);
  check_bool "to_int on int" true (Sjson.to_int (Sjson.Int 3) = Some 3);
  check_bool "to_int on integral float" true (Sjson.to_int (Sjson.Float 4.0) = Some 4);
  check_bool "to_int on fractional float" true (Sjson.to_int (Sjson.Float 4.5) = None);
  (* An integral float converts only inside [-2^62, 2^62): out of range,
     int_of_float would make up a value (0 for 1e300). *)
  check_bool "to_int on 2^62" true (Sjson.to_int (Sjson.Float 4611686018427387904.) = None);
  check_bool "to_int on -2^62" true
    (Sjson.to_int (Sjson.Float (-4611686018427387904.)) = Some min_int);
  check_bool "to_int on 1e300" true (Sjson.to_int (Sjson.Float 1e300) = None);
  check_bool "to_int on infinity" true (Sjson.to_int (Sjson.Float infinity) = None);
  check_bool "obj_or_empty on list" true (Sjson.obj_or_empty (Sjson.List []) = [])

(* ==================================================================== *)
(* 4. Wire protocol                                                     *)
(* ==================================================================== *)

let all_verbs =
  [ P.Ping; P.Estimate; P.Lint; P.Analyze; P.Dse_start; P.Dse_status; P.Dse_cancel; P.Shutdown ]

let all_codes =
  [
    P.Overloaded; P.Draining; P.Deadline_exceeded; P.Quarantined; P.Bad_request;
    P.Unknown_session; P.Internal;
  ]

let test_verb_and_code_names () =
  List.iter
    (fun v -> check_bool (P.verb_name v ^ " round-trips") true (P.verb_of_name (P.verb_name v) = Some v))
    all_verbs;
  List.iter
    (fun c ->
      check_bool
        (P.error_code_name c ^ " round-trips")
        true
        (P.error_code_of_name (P.error_code_name c) = Some c))
    all_codes;
  check_bool "unknown verb" true (P.verb_of_name "explode" = None);
  check_bool "unknown code" true (P.error_code_of_name "explode" = None)

let test_request_roundtrip () =
  let reqs =
    [
      P.request ~id:"a" P.Ping;
      P.request ~id:"b" ~deadline_ms:250 ~app:"dotproduct" ~params:[ ("par", 4); ("tile", 8) ]
        P.Estimate;
      P.request ~id:"c" ~session:"s1" ~seed:3 ~max_points:9 P.Dse_start;
      P.request ~id:"d" ~deadline_ms:0 ~session:"s1" P.Dse_status;
    ]
  in
  List.iter
    (fun r ->
      match P.parse_request (P.render_request r) with
      | Error msg -> Alcotest.failf "%s does not parse back: %s" (P.render_request r) msg
      | Ok r' -> check_bool (P.render_request r ^ " round-trips") true (r = r'))
    reqs

let test_batch_request_roundtrip () =
  let r =
    P.request ~id:"bb" ~deadline_ms:500
      ~specs:[ ("dotproduct", [ ("tile", 128); ("par", 4) ]); ("gemm", []) ]
      P.Estimate_batch
  in
  (match P.parse_request (P.render_request r) with
  | Error msg -> Alcotest.failf "batch request does not parse back: %s" msg
  | Ok r' -> check_bool "batch request round-trips" true (r = r'));
  (* The wire shape is the documented one: a "specs" list of objects,
     only present when non-empty. *)
  check_bool "renders a specs list" true (contains (P.render_request r) "\"specs\":[");
  check_bool "empty specs stays off the wire" false
    (contains (P.render_request (P.request ~id:"p" P.Ping)) "specs");
  let expect_error line fragment =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "%S should be rejected" line
    | Error msg ->
      check_bool (Printf.sprintf "%S error mentions %S" line fragment) true (contains msg fragment)
  in
  expect_error "{\"id\":\"x\",\"verb\":\"estimate_batch\",\"specs\":{}}" "must be a list";
  expect_error "{\"id\":\"x\",\"verb\":\"estimate_batch\",\"specs\":[{\"params\":{}}]}"
    "string field \"app\"";
  expect_error
    "{\"id\":\"x\",\"verb\":\"estimate_batch\",\"specs\":[{\"app\":\"d\",\"params\":{\"p\":\"q\"}}]}"
    "not an integer"

(* Optional fields present with the wrong type, each with the error
   fragment that must name it: none of them may read as absent. *)
let wrong_typed_fields =
  [
    ("{\"id\":\"w1\",\"verb\":\"ping\",\"deadline_ms\":\"soon\"}",
     "field \"deadline_ms\" is not an integer");
    ("{\"id\":\"w2\",\"verb\":\"ping\",\"deadline_ms\":1e300}",
     "field \"deadline_ms\" is not an integer");
    ("{\"id\":\"w3\",\"verb\":\"dse_start\",\"app\":\"gda\",\"session\":\"s\",\"max_points\":\"lots\"}",
     "field \"max_points\" is not an integer");
    ("{\"id\":\"w4\",\"verb\":\"dse_start\",\"app\":\"gda\",\"session\":\"s\",\"seed\":1.5}",
     "field \"seed\" is not an integer");
    ("{\"id\":\"w5\",\"verb\":\"estimate\",\"app\":5}", "field \"app\" is not a string");
    ("{\"id\":\"w6\",\"verb\":\"dse_status\",\"session\":null}",
     "field \"session\" is not a string");
    ("{\"id\":\"w7\",\"verb\":\"estimate\",\"app\":\"gda\",\"params\":5}",
     "field \"params\" is not an object");
    ("{\"id\":\"w8\",\"verb\":\"estimate_batch\",\"specs\":[{\"app\":\"gda\",\"params\":[1]}]}",
     "field \"params\" is not an object");
  ]

let test_request_parse_errors () =
  let expect_error line fragment =
    match P.parse_request line with
    | Ok _ -> Alcotest.failf "%S should be rejected" line
    | Error msg ->
      check_bool (Printf.sprintf "%S error mentions %S" line fragment) true (contains msg fragment)
  in
  expect_error "not json" "malformed JSON";
  expect_error "{\"verb\":\"ping\"}" "\"id\"";
  expect_error "{\"id\":\"x\"}" "\"verb\"";
  expect_error "{\"id\":\"x\",\"verb\":\"explode\"}" "unknown verb";
  (* The unknown-verb error enumerates what the server does speak. *)
  expect_error "{\"id\":\"x\",\"verb\":\"explode\"}" "dse_start";
  expect_error "{\"id\":\"x\",\"verb\":\"ping\",\"params\":{\"a\":\"b\"}}" "not an integer";
  (* Out-of-range numbers are not integers: int_of_float would make them
     tile=0, and the estimate handler divides by the tile. *)
  expect_error "{\"verb\":\"estimate\",\"id\":\"x\",\"app\":\"gda\",\"params\":{\"tile\":1e300}}"
    "parameter \"tile\" is not an integer";
  expect_error
    "{\"verb\":\"estimate\",\"id\":\"x\",\"app\":\"gda\",\"params\":{\"tile\":9999999999999999999}}"
    "parameter \"tile\" is not an integer";
  expect_error "{\"id\":\"x\",\"verb\":\"ping\",\"deadline_ms\":-5}" ">= 0";
  List.iter (fun (line, fragment) -> expect_error line fragment) wrong_typed_fields

let test_reply_roundtrip () =
  let replies =
    [
      P.ok ~id:"r1" (Sjson.Obj [ ("pong", Sjson.Bool true) ]);
      P.error ~id:"r2" ~retry_after_ms:75 P.Overloaded "queue full";
      P.error ~id:"r3" ~chain:[ "crash one"; "crash two" ] P.Quarantined "parked";
      P.error ~id:"r4" P.Draining "bye";
    ]
  in
  List.iter
    (fun r ->
      match P.parse_reply (P.render_reply r) with
      | Error msg -> Alcotest.failf "%s does not parse back: %s" (P.render_reply r) msg
      | Ok r' -> check_bool (P.render_reply r ^ " round-trips") true (r = r'))
    replies;
  check_bool "overloaded is retryable" true
    (P.is_retryable (P.error ~id:"x" P.Overloaded ""));
  check_bool "draining is retryable" true (P.is_retryable (P.error ~id:"x" P.Draining ""));
  check_bool "quarantined is final" false (P.is_retryable (P.error ~id:"x" P.Quarantined ""));
  check_bool "ok is final" false (P.is_retryable (P.ok ~id:"x" Sjson.Null));
  (match P.parse_reply "{\"id\":\"x\",\"ok\":{},\"error\":{\"code\":\"internal\"}}" with
  | Ok _ -> Alcotest.fail "a reply with both ok and error must be rejected"
  | Error msg -> check_bool "mentions exclusivity" true (contains msg "exactly one"));
  match P.parse_reply "{\"id\":\"x\",\"error\":{\"message\":\"m\"}}" with
  | Ok _ -> Alcotest.fail "an error reply without a code must be rejected"
  | Error msg -> check_bool "mentions code" true (contains msg "code")

(* JSON has no NaN: a non-finite estimate field is written [null], so the
   reply still parses on the client ([nan] on the wire would not). *)
let test_reply_non_finite () =
  let estimate =
    Sjson.Obj
      [ ("app", Sjson.Str "gda"); ("cycles", Sjson.Float Float.nan);
        ("seconds", Sjson.Float Float.infinity); ("alm_pct", Sjson.Float 12.5) ]
  in
  let line = P.render_reply (P.ok ~id:"nan" estimate) in
  check_str "written as null"
    "{\"id\":\"nan\",\"ok\":{\"app\":\"gda\",\"cycles\":null,\"seconds\":null,\"alm_pct\":12.5}}"
    line;
  match P.parse_reply line with
  | Ok { P.r_id = "nan"; r_body = Ok payload } ->
    check_bool "non-finite fields read back as null" true
      (Sjson.member "cycles" payload = Some Sjson.Null
      && Sjson.member "seconds" payload = Some Sjson.Null
      && Sjson.member "alm_pct" payload = Some (Sjson.Float 12.5))
  | Ok r -> Alcotest.failf "unexpected reply %s" (P.render_reply r)
  | Error msg -> Alcotest.failf "a reply carrying nan does not parse: %s" msg

(* ==================================================================== *)
(* 5. Session store                                                     *)
(* ==================================================================== *)

let spec = { Session.s_app = "dotproduct"; s_seed = 1; s_max_points = 10 }

let test_session_ids () =
  List.iter
    (fun id -> check_bool (Printf.sprintf "%S accepted" id) true (Session.id_ok id))
    [ "s1"; "a.b-c_d"; "ABC123"; String.make 64 'x' ];
  List.iter
    (fun id -> check_bool (Printf.sprintf "%S rejected" id) false (Session.id_ok id))
    [ ""; "."; ".."; "a/b"; "../x"; "a b"; "a\nb"; String.make 65 'x' ]

let test_session_states_from_disk () =
  let root = fresh_root "states" in
  check_bool "missing directory is unknown" true (Session.status ~root "none" = Session.Unknown);
  Session.write_spec ~root "a" spec;
  check_bool "spec alone is fresh" true (Session.status ~root "a" = Session.Fresh spec);
  check_bool "spec round-trips" true (Session.load_spec ~root "a" = Some spec);
  Session.mark_failed ~root "a" "boom";
  check_bool "error.json means failed" true (Session.status ~root "a" = Session.Failed (spec, "boom"));
  Session.mark_done ~root "a" (Sjson.Obj [ ("x", Sjson.Int 1) ]);
  check_bool "done.json wins over error.json" true
    (Session.status ~root "a" = Session.Done (spec, Sjson.Obj [ ("x", Sjson.Int 1) ]));
  Session.write_spec ~root "b" spec;
  check_bool "sessions listed sorted" true (Session.list ~root = [ "a"; "b" ]);
  rm_rf root

let test_store_retry_absorbs_faults () =
  with_faults @@ fun () ->
  (* Even a certain transient-store fault cannot lose session state: the
     bounded retry's final attempt always performs the real write. *)
  Faults.set_site "serve.session_store" 1.0;
  let root = fresh_root "store" in
  Session.write_spec ~root "r1" spec;
  check_bool "spec written through the faults" true (Session.load_spec ~root "r1" = Some spec);
  Session.mark_done ~root "r1" Sjson.Null;
  check_bool "done.json written through the faults" true
    (match Session.status ~root "r1" with Session.Done _ -> true | _ -> false);
  rm_rf root

(* ==================================================================== *)
(* 6. Supervisor robustness layers                                      *)
(* ==================================================================== *)

let test_basic_verbs () =
  with_sup (sup_config ()) @@ fun sup ->
  let p = payload (rpc sup (P.request ~id:"b-ping" P.Ping)) in
  check_bool "pong" true (bfield "pong" p);
  let p = payload (rpc sup (P.request ~id:"b-est" ~app:"dotproduct" P.Estimate)) in
  check_str "app echoed" "dotproduct" (sfield "app" p);
  check_bool "full fidelity when idle" false (bfield "degraded" p);
  check_bool "defaulted params echoed" true (Sjson.obj_or_empty (field "params" p) <> []);
  check_bool "area present" true (ifield "alms" (field "area" p) >= 0);
  ignore (bfield "fits" p);
  let p = payload (rpc sup (P.request ~id:"b-lint" ~app:"dotproduct" P.Lint)) in
  ignore (bfield "clean" p);
  check_bool "lint report embedded" true (Sjson.member "report" p <> None);
  let p = payload (rpc sup (P.request ~id:"b-an" ~app:"dotproduct" P.Analyze)) in
  ignore (bfield "clean" p);
  check_bool "absint report embedded" true (Sjson.member "absint" p <> None);
  check_bool "dependence report embedded" true (Sjson.member "dependence" p <> None)

(* Analysis witnesses are JSON arrays. kmeans at parDist=12 has a bank
   conflict whose lane indices are two-dimensional; they used to render
   ';'-joined, so the report was not JSON and an analyze reply for the
   point failed to parse at the client. *)
let test_analyze_witness_json () =
  let app = Registry.find "kmeans" in
  let sizes = app.App.paper_sizes in
  let params =
    List.map (fun (k, v) -> if k = "parDist" then (k, 12) else (k, v)) (app.App.default_params sizes)
  in
  let design = app.App.generate ~sizes ~params in
  let absint = Dhdl_absint.Absint.render_json (Dhdl_absint.Absint.analyze design) in
  let deps = Dhdl_absint.Dependence.render_json (Dhdl_absint.Dependence.analyze design) in
  check_bool "the report carries a 2-D conflict witness" true (contains absint "\"index_a\":[0,0]");
  List.iter
    (fun (what, js) ->
      match Sjson.parse js with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s report is not JSON: %s" what msg)
    [ ("absint", absint); ("dependence", deps) ];
  with_sup (sup_config ()) @@ fun sup ->
  (* [rpc] round-trips the reply through the wire codec. *)
  let p = payload (rpc sup (P.request ~id:"an-witness" ~app:"kmeans" ~params P.Analyze)) in
  check_bool "the conflict refutes the point" false (bfield "clean" p);
  check_bool "the witness arrives as an array" true
    (contains (Sjson.render (field "absint" p)) "\"index_a\":[0,0]")

(* A partial binding resolves against the app's defaults exactly as the
   CLI's does. kmeans parDist=12 alone is the default point with parDist
   12 (tile 32 at paper sizes); the server used to hand the partial list
   to the generator, whose own fallbacks built tile 64 instead. *)
let test_partial_params_resolve () =
  let app = Registry.find "kmeans" in
  let sizes = app.App.paper_sizes in
  let partial = [ ("parDist", 12) ] in
  let full = App.resolve app sizes partial in
  check_int "resolved tile is the default's" 32 (List.assoc "tile" full);
  let design = app.App.generate ~sizes ~params:full in
  let expected = Dhdl_absint.Absint.render_json (Dhdl_absint.Absint.analyze design) in
  let rendered js =
    match Sjson.parse js with Ok j -> Sjson.render j | Error msg -> Alcotest.fail msg
  in
  with_sup (sup_config ()) @@ fun sup ->
  let analyze id params = payload (rpc sup (P.request ~id ~app:"kmeans" ~params P.Analyze)) in
  let p = analyze "an-partial" partial in
  check_str "served analysis is the resolved design's" (rendered expected)
    (Sjson.render (field "absint" p));
  check_str "a full binding in default order answers identically"
    (Sjson.render p) (Sjson.render (analyze "an-full" full));
  let p = payload (rpc sup (P.request ~id:"est-partial" ~app:"kmeans" ~params:partial P.Estimate)) in
  check_bool "estimate echoes the resolved binding" true
    (Sjson.obj_or_empty (field "params" p)
    = List.map (fun (k, v) -> (k, Sjson.Int v)) full)

let test_estimate_batch () =
  with_sup (sup_config ()) @@ fun sup ->
  let specs =
    [
      ("dotproduct", [ ("tile", 128); ("par", 4) ]);
      ("dotproduct", [ ("tile", 128); ("par", 4) ]);
      ("nosuchapp", []);
    ]
  in
  let p = payload (rpc sup (P.request ~id:"batch-1" ~specs P.Estimate_batch)) in
  check_int "count covers every spec" 3 (ifield "count" p);
  check_int "only the bad spec failed" 1 (ifield "failed" p);
  (match Sjson.to_list (field "items" p) with
  | Some [ ok1; ok2; bad ] ->
    let e1 = field "ok" ok1 and e2 = field "ok" ok2 in
    check_str "item app echoed" "dotproduct" (sfield "app" e1);
    check_bool "item carries area" true (ifield "alms" (field "area" e1) >= 0);
    check_bool "item carries fidelity flag" false (bfield "degraded" e1);
    (* Same design twice in one batch: the second answer comes from the
       shared Eval cache and must be byte-identical to the first. *)
    check_str "identical specs answer identically" (Sjson.render e1) (Sjson.render e2);
    let err = field "error" bad in
    check_str "bad item is typed per-item" "bad_request" (sfield "code" err);
    check_bool "item error names the benchmark" true
      (contains (sfield "message" err) "unknown benchmark")
  | Some items -> Alcotest.failf "expected 3 items, got %d" (List.length items)
  | None -> Alcotest.fail "items is not a list");
  (* One bad item never fails the envelope, but an empty batch does. *)
  let e = err_of (rpc sup (P.request ~id:"batch-2" P.Estimate_batch)) in
  check_bool "empty specs is a typed bad_request" true
    (e.P.err_code = P.Bad_request && contains e.P.err_message "specs")

let test_bad_requests_are_typed () =
  with_sup (sup_config ()) @@ fun sup ->
  let e = err_of (rpc sup (P.request ~id:"bad-1" P.Estimate)) in
  check_bool "missing app" true (e.P.err_code = P.Bad_request && contains e.P.err_message "app");
  let e = err_of (rpc sup (P.request ~id:"bad-2" ~app:"nosuchapp" P.Estimate)) in
  check_bool "unknown benchmark" true
    (e.P.err_code = P.Bad_request && contains e.P.err_message "unknown benchmark");
  let e = err_of (rpc sup (P.request ~id:"bad-3" ~session:"../evil" P.Dse_status)) in
  check_bool "bad session id" true
    (e.P.err_code = P.Bad_request && contains e.P.err_message "session id");
  let e = err_of (rpc sup (P.request ~id:"bad-4" ~session:"ghost" P.Dse_status)) in
  check_bool "unknown session is typed" true (e.P.err_code = P.Unknown_session)

let test_idempotent_reply_cache () =
  with_sup (sup_config ()) @@ fun sup ->
  let req = P.request ~id:"dup-1" ~app:"dotproduct" P.Estimate in
  let r1 = rpc sup req in
  let r2 = rpc sup req in
  check_str "a retried id returns the cached bytes" (P.render_reply r1) (P.render_reply r2)

(* The cache keeps the newest [reply_cache_cap] replies: one past the
   bound, the oldest id queues again when resubmitted, while the next
   oldest and the newest are still answered at once. *)
let test_reply_cache_bound () =
  with_sup (sup_config ()) @@ fun sup ->
  let cap = Supervisor.reply_cache_cap in
  let id i = Printf.sprintf "rc-%d" i in
  for i = 0 to cap do
    ignore (payload (rpc sup (P.request ~id:(id i) P.Ping)))
  done;
  check_int "nothing queued" 0 (Supervisor.queue_depth sup);
  let answered = ref 0 in
  let resubmit i =
    Supervisor.submit sup (P.request ~id:(id i) P.Ping) ~reply_to:(fun _ -> incr answered)
  in
  resubmit 0;
  check_int "the evicted oldest id queues again" 1 (Supervisor.queue_depth sup);
  check_int "and is not answered yet" 0 !answered;
  resubmit 1;
  resubmit cap;
  check_int "the next oldest and the newest do not queue" 1 (Supervisor.queue_depth sup);
  check_int "both are answered from the cache" 2 !answered;
  check_bool "the requeued id runs" true (Supervisor.run_next sup);
  check_int "and is answered" 3 !answered

let test_admission_control () =
  with_sup (sup_config ~queue_capacity:2 ()) @@ fun sup ->
  let put1, wait1 = inbox sup and put2, wait2 = inbox sup and put3, wait3 = inbox sup in
  Supervisor.submit sup (P.request ~id:"adm-1" P.Ping) ~reply_to:put1;
  Supervisor.submit sup (P.request ~id:"adm-2" P.Ping) ~reply_to:put2;
  check_int "queue holds the capacity" 2 (Supervisor.queue_depth sup);
  Supervisor.submit sup (P.request ~id:"adm-3" P.Ping) ~reply_to:put3;
  let e = err_of (wait3 ()) in
  check_bool "third is shed, typed" true (e.P.err_code = P.Overloaded);
  check_bool "shed reply carries a backoff hint" true (e.P.err_retry_after_ms = Some 75);
  check_bool "message says full" true (contains e.P.err_message "full");
  check_bool "first queued request completes" true (bfield "pong" (payload (wait1 ())));
  check_bool "second queued request completes" true (bfield "pong" (payload (wait2 ())));
  (* A shed is never cached against the id: once the queue drains, the
     same id is admitted and executed. *)
  let put3b, wait3b = inbox sup in
  Supervisor.submit sup (P.request ~id:"adm-3" P.Ping) ~reply_to:put3b;
  check_bool "shed id succeeds on retry" true (bfield "pong" (payload (wait3b ())))

let test_deadline_exceeded () =
  with_sup (sup_config ()) @@ fun sup ->
  let put, wait = inbox sup in
  let req = P.request ~id:"dl-1" ~deadline_ms:5 ~app:"dotproduct" P.Estimate in
  Supervisor.submit sup req ~reply_to:put;
  Unix.sleepf 0.05;
  let e = err_of (wait ()) in
  check_bool "expired work answers deadline_exceeded" true (e.P.err_code = P.Deadline_exceeded);
  check_bool "names the budget" true (contains e.P.err_message "5 ms");
  (* Expiry is a final reply: the retried id gets the cached verdict. *)
  let put2, wait2 = inbox sup in
  Supervisor.submit sup req ~reply_to:put2;
  check_bool "expiry is cached" true ((err_of (wait2 ())).P.err_code = P.Deadline_exceeded);
  (* A generous deadline is not in the way. *)
  let put3, wait3 = inbox sup in
  Supervisor.submit sup (P.request ~id:"dl-2" ~deadline_ms:60_000 P.Ping) ~reply_to:put3;
  check_bool "live deadline passes" true (bfield "pong" (payload (wait3 ())))

let test_degraded_under_queue_depth () =
  with_sup (sup_config ~degrade_depth:1 ()) @@ fun sup ->
  let put1, wait1 = inbox sup and put2, wait2 = inbox sup in
  Supervisor.submit sup (P.request ~id:"dg-1" ~app:"dotproduct" P.Estimate) ~reply_to:put1;
  Supervisor.submit sup (P.request ~id:"dg-2" ~app:"dotproduct" P.Estimate) ~reply_to:put2;
  let p1 = payload (wait1 ()) and p2 = payload (wait2 ()) in
  (* dg-1 dispatched with dg-2 still queued: depth 1 >= degrade_depth. *)
  check_bool "deep queue degrades to the analytical model" true (bfield "degraded" p1);
  check_bool "drained queue restores full fidelity" false (bfield "degraded" p2);
  check_bool "degraded estimate is still usable" true (ifield "alms" (field "area" p1) >= 0)

let test_degraded_on_nn_fallback () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  with_faults @@ fun () ->
  Faults.set_site "estimator.nn_correction" 1.0;
  with_sup (sup_config ~nn_fallback_limit:1 ()) @@ fun sup ->
  let p1 = payload (rpc sup (P.request ~id:"nn-1" ~app:"dotproduct" P.Estimate)) in
  check_bool "first estimate precedes the trip" false (bfield "degraded" p1);
  let p2 = payload (rpc sup (P.request ~id:"nn-2" ~app:"dotproduct" P.Estimate)) in
  check_bool "fallback trip degrades later estimates" true (bfield "degraded" p2);
  (* Both answered from the raw analytical model (the first through the
     estimator's own fallback), so the areas agree. *)
  check_str "areas agree across the degradation paths"
    (Sjson.render (field "area" p1))
    (Sjson.render (field "area" p2))

let test_quarantine_after_repeated_crashes () =
  with_faults @@ fun () ->
  with_sup (sup_config ~quarantine_threshold:3 ()) @@ fun sup ->
  Faults.set_site "serve.handler" 1.0;
  let r = rpc sup (P.request ~id:"poison" P.Ping) in
  let e = err_of r in
  check_bool "parked as quarantined" true (e.P.err_code = P.Quarantined);
  check_int "one chain entry per crash" 3 (List.length e.P.err_chain);
  List.iter
    (fun m -> check_bool "chain names the crash site" true (contains m "serve.handler"))
    e.P.err_chain;
  check_bool "message says parked" true (contains e.P.err_message "parked");
  Faults.reset ();
  (* The verdict is final: retrying the id returns the cached park, it
     does not re-execute even now that the handler would succeed. *)
  let r2 = rpc sup (P.request ~id:"poison" P.Ping) in
  check_str "quarantine is cached" (P.render_reply r) (P.render_reply r2);
  (* Other ids were never poisoned. *)
  check_bool "healthy traffic unaffected" true
    (bfield "pong" (payload (rpc sup (P.request ~id:"healthy" P.Ping))))

let test_draining_refuses_new_work () =
  let root = fresh_root "drainsess" in
  let sup = Supervisor.create (sup_config ~root ~checkpoint_every:3 ()) in
  ignore
    (payload
       (rpc sup
          (P.request ~id:"dr-1" ~app:"dotproduct" ~session:"d1" ~seed:11 ~max_points:150
             P.Dse_start)));
  let p = payload (rpc sup (P.request ~id:"dr-2" P.Shutdown)) in
  check_bool "shutdown acknowledges" true (bfield "draining" p);
  check_bool "flag visible" true (Supervisor.draining sup);
  let put, wait = inbox sup in
  Supervisor.submit sup (P.request ~id:"dr-3" P.Ping) ~reply_to:put;
  check_bool "new work refused while draining" true ((err_of (wait ())).P.err_code = P.Draining);
  Supervisor.drain sup;
  (* Graceful shutdown cancelled the sweep; its state is on disk and the
     session is resumable, not lost and not marked done. *)
  (match Session.status ~root "d1" with
  | Session.Interrupted (_, n, torn) ->
    check_bool "entries non-negative" true (n >= 0);
    check_bool "checkpoint not torn" false torn
  | Session.Fresh _ -> ()
  | st ->
    Alcotest.failf "expected a resumable session after drain, got %s"
      (match st with
      | Session.Done _ -> "done"
      | Session.Failed _ -> "failed"
      | Session.Unknown -> "unknown"
      | _ -> "?"));
  rm_rf root

(* ==================================================================== *)
(* 7. Sessions end to end through the supervisor                        *)
(* ==================================================================== *)

let wait_done sup sid =
  poll_until ~timeout_s:120.0 (fun () ->
      match (rpc sup (P.request ~id:(fresh_id "st") ~session:sid P.Dse_status)).P.r_body with
      | Ok p when sfield "state" p = "done" -> Some (field "summary" p)
      | _ -> None)

let test_session_lifecycle_and_golden () =
  let root = fresh_root "sess" in
  with_sup (sup_config ~root ~checkpoint_every:5 ()) @@ fun sup ->
  let seed = 11 and max_points = 40 in
  let sid = "s1" in
  let start id = P.request ~id ~app:"dotproduct" ~session:sid ~seed ~max_points P.Dse_start in
  let p = payload (rpc sup (start "sl-1")) in
  check_str "starts running" "running" (sfield "state" p);
  check_bool "started" true (bfield "started" p);
  check_int "nothing to resume" 0 (ifield "resumed_entries" p);
  let summary = wait_done sup sid in
  check_int "sampled the budget" max_points (ifield "sampled" summary);
  check_int "processed everything" max_points (ifield "processed" summary);
  check_bool "summary has a best point" true (Sjson.member "best_cycles" summary <> None);
  (* Starting a finished session replies from disk without re-running. *)
  let p = payload (rpc sup (start "sl-2")) in
  check_str "already done" "done" (sfield "state" p);
  check_bool "not restarted" false (bfield "started" p);
  (* A conflicting spec for the same session id is refused. *)
  let e =
    err_of (rpc sup (P.request ~id:"sl-3" ~app:"dotproduct" ~session:sid ~seed:99 ~max_points P.Dse_start))
  in
  check_bool "spec mismatch refused" true
    (e.P.err_code = P.Bad_request && contains e.P.err_message "already exists");
  (* Cancel on a finished sweep is a reported no-op. *)
  let p = payload (rpc sup (P.request ~id:"sl-4" ~session:sid P.Dse_cancel)) in
  check_bool "nothing to cancel" false (bfield "cancelled" p);
  check_str "still done" "done" (sfield "state" p);
  (* The sweep the server ran left exactly the bytes a direct run of the
     engine leaves: serving adds no nondeterminism. *)
  let golden = tmp "sess_golden.jsonl" in
  (try Sys.remove golden with Sys_error _ -> ());
  let app = Registry.find "dotproduct" in
  let sizes = app.App.paper_sizes in
  let cfg =
    Explore.Config.make ~seed ~max_points ~jobs:1 ~checkpoint:golden ~checkpoint_every:5
      ~tick_every:0 ()
  in
  ignore
    (Explore.run cfg (Eval.create (Lazy.force estimator))
       ~space:(app.App.space sizes)
       ~generate:(fun pt -> app.App.generate ~sizes ~params:pt));
  check_str "server checkpoint matches the direct-run golden bytes" (read_file golden)
    (read_file (Session.checkpoint_path ~root sid));
  Sys.remove golden;
  rm_rf root

let test_cancel_then_resume () =
  let root = fresh_root "cancel" in
  with_sup (sup_config ~root ~checkpoint_every:3 ()) @@ fun sup ->
  let seed = 11 and max_points = 150 in
  let sid = "c1" in
  let start id = P.request ~id ~app:"dotproduct" ~session:sid ~seed ~max_points P.Dse_start in
  ignore (payload (rpc sup (start "cr-1")));
  let p = payload (rpc sup (P.request ~id:"cr-2" ~session:sid P.Dse_cancel)) in
  check_bool "cancelled the running sweep" true (bfield "cancelled" p);
  let state = sfield "state" p in
  check_bool "parked, not done" true (state = "interrupted" || state = "fresh");
  let p = payload (rpc sup (start "cr-3")) in
  check_bool "resume restarts" true (bfield "started" p);
  let resumed_entries = ifield "resumed_entries" p in
  let summary = wait_done sup sid in
  check_int "processed the full budget after resume" max_points (ifield "processed" summary);
  check_int "reused exactly the cancelled prefix" resumed_entries (ifield "resumed" summary);
  rm_rf root

(* A session interrupted under `dhdl serve --jobs 1` starts again under
   `--jobs 2`: the jobs level is no part of a session's identity, since
   checkpoints are bit-identical across jobs levels. The session is left
   as a server from before that change left it, its spec.json holding
   "jobs":1, and the resumed sweep must end on the bytes of an
   uninterrupted jobs=1 run. *)
let test_resume_under_other_jobs () =
  let root = fresh_root "jobs" in
  let seed = 5 and max_points = 300 and sid = "s1" in
  let start id = P.request ~id ~app:"dotproduct" ~session:sid ~seed ~max_points P.Dse_start in
  (with_sup (sup_config ~root ~checkpoint_every:3 ~dse_jobs:1 ()) @@ fun sup ->
   check_bool "started under --jobs 1" true (bfield "started" (payload (rpc sup (start "j1-1"))));
   let p = payload (rpc sup (P.request ~id:"j1-2" ~session:sid P.Dse_cancel)) in
   check_bool "cancelled under --jobs 1" true (bfield "cancelled" p));
  let oc = open_out_bin (Filename.concat (Session.dir ~root sid) "spec.json") in
  Printf.fprintf oc "{\"app\":\"dotproduct\",\"seed\":%d,\"max_points\":%d,\"jobs\":1}" seed
    max_points;
  close_out oc;
  check_bool "a spec.json with jobs still reads" true
    (Session.load_spec ~root sid
    = Some { Session.s_app = "dotproduct"; s_seed = seed; s_max_points = max_points });
  with_sup (sup_config ~root ~checkpoint_every:3 ~dse_jobs:2 ()) @@ fun sup ->
  let p = payload (rpc sup (start "j2-1")) in
  check_bool "started again under --jobs 2" true (bfield "started" p);
  let resumed_entries = ifield "resumed_entries" p in
  let summary = wait_done sup sid in
  check_int "processed the full budget" max_points (ifield "processed" summary);
  check_int "reused the --jobs 1 prefix" resumed_entries (ifield "resumed" summary);
  let golden = tmp "jobs_golden.jsonl" in
  (try Sys.remove golden with Sys_error _ -> ());
  let app = Registry.find "dotproduct" in
  let sizes = app.App.paper_sizes in
  let cfg =
    Explore.Config.make ~seed ~max_points ~checkpoint:golden ~checkpoint_every:3 ~tick_every:0 ()
  in
  ignore
    (Explore.run cfg (Eval.create (Lazy.force estimator))
       ~space:(app.App.space sizes)
       ~generate:(fun pt -> app.App.generate ~sizes ~params:pt));
  check_str "resumed under --jobs 2, the bytes of an uninterrupted jobs=1 run" (read_file golden)
    (read_file (Session.checkpoint_path ~root sid));
  Sys.remove golden;
  rm_rf root

(* ==================================================================== *)
(* 8. The socket front end                                              *)
(* ==================================================================== *)

let raw_roundtrip socket line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let data = Bytes.of_string (line ^ "\n") in
      let sent = ref 0 in
      while !sent < Bytes.length data do
        sent := !sent + Unix.write fd data !sent (Bytes.length data - !sent)
      done;
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec read_line () =
        match String.index_opt (Buffer.contents buf) '\n' with
        | Some i -> String.sub (Buffer.contents buf) 0 i
        | None ->
          if Unix.gettimeofday () > deadline then Alcotest.fail "no reply line within 30 s"
          else (
            match Unix.select [ fd ] [] [] 1.0 with
            | [], _, _ -> read_line ()
            | _ ->
              (match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> Alcotest.fail "connection closed before reply"
              | n -> Buffer.add_subbytes buf chunk 0 n);
              read_line ())
      in
      read_line ())

let test_socket_end_to_end () =
  let socket = tmp "e2e.sock" in
  let root = fresh_root "e2e" in
  with_server ~socket (sup_config ~root ()) @@ fun client ->
  let p = payload (must_call client (P.request ~id:"e2e-ping" P.Ping)) in
  check_bool "pong over the wire" true (bfield "pong" p);
  let r = must_call client (P.request ~id:"e2e-est" ~app:"dotproduct" P.Estimate) in
  let p = payload r in
  check_str "estimate over the wire" "dotproduct" (sfield "app" p);
  ignore (bfield "fits" p);
  (* A malformed line cannot be attributed to an id, but still gets a
     typed reply instead of silence or a dropped connection. *)
  (match P.parse_reply (raw_roundtrip socket "this is not json") with
  | Ok { P.r_id = "?"; r_body = Error e } ->
    check_bool "malformed line answers bad_request" true (e.P.err_code = P.Bad_request)
  | Ok r -> Alcotest.failf "unexpected reply to garbage: %s" (P.render_reply r)
  | Error msg -> Alcotest.failf "reply to garbage does not parse: %s" msg);
  (* Idempotency holds across connections: a retried id returns the
     original bytes without re-executing. *)
  let r2 = must_call client (P.request ~id:"e2e-est" ~app:"dotproduct" P.Estimate) in
  check_str "retry across connections is cached" (P.render_reply r) (P.render_reply r2);
  let p = payload (must_call client (P.request ~id:"e2e-bye" P.Shutdown)) in
  check_bool "shutdown acknowledged" true (bfield "draining" p);
  rm_rf root

(* A raw connection for the line-reader tests: [send] writes bytes as
   given, [recv n] returns the next [n] reply lines. *)
let with_raw_conn socket f =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket);
      let send text =
        let sent = ref 0 in
        while !sent < String.length text do
          sent := !sent + Unix.write_substring fd text !sent (String.length text - !sent)
        done
      in
      let pending = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec recv_line () =
        let text = Buffer.contents pending in
        match String.index_opt text '\n' with
        | Some i ->
          Buffer.clear pending;
          Buffer.add_string pending (String.sub text (i + 1) (String.length text - i - 1));
          String.sub text 0 i
        | None ->
          if Unix.gettimeofday () > deadline then Alcotest.fail "no reply line within 30 s";
          (match Unix.select [ fd ] [] [] 1.0 with
          | [], _, _ -> ()
          | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> Alcotest.fail "connection closed before reply"
            | n -> Buffer.add_subbytes pending chunk 0 n));
          recv_line ()
      in
      f send (fun n -> List.init n (fun _ -> recv_line ())))

let reply_id line =
  match P.parse_reply line with
  | Ok r -> r.P.r_id
  | Error msg -> Alcotest.failf "reply does not parse: %s" msg

(* The reader scans only newly read bytes for newlines and keeps the
   partial line in place: a request dribbled one byte per write is
   answered once, two requests in one write are both answered, and a
   4 MB line costs time linear in its length. *)
let test_socket_line_reader () =
  let socket = tmp "lines.sock" in
  let root = fresh_root "lines" in
  let ping id = P.render_request (P.request ~id P.Ping) ^ "\n" in
  with_server ~socket (sup_config ~root ()) @@ fun client ->
  with_raw_conn socket (fun send recv ->
      String.iter
        (fun c ->
          send (String.make 1 c);
          Unix.sleepf 0.001)
        (ping "dribble");
      (* The next reply is the next request's: the dribbled one was
         answered exactly once. *)
      send (ping "after-dribble");
      Alcotest.(check (list string)) "dribbled request answered once"
        [ "dribble"; "after-dribble" ] (List.map reply_id (recv 2));
      send (ping "pair-a" ^ ping "pair-b");
      Alcotest.(check (list string)) "both requests of one write answered"
        [ "pair-a"; "pair-b" ]
        (List.sort compare (List.map reply_id (recv 2)));
      let t0 = Unix.gettimeofday () in
      send (String.make (4 * 1024 * 1024) 'x' ^ "\n");
      let long = List.hd (recv 1) in
      let dt = Unix.gettimeofday () -. t0 in
      (match P.parse_reply long with
      | Ok { P.r_id = "?"; r_body = Error e } ->
        check_bool "4 MB line answers bad_request" true (e.P.err_code = P.Bad_request)
      | _ -> Alcotest.failf "unexpected reply to a 4 MB line: %s" long);
      check_bool (Printf.sprintf "4 MB line answered in %.2f s (< 2 s)" dt) true (dt < 2.0);
      send (ping "after-long");
      Alcotest.(check (list string)) "one reply to the long line" [ "after-long" ]
        (List.map reply_id (recv 1)));
  ignore (must_call client (P.request ~id:"lines-bye" P.Shutdown));
  rm_rf root

(* Each wrong-typed request line gets exactly one reply, a bad_request
   naming the field: the ping sent after it is answered next. *)
let test_socket_wrong_typed_fields () =
  let socket = tmp "typed.sock" in
  let root = fresh_root "typed" in
  with_server ~socket (sup_config ~root ()) @@ fun client ->
  with_raw_conn socket (fun send recv ->
      List.iteri
        (fun i (line, fragment) ->
          let ping = Printf.sprintf "after-%d" i in
          send (line ^ "\n" ^ P.render_request (P.request ~id:ping P.Ping) ^ "\n");
          match recv 2 with
          | [ bad; next ] ->
            (match P.parse_reply bad with
            | Ok { P.r_body = Error e; _ } ->
              check_bool (line ^ " answers bad_request") true (e.P.err_code = P.Bad_request);
              check_bool (Printf.sprintf "%s names %S" line fragment) true
                (contains e.P.err_message fragment)
            | _ -> Alcotest.failf "unexpected reply to %s: %s" line bad);
            check_str (line ^ " is answered once") ping (reply_id next)
          | _ -> assert false)
        wrong_typed_fields);
  ignore (must_call client (P.request ~id:"typed-bye" P.Shutdown));
  rm_rf root

let test_socket_stale_file_replaced () =
  let socket = tmp "stale.sock" in
  let root = fresh_root "stale" in
  (* Crash residue: a dead socket file where the server wants to bind. *)
  (try Sys.remove socket with Sys_error _ -> ());
  let oc = open_out socket in
  close_out oc;
  with_server ~socket (sup_config ~root ()) @@ fun client ->
  check_bool "server replaced the stale socket file" true
    (bfield "pong" (payload (must_call client (P.request ~id:"stale-1" P.Ping))));
  ignore (must_call client (P.request ~id:"stale-bye" P.Shutdown));
  rm_rf root

(* A one-connection server that reads the client's request line, then
   writes [chunks], each with a write of its own, [gap] seconds apart. *)
let with_scripted_server socket ?(gap = 0.0) chunks f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Sys.remove socket with Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 1;
  let server =
    Domain.spawn (fun () ->
        let cfd, _ = Unix.accept lfd in
        Fun.protect
          ~finally:(fun () -> Unix.close cfd)
          (fun () ->
            let b = Bytes.create 1 in
            let rec request_line () =
              if Unix.read cfd b 0 1 = 1 && Bytes.get b 0 <> '\n' then request_line ()
            in
            request_line ();
            try
              List.iter
                (fun c ->
                  ignore (Unix.write_substring cfd c 0 (String.length c));
                  Unix.sleepf gap)
                chunks
            with Unix.Unix_error _ -> ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join server;
      Unix.close lfd;
      try Sys.remove socket with Sys_error _ -> ())
    f

(* The client scans only the bytes each read returns for the newline: a
   reply that arrives one byte per read is assembled whole, and of two
   reply lines that arrive in one read the first is returned. *)
let test_client_reply_reads () =
  let socket = tmp "scripted.sock" in
  let client = Client.create ~timeout_s:10.0 ~max_attempts:1 ~socket_path:socket () in
  let reply id = P.render_reply (P.ok ~id (Sjson.Obj [ ("pong", Sjson.Bool true) ])) ^ "\n" in
  let call () =
    match Client.call client (P.request ~id:"q" P.Ping) with
    | Ok r -> r
    | Error msg -> Alcotest.failf "no reply: %s" msg
  in
  let line = reply "dribbled" in
  let r =
    with_scripted_server socket ~gap:0.002
      (List.init (String.length line) (fun i -> String.make 1 line.[i]))
      call
  in
  check_str "a reply one byte per read" (reply "dribbled") (P.render_reply r ^ "\n");
  let r = with_scripted_server socket [ reply "first" ^ reply "second" ] call in
  check_str "two lines in one read: the first" "first" r.P.r_id;
  let r = with_scripted_server socket ~gap:0.01 [ String.sub line 0 (String.length line - 1); "\n" ] call in
  check_str "a newline alone in the last read" "dribbled" r.P.r_id

(* A server that hangs up before reading the request: the client's write
   fails and [call] answers [Error "send: ..."]. SIGPIPE is at its default
   disposition for this test, as in a fresh process, so a client that
   left it there would be killed by the write instead. *)
let test_client_survives_hang_up () =
  let socket = tmp "hangup.sock" in
  let saved = Sys.signal Sys.sigpipe Sys.Signal_default in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe saved) @@ fun () ->
  (try Sys.remove socket with Sys_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 1;
  let server = Domain.spawn (fun () -> Unix.close (fst (Unix.accept lfd))) in
  Fun.protect
    ~finally:(fun () ->
      Domain.join server;
      Unix.close lfd;
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  let client = Client.create ~max_attempts:1 ~socket_path:socket () in
  (* 1 MB: more than the socket buffer holds, so the write cannot finish
     before the server hangs up. *)
  let req = P.request ~id:"hang-up" ~app:(String.make 1_000_000 'x') P.Estimate in
  match Client.call client req with
  | Error msg -> check_bool (msg ^ ": a send error") true (String.starts_with ~prefix:"send: " msg)
  | Ok r -> Alcotest.failf "a server that hung up answered %s" (P.render_reply r)

(* With Obs on, every request line is parsed under [serve.parse] and
   every reply rendered under [serve.render] inside its request's span,
   so a [dhdl serve --jsonl] log accounts for the codec per request. *)
let test_socket_codec_spans () =
  let socket = tmp "spans.sock" in
  let root = fresh_root "spans" in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  with_server ~socket (sup_config ~root ()) (fun client ->
      List.iter
        (fun req -> ignore (must_call client req))
        [ P.request ~id:"sp-1" P.Ping; P.request ~id:"sp-2" ~app:"dotproduct" P.Estimate;
          P.request ~id:"sp-3" ~specs:[ ("gda", []); ("kmeans", []) ] P.Estimate_batch ]);
  (* [with_server] has shut the server down and joined it: its
     request spans are all in the sink. *)
  let spans = (Obs.snapshot ()).Obs.snap_spans in
  let named name = List.filter (fun sp -> sp.Obs.sp_name = name) spans in
  let requests =
    List.filter
      (fun sp -> sp.Obs.sp_depth = 0 && String.starts_with ~prefix:"serve." sp.Obs.sp_name
                 && sp.Obs.sp_track > 0)
      spans
  in
  let parses = named "serve.parse" and renders = named "serve.render" in
  (* The ready pings, the three requests and the shutdown. *)
  check_bool (Printf.sprintf "%d requests seen (>= 5)" (List.length requests)) true
    (List.length requests >= 5);
  check_int "one serve.parse per request" (List.length requests) (List.length parses);
  check_int "one serve.render per request" (List.length requests) (List.length renders);
  List.iter
    (fun req ->
      let inside =
        List.filter (fun sp -> sp.Obs.sp_track = req.Obs.sp_track && sp.Obs.sp_depth > 0) renders
      in
      check_int (req.Obs.sp_name ^ " renders its reply inside its span") 1 (List.length inside))
    requests;
  rm_rf root

(* ==================================================================== *)
(* 9. Acceptance soak: 5% mixed faults, exactly one typed reply each    *)
(* ==================================================================== *)

let test_fault_soak_exactly_one_reply () =
  with_faults @@ fun () ->
  let socket = tmp "soak.sock" in
  let root = fresh_root "soak" in
  Faults.configure ~seed:9 ~p:0.0 ();
  List.iter
    (fun s -> Faults.set_site s 0.05)
    [ "serve.handler"; "serve.sock_read"; "serve.sock_write"; "serve.session_store" ];
  with_server ~socket (sup_config ~root ~checkpoint_every:3 ()) @@ fun client ->
  let n = 50 in
  let replies = Hashtbl.create n in
  for i = 0 to n - 1 do
    let id = Printf.sprintf "soak-%d" i in
    let req, expected =
      match i mod 5 with
      | 0 -> (P.request ~id P.Ping, `Ok)
      | 1 -> (P.request ~id ~app:"dotproduct" P.Estimate, `Ok)
      | 2 -> (P.request ~id ~app:"dotproduct" P.Lint, `Ok)
      | 3 -> (P.request ~id ~app:"nosuchapp" P.Estimate, `Err P.Bad_request)
      | _ -> (P.request ~id ~session:(Printf.sprintf "missing-%d" i) P.Dse_status, `Err P.Unknown_session)
    in
    let reply = must_call client req in
    Hashtbl.replace replies id (Option.value (Hashtbl.find_opt replies id) ~default:0 + 1);
    check_str (id ^ " echoes its id") id reply.P.r_id;
    match (expected, reply.P.r_body) with
    | `Ok, Ok _ -> ()
    | `Err code, Error e when e.P.err_code = code -> ()
    (* A request whose handler the fault stream crashed three times in a
       row is parked — still exactly one typed reply, never silence. *)
    | _, Error e when e.P.err_code = P.Quarantined -> ()
    | `Ok, Error e ->
      Alcotest.failf "%s: expected ok, got %s: %s" id (P.error_code_name e.P.err_code)
        e.P.err_message
    | `Err want, Error e ->
      Alcotest.failf "%s: expected %s, got %s" id (P.error_code_name want)
        (P.error_code_name e.P.err_code)
    | `Err want, Ok _ -> Alcotest.failf "%s: expected %s, got ok" id (P.error_code_name want)
  done;
  check_int "every request got exactly one reply" n (Hashtbl.length replies);
  Hashtbl.iter
    (fun id c -> if c <> 1 then Alcotest.failf "id %s got %d replies" id c)
    replies;
  (* A session runs to completion through the same fault stream — the
     store faults cost retries, never state. *)
  let sid = "soak-session" in
  ignore
    (must_call client
       (P.request ~id:"soak-dse" ~app:"dotproduct" ~session:sid ~seed:11 ~max_points:15
          P.Dse_start));
  poll_until ~timeout_s:120.0 (fun () ->
      match
        (must_call client (P.request ~id:(fresh_id "soak-st") ~session:sid P.Dse_status)).P.r_body
      with
      | Ok p when sfield "state" p = "done" -> Some ()
      | _ -> None);
  let p = payload (must_call client (P.request ~id:"soak-bye" P.Shutdown)) in
  check_bool "drained under faults" true (bfield "draining" p);
  rm_rf root

(* ==================================================================== *)
(* 9. The request layer under hostile bindings                          *)
(* ==================================================================== *)

let app_dims =
  List.map (fun (a : App.t) -> (a, Space.dims (a.App.space a.App.paper_sizes))) Registry.all

(* Bindings a client could send: any app, zero to four overrides, names
   mostly real and sometimes not, values often hostile (0, negatives,
   min_int, values near max_int, 2^62), otherwise a sampled candidate or
   a small integer. *)
let gen_hostile_binding =
  let open QCheck.Gen in
  oneofl app_dims >>= fun ((a : App.t), dims) ->
  let name =
    frequency [ (5, oneofl (List.map fst dims)); (1, oneofl [ "bogus"; "Tile"; "meta "; "" ]) ]
  in
  let value n =
    frequency
      [
        (3, match List.assoc_opt n dims with Some vs -> oneofl vs | None -> return 1);
        (1, int_range 1 300);
        (1, return 0);
        (1, map (fun k -> -k) (int_range 1 1000));
        (1, return min_int);
        (1, map (fun k -> max_int - k) (int_range 0 2));
        (1, return (1 lsl 62));
      ]
  in
  map
    (fun b -> (a.App.name, b))
    (list_size (int_range 0 4) (name >>= fun n -> map (fun v -> (n, v)) (value n)))

let print_binding (app, b) =
  String.concat " " (app :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) b)

(* What the layer must refuse, worked out from the spaces directly: an
   unknown name, or a value (the first given for its name) of the wrong
   kind for its dimension. *)
let must_refuse (app, b) =
  let dims = List.assoc app (List.map (fun ((a : App.t), d) -> (a.App.name, d)) app_dims) in
  let starts prefix n = String.starts_with ~prefix n in
  List.exists (fun (k, _) -> not (List.mem_assoc k dims)) b
  || List.exists
       (fun (n, vs) ->
         match List.assoc_opt n b with
         | None -> false
         | Some v ->
           if starts "tile" n then v < 1
           else if starts "par" n then v < 1 || v > List.fold_left max 1 vs
           else v <> 0 && v <> 1)
       dims

let hostile_eval = lazy (Eval.create (Lazy.force estimator))

(* Each request returns a result or raises [Failure], within a second,
   and the binding check refuses exactly what [must_refuse] does. *)
let prop_hostile_layer =
  QCheck.Test.make ~count:200 ~name:"hostile bindings: a result or a Failure, promptly"
    (QCheck.make ~print:print_binding gen_hostile_binding)
    (fun ((app, b) as binding) ->
      let ev = Lazy.force hostile_eval in
      let refused = match Request.binding app b with _ -> false | exception Failure _ -> true in
      refused = must_refuse binding
      && List.for_all
           (fun run ->
             let t0 = Unix.gettimeofday () in
             (try run () with Failure _ -> ());
             Unix.gettimeofday () -. t0 < 1.0)
           [
             (fun () -> ignore (Request.estimate ev (Request.point app b)));
             (fun () -> ignore (Request.lint (Request.point app b)));
             (fun () -> ignore (Request.analyze (Request.point app b)));
             (fun () -> ignore (Request.symbolic app b));
           ])

(* The same bindings through a supervisor: exactly one typed reply per
   request, an error only ever [bad_request] (never [quarantined]), and a
   batch of them fails only the items the layer fails. *)
let test_hostile_supervisor () =
  let bindings =
    QCheck.Gen.generate ~rand:(Random.State.make [| 23 |]) ~n:40 gen_hostile_binding
  in
  with_sup (sup_config ()) @@ fun sup ->
  let delivered = Hashtbl.create 128 in
  let m = Mutex.create () in
  let call id req =
    let put, wait = inbox sup in
    let count r =
      Mutex.protect m (fun () ->
          Hashtbl.replace delivered id (1 + Option.value ~default:0 (Hashtbl.find_opt delivered id)));
      put r
    in
    Supervisor.submit sup req ~reply_to:count;
    wait ()
  in
  List.iteri
    (fun i (app, params) ->
      List.iter
        (fun verb ->
          let id = Printf.sprintf "hostile-%d-%s" i (P.verb_name verb) in
          match (call id (P.request ~id ~app ~params verb)).P.r_body with
          | Ok _ -> ()
          | Error e ->
            check_str
              (Printf.sprintf "%s %s: error code" (P.verb_name verb) (print_binding (app, params)))
              "bad_request" (P.error_code_name e.P.err_code))
        [ P.Estimate; P.Lint; P.Analyze ])
    bindings;
  let ev = Lazy.force hostile_eval in
  let expected_failed =
    List.length
      (List.filter
         (fun (app, b) ->
           match Request.estimate ev (Request.point app b) with
           | _ -> false
           | exception Failure _ -> true)
         bindings)
  in
  let batch = payload (call "hostile-batch" (P.request ~id:"hostile-batch" ~specs:bindings P.Estimate_batch)) in
  check_int "one batch entry per spec" (List.length bindings) (ifield "count" batch);
  check_int "the batch fails what the layer fails" expected_failed (ifield "failed" batch);
  let e =
    err_of
      (call "huge-par"
         (P.request ~id:"huge-par" ~app:"kmeans" ~params:[ ("parDist", 1 lsl 62) ] P.Lint))
  in
  check_bool "parDist=2^62 is refused by name" true
    (e.P.err_code = P.Bad_request && contains e.P.err_message "parDist");
  check_bool "a ping is still answered" true
    (bfield "pong" (payload (call "after-huge" (P.request ~id:"after-huge" P.Ping))));
  Hashtbl.iter (fun id n -> check_int (id ^ ": replies delivered") 1 n) delivered

(* A tile that does not divide its extent answers one message naming
   the parameter, its value and the extent, with no exception wrapper:
   on the CLI and in the served bad_request alike. *)
let test_tile_must_divide_message () =
  let expected = "generator: parameter \"tile\" must divide n = 187200000 (got 7)" in
  let code, _, err = run_cli ~timeout_s:5.0 [ "estimate"; "dotproduct"; "tile=7" ] in
  check_int "the CLI exits 1" 1 code;
  check_bool ("the CLI prints: " ^ err) true (contains err ("dhdl: error: " ^ expected ^ "\n"));
  with_sup (sup_config ()) @@ fun sup ->
  let e =
    err_of (rpc sup (P.request ~id:"tile-7" ~app:"dotproduct" ~params:[ ("tile", 7) ] P.Estimate))
  in
  check_bool "served as bad_request" true (e.P.err_code = P.Bad_request);
  check_str "served message" expected e.P.err_message

(* The binding check reads a parameter's kind from its name, so every
   dimension must carry one, every toggle must sample exactly {0, 1},
   and the defaults must name exactly the space's dimensions (those are
   the names [App.resolve] accepts). *)
let test_dimension_kinds () =
  List.iter
    (fun ((a : App.t), dims) ->
      List.iter
        (fun (n, vs) ->
          check_bool
            (Printf.sprintf "%s: %s is tile*, par* or meta*" a.App.name n)
            true
            (List.exists (fun prefix -> String.starts_with ~prefix n) [ "tile"; "par"; "meta" ]);
          if String.starts_with ~prefix:"meta" n then
            Alcotest.(check (list int))
              (Printf.sprintf "%s: %s samples {0, 1}" a.App.name n)
              [ 0; 1 ] (List.sort compare vs))
        dims;
      Alcotest.(check (list string))
        (a.App.name ^ ": the defaults name the space's dimensions")
        (List.map fst dims)
        (List.map fst (a.App.default_params a.App.paper_sizes)))
    app_dims

(* ==================================================================== *)

let () =
  Alcotest.run "serve"
    [
      (* Forking suites first: see the header comment. *)
      ( "recovery",
        [
          Alcotest.test_case "SIGKILL + restart + resume is byte-identical" `Quick
            test_kill_resume_byte_identical;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unknown subcommand" `Quick test_cli_unknown_subcommand;
          Alcotest.test_case "unknown flag" `Quick test_cli_unknown_flag;
          Alcotest.test_case "unknown subcommand flag" `Quick test_cli_unknown_sub_flag;
          Alcotest.test_case "unknown benchmark" `Quick test_cli_unknown_benchmark;
          Alcotest.test_case "client without a server" `Quick test_cli_client_unreachable;
          Alcotest.test_case "train-samples below one" `Quick test_cli_train_samples_below_one;
          Alcotest.test_case "valid command still exits 0" `Quick test_cli_success_still_zero;
          Alcotest.test_case "hostile bindings exit 1" `Quick test_cli_hostile_bindings;
          Alcotest.test_case "serve runs on one thread" `Quick test_serve_one_thread;
        ] );
      ( "corpus",
        [ Alcotest.test_case "CLI and served outputs by digest" `Quick test_golden_corpus ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "raw splice" `Quick test_json_raw_splice;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "verb and code names" `Quick test_verb_and_code_names;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "batch request roundtrip" `Quick test_batch_request_roundtrip;
          Alcotest.test_case "request parse errors" `Quick test_request_parse_errors;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
          Alcotest.test_case "non-finite estimate survives the codec" `Quick test_reply_non_finite;
        ] );
      ( "session",
        [
          Alcotest.test_case "id validation" `Quick test_session_ids;
          Alcotest.test_case "states derived from disk" `Quick test_session_states_from_disk;
          Alcotest.test_case "store retry absorbs faults" `Quick test_store_retry_absorbs_faults;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "basic verbs" `Quick test_basic_verbs;
          Alcotest.test_case "analyze witnesses are JSON" `Quick test_analyze_witness_json;
          Alcotest.test_case "partial params resolve like the CLI" `Quick
            test_partial_params_resolve;
          Alcotest.test_case "estimate batch" `Quick test_estimate_batch;
          Alcotest.test_case "bad requests are typed" `Quick test_bad_requests_are_typed;
          Alcotest.test_case "idempotent reply cache" `Quick test_idempotent_reply_cache;
          Alcotest.test_case "reply cache is bounded" `Quick test_reply_cache_bound;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
          Alcotest.test_case "degraded under queue depth" `Quick test_degraded_under_queue_depth;
          Alcotest.test_case "degraded on nn fallback" `Quick test_degraded_on_nn_fallback;
          Alcotest.test_case "quarantine after crashes" `Quick test_quarantine_after_repeated_crashes;
          Alcotest.test_case "draining refuses new work" `Quick test_draining_refuses_new_work;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "lifecycle + golden bytes" `Quick test_session_lifecycle_and_golden;
          Alcotest.test_case "cancel then resume" `Quick test_cancel_then_resume;
          Alcotest.test_case "resume under another --jobs" `Quick test_resume_under_other_jobs;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "stale socket file replaced" `Quick test_socket_stale_file_replaced;
          Alcotest.test_case "line reader: dribble, pair, 4 MB line" `Quick test_socket_line_reader;
          Alcotest.test_case "wrong-typed fields answer bad_request once" `Quick
            test_socket_wrong_typed_fields;
          Alcotest.test_case "client: reply byte by byte, two lines in one read" `Quick
            test_client_reply_reads;
          Alcotest.test_case "client: a server that hangs up first" `Quick
            test_client_survives_hang_up;
          Alcotest.test_case "codec spans per request" `Quick test_socket_codec_spans;
        ] );
      ( "soak",
        [
          Alcotest.test_case "5% faults, one typed reply each" `Quick
            test_fault_soak_exactly_one_reply;
        ] );
      ( "request",
        [
          QCheck_alcotest.to_alcotest prop_hostile_layer;
          Alcotest.test_case "hostile bindings: one typed reply each" `Quick
            test_hostile_supervisor;
          Alcotest.test_case "every dimension has a kind" `Quick test_dimension_kinds;
          Alcotest.test_case "a tile that does not divide is named" `Quick
            test_tile_must_divide_message;
        ] );
    ]
