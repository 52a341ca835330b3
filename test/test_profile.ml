(* Contention-profiler suite: bounded histogram reservoirs, multi-domain
   telemetry merging with per-track identity, the JSONL re-import path,
   the sweep time-attribution record read from the sweep's own spans —
   including the guarantee that the sink never perturbs results or
   checkpoint bytes — and the CLI's warning for more jobs than the host
   recommends. Runs under both `dune runtest` and the focused
   `dune build @profile` pre-merge alias. *)

module Obs = Dhdl_obs.Obs
module Explore = Dhdl_dse.Explore
module Profile = Dhdl_dse.Profile
module Eval = Dhdl_dse.Eval
module Checkpoint = Dhdl_dse.Checkpoint
module Estimator = Dhdl_model.Estimator
module App = Dhdl_apps.App

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fake = ref 0.0
let advance_ms ms = fake := !fake +. (ms /. 1000.0)

let with_sink ?hist_cap ?(fake_clock = false) f =
  fake := 0.0;
  if fake_clock then Obs.enable ~clock:(fun () -> !fake) ?hist_cap ()
  else Obs.enable ?hist_cap ();
  Fun.protect ~finally:Obs.disable f

(* ------------------------- bounded reservoirs ------------------------- *)

let test_reservoir_cap () =
  with_sink ~hist_cap:8 @@ fun () ->
  for i = 1 to 100 do
    Obs.observe "h" (float_of_int i)
  done;
  let snap = Obs.snapshot () in
  let kept = List.assoc "h" snap.Obs.snap_hists in
  check_int "kept samples bounded by cap" 8 (Array.length kept);
  check_int "true total exact" 100 (List.assoc "h" snap.Obs.snap_hist_totals);
  (* Every kept sample is a genuine member of the stream. *)
  Array.iter (fun v -> check_bool "kept sample from stream" true (v >= 1.0 && v <= 100.0)) kept;
  let jsonl = Obs.to_jsonl snap in
  check_bool "jsonl exports true count" true (contains jsonl "\"count\":100");
  check_bool "jsonl exports kept size" true (contains jsonl "\"sampled\":8")

let test_reservoir_below_cap_keeps_all () =
  with_sink ~hist_cap:8 @@ fun () ->
  List.iter (Obs.observe "h") [ 3.0; 1.0; 4.0 ];
  let snap = Obs.snapshot () in
  Alcotest.(check (array (float 1e-9)))
    "insertion order, nothing dropped" [| 3.0; 1.0; 4.0 |]
    (List.assoc "h" snap.Obs.snap_hists);
  check_int "total equals kept" 3 (List.assoc "h" snap.Obs.snap_hist_totals)

let test_reservoir_deterministic () =
  let run () =
    with_sink ~hist_cap:8 @@ fun () ->
    for i = 1 to 1000 do
      Obs.observe "h" (float_of_int i)
    done;
    List.assoc "h" (Obs.snapshot ()).Obs.snap_hists
  in
  (* The reservoir RNG is seeded from the histogram name, so two identical
     streams keep identical samples — summaries are reproducible. *)
  Alcotest.(check (array (float 1e-9))) "same stream, same reservoir" (run ()) (run ())

let test_reservoir_merges_across_buffers () =
  with_sink ~hist_cap:8 @@ fun () ->
  Obs.with_domain_buffer ~track:1 (fun () ->
      for i = 1 to 100 do
        Obs.observe "h" (float_of_int i)
      done);
  Obs.with_domain_buffer ~track:2 (fun () ->
      for i = 101 to 200 do
        Obs.observe "h" (float_of_int i)
      done);
  let snap = Obs.snapshot () in
  check_bool "kept bounded" true (Array.length (List.assoc "h" snap.Obs.snap_hists) <= 8);
  check_int "true total survives both merges" 200 (List.assoc "h" snap.Obs.snap_hist_totals)

(* ---------------------- multi-domain telemetry ------------------------ *)

let domains = 4
let per_domain = 500

let concurrent_snapshot () =
  with_sink @@ fun () ->
  let doms =
    List.init domains (fun k ->
        Domain.spawn (fun () ->
            Obs.with_domain_buffer ~track:(k + 1) (fun () ->
                for i = 1 to per_domain do
                  Obs.count "mt.events";
                  Obs.observe "mt.val" (float_of_int i);
                  Obs.span "mt.span" (fun () -> ())
                done)))
  in
  List.iter Domain.join doms;
  Obs.snapshot ()

let test_concurrent_merge_no_loss () =
  let snap = concurrent_snapshot () in
  check_int "counter total: no lost or duplicated increments" (domains * per_domain)
    (List.assoc "mt.events" snap.Obs.snap_counters);
  check_int "histogram true total exact" (domains * per_domain)
    (List.assoc "mt.val" snap.Obs.snap_hist_totals);
  check_int "every span flushed exactly once" (domains * per_domain)
    (List.length snap.Obs.snap_spans)

let test_concurrent_merge_tracks () =
  let snap = concurrent_snapshot () in
  List.iter
    (fun k ->
      let track = k + 1 in
      let spans = List.filter (fun sp -> sp.Obs.sp_track = track) snap.Obs.snap_spans in
      check_int (Printf.sprintf "track %d span count" track) per_domain (List.length spans);
      (* Sequence numbers are assigned at flush under the sink lock, so
         within a track they are strictly increasing in snapshot order. *)
      ignore
        (List.fold_left
           (fun prev sp ->
             check_bool "per-track seq strictly monotone" true (sp.Obs.sp_seq > prev);
             sp.Obs.sp_seq)
           (-1) spans))
    (List.init domains Fun.id)

let test_concurrent_equals_single_domain () =
  let par = concurrent_snapshot () in
  let seq =
    with_sink @@ fun () ->
    for _ = 1 to domains do
      for i = 1 to per_domain do
        Obs.count "mt.events";
        Obs.observe "mt.val" (float_of_int i)
      done
    done;
    Obs.snapshot ()
  in
  check_int "counter total matches a single-domain run"
    (List.assoc "mt.events" seq.Obs.snap_counters)
    (List.assoc "mt.events" par.Obs.snap_counters);
  check_int "histogram total matches a single-domain run"
    (List.assoc "mt.val" seq.Obs.snap_hist_totals)
    (List.assoc "mt.val" par.Obs.snap_hist_totals)

(* Tracks are parameters of [with_domain_buffer], so the per-lane trace
   layout is checked deterministically under a fake clock without racing
   real domains. *)
let test_chrome_trace_tracks_golden () =
  let snap =
    with_sink ~fake_clock:true @@ fun () ->
    Obs.span "collect" (fun () -> advance_ms 1.0);
    Obs.with_domain_buffer ~track:1 (fun () -> Obs.span "point" (fun () -> advance_ms 2.0));
    Obs.with_domain_buffer ~track:2 (fun () -> Obs.span "point" (fun () -> advance_ms 3.0));
    Obs.snapshot ()
  in
  let expected =
    "{\"traceEvents\":[\n"
    ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"dhdl\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"worker 1\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"worker 2\"}},\n"
    ^ "{\"name\":\"collect\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":1000.000,\"args\":{}},\n"
    ^ "{\"name\":\"point\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1000.000,\"dur\":2000.000,\"args\":{}},\n"
    ^ "{\"name\":\"point\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":3000.000,\"dur\":3000.000,\"args\":{}}\n"
    ^ "],\"displayTimeUnit\":\"ms\"}\n"
  in
  check_string "per-domain tid lanes" expected (Obs.to_chrome_trace snap)

(* ------------------------- JSONL re-import ---------------------------- *)

let test_summary_from_jsonl_roundtrip () =
  let snap =
    with_sink ~fake_clock:true @@ fun () ->
    Obs.span "work" (fun () -> advance_ms 2.0);
    (* An attr value ending in a backslash renders as ["x\\"]: the
       quote after the escaped backslash still closes the string. *)
    Obs.span ~attrs:[ ("id", "x\\") ] "request" (fun () -> advance_ms 1.0);
    Obs.count ~by:3 "c";
    Obs.gauge "g" 1.5;
    List.iter (Obs.observe "lat") [ 1.0; 2.0; 9.0 ];
    Obs.snapshot ()
  in
  let live = Obs.render_summary snap in
  match Obs.summary_of_jsonl (Obs.to_jsonl snap) with
  | Error msg -> Alcotest.failf "roundtrip failed: %s" msg
  | Ok rendered ->
    (* The post-hoc summary reproduces every aggregate table of the live
       one (span rollups rebuild from the exported span events). *)
    check_string "summary identical to live render" live rendered

let test_summary_from_jsonl_rejects_garbage () =
  (match Obs.summary_of_jsonl "{\"type\":\"counter\",\"name\":\"c\",\"value\":1}\nnot json\n" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error msg -> check_bool "error names the line" true (contains msg "line 2"));
  match Obs.summary_of_jsonl "{\"type\":\"histogram\",\"name\":\"h\"}\n" with
  | Ok _ -> Alcotest.fail "missing fields accepted"
  | Error msg -> check_bool "error mentions the field" true (contains msg "line 1")

(* ------------------------- sweep attribution -------------------------- *)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

(* One dotproduct sweep, with the sink on unless [sink] is false: the
   result and the snapshot the sweep left in the sink (empty with the
   sink off). *)
let sweep_snap ?checkpoint ?resume ?(jobs = 1) ?(sink = true) ?(max_points = 60) est =
  let app = Dhdl_apps.Registry.find "dotproduct" in
  let sizes = [ ("n", 65_536) ] in
  let cfg = Explore.Config.make ~seed:11 ~max_points ?checkpoint ?resume ~jobs () in
  let go () =
    let r =
      Explore.run cfg (Eval.create est)
        ~space:(app.App.space sizes)
        ~generate:(fun p -> app.App.generate ~sizes ~params:p)
    in
    (r, Obs.snapshot ())
  in
  if sink then begin
    Obs.enable ();
    Fun.protect ~finally:Obs.disable go
  end
  else go ()

let attr_of snap =
  match Profile.of_snapshot snap with
  | Some a -> a
  | None -> Alcotest.fail "the sweep recorded no dse.run span"

let run_sweep ?checkpoint ?resume ?jobs ?max_points est =
  let r, snap = sweep_snap ?checkpoint ?resume ?jobs ?max_points est in
  (r, attr_of snap)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_profile_" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_fractions attr =
  let sum =
    Profile.work_fraction attr +. Profile.contention_fraction attr +. Profile.stall_fraction attr
  in
  Alcotest.(check (float 1e-9)) "work + contention + stall = 1" 1.0 sum

(* [dse.point] spans per track: the points each worker computed. *)
let points_per_track snap =
  List.fold_left
    (fun acc sp ->
      if sp.Obs.sp_name <> "dse.point" then acc
      else
        let n = Option.value ~default:0 (List.assoc_opt sp.Obs.sp_track acc) in
        (sp.Obs.sp_track, n + 1) :: List.remove_assoc sp.Obs.sp_track acc)
    [] snap.Obs.snap_spans

(* Profiling is the sink: with it off a sweep leaves nothing to read. *)
let test_off_by_default () =
  let _, snap = sweep_snap ~sink:false (Lazy.force estimator) in
  check_int "no spans with the sink off" 0 (List.length snap.Obs.snap_spans);
  check_bool "no attribution" true (Profile.of_snapshot snap = None)

let test_sequential_attribution () =
  let r, attr = run_sweep (Lazy.force estimator) in
  check_int "one worker at jobs=1" 1 (List.length attr.Profile.workers);
  let w = List.hd attr.Profile.workers in
  check_int "worker owns every processed point" r.Explore.processed w.Profile.w_points;
  check_bool "no lock wait at jobs=1" true (w.Profile.w_send_block_s = 0.0);
  check_bool "stages measured" true
    (w.Profile.w_generate_s > 0.0 && w.Profile.w_analyze_s > 0.0 && w.Profile.w_estimate_s > 0.0);
  check_bool "setup measured" true (attr.Profile.setup_s > 0.0);
  check_fractions attr

let test_parallel_attribution () =
  let r, attr = run_sweep ~jobs:3 (Lazy.force estimator) in
  check_int "jobs from the dse.run span" 3 attr.Profile.jobs;
  check_int "one record per worker domain" 3 (List.length attr.Profile.workers);
  check_bool "workers in index order" true
    (List.map (fun w -> w.Profile.w_domain) attr.Profile.workers = [ 0; 1; 2 ]);
  check_int "cursor claims partition the points" r.Explore.processed
    (List.fold_left (fun acc w -> acc + w.Profile.w_points) 0 attr.Profile.workers);
  check_bool "collector wall measured" true (attr.Profile.collector.Profile.c_wall_s > 0.0);
  check_bool "reorder occupancy sane" true
    (attr.Profile.max_reorder_occupancy >= 0
    && attr.Profile.max_reorder_occupancy <= r.Explore.processed);
  check_fractions attr

(* The lanes add up on the real sweep. At jobs = 1 setup, the worker's
   wall and the collector's (the seconds it spent recording, and the
   final flush) make the dse.run span, within 2 ms or 2%; at jobs = 3 no
   contended resource held more seconds than the workers ran. *)
let test_attribution_adds_up () =
  let est = Lazy.force estimator in
  let path = tmp "adds_up.jsonl" in
  let _, a = run_sweep ~checkpoint:path est in
  Sys.remove path;
  let w = List.hd a.Profile.workers in
  let c = a.Profile.collector.Profile.c_wall_s in
  let sum = a.Profile.setup_s +. w.Profile.w_wall_s +. c in
  if Float.abs (sum -. a.Profile.wall_s) > Float.max 0.002 (0.02 *. a.Profile.wall_s) then
    Alcotest.failf "jobs=1: setup %.6f s + worker %.6f s + collector %.6f s = %.6f s, dse.run %.6f s"
      a.Profile.setup_s w.Profile.w_wall_s c sum a.Profile.wall_s;
  let _, a = run_sweep ~jobs:3 est in
  let name, secs = Profile.top_contender a in
  if secs > Profile.worker_seconds a then
    Alcotest.failf "jobs=3: top contender %s %.6f s exceeds %.6f worker-seconds" name secs
      (Profile.worker_seconds a)

(* A worker's points are the points it computed: its track's dse.point
   spans. Resumed from half a checkpoint, the reused half belongs to no
   track, at either jobs level. *)
let test_resumed_points_are_no_workers () =
  let est = Lazy.force estimator in
  let full = tmp "resume_full.jsonl" and half = tmp "resume_half.jsonl" in
  ignore (sweep_snap ~checkpoint:full ~sink:false est);
  let c = match Checkpoint.load ~path:full with Ok c -> c | Error msg -> Alcotest.fail msg in
  let kept = List.length c.Checkpoint.entries / 2 in
  List.iter
    (fun jobs ->
      Checkpoint.save ~path:half
        { c with Checkpoint.entries = List.filteri (fun i _ -> i < kept) c.Checkpoint.entries };
      let r, snap = sweep_snap ~checkpoint:half ~resume:true ~jobs est in
      check_int (Printf.sprintf "jobs=%d reused half" jobs) kept r.Explore.resumed;
      let tracks = points_per_track snap in
      check_bool
        (Printf.sprintf "jobs=%d points only on worker tracks" jobs)
        true
        (List.for_all (fun (t, _) -> t >= 0 && t < jobs) tracks);
      check_int
        (Printf.sprintf "jobs=%d dse.point spans = processed - resumed" jobs)
        (r.Explore.processed - r.Explore.resumed)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 tracks);
      check_int
        (Printf.sprintf "jobs=%d worker points = processed - resumed" jobs)
        (r.Explore.processed - r.Explore.resumed)
        (List.fold_left (fun acc w -> acc + w.Profile.w_points) 0 (attr_of snap).Profile.workers))
    [ 1; 4 ];
  Sys.remove full;
  Sys.remove half

let test_profiling_keeps_checkpoints_bit_identical () =
  let est = Lazy.force estimator in
  let plain = tmp "plain.jsonl" in
  let a, _ = sweep_snap ~checkpoint:plain ~sink:false est in
  List.iter
    (fun jobs ->
      let path = tmp (Printf.sprintf "sink_j%d.jsonl" jobs) in
      let b, _ = sweep_snap ~checkpoint:path ~jobs est in
      check_bool
        (Printf.sprintf "jobs=%d evaluations unchanged by the sink" jobs)
        true
        (a.Explore.evaluations = b.Explore.evaluations);
      check_string
        (Printf.sprintf "sink-on jobs=%d checkpoint matches sink-off jobs=1" jobs)
        (read_file plain) (read_file path);
      Sys.remove path)
    [ 1; 2; 4 ];
  Sys.remove plain

(* The spans [Profile] reads are all there, and only worker tracks hold
   points: dse.point spans per track partition the processed points. *)
let test_attribution_with_obs_instrumentation () =
  let r, snap = sweep_snap ~jobs:2 (Lazy.force estimator) in
  check_fractions (attr_of snap);
  let names = List.sort_uniq compare (List.map (fun sp -> sp.Obs.sp_name) snap.Obs.snap_spans) in
  List.iter
    (fun name -> check_bool ("span " ^ name) true (List.mem name names))
    [ "dse.run"; "dse.sample"; "dse.symgate"; "dse.worker"; "dse.point"; "dse.record";
      "dse.pareto"; "eval.generate"; "eval.analyze"; "estimate" ];
  check_int "per-track dse.point spans partition the points" r.Explore.processed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (points_per_track snap));
  check_bool "occupancy gauge recorded" true
    (List.mem_assoc "dse.reorder.max_occupancy" snap.Obs.snap_gauges)

let test_attribution_json () =
  let _, attr = run_sweep ~jobs:2 (Lazy.force estimator) in
  let json = Profile.to_json attr in
  List.iter
    (fun needle -> check_bool ("json has " ^ needle) true (contains json needle))
    [ "\"jobs\":2"; "\"setup_s\":"; "\"work_frac\":"; "\"contention_frac\":"; "\"stall_frac\":";
      "\"top_contender\":"; "\"workers\":["; "\"collector\":{"; "\"max_reorder_occupancy\":" ]

(* [dhdl profile] sweeps every level on a fresh Eval.t: a second jobs=1
   level analyzes its points again instead of answering them from the
   first level's caches. *)
let dhdl_exe = Filename.concat (Filename.concat ".." "bin") "dhdl.exe"

let test_cli_levels_start_cold () =
  let args =
    [| dhdl_exe; "profile"; "--app"; "dotproduct"; "--jobs"; "1,1"; "--points"; "60";
       "--train-samples"; "40"; "--json" |]
  in
  let ic = Unix.open_process_args_in dhdl_exe args in
  let out = In_channel.input_all ic in
  check_bool "profile exits 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  let module J = Dhdl_util.Json in
  let list name j = Option.value ~default:[] (Option.bind (J.member name j) J.to_list) in
  match J.parse out with
  | Error msg -> Alcotest.failf "dhdl profile --json does not parse: %s" msg
  | Ok json -> (
    match list "levels" json with
    | [ _; second ] ->
      let workers =
        Option.fold ~none:[] ~some:(list "workers") (J.member "attribution" second)
      in
      check_int "one worker at jobs=1" 1 (List.length workers);
      List.iter
        (fun w ->
          let analyze = Option.bind (J.member "analyze_s" w) J.to_float in
          check_bool "the second level analyzes its points" true
            (match analyze with Some s -> s > 0.0 | None -> false))
        workers
    | levels -> Alcotest.failf "expected 2 levels, got %d" (List.length levels))

(* [dhdl dse --jobs N] past the host's recommended domain count says so
   in one warning line on stderr, and still sweeps; at [--jobs 1] it is
   silent. *)
let dse_stderr jobs =
  let args =
    [| dhdl_exe; "dse"; "dotproduct"; "-n"; "20"; "--train-samples"; "40"; "--jobs";
       string_of_int jobs |]
  in
  let out, inp, err = Unix.open_process_args_full dhdl_exe args (Unix.environment ()) in
  close_out inp;
  let stdout = In_channel.input_all out and stderr = In_channel.input_all err in
  let status = Unix.close_process_full (out, inp, err) in
  check_bool (Printf.sprintf "jobs=%d exits 0" jobs) true (status = Unix.WEXITED 0);
  check_bool (Printf.sprintf "jobs=%d sweeps" jobs) true (contains stdout "ms per design point");
  List.filter
    (String.starts_with ~prefix:"dhdl: warning:")
    (String.split_on_char '\n' stderr)

let test_cli_jobs_warning () =
  let jobs = Domain.recommended_domain_count () + 1 in
  if jobs <= Explore.Config.max_jobs then
    check_int
      (Printf.sprintf "one warning at jobs=%d" jobs)
      1
      (List.length (dse_stderr jobs));
  check_int "no warning at jobs=1" 0 (List.length (dse_stderr 1))

let () =
  Alcotest.run "profile"
    [
      ( "reservoir",
        [
          Alcotest.test_case "cap and true total" `Quick test_reservoir_cap;
          Alcotest.test_case "below cap keeps all" `Quick test_reservoir_below_cap_keeps_all;
          Alcotest.test_case "deterministic" `Quick test_reservoir_deterministic;
          Alcotest.test_case "merges across buffers" `Quick test_reservoir_merges_across_buffers;
        ] );
      ( "multi-domain",
        [
          Alcotest.test_case "no lost or duplicated events" `Quick test_concurrent_merge_no_loss;
          Alcotest.test_case "per-track identity and order" `Quick test_concurrent_merge_tracks;
          Alcotest.test_case "totals equal single-domain run" `Quick
            test_concurrent_equals_single_domain;
          Alcotest.test_case "chrome trace lanes golden" `Quick test_chrome_trace_tracks_golden;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "summary roundtrip" `Quick test_summary_from_jsonl_roundtrip;
          Alcotest.test_case "malformed input rejected" `Quick
            test_summary_from_jsonl_rejects_garbage;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "off by default" `Quick test_off_by_default;
          Alcotest.test_case "sequential split" `Quick test_sequential_attribution;
          Alcotest.test_case "parallel split" `Quick test_parallel_attribution;
          Alcotest.test_case "lanes add up" `Quick test_attribution_adds_up;
          Alcotest.test_case "resumed points are no worker's" `Quick
            test_resumed_points_are_no_workers;
          Alcotest.test_case "checkpoints bit-identical" `Quick
            test_profiling_keeps_checkpoints_bit_identical;
          Alcotest.test_case "obs instrumentation" `Quick test_attribution_with_obs_instrumentation;
          Alcotest.test_case "json payload" `Quick test_attribution_json;
          Alcotest.test_case "dhdl profile levels start cold" `Quick test_cli_levels_start_cold;
        ] );
      ( "jobs",
        [ Alcotest.test_case "warning past the host's domains" `Quick test_cli_jobs_warning ] );
    ]
