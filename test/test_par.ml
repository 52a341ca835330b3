(* Parallel-sweep suite: Explore.Config validation, the one sweep loop
   running on the calling domain alone at [jobs = 1], and the guarantee
   that a [jobs > 1] sweep — run on real worker domains, with 5% mixed
   faults injected — produces results and checkpoint files bit-identical
   to the [jobs = 1] sweep, including across resume and deadline
   truncation, and that a worker's failure is raised only after every
   worker domain has stopped. Runs under both `dune runtest` and the focused
   `dune build @par` pre-merge alias. *)

module Faults = Dhdl_util.Faults
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Checkpoint = Dhdl_dse.Checkpoint
module Estimator = Dhdl_model.Estimator
module Obs = Dhdl_obs.Obs
module App = Dhdl_apps.App

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

let with_faults f = Fun.protect ~finally:Faults.reset f

(* Same 5% mixed-stage fault recipe as the test_faults acceptance tests:
   the determinism claim has to hold on sweeps where points fail, not just
   on clean ones. *)
let mixed_faults () =
  Faults.configure ~seed:5 ~p:0.0 ();
  List.iter (fun s -> Faults.set_site s 0.05) [ "dse.generator"; "dse.lint"; "dse.estimator" ]

let run_sweep ?checkpoint ?checkpoint_every ?resume ?deadline_seconds ?(jobs = 1) ?(seed = 11)
    ?(max_points = 80) ?generate est =
  let app = Dhdl_apps.Registry.find "dotproduct" in
  let sizes = [ ("n", 65_536) ] in
  let generate =
    Option.value generate ~default:(fun p -> app.App.generate ~sizes ~params:p)
  in
  let cfg =
    Explore.Config.make ~seed ~max_points ?checkpoint ?checkpoint_every ?resume ?deadline_seconds
      ~jobs ()
  in
  Explore.run cfg (Eval.create est) ~space:(app.App.space sizes) ~generate

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_par_" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fails_with_failure f =
  match f () with _ -> false | exception Failure _ -> true

(* ------------------------- Config validation ------------------------- *)

let test_config_defaults () =
  let d = Explore.Config.make () in
  check_int "paper seed" 2016 d.Explore.Config.seed;
  check_int "paper budget" 75_000 d.Explore.Config.max_points;
  check_int "one job by default" 1 d.Explore.Config.jobs;
  check_bool "proof pruning on by default" true d.Explore.Config.absint;
  check_bool "symbolic gate on by default" true d.Explore.Config.symbolic;
  check_bool "no checkpoint by default" true (d.Explore.Config.checkpoint = None)

let test_config_rejects () =
  let make = Explore.Config.make in
  check_bool "jobs 0 rejected" true (fails_with_failure (fun () -> make ~jobs:0 ()));
  check_bool "negative jobs rejected" true (fails_with_failure (fun () -> make ~jobs:(-3) ()));
  check_bool "jobs above max_jobs rejected" true
    (fails_with_failure (fun () -> make ~jobs:(Explore.Config.max_jobs + 1) ()));
  check_bool "jobs accepted up to max" true
    ((make ~jobs:Explore.Config.max_jobs ()).Explore.Config.jobs = Explore.Config.max_jobs);
  check_bool "negative budget rejected" true
    (fails_with_failure (fun () -> make ~max_points:(-1) ()));
  check_bool "negative cadence rejected" true
    (fails_with_failure (fun () -> make ~checkpoint:(tmp "c.jsonl") ~checkpoint_every:(-1) ()));
  check_bool "nan deadline rejected" true
    (fails_with_failure (fun () -> make ~deadline_seconds:Float.nan ()));
  check_bool "resume without checkpoint rejected" true
    (fails_with_failure (fun () -> make ~resume:true ()));
  check_bool "resume with checkpoint accepted" true
    (make ~resume:true ~checkpoint:(tmp "c.jsonl") ()).Explore.Config.resume

(* ------------- jobs = 1: the calling domain is the worker ------------- *)

(* The sweep loop is one loop at every jobs level; at [jobs = 1] it must
   spawn nothing, so every generator call runs on the calling domain (and
   a process can still fork after such a sweep). The [jobs = 4] run shows
   the probe sees worker domains when there are some. *)
let test_jobs1_runs_on_calling_domain () =
  let est = Lazy.force estimator in
  let app = Dhdl_apps.Registry.find "dotproduct" in
  let sizes = [ ("n", 65_536) ] in
  let self = Domain.self () in
  let sweep jobs =
    let calls = ref 0 and elsewhere = Atomic.make 0 in
    let generate p =
      if Domain.self () = self then incr calls else Atomic.incr elsewhere;
      app.App.generate ~sizes ~params:p
    in
    let r = run_sweep ~jobs ~generate est in
    (r, !calls, Atomic.get elsewhere)
  in
  let r, calls, elsewhere = sweep 1 in
  check_bool "points were generated" true (r.Explore.processed > 0 && calls > 0);
  check_int "no generator call off the calling domain" 0 elsewhere;
  let _, _, elsewhere = sweep 4 in
  check_bool "jobs=4 generates on worker domains" true (elsewhere > 0)

(* --------------- the tentpole: parallel == sequential ---------------- *)

let same_result (a : Explore.result) (b : Explore.result) =
  check_bool "evaluations identical" true (a.Explore.evaluations = b.Explore.evaluations);
  check_bool "pareto identical" true (a.Explore.pareto = b.Explore.pareto);
  check_bool "failures identical" true (a.Explore.failures = b.Explore.failures);
  check_int "lint_pruned equal" a.Explore.lint_pruned b.Explore.lint_pruned;
  check_int "processed equal" a.Explore.processed b.Explore.processed;
  check_int "sampled equal" a.Explore.sampled b.Explore.sampled;
  check_bool "truncated equal" true (a.Explore.truncated = b.Explore.truncated)

let test_parallel_determinism () =
  let est = Lazy.force estimator in
  with_faults @@ fun () ->
  let p1 = tmp "seq.jsonl" and p4 = tmp "par.jsonl" in
  mixed_faults ();
  let seq = run_sweep ~checkpoint:p1 est in
  mixed_faults ();
  let par = run_sweep ~checkpoint:p4 ~jobs:4 est in
  check_int "ran on 4 domains" 4 par.Explore.jobs;
  check_bool "faults actually fired" true (Explore.failed_count seq > 0);
  same_result seq par;
  Alcotest.(check string) "checkpoint bytes identical" (read_file p1) (read_file p4)

let test_parallel_clean_determinism () =
  (* Also without faults: lint pruning and Pareto extraction must land
     identically when outcomes arrive out of completion order. *)
  let est = Lazy.force estimator in
  let seq = run_sweep est in
  let par = run_sweep ~jobs:3 est in
  same_result seq par;
  check_bool "something evaluated" true (seq.Explore.evaluations <> [])

let test_parallel_resume () =
  let est = Lazy.force estimator in
  let full = tmp "resume_full.jsonl" and kill = tmp "resume_kill.jsonl" in
  with_faults @@ fun () ->
  mixed_faults ();
  let reference = run_sweep ~checkpoint:full ~jobs:2 est in
  (* Simulate a mid-sweep kill: keep the first 30 checkpoint entries. *)
  (match Checkpoint.load ~path:full with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    Checkpoint.save ~path:kill
      { c with Checkpoint.entries = List.filteri (fun i _ -> i < 30) c.Checkpoint.entries });
  (* Resume a sequential checkpoint in parallel: the jobs level is not
     part of the sweep identity, so any worker count may pick it up. *)
  mixed_faults ();
  let resumed = run_sweep ~checkpoint:kill ~resume:true ~jobs:4 est in
  check_int "30 points reused" 30 resumed.Explore.resumed;
  check_bool "evaluations bit-identical to uninterrupted sweep" true
    (resumed.Explore.evaluations = reference.Explore.evaluations);
  check_bool "failures bit-identical" true
    (resumed.Explore.failures = reference.Explore.failures);
  Alcotest.(check string) "final checkpoints byte-identical" (read_file full) (read_file kill)

let test_parallel_deadline () =
  let est = Lazy.force estimator in
  let path = tmp "deadline.jsonl" in
  let truncated = run_sweep ~checkpoint:path ~deadline_seconds:0.0 ~jobs:4 est in
  check_bool "deadline trips" true truncated.Explore.truncated;
  check_bool "stopped early" true (truncated.Explore.processed < truncated.Explore.sampled);
  (* The truncated parallel run still wrote a resumable checkpoint; a
     sequential resume finishes the job and matches a from-scratch sweep. *)
  let finished = run_sweep ~checkpoint:path ~resume:true est in
  let reference = run_sweep est in
  check_bool "resumed sweep completes" true
    ((not finished.Explore.truncated) && finished.Explore.processed = finished.Explore.sampled);
  check_bool "evaluations match from-scratch sweep" true
    (finished.Explore.evaluations = reference.Explore.evaluations)

(* ------------- a failed worker leaves no domain running -------------- *)

(* A checkpoint flush that fails at jobs = 4 (the checkpoint path is a
   directory) raises out of [Explore.run] with the flush's own
   [Sys_error], and only once every worker domain has stopped: neither
   the generator nor the stop hook, which every worker polls after each
   point, is called after the raise. Spawned workers sleep 2 ms per
   generated design, so whenever the calling domain could return, they
   are in mid-point. *)
let test_failed_flush_joins_workers () =
  let est = Lazy.force estimator in
  let app = Dhdl_apps.Registry.find "gda" in
  let sizes = app.App.paper_sizes in
  let dir = tmp "checkpoint_dir" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let calls = Atomic.make 0 and polls = Atomic.make 0 in
  let self = Domain.self () in
  let generate p =
    Atomic.incr calls;
    if Domain.self () <> self then Unix.sleepf 0.002;
    app.App.generate ~sizes ~params:p
  in
  let stop_requested () =
    Atomic.incr polls;
    false
  in
  let cfg =
    Explore.Config.make ~max_points:2000 ~jobs:4 ~checkpoint:dir ~checkpoint_every:16
      ~stop_requested ()
  in
  (match Explore.run cfg (Eval.create est) ~space:(app.App.space sizes) ~generate with
  | _ -> Alcotest.fail "a sweep whose checkpoint is a directory returned"
  | exception Sys_error msg ->
    check_bool "the error names the checkpoint" true (String.starts_with ~prefix:dir msg));
  let calls_at_raise = Atomic.get calls and polls_at_raise = Atomic.get polls in
  Unix.sleepf 0.2;
  check_int "no generator call after the raise" calls_at_raise (Atomic.get calls);
  check_int "no point finished after the raise" polls_at_raise (Atomic.get polls);
  Sys.rmdir dir

(* ---------------------- telemetry under domains ---------------------- *)

let counters_of () =
  List.filter (fun (name, _) -> String.length name >= 4 && String.sub name 0 4 = "dse.")
    (Obs.snapshot ()).Obs.snap_counters

let test_parallel_counters () =
  let est = Lazy.force estimator in
  with_faults @@ fun () ->
  mixed_faults ();
  Obs.enable ();
  ignore (run_sweep est);
  let seq_counters = counters_of () in
  let seq_samples =
    Array.length (List.assoc "dse.ms_per_design" (Obs.snapshot ()).Obs.snap_hists)
  in
  Obs.disable ();
  mixed_faults ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  ignore (run_sweep ~jobs:4 est);
  let par_counters = counters_of () in
  let par_samples =
    Array.length (List.assoc "dse.ms_per_design" (Obs.snapshot ()).Obs.snap_hists)
  in
  check_bool "counters nonempty" true (seq_counters <> []);
  Alcotest.(check (list (pair string int)))
    "per-domain buffers merge to the sequential counter totals" seq_counters par_counters;
  check_int "histogram sample counts equal" seq_samples par_samples

let test_result_reports_cost_split () =
  let est = Lazy.force estimator in
  let r = run_sweep ~jobs:2 est in
  check_bool "wall-clock recorded" true (r.Explore.elapsed_seconds > 0.0);
  check_bool "cpu seconds recorded" true (r.Explore.cpu_seconds > 0.0);
  check_bool "per-design wall metric positive" true (Explore.seconds_per_design r > 0.0);
  check_bool "per-design cpu metric positive" true (Explore.cpu_seconds_per_design r > 0.0)

let () =
  Alcotest.run "par"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "rejects bad fields" `Quick test_config_rejects;
        ] );
      ( "one loop",
        [ Alcotest.test_case "jobs=1 runs on the calling domain" `Quick
            test_jobs1_runs_on_calling_domain ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=4 with 5% faults == sequential" `Quick
            test_parallel_determinism;
          Alcotest.test_case "clean sweep jobs=3 == sequential" `Quick
            test_parallel_clean_determinism;
          Alcotest.test_case "parallel resume" `Quick test_parallel_resume;
          Alcotest.test_case "parallel deadline" `Quick test_parallel_deadline;
        ] );
      ( "failure",
        [ Alcotest.test_case "failed flush joins every worker" `Quick
            test_failed_flush_joins_workers ] );
      ( "telemetry",
        [
          Alcotest.test_case "counter totals across jobs" `Quick test_parallel_counters;
          Alcotest.test_case "wall vs cpu cost split" `Quick test_result_reports_cost_split;
        ] );
    ]
