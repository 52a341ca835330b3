(* Command-line front end for the DHDL framework: estimate single design
   points, explore design spaces, dump DHDL / MaxJ, run the functional
   interpreter, and regenerate the paper's experiments. *)

open Cmdliner

module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Request = Dhdl_apps.Request
module Estimator = Dhdl_model.Estimator
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Profile = Dhdl_dse.Profile
module Experiments = Dhdl_core.Experiments
module Lint = Dhdl_lint.Lint
module Diag = Dhdl_ir.Diag
module Json = Dhdl_util.Json
module Obs = Dhdl_obs.Obs

let parse_params strs =
  List.map
    (fun s ->
      match String.split_on_char '=' s with
      | [ k; v ] -> (
        match int_of_string_opt v with
        | Some n -> (k, n)
        | None -> failwith (Printf.sprintf "bad parameter %S (%S is not an integer)" s v))
      | _ -> failwith (Printf.sprintf "bad parameter %S (expected name=value)" s))
    strs

(* [quiet] routes the setup chatter to stderr so machine-readable stdout
   (e.g. [dhdl profile --json]) stays one clean JSON document. *)
let make_estimator ?cache ?(quiet = false) ~seed ~train_samples () =
  let say fmt =
    if quiet then Printf.eprintf (fmt ^^ "%!") else Printf.printf (fmt ^^ "%!")
  in
  match Option.bind cache Estimator.load with
  | Some est ->
    say "[setup] loaded trained estimator from %s\n" (Option.get cache);
    est
  | None ->
    say "[setup] characterizing templates and training correction networks...\n";
    let t0 = Unix.gettimeofday () in
    let est = Estimator.create ~seed ~train_samples () in
    say "[setup] ready in %.1f s (one-time cost per device/toolchain)\n"
      (Unix.gettimeofday () -. t0);
    Option.iter
      (fun path ->
        Estimator.save est path;
        say "[setup] cached to %s\n" path)
      cache;
    est

(* Every command that estimates goes through one [Eval.t]: the keyed,
   memoizing pipeline. [no_cache] (from [--no-cache]) creates it with both
   caps at 0, which disables the caches without changing any result. *)
let make_eval ?cache ?quiet ?(no_cache = false) ~seed ~train_samples () =
  let est = make_estimator ?cache ?quiet ~seed ~train_samples () in
  if no_cache then Eval.create ~analysis_cap:0 ~estimate_cap:0 est else Eval.create est

(* The design point the positional arguments name, checked and
   elaborated by the request layer before any estimator is built, so a
   bad binding fails at once. *)
let point ~app ~params = Request.point app (parse_params params)

(* --- common args ---------------------------------------------------- *)

let app_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name.")

let params_arg =
  Arg.(value & pos_right 0 string [] & info [] ~docv:"PARAMS" ~doc:"Design parameters, name=value.")

let seed_arg = Arg.(value & opt int 2016 & info [ "seed" ] ~doc:"Random seed.")

(* A corpus needs at least one design: below that, training fails deep
   inside the scaler instead of at the command line. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 -> Error (`Msg (Printf.sprintf "must be >= 1 (got %d)" n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let train_arg =
  Arg.(
    value & opt positive_int 200
    & info [ "train-samples" ] ~doc:"NN training corpus size (at least 1).")

let points_arg =
  Arg.(value & opt int 2000 & info [ "points"; "n" ] ~doc:"Design points to sample.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"FILE" ~doc:"Cache the trained estimator in FILE (load if present).")

(* --- telemetry ------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run to FILE (load it in \
           chrome://tracing or https://ui.perfetto.dev).")

let jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE" ~doc:"Write the telemetry event log to FILE as JSON Lines.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry summary (counters, histograms, span rollups) after the run.")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Enable the sink when any telemetry output or a profile was requested,
   run the command body, then export. The sink stays disabled (and the
   instrumented paths stay on their no-op fast path) when no flag is
   given. *)
let with_obs ?(profile = false) ~trace ~jsonl ~metrics f =
  let wanted = profile || metrics || trace <> None || jsonl <> None in
  if not wanted then f ()
  else begin
    Obs.enable ();
    let finish () =
      let snap = Obs.snapshot () in
      Option.iter
        (fun path ->
          write_file path (Obs.to_chrome_trace snap);
          Printf.eprintf "[obs] Chrome trace written to %s\n%!" path)
        trace;
      Option.iter
        (fun path ->
          write_file path (Obs.to_jsonl snap);
          Printf.eprintf "[obs] JSONL event log written to %s\n%!" path)
        jsonl;
      if metrics then begin
        print_newline ();
        print_string (Obs.render_summary snap)
      end;
      Obs.disable ()
    in
    Fun.protect ~finally:finish f
  end

(* --- commands ------------------------------------------------------- *)

let estimate_cmd =
  let run app params seed train cache trace jsonl metrics =
    with_obs ~trace ~jsonl ~metrics @@ fun () ->
    let p = point ~app ~params in
    let ev = make_eval ?cache ~seed ~train_samples:train () in
    let t0 = Unix.gettimeofday () in
    let r = (Request.estimate ev p).Request.e_eval in
    let elapsed = Unix.gettimeofday () -. t0 in
    let e = r.Outcome.estimate in
    let a = e.Estimator.area in
    let design = p.Request.design in
    Printf.printf "design %s\n" design.Dhdl_ir.Ir.d_name;
    Printf.printf "  parameters : %s\n"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) design.Dhdl_ir.Ir.d_params));
    Printf.printf "  cycles     : %s (%.4f s at 150 MHz)\n"
      (Dhdl_util.Texttable.fmt_int_commas (int_of_float e.Estimator.cycles))
      e.Estimator.seconds;
    Printf.printf "  ALMs       : %d (%.1f%%)\n" a.Estimator.alms r.Outcome.alm_pct;
    Printf.printf "  DSPs       : %d (%.1f%%)\n" a.Estimator.dsps r.Outcome.dsp_pct;
    Printf.printf "  BRAMs      : %d (%.1f%%)\n" a.Estimator.brams r.Outcome.bram_pct;
    Printf.printf "  registers  : %d\n" a.Estimator.regs;
    Printf.printf "  fits       : %b\n" r.Outcome.valid;
    Printf.printf "  estimation : %.4f ms\n" (elapsed *. 1000.0)
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Estimate area and cycles of one design point.")
    Term.(
      const run $ app_arg $ params_arg $ seed_arg $ train_arg $ cache_arg $ trace_arg $ jsonl_arg
      $ metrics_arg)

let synth_cmd =
  let run app params trace jsonl metrics =
    with_obs ~trace ~jsonl ~metrics @@ fun () ->
    let design = (point ~app ~params).Request.design in
    let rpt = Dhdl_synth.Toolchain.synthesize design in
    let sim = Dhdl_sim.Perf_sim.simulate design in
    let wall = Dhdl_synth.Toolchain.synthesis_wall_seconds (Dhdl_synth.Toolchain.netlist design) in
    Printf.printf "post-place-and-route report for %s:\n  %s\n" design.Dhdl_ir.Ir.d_name
      (Dhdl_synth.Report.to_string rpt);
    Printf.printf "cycle-accurate simulation: %s cycles (%.4f s), %.1f MB off-chip traffic\n"
      (Dhdl_util.Texttable.fmt_int_commas (int_of_float sim.Dhdl_sim.Perf_sim.cycles))
      sim.Dhdl_sim.Perf_sim.seconds
      (sim.Dhdl_sim.Perf_sim.dram_bytes /. 1e6);
    Printf.printf "(a real toolchain run would take ~%.0f minutes)\n" (wall /. 60.0);
    Printf.printf "runtime breakdown (share of total):\n";
    List.iter
      (fun (label, own, share) ->
        if share > 0.5 then
          Printf.printf "  %-24s %12.0f cycles/activation  %5.1f%%\n" label own share)
      (Dhdl_sim.Perf_sim.breakdown design)
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Run the simulated vendor toolchain and performance simulator.")
    Term.(const run $ app_arg $ params_arg $ trace_arg $ jsonl_arg $ metrics_arg)

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically write completed evaluations and sweep metadata to FILE (JSONL; the first \
           write replaces FILE atomically, later writes append) so an interrupted sweep can be \
           resumed with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue an interrupted sweep from the $(b,--checkpoint) file, skipping every point \
           already evaluated there. The checkpoint must match the sweep (benchmark space, seed, \
           point budget).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Stop the sweep gracefully after SECONDS, reporting the partial result as truncated \
           (resumable via $(b,--checkpoint)).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run the sweep with N workers (default 1): the domain that runs the sweep is one of \
           them and N-1 domains are spawned, so at 1 none is. Each worker records the chunks it \
           finishes in sampling order under one lock. Results, Pareto frontier, and checkpoint \
           files are bit-identical at every jobs level, so $(b,--resume) works across jobs \
           settings and $(b,--deadline) still yields a resumable truncated result; only \
           wall-clock time changes.")

let inject_faults_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "inject-faults" ] ~docv:"P"
        ~doc:
          "(dev) Deterministically inject faults into the generator, lint, and estimator stages \
           with probability P per point per stage, to exercise the failure barriers.")

let faults_seed_arg =
  Arg.(value & opt int 42 & info [ "faults-seed" ] ~doc:"(dev) Seed for $(b,--inject-faults).")

let profile_flag_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Turn the telemetry sink on and print, after the sweep, where its time went, read \
           from the sweep's spans: setup, every worker-second split into \
           {generate, cache-probe, lint/absint, estimate, send-block, idle}, where send-block \
           is the wait for the record lock, and every second spent recording under that lock \
           (the collector) split into {write, merge}. Results and checkpoints stay \
           bit-identical; see $(b,dhdl profile) for the multi-level scaling report.")

(* A sweep runs N workers whatever the host, but past the domains the
   host recommends the extra ones only take turns on its cores. *)
let warn_jobs jobs =
  let n = Domain.recommended_domain_count () in
  if jobs > n then
    Printf.eprintf
      "dhdl: warning: --jobs %d exceeds the %d domain(s) this host recommends; the extra \
       workers only add coordination\n\
       %!"
      jobs n

let no_eval_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the evaluation cache (analysis verdicts and estimates keyed by canonical \
           design hash). Results are bit-identical either way; only time changes.")

let no_absint_arg =
  Arg.(
    value & flag
    & info [ "no-absint" ]
        ~doc:
          "Disable proof-backed pruning: points refuted by the proof passes (L009 out-of-bounds, \
           L010 bank conflict, L013 unsafe pipelining) are estimated instead of dropped.")

let no_symbolic_arg =
  Arg.(
    value & flag
    & info [ "no-symbolic" ]
        ~doc:
          "Disable the pre-elaboration symbolic legality gate: every point is generated and \
           analyzed concretely, even ones the derived parameter constraints refute. Results are \
           identical modulo pruned-outcome kind; only elaboration work changes.")

let dse_cmd =
  let run app seed train points cache trace jsonl metrics jobs no_cache checkpoint resume
      deadline inject faults_seed no_absint no_symbolic profile =
    with_obs ~profile ~trace ~jsonl ~metrics @@ fun () ->
    let a = Request.app app in
    let cfg =
      Explore.Config.make ~seed ~max_points:points ~absint:(not no_absint)
        ~symbolic:(not no_symbolic) ~jobs ?checkpoint ~resume ?deadline_seconds:deadline ()
    in
    warn_jobs jobs;
    Option.iter
      (fun p ->
        Dhdl_util.Faults.configure ~seed:faults_seed ~p ();
        Printf.printf "[dev] injecting faults at p=%g (seed %d)\n%!" p faults_seed)
      inject;
    let ev = make_eval ?cache ~no_cache ~seed ~train_samples:train () in
    let result =
      Explore.run cfg ev
        ~space:(a.App.space a.App.paper_sizes)
        ~generate:(fun p -> a.App.generate ~sizes:a.App.paper_sizes ~params:p)
    in
    print_string
      (Experiments.render_fig5 [ { Experiments.app_name = a.App.name; result } ]);
    if result.Explore.jobs > 1 then
      Printf.printf
        "\n%.2f ms per design point wall-clock on %d domains (%.2f ms CPU; %d points in %.2f s)\n"
        (Explore.seconds_per_design result *. 1000.0)
        result.Explore.jobs
        (Explore.cpu_seconds_per_design result *. 1000.0)
        result.Explore.sampled result.Explore.elapsed_seconds
    else
      Printf.printf "\n%.2f ms per design point (%d points in %.2f s)\n"
        (Explore.seconds_per_design result *. 1000.0)
        result.Explore.sampled result.Explore.elapsed_seconds;
    Printf.printf
      "pruned by lint errors: %d point(s); refuted by abstract interpretation: %d point(s); \
       refuted by dependence analysis: %d point(s); refuted symbolically before elaboration: %d \
       point(s); estimated but over device capacity: %d point(s)\n"
      result.Explore.lint_pruned result.Explore.absint_pruned result.Explore.dep_pruned
      result.Explore.sym_pruned
      (Explore.unfit_count result);
    if result.Explore.cache_hits + result.Explore.cache_misses > 0 then
      Printf.printf "evaluation cache: %d hit(s), %d miss(es) (%.1f%% hit rate)\n"
        result.Explore.cache_hits result.Explore.cache_misses
        (100.0
        *. float_of_int result.Explore.cache_hits
        /. float_of_int (result.Explore.cache_hits + result.Explore.cache_misses));
    if result.Explore.resumed > 0 then
      Printf.printf "resumed from checkpoint: %d point(s) reused, %d recomputed\n"
        result.Explore.resumed
        (result.Explore.processed - result.Explore.resumed);
    if Explore.failed_count result > 0 then begin
      Printf.printf "failed points (isolated, sweep continued): %d\n"
        (Explore.failed_count result);
      List.iter
        (fun (stage, n) ->
          if n > 0 then
            Printf.printf "  %-12s %d point(s)\n" (Dhdl_dse.Outcome.stage_name stage) n)
        (Explore.failure_counts result)
    end;
    if result.Explore.truncated then
      Printf.printf
        "deadline hit: stopped after %d of %d point(s)%s\n" result.Explore.processed
        result.Explore.sampled
        (match checkpoint with
        | Some f -> Printf.sprintf "; resume with --checkpoint %s --resume" f
        | None -> " (no checkpoint; use --checkpoint FILE to make this resumable)");
    if profile then
      Option.iter
        (fun attr ->
          print_newline ();
          print_string (Profile.render attr))
        (Profile.of_snapshot (Obs.snapshot ()))
  in
  Cmd.v
    (Cmd.info "dse" ~doc:"Explore a benchmark's design space and print the Pareto frontier.")
    Term.(
      const run $ app_arg $ seed_arg $ train_arg $ points_arg $ cache_arg $ trace_arg $ jsonl_arg
      $ metrics_arg $ jobs_arg $ no_eval_cache_arg $ checkpoint_arg $ resume_arg
      $ deadline_arg $ inject_faults_arg $ faults_seed_arg $ no_absint_arg $ no_symbolic_arg
      $ profile_flag_arg)

let codegen_cmd =
  let manager =
    Arg.(value & flag & info [ "manager" ] ~doc:"Emit the MaxJ manager instead of the kernel.")
  in
  let run app params manager =
    let design = (point ~app ~params).Request.design in
    let text =
      if manager then Dhdl_codegen.Maxj.emit_manager design else Dhdl_codegen.Maxj.emit design
    in
    print_string text
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Generate MaxJ hardware source for a design point.")
    Term.(const run $ app_arg $ params_arg $ manager)

let compare_cmd =
  let run app params seed train cache =
    let p = point ~app ~params in
    let design = p.Request.design in
    let ev = make_eval ?cache ~seed ~train_samples:train () in
    let e = (Request.estimate ev p).Request.e_eval.Outcome.estimate in
    let rpt = Dhdl_synth.Toolchain.synthesize design in
    let sim = Dhdl_sim.Perf_sim.simulate design in
    let err actual predicted = Dhdl_util.Stats.percent_error ~actual ~predicted in
    let f = float_of_int in
    let a = e.Estimator.area in
    print_string
      (Dhdl_util.Texttable.render
         ~header:[ "metric"; "estimated"; "actual (toolchain/sim)"; "error" ]
         [
           [ "ALMs"; string_of_int a.Estimator.alms; string_of_int rpt.Dhdl_synth.Report.alms;
             Dhdl_util.Texttable.fmt_pct (err (f rpt.Dhdl_synth.Report.alms) (f a.Estimator.alms)) ];
           [ "DSPs"; string_of_int a.Estimator.dsps; string_of_int rpt.Dhdl_synth.Report.dsps;
             Dhdl_util.Texttable.fmt_pct (err (f rpt.Dhdl_synth.Report.dsps) (f a.Estimator.dsps)) ];
           [ "BRAMs"; string_of_int a.Estimator.brams; string_of_int rpt.Dhdl_synth.Report.brams;
             Dhdl_util.Texttable.fmt_pct (err (f rpt.Dhdl_synth.Report.brams) (f a.Estimator.brams)) ];
           [ "registers"; string_of_int a.Estimator.regs; string_of_int rpt.Dhdl_synth.Report.regs;
             Dhdl_util.Texttable.fmt_pct (err (f rpt.Dhdl_synth.Report.regs) (f a.Estimator.regs)) ];
           [ "cycles";
             Dhdl_util.Texttable.fmt_int_commas (int_of_float e.Estimator.cycles);
             Dhdl_util.Texttable.fmt_int_commas (int_of_float sim.Dhdl_sim.Perf_sim.cycles);
             Dhdl_util.Texttable.fmt_pct (err sim.Dhdl_sim.Perf_sim.cycles e.Estimator.cycles) ];
         ])
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Estimate one design point and validate against the toolchain and simulator.")
    Term.(const run $ app_arg $ params_arg $ seed_arg $ train_arg $ cache_arg)

let dot_cmd =
  let run app params =
    print_string (Dhdl_codegen.Dot.emit (point ~app ~params).Request.design)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the design's dataflow graph as Graphviz DOT.")
    Term.(const run $ app_arg $ params_arg)

let print_cmd =
  let run app params =
    print_endline (Dhdl_ir.Pretty.design (point ~app ~params).Request.design)
  in
  Cmd.v
    (Cmd.info "print" ~doc:"Pretty-print the DHDL IR of a design point.")
    Term.(const run $ app_arg $ params_arg)

let experiments_cmd =
  let which =
    Arg.(
      value
      & pos 0 (enum [ ("table2", `T2); ("table3", `T3); ("table4", `T4); ("fig5", `F5); ("fig6", `F6); ("ablations", `Abl); ("all", `All) ]) `All
      & info [] ~docv:"WHICH" ~doc:"table2|table3|table4|fig5|fig6|ablations|all")
  in
  let run which seed train points cache =
    let need_estimator = which <> `T2 in
    let ev =
      if need_estimator then Some (make_eval ?cache ~seed ~train_samples:train ())
      else None
    in
    (* All experiments share one pipeline, so overlapping sweeps (fig5's
       points recur in fig6 and the ablations) hit the cache. *)
    let est () = Option.get ev in
    let print_ablations () =
      print_string
        (Experiments.render_ablations
           (Experiments.ablation_metapipe ~seed (est ()))
           (Experiments.ablation_nn_correction ~seed (est ())));
      print_string
        (Experiments.render_sampling "gda" (Experiments.ablation_sampling ~seed (est ())));
      print_string (Experiments.render_device (Experiments.ablation_device ~seed (est ())));
      print_string (Experiments.render_bandwidth (Experiments.ablation_bandwidth ~seed (est ())))
    in
    (match which with
    | `T2 -> print_string (Experiments.render_table2 ())
    | `T3 -> print_string (Experiments.render_table3 (Experiments.table3 ~seed (est ())))
    | `T4 -> print_string (Experiments.render_table4 (Experiments.table4 ~seed (est ())))
    | `F5 -> print_string (Experiments.render_fig5 (Experiments.fig5 ~seed ~max_points:points (est ())))
    | `F6 -> print_string (Experiments.render_fig6 (Experiments.fig6 ~seed ~max_points:points (est ())))
    | `Abl -> print_ablations ()
    | `All ->
      print_string (Experiments.render_table2 ());
      print_newline ();
      print_string (Experiments.render_table3 (Experiments.table3 ~seed (est ())));
      print_newline ();
      print_string (Experiments.render_table4 (Experiments.table4 ~seed (est ())));
      print_newline ();
      print_string (Experiments.render_fig5 (Experiments.fig5 ~seed ~max_points:points (est ())));
      print_newline ();
      print_string (Experiments.render_fig6 (Experiments.fig6 ~seed ~max_points:points (est ())));
      print_newline ();
      print_ablations ())
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ which $ seed_arg $ train_arg $ points_arg $ cache_arg)

let interpret_cmd =
  let run app =
    let a = Request.app app in
    let sizes = a.App.test_sizes in
    let design = a.App.generate ~sizes ~params:(a.App.default_params sizes) in
    let rng = Dhdl_util.Rng.create 7 in
    let inputs =
      List.filter_map
        (fun m ->
          match m.Dhdl_ir.Ir.mem_kind with
          | Dhdl_ir.Ir.Offchip ->
            let words = Dhdl_ir.Ir.mem_words m in
            Some (m.Dhdl_ir.Ir.mem_name, Array.init words (fun _ -> Dhdl_util.Rng.float_in rng 0.1 2.0))
          | _ -> None)
        design.Dhdl_ir.Ir.d_mems
    in
    let env = Dhdl_sim.Interp.run design ~inputs in
    Printf.printf "interpreted %s at test sizes (%s)\n" a.App.name
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) sizes));
    List.iter
      (fun m ->
        match m.Dhdl_ir.Ir.mem_kind with
        | Dhdl_ir.Ir.Reg ->
          Printf.printf "  register %s = %g\n" m.Dhdl_ir.Ir.mem_name
            (Dhdl_sim.Interp.reg env m.Dhdl_ir.Ir.mem_name)
        | Dhdl_ir.Ir.Offchip ->
          let data = Dhdl_sim.Interp.offchip env m.Dhdl_ir.Ir.mem_name in
          let n = Array.length data in
          Printf.printf "  offchip %s: %d words, first = %g, sum = %g\n" m.Dhdl_ir.Ir.mem_name n
            data.(0)
            (Array.fold_left ( +. ) 0.0 data)
        | _ -> ())
      design.Dhdl_ir.Ir.d_mems
  in
  Cmd.v
    (Cmd.info "interpret" ~doc:"Run a benchmark's design through the functional interpreter.")
    Term.(const run $ app_arg)

let lint_cmd =
  let app_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (omit with $(b,--all)).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.") in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Lint every registered benchmark at paper sizes.")
  in
  let fail_on =
    Arg.(
      value
      & opt
          (enum
             [ ("error", Diag.Error); ("warning", Diag.Warning); ("info", Diag.Info) ])
          Diag.Error
      & info [ "fail-on" ] ~docv:"SEVERITY"
          ~doc:"Exit non-zero when diagnostics at or above SEVERITY are present (error|warning|info).")
  in
  let run app_opt params json all fail_on =
    let points =
      if all then List.map (fun (a : App.t) -> Request.point a.App.name []) Registry.all
      else
        match app_opt with
        | None -> failwith "expected a BENCHMARK name (or --all)"
        | Some app -> [ point ~app ~params ]
    in
    let reports = List.map Request.lint points in
    let render l = Json.render (Request.lint_json l) in
    if json then
      match reports with
      | [ l ] when not all -> print_endline (render l)
      | _ -> print_endline ("[" ^ String.concat ",\n " (List.map render reports) ^ "]")
    else List.iter (fun l -> print_endline (Request.lint_text l)) reports;
    let code = Lint.exit_code ~fail_on (List.concat_map (fun l -> l.Request.l_diags) reports) in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static-analysis passes (races, hazards, capacity, dead code) on a design.")
    Term.(const run $ app_opt $ params_arg $ json $ all $ fail_on)

let analyze_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report.") in
  let symbolic =
    Arg.(
      value & flag
      & info [ "symbolic" ]
          ~doc:
            "Instead of analyzing this one point concretely, derive the app's symbolic \
             constraint system (one per design-family skeleton, over the named design \
             parameters), print it, and report this point's pre-elaboration verdict. Exit 2 when \
             the point is symbolically refuted.")
  in
  let run app params json symbolic =
    if symbolic then begin
      let r = Request.symbolic app (parse_params params) in
      if json then print_endline (Json.render (Request.symbolic_json r))
      else print_string (Request.symbolic_text r);
      if Request.symbolic_refuted r then exit 2
    end
    else begin
      let r = Request.analyze (point ~app ~params) in
      if json then print_endline (Json.render (Request.analysis_json r))
      else print_string (Request.analysis_text r);
      (* Mirror lint's convention: exit 2 when a proven violation (out-of-
         bounds access, bank conflict, illegal vectorization, or cross-stage
         overlap) is present. *)
      if not (Request.analysis_clean r) then exit 2
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Abstract-interpret a design point: prove every on-chip access in bounds, every \
          vectorized access conflict-free under a banking scheme, every double buffer justified \
          by a stage crossing, and every loop-carried dependence consistent with the chosen \
          initiation interval and parallelization (or print concrete counterexamples). With \
          $(b,--symbolic), derive the parametric constraint system instead and decide the point \
          without elaborating it.")
    Term.(const run $ app_arg $ params_arg $ json $ symbolic)

(* Amdahl's-law serial fraction inferred from a measured speedup at j
   workers: solving speedup = 1 / (s + (1 - s)/j) for s gives
   s = (j/speedup - 1)/(j - 1). On a machine where adding domains slows
   the sweep down (speedup < 1 — e.g. a single-core container), s exceeds
   1: coordination costs more than the parallelized work saves. *)
let amdahl_serial ~jobs ~speedup =
  if jobs <= 1 || speedup <= 0.0 then None
  else Some ((float_of_int jobs /. speedup -. 1.0) /. float_of_int (jobs - 1))

let profile_cmd =
  let app_opt_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "app" ] ~docv:"BENCHMARK" ~doc:"Benchmark whose sweep to profile.")
  in
  let jobs_list_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "jobs"; "j" ] ~docv:"N,N,..."
          ~doc:
            "Comma-separated worker counts to sweep at, in order. The first level is the \
             speedup baseline (use 1 for textbook Amdahl numbers).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the whole scaling report as one JSON object (per-level throughput, speedup, \
             efficiency, Amdahl serial fraction, and the full time attribution).")
  in
  let run app jobs_list seed train points cache json trace jsonl metrics =
    with_obs ~profile:true ~trace ~jsonl ~metrics @@ fun () ->
    if jobs_list = [] then failwith "expected at least one --jobs level";
    let a = Request.app app in
    let est = make_estimator ?cache ~quiet:json ~seed ~train_samples:train () in
    let space = a.App.space a.App.paper_sizes in
    let generate p = a.App.generate ~sizes:a.App.paper_sizes ~params:p in
    (* Every level sweeps on a fresh Eval.t, so none is answered from an
       earlier level's caches, and is read from the sink right after it
       runs, while it is the most recent sweep there. *)
    let levels =
      List.map
        (fun jobs ->
          let cfg = Explore.Config.make ~seed ~max_points:points ~jobs () in
          let r = Explore.run cfg (Eval.create est) ~space ~generate in
          match Profile.of_snapshot (Obs.snapshot ()) with
          | Some attr -> (jobs, r, attr)
          | None -> failwith "the sweep recorded no spans")
        jobs_list
    in
    let pts_per_sec (r : Explore.result) =
      if r.Explore.elapsed_seconds > 0.0 then
        float_of_int r.Explore.processed /. r.Explore.elapsed_seconds
      else 0.0
    in
    let base_pps = match levels with (_, r, _) :: _ -> pts_per_sec r | [] -> 0.0 in
    let speedup r = if base_pps > 0.0 then pts_per_sec r /. base_pps else 0.0 in
    if json then begin
      let level_json (jobs, r, attr) =
        let su = speedup r in
        Printf.sprintf
          "{\"jobs\":%d,\"wall_s\":%.6f,\"points_per_sec\":%.3f,\"speedup\":%.4f,\"efficiency\":%.4f,\"amdahl_serial_frac\":%s,\"attribution\":%s}"
          jobs r.Explore.elapsed_seconds (pts_per_sec r) su
          (su /. float_of_int jobs)
          (match amdahl_serial ~jobs ~speedup:su with
          | Some s -> Printf.sprintf "%.4f" s
          | None -> "null")
          (Profile.to_json attr)
      in
      print_endline
        (Printf.sprintf
           "{\"app\":\"%s\",\"points\":%d,\"seed\":%d,\"recommended_domain_count\":%d,\"levels\":[%s]}"
           a.App.name points seed
           (Domain.recommended_domain_count ())
           (String.concat "," (List.map level_json levels)))
    end
    else begin
      Printf.printf "scaling report for %s (%d points per level, seed %d)\n" a.App.name points seed;
      Printf.printf "host recommends %d domain(s)\n\n" (Domain.recommended_domain_count ());
      print_string
        (Dhdl_util.Texttable.render
           ~header:
             [ "jobs"; "wall s"; "points/s"; "speedup"; "ideal"; "efficiency"; "serial frac" ]
           (List.map
              (fun (jobs, r, _) ->
                let su = speedup r in
                [ string_of_int jobs;
                  Printf.sprintf "%.3f" r.Explore.elapsed_seconds;
                  Printf.sprintf "%.1f" (pts_per_sec r);
                  Printf.sprintf "%.2fx" su;
                  Printf.sprintf "%dx" jobs;
                  Printf.sprintf "%.1f%%" (100.0 *. su /. float_of_int jobs);
                  (match amdahl_serial ~jobs ~speedup:su with
                  | Some s -> Printf.sprintf "%.2f" s
                  | None -> "-") ])
              levels));
      print_newline ();
      List.iter
        (fun (_, _, attr) ->
          print_string (Profile.render attr);
          print_newline ())
        levels;
      match levels with
      | (_, _, first) :: (_ :: _ as rest) ->
        let last = match List.rev rest with (_, _, l) :: _ -> l | [] -> first in
        let name, secs = Profile.top_contender last in
        if secs > 0.0 then
          Printf.printf "at %d jobs the dominant contended resource is the %s (%.4f s)\n"
            last.Profile.jobs name secs
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Sweep a benchmark's design space at several worker counts and print an \
          Amdahl-style scaling report: throughput, speedup, efficiency, inferred serial \
          fraction, and a full attribution of worker and collector time (work vs contention vs \
          stall).")
    Term.(
      const run $ app_opt_arg $ jobs_list_arg $ seed_arg $ train_arg $ points_arg $ cache_arg
      $ json_arg $ trace_arg $ jsonl_arg $ metrics_arg)

let metrics_cmd =
  let from_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "Instead of running a workload, re-render the telemetry summary from a JSONL event \
             log previously recorded with $(b,--jsonl) (here or on another machine).")
  in
  let run app params seed train points cache trace jsonl from =
    match from with
    | Some path -> (
      match Obs.summary_of_jsonl (read_file path) with
      | Ok summary ->
        Printf.printf "telemetry from %s\n\n%!" path;
        print_string summary
      | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))
    | None ->
    let app =
      match app with
      | Some app -> app
      | None -> failwith "expected a BENCHMARK name (or --from FILE)"
    in
    let p = point ~app ~params in
    let a = p.Request.app in
    Obs.enable ();
    let ev = make_eval ?cache ~seed ~train_samples:train () in
    let e = (Request.estimate ev p).Request.e_eval.Outcome.estimate in
    ignore (Dhdl_sim.Perf_sim.simulate p.Request.design);
    let result =
      Explore.run
        (Explore.Config.make ~seed ~max_points:points ())
        ev
        ~space:(a.App.space a.App.paper_sizes)
        ~generate:(fun p -> a.App.generate ~sizes:a.App.paper_sizes ~params:p)
    in
    Printf.printf "instrumented run of %s: %s cycles at default point, %d DSE point(s) explored\n"
      a.App.name
      (Dhdl_util.Texttable.fmt_int_commas (int_of_float e.Estimator.cycles))
      result.Explore.sampled;
    let snap = Obs.snapshot () in
    Option.iter (fun path -> write_file path (Obs.to_chrome_trace snap)) trace;
    Option.iter (fun path -> write_file path (Obs.to_jsonl snap)) jsonl;
    print_newline ();
    print_string (Obs.render_summary snap);
    Option.iter (Printf.printf "\nChrome trace written to %s\n") trace;
    Option.iter (Printf.printf "JSONL event log written to %s\n") jsonl;
    Obs.disable ()
  in
  let app_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (omit with $(b,--from)).")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run an instrumented workload (setup, one estimate, one simulation, a DSE sweep) and \
          dump the telemetry sink: counters, histograms, span rollups, optional trace exports — \
          or, with $(b,--from), summarize a previously recorded JSONL event log post hoc.")
    Term.(
      const run $ app_opt $ params_arg $ seed_arg $ train_arg $ points_arg $ cache_arg $ trace_arg
      $ jsonl_arg $ from_arg)

(* --- DSE-as-a-service ------------------------------------------------ *)

module Serve_protocol = Dhdl_serve.Protocol
module Serve_client = Dhdl_serve.Client

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/dhdl.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix domain socket the server listens on.")

let serve_cmd =
  let sessions_arg =
    Arg.(
      value
      & opt string "/tmp/dhdl-sessions"
      & info [ "sessions" ] ~docv:"DIR"
          ~doc:
            "Directory holding crash-only DSE session state (one subdirectory per session; the \
             checkpoint file is the state, so $(b,kill -9) loses at most the points since the \
             last periodic write).")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:
            "Admission bound: requests beyond N pending are shed with a typed \
             $(i,overloaded) reply carrying a retry_after_ms hint.")
  in
  let degrade_arg =
    Arg.(
      value & opt int 16
      & info [ "degrade-depth" ] ~docv:"N"
          ~doc:
            "Queue depth at which estimate requests degrade to the raw analytical model \
             (flagged $(i,degraded:true) in replies).")
  in
  let quarantine_arg =
    Arg.(
      value & opt int 3
      & info [ "quarantine" ] ~docv:"N"
          ~doc:
            "Crashes before a poisoned request is parked with a $(i,quarantined) reply \
             carrying its error chain.")
  in
  let run socket sessions queue_cap degrade quarantine seed train cache jobs inject faults_seed
      trace jsonl metrics =
    with_obs ~trace ~jsonl ~metrics @@ fun () ->
    warn_jobs jobs;
    Option.iter
      (fun p ->
        Dhdl_util.Faults.configure ~seed:faults_seed ~p ();
        Printf.eprintf "[dev] injecting faults at p=%g (seed %d)\n%!" p faults_seed)
      inject;
    let estimator = lazy (make_estimator ?cache ~quiet:true ~seed ~train_samples:train ()) in
    let cfg =
      {
        (Dhdl_serve.Supervisor.default_config ~sessions_root:sessions ~estimator) with
        Dhdl_serve.Supervisor.queue_capacity = queue_cap;
        degrade_depth = degrade;
        quarantine_threshold = quarantine;
        dse_jobs = jobs;
      }
    in
    Dhdl_serve.Server.run ~socket_path:socket cfg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the DSE server: a supervised daemon multiplexing estimate/lint/analyze/dse \
          requests over a Unix domain socket, with admission control, per-request deadlines, \
          graceful degradation, quarantine, and crash-recoverable sweep sessions (SIGTERM \
          drains; sessions survive $(b,kill -9) via their checkpoints).")
    Term.(
      const run $ socket_arg $ sessions_arg $ queue_cap_arg $ degrade_arg $ quarantine_arg
      $ seed_arg $ train_arg $ cache_arg $ jobs_arg $ inject_faults_arg $ faults_seed_arg
      $ trace_arg $ jsonl_arg $ metrics_arg)

let client_cmd =
  let verb_arg =
    let verbs =
      List.map
        (fun v -> (Serve_protocol.verb_name v, v))
        Serve_protocol.
          [ Ping; Estimate; Estimate_batch; Lint; Analyze; Dse_start; Dse_status; Dse_cancel;
            Shutdown ]
    in
    Arg.(
      required
      & pos 0 (some (enum verbs)) None
      & info [] ~docv:"VERB"
          ~doc:
            "ping|estimate|estimate_batch|lint|analyze|dse_start|dse_status|dse_cancel|shutdown")
  in
  let app_opt_arg =
    Arg.(
      value & pos 1 (some string) None & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name.")
  in
  let client_params_arg =
    Arg.(value & pos_right 1 string [] & info [] ~docv:"PARAMS" ~doc:"Design parameters, name=value.")
  in
  let id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID"
          ~doc:
            "Request id. Replies are cached by id, so re-running with the same id after a lost \
             reply returns the original result instead of re-executing. Default: a fresh \
             pid-derived id.")
  in
  let deadline_ms_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Whole-request budget; expired work answers $(i,deadline_exceeded), and a \
             dse_start's remaining budget bounds the sweep (truncated + resumable).")
  in
  let session_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "session" ] ~docv:"ID" ~doc:"Session id (dse_start/dse_status/dse_cancel).")
  in
  let points_opt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "points"; "n" ] ~docv:"N" ~doc:"Sweep budget for dse_start (default 2000).")
  in
  let seed_opt_arg =
    Arg.(
      value & opt (some int) None & info [ "sweep-seed" ] ~docv:"N" ~doc:"Sweep seed for dse_start.")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"S" ~doc:"Per-attempt reply timeout.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"N"
          ~doc:
            "Retry budget (same id each time, jittered exponential backoff; overloaded replies \
             honor the server's retry_after_ms hint).")
  in
  let wait_arg =
    Arg.(value & flag & info [ "wait" ] ~doc:"Wait for the server to answer ping before sending.")
  in
  let batch_arg =
    Arg.(
      value & opt_all string []
      & info [ "batch" ] ~docv:"SPEC"
          ~doc:
            "One estimate_batch item as \"BENCHMARK,name=value,...\" (repeatable, order \
             preserved). The whole batch travels as one request sharing one $(b,--deadline-ms); \
             items reached after it expires get per-item deadline_exceeded entries inside a \
             successful reply.")
  in
  let parse_batch_spec spec =
    match String.split_on_char ',' spec with
    | [] | [ "" ] -> failwith (Printf.sprintf "bad --batch %S (expected BENCHMARK,name=value,...)" spec)
    | app :: params -> (app, parse_params params)
  in
  let run verb app params batch id deadline_ms session points sweep_seed socket timeout attempts
      wait =
    let client =
      Serve_client.create ~timeout_s:timeout ~max_attempts:attempts ~socket_path:socket ()
    in
    if wait && not (Serve_client.wait_ready client) then
      failwith (Printf.sprintf "server at %s did not become ready" socket);
    let id =
      match id with
      | Some id -> id
      | None -> Printf.sprintf "cli-%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e3)
    in
    let specs = List.map parse_batch_spec batch in
    let req =
      Serve_protocol.request ?deadline_ms ?app ~params:(parse_params params) ~specs ?session
        ?seed:sweep_seed ?max_points:points ~id verb
    in
    match Serve_client.call client req with
    | Error msg -> failwith msg
    | Ok reply ->
      print_endline (Serve_protocol.render_reply reply);
      (match reply.Serve_protocol.r_body with Ok _ -> () | Error _ -> exit 1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running $(b,dhdl serve) daemon and print the JSON reply \
          (exit 1 on a typed error reply).")
    Term.(
      const run $ verb_arg $ app_opt_arg $ client_params_arg $ batch_arg $ id_arg $ deadline_ms_arg
      $ session_arg $ points_opt_arg $ seed_opt_arg $ socket_arg $ timeout_arg $ attempts_arg
      $ wait_arg)

let list_cmd =
  let run () =
    print_string (Experiments.render_table2 ());
    List.iter
      (fun (a : App.t) ->
        let space = a.App.space a.App.paper_sizes in
        Printf.printf "%-14s raw design space: %s points\n" a.App.name
          (Dhdl_util.Texttable.fmt_int_commas (Dhdl_dse.Space.raw_size space)))
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and their design-space sizes.") Term.(const run $ const ())

(* Every user-facing error leaves through one door: `dhdl: error: <msg>`
   on stderr, a one-line usage hint, exit 1. Command bodies signal with
   `failwith`/`Sys_error` (unknown benchmark, bad name=value parameters,
   unreadable files, mismatched checkpoints); cmdliner's own parse errors
   (unknown subcommands, unknown flags, bad option values) are captured
   off its error formatter and re-rendered the same way instead of
   surfacing cmdliner's multi-line report with exit 124. *)
let () =
  let doc = "DHDL: automatic generation of efficient accelerators for reconfigurable hardware" in
  let info = Cmd.info "dhdl" ~version:"1.0.0" ~doc in
  let group = Cmd.group info [ estimate_cmd; compare_cmd; synth_cmd; dse_cmd; profile_cmd; lint_cmd; analyze_cmd; metrics_cmd; codegen_cmd; dot_cmd; print_cmd; experiments_cmd; interpret_cmd; list_cmd; serve_cmd; client_cmd ] in
  let fail msg =
    Printf.eprintf "dhdl: error: %s\n(run 'dhdl --help' for usage)\n%!" msg;
    exit 1
  in
  let err_buf = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err_buf in
  match Cmd.eval ~catch:false ~err:err_fmt group with
  | code when code = Cmd.Exit.cli_error ->
    Format.pp_print_flush err_fmt ();
    (* First line of cmdliner's report, minus its own "dhdl: " prefix. *)
    let first_line =
      match String.split_on_char '\n' (String.trim (Buffer.contents err_buf)) with
      | line :: _ -> line
      | [] -> "invalid command line"
    in
    let msg =
      let prefix = "dhdl: " in
      if String.length first_line > String.length prefix
         && String.sub first_line 0 (String.length prefix) = prefix
      then String.sub first_line (String.length prefix) (String.length first_line - String.length prefix)
      else first_line
    in
    fail msg
  | code ->
    Format.pp_print_flush err_fmt ();
    prerr_string (Buffer.contents err_buf);
    exit code
  | exception (Failure msg | Sys_error msg) -> fail msg
