(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) at full dataset sizes, prints paper-vs-measured
   values, and runs Bechamel microbenchmarks of the framework's hot paths
   (one per table/figure).

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table3     # one section
     dune exec bench/main.exe -- --quick # scaled-down sizes

   Sections: table2 table3 table4 fig5 fig6 ablations micro all
   Named-only (excluded from `all`): serve-soak — long fault soak of the
   DSE server over its Unix socket; kernel-oracle — long differential fuzz
   of the analysis kernels against their exhaustive scans. *)

module E = Dhdl_core.Experiments
module Estimator = Dhdl_model.Estimator
module App = Dhdl_apps.App
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Profile = Dhdl_dse.Profile
module Obs = Dhdl_obs.Obs

let seed = 2016

let banner title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '=') title (String.make 78 '=')

let section_time name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[%s completed in %.1f s]\n%!" name (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Experiment sections                                                 *)
(* ------------------------------------------------------------------ *)

(* One evaluation pipeline (estimator + caches) shared by every section:
   sections running after fig5 hit the cache on the points it already
   explored, exactly as the CLI's `experiments all` does. Sections that
   time estimation (table4's loop, the microbenches, dseperf's cold runs)
   either force the cache off per call or build a fresh [Eval.t] around
   the same trained estimator. *)
let eval_ref : Eval.t option ref = ref None

let the_eval ~quick () =
  match !eval_ref with
  | Some ev -> ev
  | None ->
    Printf.printf
      "[setup] characterizing templates and training the correction networks\n";
    Printf.printf "[setup] (one-time per device/toolchain; Section IV.B)\n%!";
    let t0 = Unix.gettimeofday () in
    let train_samples = if quick then 100 else 200 in
    let ev = Eval.create (Estimator.create ~seed ~train_samples ()) in
    Printf.printf "[setup] done in %.1f s\n%!" (Unix.gettimeofday () -. t0);
    eval_ref := Some ev;
    ev

let run_table2 ~quick:_ () =
  banner "Table II: evaluation benchmarks and dataset sizes";
  print_string (E.render_table2 ())

let run_table3 ~quick () =
  banner "Table III: estimation accuracy vs. simulated toolchain (post-P&R + cycle sim)";
  let ev = the_eval ~quick () in
  let sample = if quick then 80 else 300 in
  print_string (E.render_table3 (E.table3 ~seed ~sample ~pareto_points:5 ev))

let run_table4 ~quick () =
  banner "Table IV: estimation speed, DHDL estimator vs. simulated HLS (GDA)";
  let ev = the_eval ~quick () in
  let r =
    if quick then E.table4 ~seed ~ours_points:50 ~restricted_points:8 ~full_points:1 ~hls_cols:48 ev
    else E.table4 ~seed ~ours_points:250 ~restricted_points:40 ~full_points:3 ev
  in
  print_string (E.render_table4 r)

let paper_scale = ref false

let run_fig5 ~quick () =
  banner "Figure 5: design-space exploration scatter plots and Pareto frontiers";
  let ev = the_eval ~quick () in
  let max_points = if !paper_scale then 75_000 else if quick then 250 else 2_000 in
  let apps = E.fig5 ~seed ~max_points ev in
  print_string (E.render_fig5 apps);
  let written = E.write_fig5_csvs ~dir:(Filename.get_temp_dir_name ()) apps in
  Printf.printf "raw exploration data written to:\n";
  List.iter (fun p -> Printf.printf "  %s\n" p) written

let run_fig6 ~quick () =
  banner "Figure 6: best-design speedup over the 6-core CPU baseline";
  let ev = the_eval ~quick () in
  let max_points = if quick then 400 else 2_000 in
  print_string (E.render_fig6 (E.fig6 ~seed ~max_points ev))

let run_ablations ~quick () =
  banner "Ablations: MetaPipe pipelining and the hybrid NN correction";
  let ev = the_eval ~quick () in
  let max_points = if quick then 150 else 800 in
  let sample = if quick then 60 else 300 in
  print_string
    (E.render_ablations
       (E.ablation_metapipe ~seed ~max_points ev)
       (E.ablation_nn_correction ~seed ~sample ev));
  let budgets = if quick then [ 50; 150; 400 ] else [ 100; 300; 1_000; 3_000 ] in
  print_string (E.render_sampling "gda" (E.ablation_sampling ~seed ~app:"gda" ~budgets ev));
  print_newline ();
  print_string (E.render_device (E.ablation_device ~seed ~max_points ev));
  print_newline ();
  print_string (E.render_bandwidth (E.ablation_bandwidth ~seed ~max_points ev))

(* ------------------------------------------------------------------ *)
(* DSE throughput: the start of the perf trajectory                    *)
(* ------------------------------------------------------------------ *)

(* Writes BENCH_dse.json (schema 15) from GDA sweeps plus a kmeans
   symbolic-gate A/B, the estimator's setup and the served request's
   path. Every timed figure is the median, min and max of [warm_runs]
   runs (a single cold run moved by 40% or more between runs), and every
   attribution object is the median run's. Six axes:

   - jobs_sweep: cold wall-clock timing at jobs = 1, 2, 4 (a fresh
     evaluation cache per run, telemetry on — comparable with every
     historical entry), plus a contention attribution read from the
     spans of *warm-cache* repeats at the same level. Warm on purpose:
     with the evaluated work memoized away the attribution isolates pure
     coordination overhead (record-lock waits, GC barriers, chunk recording),
     which is the quantity the parallel engine is accountable for on any
     host — including a single-core container where cold jobs>1 walls are
     dominated by time-sliced estimation.
   - cache_ab: the same sequential sweep cold then again on the warm
     cache — the memoization headline.
   - warm_session: the warm repeat as the DSE server runs it for a
     dse_start — a fresh checkpoint path, resume on, a checkpoint every
     [Supervisor.default_config]'s [dse_checkpoint_every] points — for
     gda and for kmeans (whose gate refutes about 40% of its points), as
     points/s and each session's major collections and minor words;
     then, from as many untimed sessions with the sink on, the collector
     write seconds and what is left of a warm point's lanes, and the
     first one's generator calls (its gate is the family's memo, which
     generates nothing) and [dse.index.hit] count.
   - symbolic_ab: a cold kmeans sweep (the app with a large symbolically
     refutable region at paper sizes) with the pre-elaboration legality
     gate on vs [--no-symbolic], counting generate calls directly — the
     gate's headline is elaborations never performed, which wall-clock
     alone understates on a warm cache.
   - setup: the CLI's estimator (seed 2016, 200 training samples) built
     from scratch, split into template characterization and NN training,
     plus the whole build: the once-per-process cost every `dhdl
     estimate`, `dse` and `serve` pays before its first point.
   - serve: the served request's path in process, outside the socket:
     [App.resolve] per app at paper sizes (every served estimate, batch
     spec, lint and analyze resolves its parameters), the codec of a
     64-spec gda estimate_batch request and of its reply, and that
     batch's handler on a fresh supervisor (every spec misses the design
     caches, as a first request does); and over the socket, sequential
     pings against a forked server ([ping_block]). *)
let run_label = ref "dev"
let warm_runs = 5

(* [{"median":m,"min":lo,"max":hi}] of [xs], printed with [fmt]. *)
let spread_json fmt xs =
  let lo = List.fold_left Float.min Float.infinity xs in
  let hi = List.fold_left Float.max Float.neg_infinity xs in
  Printf.sprintf "{\"median\":%s,\"min\":%s,\"max\":%s}"
    (Printf.sprintf fmt (Dhdl_util.Stats.median xs))
    (Printf.sprintf fmt lo) (Printf.sprintf fmt hi)

(* [warm_runs] runs of [f]. *)
let repeat f = List.init warm_runs (fun _ -> f ())

(* The run at the median of [key]: with an odd [warm_runs], the one whose
   key [Stats.median] reports. *)
let median_run key runs =
  List.nth (List.sort (fun a b -> compare (key a) (key b)) runs) (List.length runs / 2)

(* [warm_runs] runs of the mean microseconds per call of [f] over
   [iters] calls. *)
let us_per_call ~iters f =
  spread_json "%.3f"
    (repeat (fun () ->
         let t0 = Unix.gettimeofday () in
         for _ = 1 to iters do
           ignore (Sys.opaque_identity (f ()))
         done;
         (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int iters))

let serve_config est =
  Dhdl_serve.Supervisor.default_config ~sessions_root:(Filename.get_temp_dir_name ())
    ~estimator:(lazy est)

(* [warm_runs] runs of [ping_count] sequential pings, each run against a
   fresh forked [Server.run] and each ping on a connection of its own, as
   `dhdl client` makes them: the serve layer's own cost per request,
   connect and accept included. 600 connections cross the kernel's
   fd-table growth points (64, 128, 256 and 512 descriptors) and stay
   below the 1,024 at which the server's select fails, since it keeps
   hung-up fds open until it drains. Forks, so it must run before the
   process spawns its first domain. *)
let ping_count = 600

let ping_block est =
  let module P = Dhdl_serve.Protocol in
  let module Client = Dhdl_serve.Client in
  let socket = Filename.concat (Filename.get_temp_dir_name ()) "dhdl_bench_ping.sock" in
  let run () =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Unix._exit
        (match Dhdl_serve.Server.run ~socket_path:socket (serve_config est) with
        | () -> 0
        | exception _ -> 3)
    | pid ->
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          let client = Client.create ~max_attempts:1 ~socket_path:socket () in
          if not (Client.wait_ready ~timeout_s:60.0 client) then
            failwith "ping server did not come up";
          Array.init ping_count (fun i ->
              let t0 = Unix.gettimeofday () in
              (match Client.call client (P.request ~id:(Printf.sprintf "ping-%d" i) P.Ping) with
              | Ok { P.r_body = Ok _; _ } -> ()
              | _ -> failwith (Printf.sprintf "ping %d got no pong" i));
              (Unix.gettimeofday () -. t0) *. 1e6))
  in
  let runs = repeat run in
  let stat f = spread_json "%.1f" (List.map f runs) in
  Printf.sprintf
    "{\"count\":%d,\"mean_us\":%s,\"p50_us\":%s,\"p99_us\":%s,\"max_us\":%s,\"over_1ms\":%s}"
    ping_count
    (stat (fun us -> Dhdl_util.Stats.mean (Array.to_list us)))
    (stat (fun us -> Obs.percentile us 50.0))
    (stat (fun us -> Obs.percentile us 99.0))
    (stat (Array.fold_left Float.max 0.0))
    (spread_json "%.0f"
       (List.map
          (fun us -> float_of_int (Array.fold_left (fun n x -> if x > 1000.0 then n + 1 else n) 0 us))
          runs))

let serve_block ~quick ~pings est =
  let module P = Dhdl_serve.Protocol in
  let module Supervisor = Dhdl_serve.Supervisor in
  let resolve =
    List.map
      (fun (app : App.t) ->
        Printf.sprintf "%S:%s" app.App.name
          (us_per_call ~iters:(if quick then 200 else 2_000) (fun () ->
               App.resolve app app.App.paper_sizes [])))
      Dhdl_apps.Registry.all
  in
  let gda = Dhdl_apps.Registry.find "gda" in
  let specs =
    List.map
      (fun p -> ("gda", p))
      (Dhdl_dse.Space.sample (gda.App.space gda.App.paper_sizes) ~seed ~max_points:64)
  in
  let request id = P.request ~id ~specs P.Estimate_batch in
  (* Submit to a fresh supervisor and run the request on this thread, as
     the server's event loop does: the handler's time and nothing else. *)
  let handle id =
    let sup = Supervisor.create (serve_config est) in
    let slot = ref None in
    let t0 = Unix.gettimeofday () in
    Supervisor.submit sup (request id) ~reply_to:(fun r ->
        slot := Some (r, Unix.gettimeofday () -. t0));
    ignore (Supervisor.run_next sup);
    Supervisor.drain sup;
    Option.get !slot
  in
  let handled = List.init warm_runs (fun i -> handle (Printf.sprintf "batch-%d" i)) in
  let req = request "batch" and reply = fst (List.hd handled) in
  let req_line = P.render_request req and reply_line = P.render_reply reply in
  let iters = if quick then 50 else 500 in
  Printf.sprintf
    "{\"runs\":%d,\"resolve_us\":{%s},\"batch\":{\"app\":\"gda\",\"specs\":%d,\"request_bytes\":%d,\"reply_bytes\":%d,\"request_render_us\":%s,\"request_parse_us\":%s,\"reply_render_us\":%s,\"reply_parse_us\":%s,\"handler_ms\":%s},\"pings\":%s}"
    warm_runs (String.concat "," resolve) (List.length specs) (String.length req_line)
    (String.length reply_line)
    (us_per_call ~iters (fun () -> P.render_request req))
    (us_per_call ~iters (fun () -> P.parse_request req_line))
    (us_per_call ~iters (fun () -> P.render_reply reply))
    (us_per_call ~iters (fun () -> P.parse_reply reply_line))
    (spread_json "%.3f" (List.map (fun (_, dt) -> dt *. 1000.0) handled))
    pings

let run_dseperf ~quick () =
  banner "DSE throughput (telemetry-derived): points/sec per jobs level, cache A/B, symbolic A/B";
  let est = Eval.estimator (the_eval ~quick ()) in
  (* First: the pings fork, and the jobs sweep below spawns domains. *)
  let pings = ping_block est in
  let fresh_eval () = Eval.create est in
  let app = Dhdl_apps.Registry.find "gda" in
  let sizes = app.App.paper_sizes in
  let points = if quick then 200 else 1_000 in
  let space = app.App.space sizes in
  let generate p = app.App.generate ~sizes ~params:p in
  (* [f ()] with a fresh sink on, and the snapshot it left. *)
  let recorded f =
    Obs.enable ();
    Fun.protect ~finally:Obs.disable @@ fun () ->
    let v = f () in
    (v, Obs.snapshot ())
  in
  let sweep ?(jobs = 1) ?(obs = false) ev =
    let cfg = Explore.Config.make ~seed ~max_points:points ~jobs () in
    let run () = Explore.run cfg ev ~space ~generate in
    if obs then
      let r, snap = recorded run in
      (r, Some snap)
    else (run (), None)
  in
  let pps (r : Explore.result) =
    if r.Explore.elapsed_seconds > 0.0 then
      float_of_int r.Explore.sampled /. r.Explore.elapsed_seconds
    else 0.0
  in
  let elapsed (r : Explore.result) = r.Explore.elapsed_seconds in
  let attr_of snap =
    match Profile.of_snapshot snap with
    | Some attr -> attr
    | None -> failwith "the sweep recorded no spans"
  in
  let times runs = spread_json "%.3f" (List.map elapsed runs) in
  let rates runs = spread_json "%.1f" (List.map pps runs) in
  (* Cold sequential runs, a fresh cache each (top-level fields,
     comparable with history); the first run's cache, fully warm after
     it, serves every warm repeat below (all runs evaluate the same seeded
     point set). *)
  let colds = repeat (fun () -> let ev = fresh_eval () in (ev, sweep ~obs:true ev)) in
  let ev_seq, _ = List.hd colds in
  let colds = List.map snd colds in
  let cold_runs = List.map fst colds in
  let r1 = median_run elapsed cold_runs in
  let warm = repeat (fun () -> fst (sweep ev_seq)) in
  let rwarm = List.hd warm in
  let warm_pps = List.map pps warm in
  (* Warm server sessions: what a dse_start of a sweep the server has seen
     pays, key and checkpoint writes included, and the GC work it does.
     gda's sessions re-sweep [ev_seq]; kmeans, whose gate refutes about
     40% of its points, is filled by one cold sweep on an Eval of its own. *)
  let every =
    (Dhdl_serve.Supervisor.default_config ~sessions_root:"" ~estimator:(lazy est))
      .Dhdl_serve.Supervisor.dse_checkpoint_every
  in
  let session_path = Filename.concat (Filename.get_temp_dir_name ()) "dhdl_bench_session.jsonl" in
  let session ev ~space ~generate () =
    if Sys.file_exists session_path then Sys.remove session_path;
    let cfg =
      Explore.Config.make ~seed ~max_points:points ~checkpoint:session_path
        ~checkpoint_every:every ~resume:true ()
    in
    let r = Explore.run cfg ev ~space ~generate in
    Sys.remove session_path;
    r
  in
  let warm_session ev ~space ~generate =
    let module P = Profile in
    (* [Gc.minor_words], not [quick_stat]'s, which counts only the
       minor heaps already collected. *)
    let gc_session () =
      let majors = (Gc.quick_stat ()).Gc.major_collections and words = Gc.minor_words () in
      let r = session ev ~space ~generate () in
      ( r,
        float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors),
        Gc.minor_words () -. words )
    in
    let runs = repeat gc_session in
    let sessions = List.map (fun (r, _, _) -> r) runs in
    (* Untimed sink-on sessions count what a warm point still elaborates
       (the gate, memoized by family, elaborates nothing) and how many
       points the point index answered, and give the lanes. *)
    let traced =
      repeat (fun () ->
          let calls = ref 0 in
          let counted p =
            incr calls;
            generate p
          in
          let _, snap = recorded (session ev ~space ~generate:counted) in
          (!calls, snap))
    in
    let generate_calls, first = List.hd traced in
    let index_hits =
      Option.value ~default:0 (List.assoc_opt "dse.index.hit" first.Obs.snap_counters)
    in
    (* Beside the collector's checkpoint writes, what is left of a warm
       point: its generate and cache-probe (design key) lanes. *)
    let attrs = List.map (fun (_, snap) -> attr_of snap) traced in
    let lane f = spread_json "%.6f" (List.map f attrs) in
    let workers f (a : P.t) = List.fold_left (fun acc w -> acc +. f w) 0.0 a.P.workers in
    Printf.sprintf
      "{\"jobs\":1,\"points\":%d,\"checkpoint_every\":%d,\"runs\":%d,\"points_per_sec\":%s,\"major_collections\":%s,\"minor_words\":%s,\"sym_pruned\":%d,\"collector_write_s\":%s,\"generate_s\":%s,\"probe_s\":%s,\"generate_calls\":%d,\"index_hits\":%d}"
      (List.hd sessions).Explore.sampled every warm_runs (rates sessions)
      (spread_json "%.0f" (List.map (fun (_, m, _) -> m) runs))
      (spread_json "%.0f" (List.map (fun (_, _, w) -> w) runs))
      (List.hd sessions).Explore.sym_pruned
      (lane (fun a -> a.P.collector.P.c_write_s))
      (lane (workers (fun w -> w.P.w_generate_s)))
      (lane (workers (fun w -> w.P.w_probe_s)))
      generate_calls index_hits
  in
  let warm_gda = warm_session ev_seq ~space ~generate in
  let warm_kmeans =
    let km = Dhdl_apps.Registry.find "kmeans" in
    let sizes = km.App.paper_sizes in
    let space = km.App.space sizes in
    let generate p = km.App.generate ~sizes ~params:p in
    let ev = fresh_eval () in
    ignore
      (Explore.run
         (Explore.Config.make ~seed ~max_points:points ())
         ev ~space ~generate);
    warm_session ev ~space ~generate
  in
  let warm_session = Printf.sprintf "{\"gda\":%s,\"kmeans\":%s}" warm_gda warm_kmeans in
  (* Cold timing + warm attribution per jobs level, from the spans of
     sink-on repeats that share [ev_seq]'s cache. *)
  let jobs_levels = [ 1; 2; 4 ] in
  let levels =
    List.map
      (fun jobs ->
        let cold =
          if jobs = 1 then cold_runs
          else repeat (fun () -> fst (sweep ~jobs ~obs:true (fresh_eval ())))
        in
        let warm = repeat (fun () -> sweep ~jobs ~obs:true ev_seq) in
        let _, snap = median_run (fun (r, _) -> elapsed r) warm in
        (jobs, cold, List.map fst warm, attr_of (Option.get snap)))
      jobs_levels
  in
  (* Symbolic-gate A/B on kmeans: fresh caches both sides so the only
     difference is the gate. Generate calls are counted at the source —
     gate on pays the probe elaborations up front and then skips every
     symbolically refuted point. *)
  let sym_app = Dhdl_apps.Registry.find "kmeans" in
  let sym_sizes = sym_app.App.paper_sizes in
  let sym_space = sym_app.App.space sym_sizes in
  let sym_run ~symbolic =
    let calls = ref 0 in
    let generate p =
      incr calls;
      sym_app.App.generate ~sizes:sym_sizes ~params:p
    in
    let cfg = Explore.Config.make ~seed ~max_points:points ~symbolic () in
    let r = Explore.run cfg (fresh_eval ()) ~space:sym_space ~generate in
    (r, !calls)
  in
  (* Cold per-lane split: the median cold run's spans say where a cold
     point's time goes. *)
  let cold_attribution =
    let module P = Profile in
    let a = attr_of (Option.get (snd (median_run (fun (r, _) -> elapsed r) colds))) in
    let lane f = List.fold_left (fun acc w -> acc +. f w) 0.0 a.P.workers in
    Printf.sprintf
      "{\"jobs\":1,\"runs\":%d,\"elapsed_s\":%s,\"points_per_sec\":%s,\"setup_s\":%.4f,\"generate_s\":%.4f,\"probe_s\":%.4f,\"analyze_s\":%.4f,\"estimate_s\":%.4f}"
      warm_runs (times cold_runs) (rates cold_runs) a.P.setup_s
      (lane (fun w -> w.P.w_generate_s))
      (lane (fun w -> w.P.w_probe_s))
      (lane (fun w -> w.P.w_analyze_s))
      (lane (fun w -> w.P.w_estimate_s))
  in
  let setup_runs =
    repeat (fun () ->
        let t0 = Unix.gettimeofday () in
        let char = Dhdl_model.Characterization.characterize () in
        let t1 = Unix.gettimeofday () in
        let nn =
          Dhdl_model.Nn_correction.train ~seed ~samples:200 char Dhdl_device.Target.stratix_v
        in
        let t2 = Unix.gettimeofday () in
        ignore (Estimator.of_parts char nn);
        (t1 -. t0, t2 -. t1, Unix.gettimeofday () -. t0))
  in
  let setup_spread f = spread_json "%.4f" (List.map f setup_runs) in
  let setup =
    Printf.sprintf
      "{\"seed\":%d,\"train_samples\":200,\"runs\":%d,\"characterize_s\":%s,\"train_s\":%s,\"build_s\":%s}"
      seed warm_runs
      (setup_spread (fun (c, _, _) -> c))
      (setup_spread (fun (_, t, _) -> t))
      (setup_spread (fun (_, _, b) -> b))
  in
  let serve = serve_block ~quick ~pings est in
  let sym_on = repeat (fun () -> sym_run ~symbolic:true) in
  let sym_off = repeat (fun () -> sym_run ~symbolic:false) in
  let sym_side runs =
    let r, calls = median_run (fun (r, _) -> elapsed r) runs in
    let rs = List.map fst runs in
    ( Printf.sprintf
        "{\"runs\":%d,\"elapsed_s\":%s,\"points_per_sec\":%s,\"generate_calls\":%d,\"sym_pruned\":%d,\"lint_pruned\":%d,\"absint_pruned\":%d,\"dep_pruned\":%d}"
        warm_runs (times rs) (rates rs) calls r.Explore.sym_pruned r.Explore.lint_pruned
        r.Explore.absint_pruned r.Explore.dep_pruned,
      r,
      calls )
  in
  let on_json, r_on, gen_on = sym_side sym_on in
  let off_json, _, gen_off = sym_side sym_off in
  let symbolic_ab =
    Printf.sprintf "{\"app\":\"kmeans\",\"points\":%d,\"gate_on\":%s,\"gate_off\":%s,\"generate_calls_saved\":%d}"
      r_on.Explore.sampled on_json off_json (gen_off - gen_on)
  in
  (* Per-design latency percentiles of each cold run's histogram. *)
  let percentiles p =
    spread_json "%.4f"
      (List.map
         (fun (_, snap) ->
           let ms =
             try List.assoc "dse.ms_per_design" (Option.get snap).Obs.snap_hists
             with Not_found -> [||]
           in
           Obs.percentile ms p)
         colds)
  in
  let estimated = r1.Explore.sampled - r1.Explore.lint_pruned in
  let per_design f runs = spread_json "%.4f" (List.map (fun r -> f r *. 1000.0) runs) in
  let level_json (jobs, cold, warm, attr) =
    Printf.sprintf
      "{\"jobs\":%d,\"runs\":%d,\"elapsed_s\":%s,\"points_per_sec\":%s,\"wall_ms_per_design\":%s,\"cpu_ms_per_design\":%s,\"warm_elapsed_s\":%s,\"warm_attribution\":%s}"
      jobs warm_runs (times cold) (rates cold)
      (per_design Explore.seconds_per_design cold)
      (per_design Explore.cpu_seconds_per_design cold)
      (spread_json "%.4f" (List.map elapsed warm))
      (Profile.to_json attr)
  in
  let cold_median = Dhdl_util.Stats.median (List.map pps cold_runs) in
  let warm_median = Dhdl_util.Stats.median warm_pps in
  let cache_ab =
    Printf.sprintf
      "{\"jobs\":1,\"runs\":%d,\"cold_elapsed_s\":%s,\"cold_points_per_sec\":%s,\"warm_points_per_sec\":%s,\"warm_speedup\":%.2f,\"warm_cache_hits\":%d,\"warm_cache_misses\":%d}"
      warm_runs (times cold_runs) (rates cold_runs) (spread_json "%.1f" warm_pps)
      (if cold_median > 0.0 then warm_median /. cold_median else 0.0)
      rwarm.Explore.cache_hits rwarm.Explore.cache_misses
  in
  let json =
    Printf.sprintf
      "{\"schema\":15,\"label\":%S,\"app\":\"gda\",\"points\":%d,\"estimated\":%d,\"lint_pruned\":%d,\"recommended_domain_count\":%d,\"runs\":%d,\"host_note\":\"points_per_sec and scaling depend on the host; a recommended_domain_count of 1 (e.g. a single-core container) makes every jobs>1 level pure coordination overhead. Cold levels use a fresh evaluation cache per run; warm_attribution is read from the spans of a sink-on repeat on a warm cache, isolating coordination from estimation work. symbolic_ab is a cold kmeans sweep with the pre-elaboration legality gate on vs off, counting generate calls. cold_attribution splits the median cold jobs=1 gda run into setup and its worker lanes, read from that run's spans. warm_session re-runs warm gda and kmeans sweeps as server sessions (fresh checkpoint, resume on, the server's checkpoint cadence): points_per_sec, major_collections and minor_words from sink-off sessions, the lanes from as many sink-on ones; major_collections and minor_words are each timed session's deltas of Gc.quick_stat's major collections and of Gc.minor_words; generate_calls and index_hits come from the first sink-on session, which counts its generator calls. setup builds the CLI's estimator (seed 2016, 200 training samples) from scratch: characterization, NN training and the whole build. serve times App.resolve per app at paper sizes (us per call), the codec of a 64-spec gda estimate_batch request and its reply (us per call), that batch's handler run on the calling thread by a fresh supervisor (ms), and pings: count sequential pings, one connection each, against a freshly forked Server.run per run (mean, p50, p99 and max us per ping, and how many took over 1 ms). Every timed figure is the median, min and max of runs runs; every attribution object and count is the median run's.\",\"elapsed_s\":%s,\"points_per_sec\":%s,\"ms_per_design_p50\":%s,\"ms_per_design_p95\":%s,\"cache_ab\":%s,\"warm_session\":%s,\"cold_attribution\":%s,\"symbolic_ab\":%s,\"setup\":%s,\"serve\":%s,\"jobs_sweep\":[%s]}\n"
      !run_label r1.Explore.sampled estimated r1.Explore.lint_pruned
      (Domain.recommended_domain_count ())
      warm_runs (times cold_runs) (rates cold_runs) (percentiles 50.0) (percentiles 95.0)
      cache_ab warm_session cold_attribution symbolic_ab setup serve
      (String.concat "," (List.map level_json levels))
  in
  let oc = open_out "BENCH_dse.json" in
  output_string oc json;
  close_out oc;
  let med f runs = Dhdl_util.Stats.median (List.map f runs) in
  Printf.printf
    "%d points (%d estimated, %d lint-pruned), sequential cold (median of %d): %.2f s, %.0f \
     points/sec\n"
    r1.Explore.sampled estimated r1.Explore.lint_pruned warm_runs (med elapsed cold_runs)
    cold_median;
  Printf.printf
    "warm-cache repeat (median of %d): %.0f points/sec (%.0fx; %d hits, %d misses)\n" warm_runs
    warm_median
    (if cold_median > 0.0 then warm_median /. cold_median else 0.0)
    rwarm.Explore.cache_hits rwarm.Explore.cache_misses;
  Printf.printf "warm sessions (checkpoint every %d): %s\n" every warm_session;
  Printf.printf "estimator setup (seed %d, 200 samples): %s\n" seed setup;
  Printf.printf "serve path: %s\n" serve;
  List.iter
    (fun (jobs, cold, _, attr) ->
      let module P = Profile in
      let top_name, top_s = P.top_contender attr in
      Printf.printf
        "  jobs=%d: cold %.2f s wall, %.0f points/sec; warm attribution: work %.1f%%, \
         contention %.1f%%, stall %.1f%% (top: %s %.4f s)\n"
        jobs (med elapsed cold) (med pps cold)
        (100.0 *. P.work_fraction attr)
        (100.0 *. P.contention_fraction attr)
        (100.0 *. P.stall_fraction attr)
        top_name top_s)
    levels;
  Printf.printf
    "symbolic gate A/B (kmeans, cold): on %d generate calls (%d sym-pruned, %.2f s), off %d \
     generate calls (%.2f s) — %d elaborations saved\n"
    gen_on r_on.Explore.sym_pruned
    (med (fun (r, _) -> elapsed r) sym_on)
    gen_off
    (med (fun (r, _) -> elapsed r) sym_off)
    (gen_off - gen_on);
  Printf.printf "ms per design (sequential, cold; medians): p50 %s, p95 %s\n" (percentiles 50.0)
    (percentiles 95.0);
  Printf.printf "cold lanes (jobs=1, median run): %s\n" cold_attribution;
  Printf.printf "written to BENCH_dse.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one per table/figure                      *)
(* ------------------------------------------------------------------ *)

let run_micro ~quick () =
  banner "Microbenchmarks (Bechamel): per-call cost of each experiment's hot path";
  let open Bechamel in
  let ev = the_eval ~quick () in
  let est = Eval.estimator ev in
  let gda = Dhdl_apps.Registry.find "gda" in
  let sizes = gda.App.paper_sizes in
  let design = App.generate_default gda sizes in
  let space = gda.App.space sizes in
  let hls_small = Dhdl_hls.Gda_c.build ~cols:24 Dhdl_hls.Gda_c.default in
  let tests =
    [
      (* Table III's unit of work: one hybrid estimate plus one toolchain
         ground-truth run. Cache off — the per-call cost is the point. *)
      Test.make ~name:"table3.estimate"
        (Staged.stage (fun () -> Eval.estimate ~cache:false ev design));
      Test.make ~name:"table3.synthesize"
        (Staged.stage (fun () -> Dhdl_synth.Toolchain.synthesize design));
      Test.make ~name:"table3.simulate" (Staged.stage (fun () -> Dhdl_sim.Perf_sim.simulate design));
      (* Table IV's two sides. *)
      Test.make ~name:"table4.our_estimator"
        (Staged.stage (fun () -> Estimator.estimate_cycles est design));
      Test.make ~name:"table4.hls_restricted"
        (Staged.stage (fun () -> Dhdl_hls.Scheduler.estimate hls_small));
      (* Figure 5's unit: sample + generate + estimate one design point. *)
      Test.make ~name:"fig5.dse_point"
        (Staged.stage (fun () ->
             let p = List.hd (Dhdl_dse.Space.sample space ~seed ~max_points:1) in
             Eval.estimate ~cache:false ev (gda.App.generate ~sizes ~params:p)));
      (* Figure 6's unit: the CPU cost model. *)
      Test.make ~name:"fig6.cpu_model"
        (Staged.stage (fun () -> Dhdl_cpu.Cost_model.seconds (gda.App.cpu_workload sizes)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark (Test.make_grouped ~name:"dhdl" tests) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ ns ] -> Printf.printf "  %-28s %12.1f ns/run (%9.3f ms)\n" name ns (ns /. 1e6)
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Long-running robustness soak of the DSE server (ISSUE 8). Sustained
   mixed traffic over the Unix socket against an in-process server, with
   the serve fault sites firing at 5%; every request must come back as
   exactly one typed reply — lost replies abort the soak. Excluded from
   the default `all` run (it is a robustness soak, not a paper figure):
     dune exec bench/main.exe serve-soak [-- --quick]                  *)
(* ------------------------------------------------------------------ *)

let run_serve_soak ~quick () =
  let module Server = Dhdl_serve.Server in
  let module Client = Dhdl_serve.Client in
  let module Sup = Dhdl_serve.Supervisor in
  let module P = Dhdl_serve.Protocol in
  let module Faults = Dhdl_util.Faults in
  banner "Serve soak: sustained mixed traffic under 5% injected faults";
  let est = Eval.estimator (the_eval ~quick ()) in
  let tmpdir = Filename.get_temp_dir_name () in
  let socket = Filename.concat tmpdir "dhdl_bench_soak.sock" in
  let root = Filename.concat tmpdir "dhdl_bench_soak_sessions" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let cfg = Sup.default_config ~sessions_root:root ~estimator:(Lazy.from_val est) in
  Faults.configure ~seed ~p:0.0 ();
  List.iter
    (fun s -> Faults.set_site s 0.05)
    [ "serve.handler"; "serve.sock_read"; "serve.sock_write"; "serve.session_store" ];
  let server =
    Domain.spawn (fun () -> Server.run ~install_signals:false ~socket_path:socket cfg)
  in
  let client = Client.create ~timeout_s:30.0 ~socket_path:socket () in
  if not (Client.wait_ready ~timeout_s:60.0 client) then failwith "soak server did not come up";
  let n = if quick then 200 else 2_000 in
  let ok = ref 0 and typed_errors = ref 0 and quarantined = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let id = Printf.sprintf "soak-%d" i in
    let req =
      match i mod 4 with
      | 0 -> P.request ~id P.Ping
      | 1 -> P.request ~id ~app:"dotproduct" P.Estimate
      | 2 -> P.request ~id ~app:"gda" P.Lint
      | _ -> P.request ~id ~app:"nosuchapp" P.Estimate
    in
    match Client.call client req with
    | Ok reply -> (
      match reply.P.r_body with
      | Ok _ -> incr ok
      | Error { P.err_code = P.Quarantined; _ } ->
        incr quarantined;
        incr typed_errors
      | Error _ -> incr typed_errors)
    | Error msg -> failwith (Printf.sprintf "request %s got no reply: %s" id msg)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (* A sweep session runs to completion through the same fault stream. *)
  let sid = "bench-soak" in
  (match
     Client.call client
       (P.request ~id:"soak-dse" ~app:"dotproduct" ~session:sid ~seed ~max_points:25 P.Dse_start)
   with
  | Ok _ -> ()
  | Error msg -> failwith ("dse_start got no reply: " ^ msg));
  let rec wait_done k =
    if k > 3000 then failwith "soak sweep did not finish"
    else
      match Client.call client (P.request ~id:(Printf.sprintf "soak-st-%d" k) ~session:sid P.Dse_status) with
      | Ok { P.r_body = Ok p; _ }
        when Dhdl_util.Json.member "state" p = Some (Dhdl_util.Json.Str "done") ->
        ()
      | _ ->
        Unix.sleepf 0.05;
        wait_done (k + 1)
  in
  wait_done 0;
  ignore (Client.call client (P.request ~id:"soak-bye" P.Shutdown));
  Domain.join server;
  Faults.reset ();
  Printf.printf
    "%d requests under 5%%-per-site faults: %d ok, %d typed errors (%d quarantined), 0 lost\n"
    n !ok !typed_errors !quarantined;
  Printf.printf "sustained %.0f req/s end-to-end over the socket (%.1f s)\n" (float_of_int n /. dt) dt;
  Printf.printf "plus one 25-point sweep session driven to completion through the same faults\n";
  assert (!ok + !typed_errors = n)

(* ------------------------------------------------------------------ *)
(* Long differential fuzz of the analysis kernels: the QCheck properties
   test_deps and test_absint run briefly, at a long budget, plus the
   registry comparison at every par of the symbolic scan (2-96). Excluded
   from the default `all` run:
     dune exec bench/main.exe kernel-oracle [-- --quick]               *)
(* ------------------------------------------------------------------ *)

let run_kernel_oracle ~quick () =
  banner "Kernel oracle: distance solver, lane and banking searches vs exhaustive scans";
  let count = if quick then 2_000 else 50_000 in
  let props =
    (Kernel_oracle.prop_solve_delta_wide ~count :: Kernel_oracle.dependence_props ~count)
    @ Kernel_oracle.banking_props ~count
  in
  let failed = QCheck_base_runner.run_tests ~colors:false ~verbose:true props in
  let seen = Kernel_oracle.seen () in
  let designs = Kernel_oracle.registry_designs ~bindings:(if quick then 50 else 200) in
  let diffs =
    List.concat_map
      (fun (label, d) ->
        List.map (fun m -> label ^ ": " ^ m)
          (Kernel_oracle.dependence_diffs ~pars:Kernel_oracle.all_pars seen d
          @ Kernel_oracle.banking_diffs seen d))
      designs
  in
  List.iter print_endline diffs;
  Printf.printf
    "registry: %d designs, %d distance systems, %d pipe bodies (pars 2-96), %d grid searches: %d \
     mismatch(es)\n"
    (List.length designs) (Hashtbl.length seen.Kernel_oracle.solves)
    (Hashtbl.length seen.Kernel_oracle.pipes) (Hashtbl.length seen.Kernel_oracle.grids)
    (List.length diffs);
  if failed <> 0 || diffs <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("table2", run_table2);
    ("table3", run_table3);
    ("table4", run_table4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("ablations", run_ablations);
    ("dseperf", run_dseperf);
    ("micro", run_micro);
  ]

(* Named-only sections: runnable by name, excluded from `all` — the serve
   soak and the kernel fuzz are long robustness exercises, not part of the
   paper's evaluation. *)
let extra_sections = [ ("serve-soak", run_serve_soak); ("kernel-oracle", run_kernel_oracle) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  paper_scale := List.mem "--paper-scale" args;
  List.iter
    (fun a ->
      match String.index_opt a '=' with
      | Some i when String.length a > 8 && String.sub a 0 8 = "--label=" ->
        run_label := String.sub a (i + 1) (String.length a - i - 1)
      | _ -> ())
    args;
  let wanted =
    List.filter
      (fun a ->
        a <> "--quick" && a <> "--paper-scale" && a <> "--"
        && not (String.length a > 8 && String.sub a 0 8 = "--label="))
      args
  in
  let sections =
    match wanted with
    | [] | [ "all" ] -> all_sections
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n (all_sections @ extra_sections) with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown section %S (have: %s)\n" n
              (String.concat " " (List.map fst (all_sections @ extra_sections)));
            exit 2)
        names
  in
  Printf.printf
    "DHDL benchmark harness — reproducing the evaluation of\n\
     \"Automatic Generation of Efficient Accelerators for Reconfigurable Hardware\" (ISCA 2016)\n";
  if quick then Printf.printf "(quick mode: scaled-down sampling)\n";
  if !paper_scale then
    Printf.printf "(paper scale: up to 75,000 sampled points per design space)\n";
  let t0 = Unix.gettimeofday () in
  List.iter (fun (name, f) -> section_time name (fun () -> f ~quick ())) sections;
  Printf.printf "\nTotal: %.1f s\n" (Unix.gettimeofday () -. t0)
