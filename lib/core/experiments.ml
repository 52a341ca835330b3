module Estimator = Dhdl_model.Estimator
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Toolchain = Dhdl_synth.Toolchain
module Report = Dhdl_synth.Report
module Perf_sim = Dhdl_sim.Perf_sim
module Cost_model = Dhdl_cpu.Cost_model
module Stats = Dhdl_util.Stats
module Texttable = Dhdl_util.Texttable
module Asciiplot = Dhdl_util.Asciiplot
module Rng = Dhdl_util.Rng
module Obs = Dhdl_obs.Obs

let explore_app ?(seed = 2016) ~max_points ev (app : App.t) =
  Obs.span "experiment.explore" ~attrs:[ ("app", app.App.name) ] @@ fun () ->
  let sizes = app.App.paper_sizes in
  Explore.run (Explore.Config.make ~seed ~max_points ()) ev ~space:(app.App.space sizes)
    ~generate:(fun point -> app.App.generate ~sizes ~params:point)

(* Pick up to [k] evaluations spread evenly along a Pareto frontier. *)
let spread k items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n <= k then items
  else
    List.init k (fun i ->
        let idx = if k = 1 then 0 else i * (n - 1) / (k - 1) in
        arr.(idx))

let best_per_area (r : Explore.result) =
  match List.filter (fun (e : Explore.evaluation) -> e.Explore.valid) r.Explore.evaluations with
  | [] -> None
  | valid ->
    let score (e : Explore.evaluation) = e.Explore.estimate.Estimator.cycles *. e.Explore.alm_pct in
    Some (List.fold_left (fun acc e -> if score e < score acc then e else acc) (List.hd valid) valid)

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let render_table2 () =
  let rows =
    List.map
      (fun (a : App.t) ->
        let dims =
          String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Texttable.fmt_int_commas v))
               a.App.paper_sizes)
        in
        [ a.App.name; a.App.description; dims ])
      Registry.all
  in
  "Table II: evaluation benchmarks\n"
  ^ Texttable.render
      ~aligns:[ Texttable.Left; Texttable.Left; Texttable.Left ]
      ~header:[ "Benchmark"; "Description"; "Dataset size" ]
      rows

(* ------------------------------------------------------------------ *)
(* Table III                                                           *)
(* ------------------------------------------------------------------ *)

type accuracy_row = {
  bench : string;
  alm_err : float;
  dsp_err : float;
  bram_err : float;
  runtime_err : float;
  points : int;
  dsp_rank_preserved : bool;
}

let table3 ?(seed = 2016) ?(sample = 300) ?(pareto_points = 5) ev =
  Obs.span "experiment.table3" @@ fun () ->
  List.map
    (fun (app : App.t) ->
      let result = explore_app ~seed ~max_points:sample ev app in
      let chosen = spread pareto_points result.Explore.pareto in
      let chosen = if chosen = [] then spread pareto_points result.Explore.evaluations else chosen in
      let dev = Estimator.device (Eval.estimator ev) in
      let evalse =
        List.map
          (fun (e : Explore.evaluation) ->
            let design = app.App.generate ~sizes:app.App.paper_sizes ~params:e.Explore.point in
            let rpt = Toolchain.synthesize ~dev design in
            let sim = Perf_sim.simulate ~dev design in
            (e.Explore.estimate, rpt, sim))
          chosen
      in
      let errs proj_est proj_act =
        Stats.mean
          (List.map
             (fun (e, rpt, _) ->
               Stats.percent_error ~actual:(proj_act rpt) ~predicted:(proj_est e))
             evalse)
      in
      let f = float_of_int in
      let alm_err =
        errs (fun (e : Estimator.estimate) -> f e.Estimator.area.Estimator.alms) (fun r -> f r.Report.alms)
      in
      let dsp_err =
        errs (fun e -> f e.Estimator.area.Estimator.dsps) (fun r -> f r.Report.dsps)
      in
      let bram_err =
        errs (fun e -> f e.Estimator.area.Estimator.brams) (fun r -> f r.Report.brams)
      in
      let runtime_err =
        Stats.mean
          (List.map
             (fun ((e : Estimator.estimate), _, (sim : Perf_sim.result)) ->
               Stats.percent_error ~actual:sim.Perf_sim.cycles ~predicted:e.Estimator.cycles)
             evalse)
      in
      let dsp_rank_preserved =
        Stats.rank_preserved
          (List.map (fun (_, (r : Report.t), _) -> f r.Report.dsps) evalse)
          (List.map (fun ((e : Estimator.estimate), _, _) -> f e.Estimator.area.Estimator.dsps) evalse)
      in
      {
        bench = app.App.name;
        alm_err;
        dsp_err;
        bram_err;
        runtime_err;
        points = List.length evalse;
        dsp_rank_preserved;
      })
    Registry.all

let render_table3 rows =
  let body =
    List.map
      (fun r ->
        [
          r.bench;
          Texttable.fmt_pct r.alm_err;
          Texttable.fmt_pct r.dsp_err;
          Texttable.fmt_pct r.bram_err;
          Texttable.fmt_pct r.runtime_err;
          string_of_int r.points;
          (if r.dsp_rank_preserved then "yes" else "no");
        ])
      rows
  in
  let avg proj = Stats.mean (List.map proj rows) in
  let footer =
    [
      "Average";
      Texttable.fmt_pct (avg (fun r -> r.alm_err));
      Texttable.fmt_pct (avg (fun r -> r.dsp_err));
      Texttable.fmt_pct (avg (fun r -> r.bram_err));
      Texttable.fmt_pct (avg (fun r -> r.runtime_err));
      "";
      "";
    ]
  in
  "Table III: average absolute error of estimates vs. post-place-and-route reports\n"
  ^ "(paper: ALM 4.8%, DSP 7.5%, BRAM 12.3%, runtime 6.1%)\n"
  ^ Texttable.render
      ~header:[ "Benchmark"; "ALMs"; "DSPs"; "BRAM"; "Runtime"; "Designs"; "DSP order kept" ]
      (body @ [ footer ])

(* ------------------------------------------------------------------ *)
(* Table IV                                                            *)
(* ------------------------------------------------------------------ *)

type speed_result = {
  ours_sec_per_design : float;
  hls_restricted_sec_per_design : float;
  hls_full_sec_per_design : float;
  ours_points : int;
  restricted_points : int;
  full_points : int;
  restricted_speedup : float;
  full_speedup : float;
}

let table4 ?(seed = 2016) ?(ours_points = 250) ?(restricted_points = 40) ?(full_points = 4)
    ?(hls_cols = 96) ev =
  Obs.span "experiment.table4" @@ fun () ->
  (* Our estimator on GDA design points. *)
  let app = Registry.find "gda" in
  let sizes = app.App.paper_sizes in
  let points = Dhdl_dse.Space.sample (app.App.space sizes) ~seed ~max_points:ours_points in
  let t0 = Unix.gettimeofday () in
  (* Timing path: cache off, so repeated structures never flatter the
     paper's seconds-per-design comparison. *)
  List.iter
    (fun p -> ignore (Eval.estimate ~cache:false ev (app.App.generate ~sizes ~params:p)))
    points;
  let ours_elapsed = Unix.gettimeofday () -. t0 in
  let ours_sec = ours_elapsed /. float_of_int (max 1 (List.length points)) in
  (* Simulated HLS flow on Figure 2's kernel. *)
  let rng = Rng.create seed in
  let measure dirs limit =
    let sampled = Rng.sample rng dirs limit in
    let times =
      List.map
        (fun d ->
          let f = Dhdl_hls.Gda_c.build ~cols:hls_cols d in
          (Dhdl_hls.Scheduler.estimate f).Dhdl_hls.Scheduler.elapsed_seconds)
        sampled
    in
    (Stats.mean times, List.length sampled)
  in
  let restricted_sec, restricted_n =
    measure (Dhdl_hls.Gda_c.design_points ~restricted:true) restricted_points
  in
  let full_dirs =
    List.filter
      (fun d -> d.Dhdl_hls.Gda_c.pipeline_l1)
      (Dhdl_hls.Gda_c.design_points ~restricted:false)
  in
  let full_sec, full_n = measure full_dirs full_points in
  {
    ours_sec_per_design = ours_sec;
    hls_restricted_sec_per_design = restricted_sec;
    hls_full_sec_per_design = full_sec;
    ours_points = List.length points;
    restricted_points = restricted_n;
    full_points = full_n;
    restricted_speedup = (if ours_sec > 0.0 then restricted_sec /. ours_sec else 0.0);
    full_speedup = (if ours_sec > 0.0 then full_sec /. ours_sec else 0.0);
  }

let render_table4 r =
  "Table IV: average estimation time per design point (GDA)\n"
  ^ "(paper: 0.017 s/design vs 4.75 s restricted HLS vs 111.06 s full HLS; 279x / 6533x)\n"
  ^ Texttable.render
      ~header:[ "Tool"; "sec/design"; "points"; "slowdown vs ours" ]
      [
        [ "Our estimator"; Printf.sprintf "%.6f" r.ours_sec_per_design; string_of_int r.ours_points; "1x" ];
        [
          "HLS (restricted: no outer pipelining)";
          Printf.sprintf "%.4f" r.hls_restricted_sec_per_design;
          string_of_int r.restricted_points;
          Printf.sprintf "%.0fx" r.restricted_speedup;
        ];
        [
          "HLS (full: outer loop pipelined)";
          Printf.sprintf "%.2f" r.hls_full_sec_per_design;
          string_of_int r.full_points;
          Printf.sprintf "%.0fx" r.full_speedup;
        ];
      ]

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

type dse_app = { app_name : string; result : Explore.result }

let fig5 ?(seed = 2016) ?(max_points = 2_000) ?apps ev =
  Obs.span "experiment.fig5" @@ fun () ->
  let selected =
    match apps with
    | None -> Registry.all
    | Some names -> List.map Registry.find names
  in
  List.map
    (fun (app : App.t) ->
      { app_name = app.App.name; result = explore_app ~seed ~max_points ev app })
    selected

let render_fig5_app { app_name; result } =
  let evals = result.Explore.evaluations in
  let pareto = result.Explore.pareto in
  let valid = List.filter (fun (e : Explore.evaluation) -> e.Explore.valid) evals in
  let invalid = List.filter (fun (e : Explore.evaluation) -> not e.Explore.valid) evals in
  let series proj =
    [
      {
        Asciiplot.label = 'x';
        points = List.map (fun e -> (proj e, e.Explore.estimate.Estimator.cycles)) invalid;
      };
      {
        Asciiplot.label = '.';
        points = List.map (fun e -> (proj e, e.Explore.estimate.Estimator.cycles)) valid;
      };
      {
        Asciiplot.label = '*';
        points = List.map (fun e -> (proj e, e.Explore.estimate.Estimator.cycles)) pareto;
      };
    ]
  in
  let plot name proj =
    Printf.sprintf "%s — cycles (log10) vs %s%%  [. valid, x invalid, * Pareto]\n%s" app_name name
      (Asciiplot.render ~x_label:(name ^ " %") ~y_label:"cycles" ~log_y:true (series proj))
  in
  let pareto_rows =
    List.map
      (fun (e : Explore.evaluation) ->
        [
          String.concat " "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) e.Explore.point);
          Texttable.fmt_int_commas (int_of_float e.Explore.estimate.Estimator.cycles);
          Texttable.fmt_float ~decimals:1 e.Explore.alm_pct;
          Texttable.fmt_float ~decimals:1 e.Explore.dsp_pct;
          Texttable.fmt_float ~decimals:1 e.Explore.bram_pct;
        ])
      (spread 8 pareto)
  in
  String.concat "\n"
    [
      Printf.sprintf "=== %s: %d sampled legal points (raw space %s), %d valid, %d Pareto ==="
        app_name result.Explore.sampled
        (Texttable.fmt_int_commas result.Explore.raw_space)
        (List.length valid) (List.length pareto);
      plot "ALM" (fun e -> e.Explore.alm_pct);
      plot "DSP" (fun e -> e.Explore.dsp_pct);
      plot "BRAM" (fun e -> e.Explore.bram_pct);
      "Pareto designs (subset):";
      Texttable.render
        ~aligns:[ Texttable.Left ]
        ~header:[ "parameters"; "cycles"; "ALM%"; "DSP%"; "BRAM%" ]
        pareto_rows;
      (match best_per_area result with
      | Some e ->
        Printf.sprintf "best performance-per-area: %s (%s cycles at %.1f%% ALM)"
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) e.Explore.point))
          (Texttable.fmt_int_commas (int_of_float e.Explore.estimate.Estimator.cycles))
          e.Explore.alm_pct
      | None -> "no valid designs");
    ]

let render_fig5 apps =
  "Figure 5: design space exploration (per-benchmark scatter + Pareto front)\n\n"
  ^ String.concat "\n" (List.map render_fig5_app apps)

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

type speedup_row = {
  s_bench : string;
  fpga_seconds : float;
  cpu_seconds : float;
  speedup : float;
  best_params : (string * int) list;
}

let fig6 ?(seed = 2016) ?(max_points = 2_000) ev =
  Obs.span "experiment.fig6" @@ fun () ->
  List.map
    (fun (app : App.t) ->
      let result = explore_app ~seed ~max_points ev app in
      let best =
        match Explore.best result with
        | Some b -> b
        | None -> (
          match result.Explore.evaluations with
          | e :: _ -> e
          | [] -> failwith ("fig6: no design points for " ^ app.App.name))
      in
      let design = app.App.generate ~sizes:app.App.paper_sizes ~params:best.Explore.point in
      let sim = Perf_sim.simulate ~dev:(Estimator.device (Eval.estimator ev)) design in
      let cpu = Cost_model.seconds (app.App.cpu_workload app.App.paper_sizes) in
      {
        s_bench = app.App.name;
        fpga_seconds = sim.Perf_sim.seconds;
        cpu_seconds = cpu;
        speedup = cpu /. sim.Perf_sim.seconds;
        best_params = best.Explore.point;
      })
    Registry.all

let paper_fig6 =
  [
    ("dotproduct", 1.07);
    ("outerprod", 2.42);
    ("gemm", 0.10);
    ("tpchq6", 1.11);
    ("blackscholes", 16.73);
    ("gda", 4.55);
    ("kmeans", 1.15);
  ]

let render_fig6 rows =
  let body =
    List.map
      (fun r ->
        let paper = List.assoc_opt r.s_bench paper_fig6 in
        [
          r.s_bench;
          Printf.sprintf "%.4f" r.fpga_seconds;
          Printf.sprintf "%.4f" r.cpu_seconds;
          Printf.sprintf "%.2fx" r.speedup;
          (match paper with Some p -> Printf.sprintf "%.2fx" p | None -> "-");
          String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.best_params);
        ])
      rows
  in
  "Figure 6: speedup of best generated design over the 6-core CPU baseline\n"
  ^ Texttable.render
      ~aligns:[ Texttable.Left; Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Left ]
      ~header:[ "Benchmark"; "FPGA (s)"; "CPU (s)"; "Speedup"; "Paper"; "Best design" ]
      body

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

type metapipe_ablation = {
  m_bench : string;
  cycles_pipelined : float;
  cycles_sequential : float;
  benefit : float;
}

let force_sequential params =
  List.map
    (fun (k, v) ->
      if String.length k >= 4 && String.sub k 0 4 = "meta" then (k, 0) else (k, v))
    params

let ablation_metapipe ?(seed = 2016) ?(max_points = 800) ev =
  let est = Eval.estimator ev in
  List.filter_map
    (fun (app : App.t) ->
      let result = explore_app ~seed ~max_points ev app in
      match Explore.best result with
      | None -> None
      | Some best ->
        let sizes = app.App.paper_sizes in
        let seq_params = force_sequential best.Explore.point in
        let pipelined = Estimator.estimate_cycles est (app.App.generate ~sizes ~params:best.Explore.point) in
        let sequential = Estimator.estimate_cycles est (app.App.generate ~sizes ~params:seq_params) in
        Some
          {
            m_bench = app.App.name;
            cycles_pipelined = pipelined;
            cycles_sequential = sequential;
            benefit = sequential /. pipelined;
          })
    Registry.all

type correction_ablation = {
  c_bench : string;
  raw_alm_err : float;
  corrected_alm_err : float;
}

let ablation_nn_correction ?(seed = 2016) ?(sample = 300) ev =
  let est = Eval.estimator ev in
  List.map
    (fun (app : App.t) ->
      let result = explore_app ~seed ~max_points:sample ev app in
      let chosen = spread 3 (if result.Explore.pareto <> [] then result.Explore.pareto else result.Explore.evaluations) in
      let dev = Estimator.device est in
      let errors =
        List.map
          (fun (e : Explore.evaluation) ->
            let design = app.App.generate ~sizes:app.App.paper_sizes ~params:e.Explore.point in
            let rpt = Toolchain.synthesize ~dev design in
            let raw_area = Estimator.estimate_area_uncorrected est design in
            let actual = float_of_int rpt.Report.alms in
            ( Stats.percent_error ~actual ~predicted:(float_of_int raw_area.Estimator.alms),
              Stats.percent_error ~actual
                ~predicted:(float_of_int e.Explore.estimate.Estimator.area.Estimator.alms) ))
          chosen
      in
      {
        c_bench = app.App.name;
        raw_alm_err = Stats.mean (List.map fst errors);
        corrected_alm_err = Stats.mean (List.map snd errors);
      })
    Registry.all

type sampling_ablation = {
  sa_points : int;
  sa_best_cycles : float;
  sa_pareto_size : int;
}

let ablation_sampling ?(seed = 2016) ?(app = "gda") ?(budgets = [ 100; 300; 1_000; 3_000 ]) ev =
  let a = Registry.find app in
  List.map
    (fun budget ->
      let r = explore_app ~seed ~max_points:budget ev a in
      let best =
        match Explore.best r with
        | Some b -> b.Explore.estimate.Estimator.cycles
        | None -> nan
      in
      { sa_points = r.Explore.sampled; sa_best_cycles = best; sa_pareto_size = List.length r.Explore.pareto })
    budgets

let render_sampling app rows =
  Printf.sprintf "Ablation 3: random-sampling convergence on %s (SS IV.C)
" app
  ^ Texttable.render
      ~header:[ "sampled points"; "best cycles found"; "Pareto size" ]
      (List.map
         (fun r ->
           [
             string_of_int r.sa_points;
             Texttable.fmt_int_commas (int_of_float r.sa_best_cycles);
             string_of_int r.sa_pareto_size;
           ])
         rows)

type device_ablation = {
  d_bench : string;
  sampled : int;
  valid_d8 : int;
  valid_d5 : int;
  best_cycles_d8 : float;
  best_cycles_d5 : float;
}

let ablation_device ?(seed = 2016) ?(max_points = 800) ev =
  let d5 = Dhdl_device.Target.stratix_v_d5 in
  let fits_d5 (a : Estimator.area) =
    a.Estimator.alms <= d5.Dhdl_device.Target.alms
    && a.Estimator.dsps <= d5.Dhdl_device.Target.dsps
    && a.Estimator.brams <= d5.Dhdl_device.Target.brams
  in
  List.map
    (fun (app : App.t) ->
      let r = explore_app ~seed ~max_points ev app in
      let valid_d8 = List.filter (fun (e : Explore.evaluation) -> e.Explore.valid) r.Explore.evaluations in
      let valid_d5 =
        List.filter (fun (e : Explore.evaluation) -> fits_d5 e.Explore.estimate.Estimator.area)
          r.Explore.evaluations
      in
      let best evals =
        List.fold_left
          (fun acc (e : Explore.evaluation) -> Float.min acc e.Explore.estimate.Estimator.cycles)
          infinity evals
      in
      {
        d_bench = app.App.name;
        sampled = r.Explore.sampled;
        valid_d8 = List.length valid_d8;
        valid_d5 = List.length valid_d5;
        best_cycles_d8 = best valid_d8;
        best_cycles_d5 = best valid_d5;
      })
    Registry.all

let render_device rows =
  "Ablation 4: device sensitivity (same estimates, Stratix V D8 vs smaller D5)\n"
  ^ Texttable.render
      ~header:[ "Benchmark"; "sampled"; "valid on D8"; "valid on D5"; "best cycles D8"; "best cycles D5"; "slowdown" ]
      (List.map
         (fun r ->
           [
             r.d_bench;
             string_of_int r.sampled;
             string_of_int r.valid_d8;
             string_of_int r.valid_d5;
             Texttable.fmt_int_commas (int_of_float r.best_cycles_d8);
             Texttable.fmt_int_commas (int_of_float r.best_cycles_d5);
             Printf.sprintf "%.2fx" (r.best_cycles_d5 /. r.best_cycles_d8);
           ])
         rows)

type bandwidth_ablation = {
  b_bench : string;
  speedup_37 : float;
  speedup_75 : float;
}

let ablation_bandwidth ?(seed = 2016) ?(max_points = 800) ev =
  let fast_board =
    { Dhdl_device.Target.max4_maia with Dhdl_device.Target.achievable_bw_gbs = 75.0 }
  in
  List.map
    (fun (app : App.t) ->
      let r = explore_app ~seed ~max_points ev app in
      let best =
        match Explore.best r with
        | Some b -> b.Explore.point
        | None -> app.App.default_params app.App.paper_sizes
      in
      let design = app.App.generate ~sizes:app.App.paper_sizes ~params:best in
      let cpu = Cost_model.seconds (app.App.cpu_workload app.App.paper_sizes) in
      let s board = cpu /. (Perf_sim.simulate ~board design).Perf_sim.seconds in
      {
        b_bench = app.App.name;
        speedup_37 = s Dhdl_device.Target.max4_maia;
        speedup_75 = s fast_board;
      })
    Registry.all

let render_bandwidth rows =
  "Ablation 5: off-chip bandwidth sensitivity (best design, 37.5 vs 75 GB/s)\n"
  ^ Texttable.render
      ~header:[ "Benchmark"; "speedup @37.5 GB/s"; "speedup @75 GB/s"; "gain" ]
      (List.map
         (fun r ->
           [
             r.b_bench;
             Printf.sprintf "%.2fx" r.speedup_37;
             Printf.sprintf "%.2fx" r.speedup_75;
             Printf.sprintf "%.2fx" (r.speedup_75 /. r.speedup_37);
           ])
         rows)

let write_fig5_csvs ~dir apps =
  List.map
    (fun { app_name; result } ->
      let path = Filename.concat dir (Printf.sprintf "fig5_%s.csv" app_name) in
      let oc = open_out path in
      output_string oc (Explore.to_csv result);
      close_out oc;
      path)
    apps

let render_ablations metapipe nn =
  let mp_rows =
    List.map
      (fun m ->
        [
          m.m_bench;
          Texttable.fmt_int_commas (int_of_float m.cycles_pipelined);
          Texttable.fmt_int_commas (int_of_float m.cycles_sequential);
          Printf.sprintf "%.2fx" m.benefit;
        ])
      metapipe
  in
  let nn_rows =
    List.map
      (fun c ->
        [ c.c_bench; Texttable.fmt_pct c.raw_alm_err; Texttable.fmt_pct c.corrected_alm_err ])
      nn
  in
  "Ablation 1: MetaPipe coarse-grained pipelining (best design vs toggles forced Sequential)\n"
  ^ Texttable.render
      ~header:[ "Benchmark"; "pipelined cycles"; "sequential cycles"; "benefit" ]
      mp_rows
  ^ "\nAblation 2: hybrid estimation (raw template counts vs NN-corrected), ALM error\n"
  ^ Texttable.render ~header:[ "Benchmark"; "raw-only error"; "corrected error" ] nn_rows
