module Target = Dhdl_device.Target
module R = Dhdl_device.Resources
module Obs = Dhdl_obs.Obs
module Faults = Dhdl_util.Faults

let log_src = Logs.Src.create "dhdl.estimator" ~doc:"DHDL estimator setup and queries"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  dev : Target.t;
  brd : Target.board;
  char : Characterization.t;
  nn : Nn_correction.t;
}

type area = {
  alms : int;
  luts : int;
  regs : int;
  dsps : int;
  brams : int;
  routing_luts : int;
  unavailable_luts : int;
  duplicated_regs : int;
  duplicated_brams : int;
}

type estimate = { area : area; cycles : float; seconds : float; raw : Area_model.raw }

let create ?(dev = Target.stratix_v) ?(board = Target.max4_maia) ?(seed = 1234)
    ?(train_samples = 200) ?epochs () =
  Obs.span "setup" ~attrs:[ ("device", dev.Target.dev_name) ] @@ fun () ->
  Log.info (fun m -> m "characterizing templates for %s" dev.Target.dev_name);
  let char = Obs.span "setup.characterize" (fun () -> Characterization.default ~dev ()) in
  Log.info (fun m ->
      m "characterization used %d toolchain runs" char.Characterization.microdesigns_synthesized);
  Log.info (fun m -> m "training P&R correction networks on %d samples (seed %d)" train_samples seed);
  let nn =
    Obs.span "setup.train_nn" (fun () -> Nn_correction.train ~seed ~samples:train_samples ?epochs char dev)
  in
  let r, g, u = Nn_correction.training_mse nn in
  Log.info (fun m -> m "training MSE: route %.2e, dup-regs %.2e, unavailable %.2e" r g u);
  { dev; brd = board; char; nn }

let of_parts ?(dev = Target.stratix_v) ?(board = Target.max4_maia) char nn =
  { dev; brd = board; char; nn }

(* Final assembly (Section IV.B.2): add the NN-estimated corrections to the
   raw counts, pack the characterized ~80% of packable LUTs pairwise
   (Section IV.A measured the toolchain packing "about 80% of the functions
   in each design in pairs"), and let each compute unit absorb two registers
   on average. *)
let pack_fraction = 0.80

let assemble dev raw (c : Nn_correction.corrections) =
  let res = raw.Area_model.resources in
  let packable = res.R.lut_packable + c.Nn_correction.routing_luts in
  let unpackable = res.R.lut_unpackable in
  let luts = packable + unpackable + c.Nn_correction.unavailable_luts in
  let packed = pack_fraction *. float_of_int packable in
  let compute_units =
    float_of_int unpackable
    +. (float_of_int packable -. packed)
    +. (packed /. 2.0)
    +. float_of_int c.Nn_correction.unavailable_luts
  in
  let regs = res.R.regs + c.Nn_correction.duplicated_regs in
  let leftover = Float.max 0.0 (float_of_int regs -. (2.0 *. compute_units)) in
  let alms =
    int_of_float (ceil (compute_units +. (leftover /. float_of_int dev.Target.regs_per_alm)))
  in
  {
    alms;
    luts;
    regs;
    dsps = res.R.dsps;
    brams = res.R.brams + c.Nn_correction.duplicated_brams;
    routing_luts = c.Nn_correction.routing_luts;
    unavailable_luts = c.Nn_correction.unavailable_luts;
    duplicated_regs = c.Nn_correction.duplicated_regs;
    duplicated_brams = c.Nn_correction.duplicated_brams;
  }

(* Graceful degradation: a correction network whose prediction comes back
   negative (or a poisoned assembly) must not leak a nonsense area into a
   75,000-point sweep. When the NN-corrected numbers fail validation the
   point falls back to the raw analytical model (zero corrections) and the
   [estimator.nn_fallback] counter records the downgrade. The
   [estimator.nn_correction] fault site lets tests force the poisoned
   path deterministically. *)
let no_corrections =
  {
    Nn_correction.routing_luts = 0;
    duplicated_regs = 0;
    unavailable_luts = 0;
    duplicated_brams = 0;
  }

let corrections_sane (c : Nn_correction.corrections) =
  c.Nn_correction.routing_luts >= 0
  && c.Nn_correction.duplicated_regs >= 0
  && c.Nn_correction.unavailable_luts >= 0
  && c.Nn_correction.duplicated_brams >= 0

let area_sane a =
  a.alms >= 0 && a.luts >= 0 && a.regs >= 0 && a.dsps >= 0 && a.brams >= 0

let corrected_area t raw =
  let corrections =
    if Faults.fires "estimator.nn_correction" then
      { no_corrections with Nn_correction.routing_luts = min_int }
    else Nn_correction.correct t.nn raw
  in
  if corrections_sane corrections then
    let area = assemble t.dev raw corrections in
    if area_sane area then area
    else begin
      Obs.count "estimator.nn_fallback";
      assemble t.dev raw no_corrections
    end
  else begin
    Obs.count "estimator.nn_fallback";
    assemble t.dev raw no_corrections
  end

(* The untraced path stays free of telemetry closures so a disabled sink
   adds nothing to the paper's headline ms-per-design metric; the traced
   path breaks the estimate into its three per-phase spans (area model, NN
   correction, cycle model). *)
let estimate t design =
  if not (Obs.enabled ()) then
    let raw = Area_model.raw_estimate t.char t.dev design in
    let area = corrected_area t raw in
    let cycles = Cycle_model.estimate ~board:t.brd design in
    { area; cycles; seconds = cycles /. (t.brd.Target.fabric_mhz *. 1e6); raw }
  else
    Obs.span "estimate" ~attrs:[ ("design", design.Dhdl_ir.Ir.d_name) ] @@ fun () ->
    let raw = Obs.span "estimate.area_model" (fun () -> Area_model.raw_estimate t.char t.dev design) in
    let area = Obs.span "estimate.nn_correction" (fun () -> corrected_area t raw) in
    let cycles = Obs.span "estimate.cycle_model" (fun () -> Cycle_model.estimate ~board:t.brd design) in
    Obs.count "estimator.estimates";
    { area; cycles; seconds = cycles /. (t.brd.Target.fabric_mhz *. 1e6); raw }

let estimate_area t design = (estimate t design).area
let estimate_cycles t design = Cycle_model.estimate ~board:t.brd design

let estimate_area_uncorrected t design =
  let raw = Area_model.raw_estimate t.char t.dev design in
  assemble t.dev raw no_corrections

let estimate_uncorrected t design =
  let raw = Area_model.raw_estimate t.char t.dev design in
  let cycles = Cycle_model.estimate ~board:t.brd design in
  {
    area = assemble t.dev raw no_corrections;
    cycles;
    seconds = cycles /. (t.brd.Target.fabric_mhz *. 1e6);
    raw;
  }

let fits t a = a.alms <= t.dev.Target.alms && a.dsps <= t.dev.Target.dsps && a.brams <= t.dev.Target.brams

let utilization t a =
  let pct used avail = 100.0 *. float_of_int used /. float_of_int avail in
  (pct a.alms t.dev.Target.alms, pct a.dsps t.dev.Target.dsps, pct a.brams t.dev.Target.brams)

let device t = t.dev
let board t = t.brd
let characterization t = t.char
let corrections t = t.nn

let timed_estimate t design =
  let start = Unix.gettimeofday () in
  let e = estimate t design in
  (e, Unix.gettimeofday () -. start)

(* Persistence: marshal the whole estimator with a magic tag so stale files
   from other builds are rejected instead of misbehaving. *)
let magic = "dhdl-estimator-v1:" ^ string_of_int (Hashtbl.hash Sys.ocaml_version)

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_char oc '\n';
      Marshal.to_channel oc t [ Marshal.Closures ])

let load path =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          let line = input_line ic in
          if line <> magic then None else Some (Marshal.from_channel ic : t)
        with _ -> None)
