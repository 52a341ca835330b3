module Target = Dhdl_device.Target
module R = Dhdl_device.Resources
module Mlp = Dhdl_ml.Mlp
module Scaler = Dhdl_ml.Scaler
module Linreg = Dhdl_ml.Linreg
module Rng = Dhdl_util.Rng
module Toolchain = Dhdl_synth.Toolchain
module Obs = Dhdl_obs.Obs

(* Each P&R factor is predicted by a small bagged ensemble of identical
   11-6-1 networks trained from different initializations; averaging damps
   the initialization variance of such tiny models. *)
type ensemble = Mlp.t list

type t = {
  scaler : Scaler.t;
  route_net : ensemble;
  dup_regs_net : ensemble;
  unavail_net : ensemble;
  dup_brams_model : Linreg.t;
  mse_route : float;
  mse_regs : float;
  mse_unavail : float;
  n_samples : int;
}

let ensemble_size = 3

let ensemble_predict nets feats =
  List.fold_left (fun acc net -> acc +. Mlp.predict1 net feats) 0.0 nets
  /. float_of_int (List.length nets)

type corrections = {
  routing_luts : int;
  duplicated_regs : int;
  unavailable_luts : int;
  duplicated_brams : int;
}

(* Networks learn effect-to-base ratios rather than absolute counts: the
   ratios live in a narrow range the sigmoid hidden layer handles well. *)
let ratio num den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den

let train ?(seed = 1234) ?(samples = 200) ?(epochs = 400) char dev =
  if samples < 1 then
    invalid_arg (Printf.sprintf "Nn_correction.train: samples must be >= 1 (got %d)" samples);
  Obs.count ~by:samples "train.corpus_designs";
  let designs = Obs.span "train.corpus" (fun () -> Design_gen.corpus ~seed samples) in
  let rows =
    Obs.span "train.ground_truth" @@ fun () ->
    List.map
      (fun d ->
        let raw = Area_model.raw_estimate char dev d in
        let rpt = Toolchain.synthesize ~dev d in
        (Area_model.features dev raw, raw, rpt))
      designs
  in
  let scaler = Scaler.fit (List.map (fun (f, _, _) -> f) rows) in
  let make_samples target =
    List.map (fun (f, raw, rpt) -> (Scaler.transform scaler f, [| target raw rpt |])) rows
  in
  let route_samples =
    make_samples (fun raw rpt ->
        ratio rpt.Dhdl_synth.Report.luts_routing (R.luts raw.Area_model.resources))
  in
  let regs_samples =
    make_samples (fun raw rpt ->
        ratio rpt.Dhdl_synth.Report.regs_duplicated raw.Area_model.resources.R.regs)
  in
  let unavail_samples =
    make_samples (fun raw rpt ->
        ratio rpt.Dhdl_synth.Report.luts_unavailable (R.luts raw.Area_model.resources))
  in
  let train_ensemble i samples =
    Obs.span "train.ensemble" ~attrs:[ ("target", string_of_int i) ] @@ fun () ->
    let nets =
      List.init ensemble_size (fun j ->
          Mlp.create
            ~rng:(Rng.create (seed + (31 * i) + (101 * j)))
            ~layer_sizes:[ Area_model.feature_count; 6; 1 ]
            ())
    in
    let mses = List.map (fun net -> Mlp.train_rprop ~epochs net samples) nets in
    (nets, Dhdl_util.Stats.mean mses)
  in
  let route_net, mse_route = train_ensemble 1 route_samples in
  let dup_regs_net, mse_regs = train_ensemble 2 regs_samples in
  let unavail_net, mse_unavail = train_ensemble 3 unavail_samples in
  (* BRAM duplication: a linear function of routing LUTs (Section IV.B.2),
     fitted in ratio space (duplicated fraction vs routing fraction) so the
     fit transfers across design sizes. *)
  let dup_brams_model =
    Linreg.fit
      (List.filter_map
         (fun (_, raw, rpt) ->
           let brams = raw.Area_model.resources.R.brams in
           if brams = 0 then None
           else
             Some
               ( [| ratio rpt.Dhdl_synth.Report.luts_routing (R.luts raw.Area_model.resources) |],
                 ratio rpt.Dhdl_synth.Report.brams_duplicated brams ))
         rows)
  in
  {
    scaler;
    route_net;
    dup_regs_net;
    unavail_net;
    dup_brams_model;
    mse_route;
    mse_regs;
    mse_unavail;
    n_samples = samples;
  }

let clamp_ratio r = Float.max 0.0 (Float.min 0.5 r)

let correct t (raw : Area_model.raw) =
  let feats = Scaler.transform t.scaler (Area_model.features Target.stratix_v raw) in
  let base_luts = R.luts raw.Area_model.resources in
  let base_regs = raw.Area_model.resources.R.regs in
  let route_ratio = clamp_ratio (ensemble_predict t.route_net feats) in
  let regs_ratio = clamp_ratio (ensemble_predict t.dup_regs_net feats) in
  let unavail_ratio = clamp_ratio (ensemble_predict t.unavail_net feats) in
  let routing_luts = int_of_float (route_ratio *. float_of_int base_luts) in
  let dup_bram_ratio = Float.max 0.0 (Linreg.predict t.dup_brams_model [| route_ratio |]) in
  let duplicated_brams =
    int_of_float (dup_bram_ratio *. float_of_int raw.Area_model.resources.R.brams)
  in
  {
    routing_luts;
    duplicated_regs = int_of_float (regs_ratio *. float_of_int base_regs);
    unavailable_luts = int_of_float (unavail_ratio *. float_of_int base_luts);
    duplicated_brams;
  }

let training_mse t = (t.mse_route, t.mse_regs, t.mse_unavail)
let samples_used t = t.n_samples
