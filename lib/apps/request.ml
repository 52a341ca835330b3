module Json = Dhdl_util.Json
module Ir = Dhdl_ir.Ir
module Diag = Dhdl_ir.Diag
module Space = Dhdl_dse.Space
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Symgate = Dhdl_dse.Symgate
module Estimator = Dhdl_model.Estimator
module Lint = Dhdl_lint.Lint
module Absint = Dhdl_absint.Absint
module Dependence = Dhdl_absint.Dependence
module Symbolic = Dhdl_absint.Symbolic

let app name =
  try Registry.find name
  with Not_found ->
    failwith
      (Printf.sprintf "unknown benchmark %S (available: %s)" name
         (String.concat ", " Registry.names))

(* The largest candidate of every par dimension, per app, from the
   paper-size spaces. Built once, when the program starts (all seven
   spaces in about 0.1 ms); a space built per request would cost half a
   served estimate. The bound also bounds the analyses, whose time grows
   with par. *)
let par_limits =
  List.map
    (fun (a : App.t) ->
      ( a.App.name,
        List.filter_map
          (fun (name, candidates) ->
            if String.starts_with ~prefix:"par" name then
              Some (name, List.fold_left max 1 candidates)
            else None)
          (Space.dims (a.App.space a.App.paper_sizes)) ))
    Registry.all

let check (a : App.t) (name, v) =
  let refuse fmt = Printf.ksprintf failwith ("parameter %S " ^^ fmt) name in
  if String.starts_with ~prefix:"tile" name then begin
    if v < 1 then refuse "must be >= 1 (got %d)" v
  end
  else if String.starts_with ~prefix:"par" name then begin
    let hi = List.assoc name (List.assoc a.App.name par_limits) in
    if v < 1 || v > hi then refuse "must be between 1 and %d (got %d)" hi v
  end
  else if String.starts_with ~prefix:"meta" name then
    if v <> 0 && v <> 1 then refuse "must be 0 or 1 (got %d)" v

let binding name overrides =
  let a = app name in
  let binding = App.resolve a a.App.paper_sizes overrides in
  List.iter (check a) binding;
  (a, binding)

type point = { app : App.t; binding : App.params; design : Ir.design }

(* The single-point barrier: whatever a checked binding still raises in a
   stage becomes a [Failure] naming that stage, so the CLI prints it and
   the server answers it instead of crashing. Sweeps have their own
   barrier in [Eval.evaluate], keyed by point index for fault injection;
   a request has no index. *)
let barrier stage f =
  let fail msg = failwith (Printf.sprintf "%s: %s" (Outcome.stage_name stage) msg) in
  try f () with
  | Failure msg -> fail msg
  | exn -> fail (Printexc.to_string exn)

let point name overrides =
  let app, binding = binding name overrides in
  let design =
    barrier Outcome.Generator_error (fun () ->
        app.App.generate ~sizes:app.App.paper_sizes ~params:binding)
  in
  { app; binding; design }

(* ---- estimate ------------------------------------------------------ *)

type estimate = { e_point : point; e_degraded : bool; e_eval : Outcome.evaluation }

(* The raw analytical model: no corrections and no cache, so a degraded
   answer depends on nothing a misbehaving network or an earlier request
   left behind. *)
let raw_evaluation est binding design =
  let e = Estimator.estimate_uncorrected est design in
  let alm, dsp, bram = Estimator.utilization est e.Estimator.area in
  {
    Outcome.point = binding;
    estimate = e;
    valid = Estimator.fits est e.Estimator.area;
    alm_pct = alm;
    dsp_pct = dsp;
    bram_pct = bram;
  }

let estimate ?(degraded = false) ev p =
  let e_eval =
    barrier Outcome.Estimator_error (fun () ->
        if degraded then raw_evaluation (Eval.estimator ev) p.binding p.design
        else Eval.evaluation ev p.binding p.design)
  in
  { e_point = p; e_degraded = degraded; e_eval }

let params_json params = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) params)

let estimate_json e =
  let ev = e.e_eval in
  let est = ev.Outcome.estimate in
  let a = est.Estimator.area in
  Json.Obj
    [
      ("app", Json.Str e.e_point.app.App.name);
      ("params", params_json e.e_point.binding);
      ("degraded", Json.Bool e.e_degraded);
      ("cycles", Json.Float est.Estimator.cycles);
      ("seconds", Json.Float est.Estimator.seconds);
      ( "area",
        Json.Obj
          [
            ("alms", Json.Int a.Estimator.alms);
            ("luts", Json.Int a.Estimator.luts);
            ("regs", Json.Int a.Estimator.regs);
            ("dsps", Json.Int a.Estimator.dsps);
            ("brams", Json.Int a.Estimator.brams);
          ] );
      ("alm_pct", Json.Float ev.Outcome.alm_pct);
      ("dsp_pct", Json.Float ev.Outcome.dsp_pct);
      ("bram_pct", Json.Float ev.Outcome.bram_pct);
      ("fits", Json.Bool ev.Outcome.valid);
    ]

(* ---- lint ---------------------------------------------------------- *)

type lint = { l_point : point; l_diags : Diag.t list }

let lint p = { l_point = p; l_diags = barrier Outcome.Lint_error (fun () -> Lint.check p.design) }
let lint_text l = Lint.render_text ~design:l.l_point.design l.l_diags
let lint_json l = Json.Raw (Lint.render_json ~design:l.l_point.design l.l_diags)

(* ---- analyze ------------------------------------------------------- *)

type analysis = { a_point : point; a_absint : Absint.report; a_deps : Dependence.report }

let analyze p =
  barrier Outcome.Lint_error (fun () ->
      { a_point = p; a_absint = Absint.analyze p.design; a_deps = Dependence.analyze p.design })

let analysis_clean a = Absint.clean a.a_absint && Dependence.clean a.a_deps
let analysis_text a = Absint.render_text a.a_absint ^ Dependence.render_text a.a_deps

let analysis_json a =
  Json.Obj
    [
      ("absint", Json.Raw (Absint.render_json a.a_absint));
      ("dependence", Json.Raw (Dependence.render_json a.a_deps));
    ]

(* ---- symbolic analyze ---------------------------------------------- *)

type symbolic = {
  s_app : App.t;
  s_binding : App.params;
  s_systems : Symbolic.system list;
  s_verdict : Symbolic.verdict;
}

let symbolic name overrides =
  let app, binding = binding name overrides in
  let sizes = app.App.paper_sizes in
  barrier Outcome.Lint_error (fun () ->
      let gate =
        Symgate.derive ~space:(app.App.space sizes)
          ~generate:(fun p -> app.App.generate ~sizes ~params:p)
          ()
      in
      {
        s_app = app;
        s_binding = binding;
        s_systems = Symgate.systems gate;
        s_verdict = Symgate.verdict gate binding;
      })

(* The gate refutes or answers Unknown; it never constructs Legal. *)
let refutation s =
  match s.s_verdict with Symbolic.Refuted { code; witness } -> Some (code, witness) | _ -> None

let symbolic_refuted s = refutation s <> None
let unknown_why s = match s.s_verdict with Symbolic.Unknown why -> why | _ -> ""

let symbolic_text s =
  let point = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.s_binding) in
  String.concat "" (List.map Symbolic.render_text s.s_systems)
  ^
  match refutation s with
  | Some (code, witness) -> Printf.sprintf "point %s: Refuted [%s] %s\n" point code witness
  | None -> Printf.sprintf "point %s: Unknown (%s)\n" point (unknown_why s)

let symbolic_json s =
  Json.Obj
    [
      ("systems", Json.List (List.map (fun sys -> Json.Raw (Symbolic.render_json sys)) s.s_systems));
      ("point", params_json s.s_binding);
      ( "verdict",
        match refutation s with
        | Some (code, witness) ->
          Json.Obj [ ("kind", Json.Str "refuted"); ("code", Json.Str code); ("witness", Json.Str witness) ]
        | None -> Json.Obj [ ("kind", Json.Str "unknown"); ("why", Json.Str (unknown_why s)) ] );
    ]
