(* Layer-by-layer replay of a sweep, for the traced run.

   [Explore.run] is one call, so the traced run replays every sampled point
   through the same layer functions, in the order [Explore] and [Eval]
   document: gate verdict, generate, design key, cache probe, absint then
   dependence then lint, estimate, and a checkpoint at the sweep's cadence.
   Each replayed outcome is checked against the entry [Explore.run]
   recorded, so the spans describe the work the measured sweep really did.
   Spans go to the Obs sink; with the sink off, the replay only checks. *)

module App = Dhdl_apps.App
module Diag = Dhdl_ir.Diag
module Estimator = Dhdl_model.Estimator
module Area_model = Dhdl_model.Area_model
module Nn_correction = Dhdl_model.Nn_correction
module Cycle_model = Dhdl_model.Cycle_model
module Design_key = Dhdl_model.Design_key
module Lint = Dhdl_lint.Lint
module Absint = Dhdl_absint.Absint
module Dependence = Dhdl_absint.Dependence
module Symbolic = Dhdl_absint.Symbolic
module Space = Dhdl_dse.Space
module Outcome = Dhdl_dse.Outcome
module Symgate = Dhdl_dse.Symgate
module Checkpoint = Dhdl_dse.Checkpoint
module Target = Dhdl_device.Target
module Obs = Dhdl_obs.Obs

(* The analysis verdict classes [Eval] caches. *)
type verdict = Clean | Heuristic_errors | Absint_refuted | Dep_refuted

(* The estimator's three layers, called one by one so each gets a span.
   [Estimator.estimate] assembles the area from [raw] and [corr]; the
   assembly is pure arithmetic, so matching parts mean a matching estimate. *)
type parts = { raw : Area_model.raw; corr : Nn_correction.corrections; cycles : float }

(* What the replay of one point produced. *)
type outcome =
  | Sym_refuted
  | Verdict of verdict  (** An analysis verdict other than [Clean]. *)
  | Estimated of parts  (** Estimate cache miss. *)
  | Cached of Estimator.estimate  (** Estimate cache hit. *)

(* Mirror of [Eval]'s two caches, keyed exactly as [Eval] keys them. *)
type mirror = {
  m_lock : Mutex.t;
  analysis : (string, verdict) Hashtbl.t;
  estimates : (string, Estimator.estimate) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let mirror () =
  {
    m_lock = Mutex.create ();
    analysis = Hashtbl.create 1024;
    estimates = Hashtbl.create 1024;
    hits = 0;
    misses = 0;
  }

(* Counts spans cannot give. *)
type tally = {
  mutable sym_refuted : int;
  mutable evaluated : int;
  mutable absint_refuted : int;
  mutable dep_refuted : int;
  mutable ck_writes : int;
  mutable ck_bytes : int;
}

let tally () =
  { sym_refuted = 0; evaluated = 0; absint_refuted = 0; dep_refuted = 0; ck_writes = 0; ck_bytes = 0 }

(* [Eval]'s analysis-cache key with lint on. The replayed sweeps run with
   lint, absint and the gate on, as `dhdl dse` and the server run them; a
   point the gate proves legal skips the absint re-proof, so [absint] is
   per point. *)
let analysis_key ~absint key = key ^ if absint then "/la" else "/l-"

let classify diags =
  let proof, heuristic =
    List.partition (fun g -> List.mem g.Diag.code Lint.proof_codes) (Lint.errors diags)
  in
  if heuristic <> [] then Heuristic_errors
  else if proof = [] then Clean
  else if List.for_all (fun g -> g.Diag.code = "L013") proof then Dep_refuted
  else Absint_refuted

let verdict_of_entry = function
  | Outcome.Pruned -> Some Heuristic_errors
  | Outcome.Absint_pruned -> Some Absint_refuted
  | Outcome.Dep_pruned -> Some Dep_refuted
  | Outcome.Evaluated _ -> Some Clean
  | Outcome.Sym_pruned | Outcome.Failed _ -> None

let entry_name = function
  | Outcome.Evaluated _ -> "evaluated"
  | Outcome.Pruned -> "lint-pruned"
  | Outcome.Absint_pruned -> "absint-pruned"
  | Outcome.Dep_pruned -> "dep-pruned"
  | Outcome.Sym_pruned -> "sym-pruned"
  | Outcome.Failed (stage, msg) -> Printf.sprintf "failed in %s (%s)" (Outcome.stage_name stage) msg

let outcome_name = function
  | Sym_refuted -> "sym-pruned"
  | Verdict Heuristic_errors -> "lint-pruned"
  | Verdict Absint_refuted -> "absint-pruned"
  | Verdict Dep_refuted -> "dep-pruned"
  | Verdict Clean | Estimated _ | Cached _ -> "evaluated"

let no_corrections =
  { Nn_correction.routing_luts = 0; duplicated_regs = 0; unavailable_luts = 0; duplicated_brams = 0 }

let corrections_of (a : Estimator.area) =
  {
    Nn_correction.routing_luts = a.Estimator.routing_luts;
    duplicated_regs = a.Estimator.duplicated_regs;
    unavailable_luts = a.Estimator.unavailable_luts;
    duplicated_brams = a.Estimator.duplicated_brams;
  }

(* [e] is what the estimator makes of [p]: the same raw pass and cycles,
   and either the network's corrections or none (the estimator's fallback
   for an insane correction). *)
let parts_match est p (e : Estimator.estimate) =
  let c = corrections_of e.Estimator.area in
  e.Estimator.raw = p.raw
  && e.Estimator.cycles = p.cycles
  && e.Estimator.seconds = p.cycles /. ((Estimator.board est).Target.fabric_mhz *. 1e6)
  && (c = p.corr || c = no_corrections)

(* Fit and utilization follow from the estimate's area. *)
let evaluation_consistent est point (ev : Outcome.evaluation) =
  let alm, dsp, bram = Estimator.utilization est ev.Outcome.estimate.Estimator.area in
  ev.Outcome.point = point
  && ev.Outcome.valid = Estimator.fits est ev.Outcome.estimate.Estimator.area
  && ev.Outcome.alm_pct = alm && ev.Outcome.dsp_pct = dsp && ev.Outcome.bram_pct = bram

(* Does the replayed [got] reproduce the entry [Explore.run] recorded? *)
let check est ~index ~point (expected : Outcome.entry) got =
  let ok = Ok () in
  let mismatch why =
    Error
      (Printf.sprintf "point %d: Explore.run recorded %s, replay %s" index (entry_name expected) why)
  in
  match (expected, got) with
  | Outcome.Sym_pruned, Sym_refuted
  | Outcome.Pruned, Verdict Heuristic_errors
  | Outcome.Absint_pruned, Verdict Absint_refuted
  | Outcome.Dep_pruned, Verdict Dep_refuted ->
    ok
  | Outcome.Evaluated ev, Estimated p ->
    if not (evaluation_consistent est point ev) then mismatch "found its fit or utilization inconsistent"
    else if parts_match est p ev.Outcome.estimate then ok
    else mismatch "computed a different estimate"
  | Outcome.Evaluated ev, Cached e ->
    if not (evaluation_consistent est point ev) then mismatch "found its fit or utilization inconsistent"
    else if e = ev.Outcome.estimate then ok
    else mismatch "found a different cached estimate"
  | _, got -> mismatch ("produced " ^ outcome_name got)

let estimate_parts est design =
  Obs.span "estimator" @@ fun () ->
  let raw =
    Obs.span "area_model" (fun () ->
        Area_model.raw_estimate (Estimator.characterization est) (Estimator.device est) design)
  in
  let corr = Obs.span "nn_correction" (fun () -> Nn_correction.correct (Estimator.corrections est) raw) in
  let cycles = Obs.span "cycle_model" (fun () -> Cycle_model.estimate ~board:(Estimator.board est) design) in
  { raw; corr; cycles }

let probe m tbl k =
  Obs.span "eval.probe" @@ fun () ->
  Mutex.lock m.m_lock;
  let r = Hashtbl.find_opt tbl k in
  Mutex.unlock m.m_lock;
  (match r with Some _ -> m.hits <- m.hits + 1 | None -> m.misses <- m.misses + 1);
  r

let fill m tbl k v =
  Obs.span "eval.probe" @@ fun () ->
  Mutex.lock m.m_lock;
  if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k v;
  Mutex.unlock m.m_lock

(* Absint, then dependence, then lint: the lint passes reuse the two
   reports through their one-slot caches, so each layer's span holds only
   its own work. Without [absint], only the heuristic lint passes run. *)
let analyze tl ~dev ~absint design =
  let diags =
    if absint then begin
      Obs.span "absint" (fun () ->
          if not (Absint.clean (Absint.report_cached design)) then tl.absint_refuted <- tl.absint_refuted + 1);
      Obs.span "dependence" (fun () ->
          if not (Dependence.clean (Dependence.report_cached design)) then
            tl.dep_refuted <- tl.dep_refuted + 1);
      Obs.span "lint" (fun () -> Lint.check ~dev design)
    end
    else Obs.span "lint" (fun () -> Lint.check ~dev ~only:Lint.heuristic_codes design)
  in
  classify diags

(* One point past the gate, as [Eval.evaluate] runs it. *)
let evaluate tl m est ~absint ~generate point =
  let design = generate point in
  let key = Obs.span "design_key" (fun () -> Design_key.to_string (Design_key.of_design design)) in
  let ak = analysis_key ~absint key in
  let verdict =
    match probe m m.analysis ak with
    | Some v -> v
    | None ->
      let v = analyze tl ~dev:(Estimator.device est) ~absint design in
      fill m m.analysis ak v;
      v
  in
  match verdict with
  | Clean -> (
    match probe m m.estimates key with
    | Some e -> (key, Cached e)
    | None -> (key, Estimated (estimate_parts est design)))
  | v -> (key, Verdict v)

type session = {
  app : App.t;
  seed : int;
  max_points : int;
  checkpoint_every : int;
  checkpoint_path : string;  (** Where the replay writes its own checkpoints. *)
  expected : Outcome.entry array;  (** [Explore.run]'s entries, by point index. *)
}

let traced_generate app p = Obs.span "generate" (fun () -> Inputs.generate app p)

(* Replay one sweep session under a ["explore.session"] span. The
   checkpoints it writes hold the run's entries once each has been checked,
   so they are byte-identical to the run's own. *)
let sweep tl m est (s : session) =
  Obs.span "explore.session" @@ fun () ->
  let space = Inputs.space s.app in
  let generate = traced_generate s.app in
  let points = Obs.span "explore.sample" (fun () -> Space.sample space ~seed:s.seed ~max_points:s.max_points) in
  let total = List.length points in
  let gate = Obs.span "symgate.derive" (fun () -> Symgate.derive ~space ~generate ()) in
  let entries = ref [] in
  let save () =
    Obs.span "checkpoint" (fun () ->
        Checkpoint.save ~path:s.checkpoint_path
          {
            Checkpoint.space_name = Space.name space;
            seed = s.seed;
            max_points = s.max_points;
            total;
            params = List.map fst (Space.dims space);
            entries = List.rev !entries;
            truncated_tail = false;
          });
    tl.ck_writes <- tl.ck_writes + 1;
    tl.ck_bytes <- tl.ck_bytes + (Unix.stat s.checkpoint_path).Unix.st_size
  in
  let first_error = ref None in
  if Array.length s.expected <> total then
    first_error :=
      Some (Printf.sprintf "Explore.run recorded %d entries for %d sampled points" (Array.length s.expected) total);
  List.iteri
    (fun i p ->
      if !first_error = None then
        Obs.span ~attrs:[ ("point", string_of_int i) ] "explore.point" @@ fun () ->
        let key, got =
          match Obs.span "symgate.verdict" (fun () -> Symgate.verdict gate p) with
          | Symbolic.Refuted _ ->
            tl.sym_refuted <- tl.sym_refuted + 1;
            ("", Sym_refuted)
          | Symbolic.Legal -> evaluate tl m est ~absint:false ~generate p
          | Symbolic.Unknown _ -> evaluate tl m est ~absint:true ~generate p
        in
        let expected = s.expected.(i) in
        (match check est ~index:i ~point:p expected got with
        | Error msg -> first_error := Some msg
        | Ok () -> (
          match (got, expected) with
          | Estimated _, Outcome.Evaluated ev ->
            tl.evaluated <- tl.evaluated + 1;
            fill m m.estimates key ev.Outcome.estimate
          | Cached _, _ -> tl.evaluated <- tl.evaluated + 1
          | _ -> ()));
        entries := (i, expected) :: !entries;
        if s.checkpoint_every > 0 && (i + 1) mod s.checkpoint_every = 0 then save ())
    points;
  match !first_error with
  | Some msg -> Error msg
  | None ->
    save ();
    Ok ()

(* Put a finished sweep's outcomes into [m], as its run put them into the
   [Eval] caches — the warm state a later session of the same sweep
   probes. No spans: this is set-up for the traced run. *)
let prime m ~app ~seed ~max_points (expected : Outcome.entry array) =
  let space = Inputs.space app in
  let points = Array.of_list (Space.sample space ~seed ~max_points) in
  let gate = Symgate.derive ~space ~generate:(Inputs.generate app) () in
  Array.iteri
    (fun i p ->
      let absint =
        match Symgate.verdict gate p with
        | Symbolic.Refuted _ -> None
        | Symbolic.Legal -> Some false
        | Symbolic.Unknown _ -> Some true
      in
      match (absint, verdict_of_entry expected.(i)) with
      | None, _ | _, None -> ()
      | Some absint, Some v ->
        let key = Design_key.to_string (Design_key.of_design (Inputs.generate app p)) in
        Hashtbl.replace m.analysis (analysis_key ~absint key) v;
        (match expected.(i) with
        | Outcome.Evaluated ev -> Hashtbl.replace m.estimates key ev.Outcome.estimate
        | _ -> ()))
    points
