module Estimator = Dhdl_model.Estimator
module Design_key = Dhdl_model.Design_key
module Lint = Dhdl_lint.Lint
module Diag = Dhdl_ir.Diag
module Faults = Dhdl_util.Faults
module Obs = Dhdl_obs.Obs

type stages = {
  mutable s_generate : float;
  mutable s_probe : float;
  mutable s_analyze : float;
  mutable s_estimate : float;
}

let fresh_stages () = { s_generate = 0.0; s_probe = 0.0; s_analyze = 0.0; s_estimate = 0.0 }

(* Time one stage into [acc] via [add] when profiling; exactly [f ()]
   otherwise, so the unprofiled pipeline pays one option match per stage
   and no clock reads. *)
let timed stages add f =
  match stages with
  | None -> f ()
  | Some acc ->
    let t0 = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> add acc (Unix.gettimeofday () -. t0)) f

let add_generate a d = a.s_generate <- a.s_generate +. d
let add_probe a d = a.s_probe <- a.s_probe +. d
let add_analyze a d = a.s_analyze <- a.s_analyze +. d
let add_estimate a d = a.s_estimate <- a.s_estimate +. d

(* Analysis verdict for one design, as cached: which prune class (if any)
   the enabled lint/absint passes put it in. Error-level diagnostics split
   three ways: heuristic lint errors prune the point (counted as lint);
   points whose errors include an abstract-interpretation proof
   (L009/L010, each carrying a concrete witness) are [Absint_refuted] —
   they describe hardware that provably corrupts data, so estimating them
   would pollute the frontier; and points whose only errors are
   dependence refutations of the chosen parallelization (L013) are
   [Dep_refuted] — the design is sound at par=1 but the sampled par is
   proven illegal. *)
type verdict = Clean | Heuristic_errors | Absint_refuted | Dep_refuted

(* Everything the estimate stage derives from one design, as cached. The
   fit bit and utilization percentages ride along so a cache hit skips
   the whole stage, not just the model evaluation. *)
type cached_eval = {
  ce_estimate : Estimator.estimate;
  ce_valid : bool;
  ce_alm : float;
  ce_dsp : float;
  ce_bram : float;
}

(* Bounded content-addressed memo table. FIFO eviction in insertion order:
   deterministic, and cheap enough to run under the same mutex as the
   probe. Hit/miss/eviction counts are atomics so the accounting itself
   never extends the critical section or races across domains; [obs]
   names the Obs counter family ([obs ^ ".hit"] etc.) each table reports
   under. *)
module Cache = struct
  type 'a t = {
    cap : int;
    m : Mutex.t;
    tbl : (string, 'a) Hashtbl.t;
    fifo : string Queue.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
    hit_counter : string;
    miss_counter : string;
    evict_counter : string;
  }

  let create ~obs cap =
    {
      cap;
      m = Mutex.create ();
      tbl = Hashtbl.create (max 16 (min 4096 cap));
      fifo = Queue.create ();
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      hit_counter = obs ^ ".hit";
      miss_counter = obs ^ ".miss";
      evict_counter = obs ^ ".evict";
    }

  let enabled c = c.cap > 0

  let find c k =
    Mutex.lock c.m;
    let r = Hashtbl.find_opt c.tbl k in
    Mutex.unlock c.m;
    (match r with
    | Some _ ->
      Atomic.incr c.hits;
      if Obs.enabled () then Obs.count c.hit_counter
    | None ->
      Atomic.incr c.misses;
      if Obs.enabled () then Obs.count c.miss_counter);
    r

  (* Two domains can race the same miss; the second [add] is a no-op so
     the FIFO never holds a key twice. *)
  let add c k v =
    let evicted = ref 0 in
    Mutex.lock c.m;
    if not (Hashtbl.mem c.tbl k) then begin
      Hashtbl.replace c.tbl k v;
      Queue.push k c.fifo;
      while Hashtbl.length c.tbl > c.cap do
        Hashtbl.remove c.tbl (Queue.pop c.fifo);
        incr evicted
      done
    end;
    Mutex.unlock c.m;
    if !evicted > 0 then begin
      ignore (Atomic.fetch_and_add c.evictions !evicted);
      if Obs.enabled () then Obs.count ~by:!evicted c.evict_counter
    end
end

type t = {
  est : Estimator.t;
  analysis : verdict Cache.t;
  estimates : cached_eval Cache.t;
  gates : Symgate.t Cache.t;
}

type stats = { hits : int; misses : int; evictions : int }

(* Big enough that a paper-scale sweep (75k points) never evicts; small
   enough (verdicts are words, estimates a few hundred bytes) that a
   long-running server stays bounded. *)
let default_cap = 131_072

(* One gate per (space, sizes) a process sweeps: a handful per app. Each
   entry holds a few KB of key and the derived systems. *)
let gate_cap = 64

let create ?(analysis_cap = default_cap) ?(estimate_cap = default_cap) est =
  if analysis_cap < 0 then
    failwith (Printf.sprintf "analysis_cap must be >= 0 (got %d)" analysis_cap);
  if estimate_cap < 0 then
    failwith (Printf.sprintf "estimate_cap must be >= 0 (got %d)" estimate_cap);
  {
    est;
    analysis = Cache.create ~obs:"dse.cache" analysis_cap;
    estimates = Cache.create ~obs:"dse.cache" estimate_cap;
    gates = Cache.create ~obs:"dse.symgate" (if analysis_cap = 0 then 0 else gate_cap);
  }

let estimator t = t.est

let stats t =
  let get c =
    Cache.(Atomic.get c.hits, Atomic.get c.misses, Atomic.get c.evictions)
  in
  let ah, am, ae = get t.analysis in
  let eh, em, ee = get t.estimates in
  { hits = ah + eh; misses = am + em; evictions = ae + ee }

(* Render the exception behind a barrier without letting one bad message
   take the sweep down too. *)
let describe exn = try Printexc.to_string exn with _ -> "<unprintable exception>"

let finite_evaluation (e : Outcome.evaluation) =
  let ok f = Float.is_finite f && f >= 0.0 in
  ok e.Outcome.estimate.Estimator.cycles
  && ok e.Outcome.estimate.Estimator.seconds
  && ok e.Outcome.alm_pct && ok e.Outcome.dsp_pct && ok e.Outcome.bram_pct

let non_finite_detail (e : Outcome.evaluation) =
  Printf.sprintf "cycles=%h seconds=%h alm_pct=%h dsp_pct=%h bram_pct=%h"
    e.Outcome.estimate.Estimator.cycles e.Outcome.estimate.Estimator.seconds e.Outcome.alm_pct
    e.Outcome.dsp_pct e.Outcome.bram_pct

(* The analysis cache key: full design key plus the enabled analysis set
   (a lint-only verdict must never answer a lint+absint probe). The
   device is deliberately absent — one [Eval.t] wraps one estimator and
   therefore one device, so it is constant per cache. *)
let analysis_cache_key ~lint ~absint key =
  Design_key.to_string key ^ (if lint then "/l" else "/-") ^ if absint then "a" else "-"

let run_analysis t ?stages ~lint ~absint design =
  timed stages add_analyze @@ fun () ->
  let dev = Estimator.device t.est in
  let diags =
    if lint && absint then Lint.check ~dev design
    else if lint then Lint.check ~dev ~only:Lint.heuristic_codes design
    else if absint then Lint.check ~dev ~validate:false ~only:Lint.proof_codes design
    else []
  in
  let proof, heuristic =
    List.partition (fun g -> List.mem g.Diag.code Lint.proof_codes) (Lint.errors diags)
  in
  if heuristic <> [] then Heuristic_errors
  else if proof = [] then Clean
  else if List.for_all (fun g -> g.Diag.code = "L013") proof then Dep_refuted
  else Absint_refuted

let analysis_verdict t ?stages ~bypass ~lint ~absint ~key design =
  if (not lint) && not absint then Clean
  else if bypass || not (Cache.enabled t.analysis) then run_analysis t ?stages ~lint ~absint design
  else begin
    let ck =
      timed stages add_probe @@ fun () -> analysis_cache_key ~lint ~absint (Lazy.force key)
    in
    match timed stages add_probe (fun () -> Cache.find t.analysis ck) with
    | Some v -> v
    | None ->
      let v = run_analysis t ?stages ~lint ~absint design in
      timed stages add_probe (fun () -> Cache.add t.analysis ck v);
      v
  end

let run_estimate t ?stages design =
  timed stages add_estimate @@ fun () ->
  let e = Estimator.estimate t.est design in
  let alm, dsp, bram = Estimator.utilization t.est e.Estimator.area in
  {
    ce_estimate = e;
    ce_valid = Estimator.fits t.est e.Estimator.area;
    ce_alm = alm;
    ce_dsp = dsp;
    ce_bram = bram;
  }

let cached_estimate t ?stages ~bypass ~key design =
  if bypass || not (Cache.enabled t.estimates) then run_estimate t ?stages design
  else begin
    let ck = timed stages add_probe @@ fun () -> Design_key.to_string (Lazy.force key) in
    match timed stages add_probe (fun () -> Cache.find t.estimates ck) with
    | Some v -> v
    | None ->
      let v = run_estimate t ?stages design in
      timed stages add_probe (fun () -> Cache.add t.estimates ck v);
      v
  end

(* The exception barrier around one point's generate -> analyze ->
   estimate pipeline: every failure mode becomes a classified entry
   instead of killing the sweep. [Faults.inject] sites (keyed by point
   index so a resumed sweep replays the same faults) let tests exercise
   each arm. When any fault site is armed the caches are bypassed
   outright: the [estimator.nn_correction] site fires *inside*
   [Estimator.estimate] under the ambient per-point key, so a memoized
   estimate would replay another point's fault decision and break the
   bit-identical-under-faults guarantee the fault tests pin. *)
let evaluate t ?stages ~lint ~absint ~index ~generate point =
  match
    try
      Faults.inject ~key:index "dse.generator";
      Ok (timed stages add_generate (fun () -> generate point))
    with exn -> Error (Outcome.Generator_error, describe exn)
  with
  | Error (stage, msg) -> Outcome.Failed (stage, msg)
  | Ok design -> (
    let bypass = Faults.active () in
    (* Shared lazily between the two cached stages: the estimate probe
       reuses the key the analysis probe derived, and cache-off or
       bypassed runs never pay for a key at all. *)
    let key = lazy (Design_key.of_design design) in
    match
      try
        Faults.inject ~key:index "dse.lint";
        Ok (analysis_verdict t ?stages ~bypass ~lint ~absint ~key design)
      with exn -> Error (Outcome.Lint_error, describe exn)
    with
    | Error (stage, msg) -> Outcome.Failed (stage, msg)
    | Ok Heuristic_errors -> Outcome.Pruned
    | Ok Absint_refuted -> Outcome.Absint_pruned
    | Ok Dep_refuted -> Outcome.Dep_pruned
    | Ok Clean -> (
      try
        Faults.inject ~key:index "dse.estimator";
        let ce = cached_estimate t ?stages ~bypass ~key design in
        let e =
          {
            Outcome.point;
            estimate = ce.ce_estimate;
            valid = ce.ce_valid;
            alm_pct = ce.ce_alm;
            dsp_pct = ce.ce_dsp;
            bram_pct = ce.ce_bram;
          }
        in
        let e =
          if Faults.fires ~key:index "dse.non_finite" then
            { e with Outcome.estimate = { e.Outcome.estimate with Estimator.cycles = Float.nan } }
          else e
        in
        if finite_evaluation e then Outcome.Evaluated e
        else
          Outcome.Failed
            (Outcome.Non_finite_estimate, "estimate not finite: " ^ non_finite_detail e)
      with exn -> Outcome.Failed (Outcome.Estimator_error, describe exn)))

(* The gate memo key is exactly what [Symgate.of_probes] reads: the
   parameter names and every generated probe's point and design, the
   design by its [Design_key]. It is built from content because callers
   (the server, each CLI sweep) pass a fresh [generate] closure per
   session, so a key naming the closure would never hit; and two spaces
   that share a name but not their sizes generate different probes. *)
let gate_key ~params probes =
  let b = Buffer.create 8192 in
  List.iter (fun p -> Printf.bprintf b "%S," p) params;
  List.iter
    (fun (p : Symgate.probe) ->
      Buffer.add_char b '\n';
      List.iter (fun (n, v) -> Printf.bprintf b "%S=%d," n v) p.Symgate.point;
      Buffer.add_string b (Design_key.to_string p.Symgate.key))
    probes;
  Buffer.contents b

let gate t ~space ~generate =
  let params = List.map fst (Space.dims space) in
  let probes = Symgate.probes ~space ~generate () in
  if not (Cache.enabled t.gates) then Symgate.of_probes ~params probes
  else begin
    let k = gate_key ~params probes in
    match Cache.find t.gates k with
    | Some g -> g
    | None ->
      let g = Symgate.of_probes ~params probes in
      Cache.add t.gates k g;
      g
  end

let cached_eval_of ?(cache = true) t design =
  let bypass = (not cache) || Faults.active () in
  cached_estimate t ~bypass ~key:(lazy (Design_key.of_design design)) design

let estimate ?cache t design = (cached_eval_of ?cache t design).ce_estimate

let evaluation ?cache t point design =
  let ce = cached_eval_of ?cache t design in
  {
    Outcome.point;
    estimate = ce.ce_estimate;
    valid = ce.ce_valid;
    alm_pct = ce.ce_alm;
    dsp_pct = ce.ce_dsp;
    bram_pct = ce.ce_bram;
  }
