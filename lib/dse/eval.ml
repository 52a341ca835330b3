module Estimator = Dhdl_model.Estimator
module Design_key = Dhdl_model.Design_key
module Lint = Dhdl_lint.Lint
module Diag = Dhdl_ir.Diag
module Faults = Dhdl_util.Faults
module Fifo_table = Dhdl_util.Fifo_table
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

(* Bounded content-addressed memo table: a [Fifo_table] (deterministic
   eviction in insertion order) under a mutex held for the table
   operation alone. Hit/miss/eviction counts are atomics so the
   accounting itself never extends the critical section or races across
   domains; [obs] names the Obs counter family ([obs ^ ".hit"] etc.)
   each table reports under. *)
module Cache = struct
  type 'a t = {
    m : Mutex.t;
    tbl : (string, 'a) Fifo_table.t;
    hits : int Atomic.t;
    misses : int Atomic.t;
    evictions : int Atomic.t;
    hit_counter : string;
    miss_counter : string;
    evict_counter : string;
  }

  let create ~obs cap =
    {
      m = Mutex.create ();
      tbl = Fifo_table.create cap;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      evictions = Atomic.make 0;
      hit_counter = obs ^ ".hit";
      miss_counter = obs ^ ".miss";
      evict_counter = obs ^ ".evict";
    }

  let enabled c = Fifo_table.cap c.tbl > 0

  let find c k =
    Mutex.lock c.m;
    let r = Fifo_table.find_opt c.tbl k in
    Mutex.unlock c.m;
    (match r with
    | Some _ ->
      Atomic.incr c.hits;
      if Obs.enabled () then Obs.count c.hit_counter
    | None ->
      Atomic.incr c.misses;
      if Obs.enabled () then Obs.count c.miss_counter);
    r

  (* Two domains can race the same miss; the second [add] is a no-op. *)
  let add c k v =
    Mutex.lock c.m;
    let evicted = Fifo_table.add c.tbl k v in
    Mutex.unlock c.m;
    if evicted > 0 then begin
      ignore (Atomic.fetch_and_add c.evictions evicted);
      if Obs.enabled () then Obs.count ~by:evicted c.evict_counter
    end
end

type t = {
  est : Estimator.t;
  analysis : verdict Cache.t;
  estimates : cached_eval Cache.t;
  gates : Symgate.t Cache.t;
  index : Design_key.t Cache.t;
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
    index = Cache.create ~obs:"dse.index" (max analysis_cap estimate_cap);
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

(* The analysis cache key: full design key plus whether the proof passes
   ran (a heuristic-only verdict must never answer a probe that wants the
   proofs). The device is deliberately absent — one [Eval.t] wraps one
   estimator and therefore one device, so it is constant per cache. *)
let analysis_cache_key ~absint key = key ^ if absint then "/la" else "/l-"

let run_analysis t ?stages ~absint design =
  timed stages add_analyze @@ fun () ->
  let dev = Estimator.device t.est in
  let diags =
    if absint then Lint.check ~dev design else Lint.check ~dev ~only:Lint.heuristic_codes design
  in
  let proof, heuristic =
    List.partition (fun g -> List.mem g.Diag.code Lint.proof_codes) (Lint.errors diags)
  in
  if heuristic <> [] then Heuristic_errors
  else if proof = [] then Clean
  else if List.for_all (fun g -> g.Diag.code = "L013") proof then Dep_refuted
  else Absint_refuted

(* [key] is the rendered design key and [design] the design, both lazy:
   a hit forces neither the design nor, on an index hit, a generator. *)
let analysis_verdict t ?stages ~bypass ~absint ~key design =
  if bypass || not (Cache.enabled t.analysis) then
    run_analysis t ?stages ~absint (Lazy.force design)
  else begin
    let ck = timed stages add_probe @@ fun () -> analysis_cache_key ~absint (Lazy.force key) in
    match timed stages add_probe (fun () -> Cache.find t.analysis ck) with
    | Some v -> v
    | None ->
      let v = run_analysis t ?stages ~absint (Lazy.force design) in
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
  if bypass || not (Cache.enabled t.estimates) then run_estimate t ?stages (Lazy.force design)
  else begin
    let ck = timed stages add_probe @@ fun () -> Lazy.force key in
    match timed stages add_probe (fun () -> Cache.find t.estimates ck) with
    | Some v -> v
    | None ->
      let v = run_estimate t ?stages (Lazy.force design) in
      timed stages add_probe (fun () -> Cache.add t.estimates ck v);
      v
  end

(* ---- the point index ------------------------------------------------ *)

(* A point bound to its design. On an index hit the design key is known
   and the design waits, unforced, until a cache misses; otherwise the
   design was generated at bind time and its key is derived, and filed
   in the index, when a cache first asks for it. *)
type bound = {
  b_point : Space.point;
  b_design : Dhdl_ir.Ir.design Lazy.t;
  b_key : Design_key.t Lazy.t;
}

(* The point index answers only for a space with a family, with the
   index on and no fault site armed: faults are keyed per call site and
   per point, and a skipped generation would skip its site. *)
let index_slot t ~bypass family point =
  match family with
  | Some f when (not bypass) && Cache.enabled t.index -> Some (Space.point_key f point)
  | _ -> None

(* [generate ()] runs now on an index miss, so its exception escapes
   [bind_with]; on a hit it runs when [b_design] is first forced. *)
let bind_with t ?stages ~bypass family point generate =
  let slot, filed =
    timed stages add_probe @@ fun () ->
    match index_slot t ~bypass family point with
    | None -> (None, None)
    | Some s as slot -> (slot, Cache.find t.index s)
  in
  match filed with
  | Some key -> { b_point = point; b_design = lazy (generate ()); b_key = Lazy.from_val key }
  | None ->
    let design = generate () in
    let key =
      lazy
        (let k = Design_key.of_design design in
         Option.iter (fun s -> Cache.add t.index s k) slot;
         k)
    in
    { b_point = point; b_design = Lazy.from_val design; b_key = key }

let rendered_key b = lazy (Design_key.to_string (Lazy.force b.b_key))

let bind ?family t ~generate point =
  bind_with t ~bypass:(Faults.active ()) family point (fun () -> generate point)

let bound_design b = Lazy.force b.b_design

let evaluation_of_cached point ce =
  {
    Outcome.point;
    estimate = ce.ce_estimate;
    valid = ce.ce_valid;
    alm_pct = ce.ce_alm;
    dsp_pct = ce.ce_dsp;
    bram_pct = ce.ce_bram;
  }

(* Raised by a design generated lazily, after an index hit, whose
   generator failed: the point's barrier classifies it as a generator
   error wherever a cache miss forced it. *)
exception Generate_failed of exn

(* The exception barrier around one point's generate -> analyze ->
   estimate pipeline: every failure mode becomes a classified entry
   instead of killing the sweep. [Faults.inject] sites (keyed by point
   index so a resumed sweep replays the same faults) let tests exercise
   each arm. When any fault site is armed the caches and the point index
   are bypassed outright: the [estimator.nn_correction] site fires
   *inside* [Estimator.estimate] under the ambient per-point key, so a
   memoized estimate would replay another point's fault decision and
   break the bit-identical-under-faults guarantee the fault tests pin;
   and a point the index answered would skip its [dse.generator] site. *)
let evaluate t ?stages ?family ~absint ~index ~generate point =
  let bypass = Faults.active () in
  let generate () =
    Faults.inject ~key:index "dse.generator";
    timed stages add_generate (fun () -> generate point)
  in
  let lazily () = try generate () with exn -> raise (Generate_failed exn) in
  match bind_with t ?stages ~bypass family point lazily with
  | exception Generate_failed exn -> Outcome.Failed (Outcome.Generator_error, describe exn)
  | b -> (
    (* Rendered once, lazily, and shared between the two cached stages:
       cache-off or bypassed runs never pay for a key at all. *)
    let key = rendered_key b in
    let design = b.b_design in
    match
      try
        Faults.inject ~key:index "dse.lint";
        Ok (analysis_verdict t ?stages ~bypass ~absint ~key design)
      with
      | Generate_failed exn -> Error (Outcome.Generator_error, describe exn)
      | exn -> Error (Outcome.Lint_error, describe exn)
    with
    | Error (stage, msg) -> Outcome.Failed (stage, msg)
    | Ok Heuristic_errors -> Outcome.Pruned
    | Ok Absint_refuted -> Outcome.Absint_pruned
    | Ok Dep_refuted -> Outcome.Dep_pruned
    | Ok Clean -> (
      try
        Faults.inject ~key:index "dse.estimator";
        let e = evaluation_of_cached point (cached_estimate t ?stages ~bypass ~key design) in
        let e =
          if Faults.fires ~key:index "dse.non_finite" then
            { e with Outcome.estimate = { e.Outcome.estimate with Estimator.cycles = Float.nan } }
          else e
        in
        if finite_evaluation e then Outcome.Evaluated e
        else
          Outcome.Failed
            (Outcome.Non_finite_estimate, "estimate not finite: " ^ non_finite_detail e)
      with
      | Generate_failed exn -> Outcome.Failed (Outcome.Generator_error, describe exn)
      | exn -> Outcome.Failed (Outcome.Estimator_error, describe exn)))

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
    (fun pb ->
      Buffer.add_char b '\n';
      List.iter (fun (n, v) -> Printf.bprintf b "%S=%d," n v) pb.b_point;
      Buffer.add_string b (Design_key.to_string (Lazy.force pb.b_key)))
    probes;
  Buffer.contents b

(* Each probe point is bound through the point index, so a space swept
   before keys its probes without generating them; a probe point the
   index lacks is generated now, and dropped if its generator raises, as
   [Symgate.probes] drops it. Only a memo miss forces the designs. *)
let gate t ~space ~generate =
  let params = List.map fst (Space.dims space) in
  let family = Space.family space in
  let bypass = Faults.active () in
  let bound =
    List.filter_map
      (fun p ->
        match bind_with t ~bypass family p (fun () -> generate p) with
        | b -> Some b
        | exception _ -> None)
      (Symgate.probe_sample space)
  in
  let derive () =
    Symgate.of_probes ~params
      (List.map
         (fun b ->
           { Symgate.point = b.b_point; design = Lazy.force b.b_design; key = Lazy.force b.b_key })
         bound)
  in
  if not (Cache.enabled t.gates) then derive ()
  else begin
    let k = gate_key ~params bound in
    match Cache.find t.gates k with
    | Some g -> g
    | None ->
      let g = derive () in
      Cache.add t.gates k g;
      g
  end

let cached_eval_of ?(cache = true) t design =
  let bypass = (not cache) || Faults.active () in
  cached_estimate t ~bypass
    ~key:(lazy (Design_key.to_string (Design_key.of_design design)))
    (Lazy.from_val design)

let estimate ?cache t design = (cached_eval_of ?cache t design).ce_estimate

let evaluation ?cache t point design = evaluation_of_cached point (cached_eval_of ?cache t design)

let bound_evaluation t b =
  evaluation_of_cached b.b_point
    (cached_estimate t ~bypass:(Faults.active ()) ~key:(rendered_key b) b.b_design)
