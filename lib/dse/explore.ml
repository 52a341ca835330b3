module Estimator = Dhdl_model.Estimator
module Pareto = Dhdl_util.Pareto
module Faults = Dhdl_util.Faults
module Obs = Dhdl_obs.Obs

type evaluation = Outcome.evaluation = {
  point : Space.point;
  estimate : Estimator.estimate;
  valid : bool;
  alm_pct : float;
  dsp_pct : float;
  bram_pct : float;
}

type failure_stage = Outcome.failure_stage =
  | Generator_error
  | Lint_error
  | Estimator_error
  | Non_finite_estimate

type failure = Outcome.failure = {
  f_index : int;
  f_point : Space.point;
  f_stage : failure_stage;
  f_message : string;
}

type result = {
  space_name : string;
  param_names : string list;
  evaluations : evaluation list;
  pareto : evaluation list;
  failures : failure list;
  raw_space : int;
  sampled : int;
  processed : int;
  lint_pruned : int;
  absint_pruned : int;
  dep_pruned : int;
  sym_pruned : int;
  resumed : int;
  truncated : bool;
  jobs : int;
  elapsed_seconds : float;
  cpu_seconds : float;
  cache_hits : int;
  cache_misses : int;
}

(* ------------------------------------------------------------------ *)
(* Sweep configuration.  One record replaces the labelled-optional
   argument soup the old [run] signature had accreted: every knob has a
   validated default, call sites spell out only what they change, and
   [make] is the only way to build one, so [run] never sees an invalid
   config. *)

module Config = struct
  type t = {
    seed : int;
    max_points : int;
    absint : bool;
    symbolic : bool;
    jobs : int;
    tick_every : int;
    checkpoint : string option;
    checkpoint_every : int;
    resume : bool;
    deadline_seconds : float option;
    stop_requested : (unit -> bool) option;
  }

  (* OCaml's runtime caps live domains well above this, but a sweep gains
     nothing past the core count; reject absurd values early with the same
     [Failure]-based message style the CLI's error handler renders. *)
  let max_jobs = 64

  let make ?(seed = 2016) ?(max_points = 75_000) ?(absint = true) ?(symbolic = true) ?(jobs = 1)
      ?(tick_every = 1000) ?checkpoint ?(checkpoint_every = 500) ?(resume = false)
      ?deadline_seconds ?stop_requested () =
    if resume && checkpoint = None then failwith "--resume requires --checkpoint FILE";
    if jobs < 1 then failwith (Printf.sprintf "jobs must be >= 1 (got %d)" jobs);
    if jobs > max_jobs then failwith (Printf.sprintf "jobs must be <= %d (got %d)" max_jobs jobs);
    if max_points < 0 then failwith (Printf.sprintf "max_points must be >= 0 (got %d)" max_points);
    if checkpoint_every < 0 then
      failwith (Printf.sprintf "checkpoint_every must be >= 0 (got %d)" checkpoint_every);
    (match deadline_seconds with
    | Some d when not (Float.is_finite d && d >= 0.0) ->
      failwith (Printf.sprintf "deadline must be a finite number of seconds >= 0 (got %g)" d)
    | _ -> ());
    { seed; max_points; absint; symbolic; jobs; tick_every; checkpoint; checkpoint_every; resume;
      deadline_seconds; stop_requested }
end

let pareto_of evals =
  let valid = List.filter (fun e -> e.valid) evals in
  Pareto.frontier (fun e -> (e.estimate.Estimator.cycles, e.alm_pct)) valid

let stage_counter stage = "dse.failed." ^ Outcome.stage_name stage
let stages = [ Generator_error; Lint_error; Estimator_error; Non_finite_estimate ]

let load_resume ~path ~space ~seed ~max_points ~total ~param_names =
  if not (Sys.file_exists path) then Hashtbl.create 1
  else
    match Checkpoint.load ~path with
    | Error msg -> failwith ("cannot resume: " ^ msg)
    | Ok c ->
      if
        c.Checkpoint.space_name <> Space.name space
        || c.Checkpoint.seed <> seed
        || c.Checkpoint.max_points <> max_points
        || c.Checkpoint.total <> total
        || c.Checkpoint.params <> param_names
      then
        failwith
          (Printf.sprintf
             "cannot resume: checkpoint %s was taken for sweep (space=%s seed=%d max_points=%d \
              total=%d params=%s), not (space=%s seed=%d max_points=%d total=%d params=%s)"
             path c.Checkpoint.space_name c.Checkpoint.seed c.Checkpoint.max_points
             c.Checkpoint.total
             (String.concat "," c.Checkpoint.params)
             (Space.name space) seed max_points total (String.concat "," param_names))
      else begin
        if c.Checkpoint.truncated_tail then
          Printf.eprintf
            "warning: checkpoint %s had a torn final line (dropped); resuming from %d complete \
             entr%s\n\
             %!"
            path
            (List.length c.Checkpoint.entries)
            (if List.length c.Checkpoint.entries = 1 then "y" else "ies");
        let tbl = Hashtbl.create (2 * List.length c.Checkpoint.entries) in
        List.iter (fun (i, e) -> Hashtbl.replace tbl i e) c.Checkpoint.entries;
        tbl
      end

(* Points per cursor claim and per recorded chunk. At jobs = 4, chunks
   of 1, 4, 16 and 64 points swept within 10% of each other and ranked
   differently from run to run, so the size is fixed. *)
let chunk = 16

let run (cfg : Config.t) (ev : Eval.t) ~space ~generate =
  let { Config.seed; max_points; absint; symbolic; jobs; tick_every; checkpoint; checkpoint_every;
        resume; deadline_seconds; stop_requested } =
    cfg
  in
  Obs.span "dse.run"
    ~attrs:[ ("space", Space.name space); ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let points = Obs.span "dse.sample" (fun () -> Space.sample space ~seed ~max_points) in
  let total = List.length points in
  let param_names = List.map fst (Space.dims space) in
  if Obs.enabled () then begin
    (* Register every counter up front so reports show the full set at
       zero even for clean or empty sweeps. *)
    Obs.count ~by:total "dse.points_sampled";
    List.iter
      (fun name -> Obs.count ~by:0 name)
      ([ "dse.lint_pruned"; "dse.absint_pruned"; "dse.dep_pruned"; "dse.sym_pruned";
         "dse.estimated"; "dse.unfit"; "dse.cache.hit"; "dse.cache.miss"; "dse.cache.evict";
         "dse.symgate.hit"; "dse.symgate.miss"; "dse.index.hit"; "dse.index.miss";
         "dse.index.evict" ]
      @ List.map stage_counter stages)
  end;
  let prior =
    match checkpoint with
    | Some path when resume ->
      Obs.span "dse.resume" (fun () ->
          load_resume ~path ~space ~seed ~max_points ~total ~param_names)
    | _ -> Hashtbl.create 1
  in
  (* The symbolic gate is fetched once, before any worker starts, from a
     fixed-seed probe sample — so every point (on every domain) consults
     the identical constraint system and the bit-identical-checkpoint
     guarantee survives. [Eval.gate] derives it on the first sweep of a
     family and answers later sweeps on the same [Eval.t] from its memo. It
     only runs when the proof passes it fronts for are on (otherwise
     pruning points the concrete pipeline would have kept changes
     results), and stands down while fault injection is armed, because its
     probe elaborations would consume fault sites the per-point replay
     expects. *)
  let gate =
    if symbolic && absint && not (Faults.active ()) then
      Some (Obs.span "dse.symgate" (fun () -> Eval.gate ev ~space ~generate))
    else None
  in
  let family = Space.family space in
  let stats0 = Eval.stats ev in
  let past_deadline () =
    match deadline_seconds with
    | None -> false
    | Some d -> Unix.gettimeofday () -. t0 >= d
  in
  (* Cancellation rides the deadline-truncation machinery: a [true] from
     the hook stops the sweep exactly like an expired deadline — the result
     is flagged [truncated] and the final checkpoint still lands, so a
     cancelled sweep is resumable. A hook that raises counts as a stop
     request rather than killing the sweep. *)
  let should_stop () =
    past_deadline ()
    || (match stop_requested with None -> false | Some f -> ( try f () with _ -> true))
  in
  (* One point's work: reuse the resume entry or run [Eval]'s barriered
     pipeline. Pure in the point index (sampling is seeded, fault sites
     are keyed by [with_key i], and [Eval]'s caches memoize pure functions
     of the design key — and stand down entirely while fault injection is
     armed), which is what lets every jobs level promise the same results
     at any cache temperature. *)
  let evaluate i p =
    Faults.with_key i @@ fun () ->
    (* Pre-elaboration gate: a refuted point never generates, and every
       other point pays the full pipeline. *)
    match gate with
    | Some g when Symgate.refutes g p -> Outcome.Sym_pruned
    | _ -> Eval.evaluate ev ?family ~absint ~index:i ~generate p
  in
  (* With the sink on, each computed point is a [dse.point] span and an
     estimated one a [dse.ms_per_design] sample; with it off, the point
     reads no clock. *)
  let compute i p =
    match Hashtbl.find_opt prior i with
    | Some e -> e
    | None when not (Obs.enabled ()) -> evaluate i p
    | None ->
      let start = Unix.gettimeofday () in
      let e = Obs.span "dse.point" (fun () -> evaluate i p) in
      (match e with
      | Outcome.Evaluated _ ->
        Obs.observe "dse.ms_per_design" ((Unix.gettimeofday () -. start) *. 1000.0)
      | _ -> ());
      e
  in
  (* Recording state. Only the holder of the record lock (below) touches
     any of this, so the checkpoint file has one writer at a time and the
     replace-then-append flush protocol (and the resume guarantees) hold
     at every jobs level. *)
  let entries = ref [] (* (index, entry), newest first *) in
  let lint_pruned = ref 0 in
  let absint_pruned = ref 0 in
  let dep_pruned = ref 0 in
  let sym_pruned = ref 0 in
  let resumed = ref 0 in
  let failures = ref [] in
  let processed = ref 0 in
  (* The checkpoint is rendered as entries are recorded, each once;
     periodic writes flush the rendered bytes. *)
  let writer =
    Option.map
      (fun path ->
        ( path,
          Checkpoint.writer
            {
              Checkpoint.space_name = Space.name space;
              seed;
              max_points;
              total;
              params = param_names;
              entries = [];
              truncated_tail = false;
            } ))
      checkpoint
  in
  let write_checkpoint () =
    match writer with
    | None -> ()
    | Some (path, w) -> Obs.span "dse.checkpoint" (fun () -> Checkpoint.flush ~path w)
  in
  (* Merge one point's outcome, in sampling-index order. This is the one
     place an outcome is counted: a reused point only under
     [dse.resumed], a computed one under its own counter. *)
  let record i p entry =
    Obs.tick ~every:tick_every ~label:("dse " ^ Space.name space) ~total i;
    let was_resumed = Hashtbl.mem prior i in
    if was_resumed then incr resumed;
    if Obs.enabled () then begin
      if was_resumed then Obs.count "dse.resumed"
      else
        match entry with
        | Outcome.Evaluated _ -> Obs.count "dse.estimated"
        | Outcome.Pruned -> Obs.count "dse.lint_pruned"
        | Outcome.Absint_pruned -> Obs.count "dse.absint_pruned"
        | Outcome.Dep_pruned -> Obs.count "dse.dep_pruned"
        | Outcome.Sym_pruned -> Obs.count "dse.sym_pruned"
        | Outcome.Failed (stage, _) -> Obs.count (stage_counter stage)
    end;
    (match entry with
    | Outcome.Pruned -> incr lint_pruned
    | Outcome.Absint_pruned -> incr absint_pruned
    | Outcome.Dep_pruned -> incr dep_pruned
    | Outcome.Sym_pruned -> incr sym_pruned
    | Outcome.Failed (f_stage, f_message) ->
      failures := { f_index = i; f_point = p; f_stage; f_message } :: !failures
    | Outcome.Evaluated _ -> ());
    entries := (i, entry) :: !entries;
    Option.iter (fun (_, w) -> Checkpoint.append w i entry) writer;
    incr processed;
    if checkpoint_every > 0 && !processed mod checkpoint_every = 0 then write_checkpoint ()
  in
  (* The sweep loop. Each worker claims contiguous index ranges of [chunk]
     points from a shared atomic cursor, runs the pipeline into a buffer
     only it owns, and hands each range to [send]. [send] takes the
     sweep's one record lock, files the range in its slot by chunk number
     and records every filed chunk that is now next in sampling order, so
     entries, counters and every periodic checkpoint come out in the same
     order, byte for byte, at every jobs level. Worker 0 runs on the
     calling domain and [jobs - 1] domains are spawned: at [jobs = 1]
     nothing is spawned and the lock is never contended. With the sink
     on, each worker's loop is a [dse.worker] span, a failed [try_lock]
     a [dse.lock_wait] span and each recording a [dse.record] span:
     {!Profile} builds the sweep's lanes from them. *)
  let points_arr = Array.of_list points in
  let record_range lo arr = Array.iteri (fun j e -> record (lo + j) points_arr.(lo + j) e) arr in
  let cursor = Atomic.make 0 in
  let stop = Atomic.make false in
  (* Under [lock]: chunks filed ahead of [next] (the first chunk not yet
     recorded) wait in [filed], and [failure] keeps the first exception a
     worker raised. *)
  let lock = Mutex.create () in
  let filed = Array.make ((total + chunk - 1) / chunk) None in
  let next = ref 0 in
  let parked = ref 0 in
  let max_parked = ref 0 in
  let failure = ref None in
  let fail_locked e bt =
    if Option.is_none !failure then failure := Some (e, bt);
    Atomic.set stop true
  in
  let rec record_filed () =
    match if !next < Array.length filed then filed.(!next) else None with
    | None -> ()
    | Some arr ->
      filed.(!next) <- None;
      decr parked;
      record_range (!next * chunk) arr;
      incr next;
      record_filed ()
  in
  (* The lock wait is a span only when [try_lock] fails. A failed
     record (a checkpoint flush) stops the sweep, and nothing is recorded
     after it. *)
  let send lo arr =
    if not (Mutex.try_lock lock) then Obs.span "dse.lock_wait" (fun () -> Mutex.lock lock);
    (if Option.is_none !failure then
       try
         Obs.span "dse.record" (fun () ->
             filed.(lo / chunk) <- Some arr;
             incr parked;
             record_filed ();
             max_parked := max !max_parked !parked)
       with e -> fail_locked e (Printexc.get_raw_backtrace ()));
    Mutex.unlock lock
  in
  let worker k =
    Obs.span "dse.worker" ~attrs:[ ("worker", string_of_int k) ] @@ fun () ->
    let rec loop () =
      if not (Atomic.get stop) then begin
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo < total then begin
          let hi = min total (lo + chunk) in
          let buf = Array.make (hi - lo) Outcome.Pruned in
          let n = ref 0 in
          while lo + !n < hi && not (Atomic.get stop) do
            let i = lo + !n in
            buf.(!n) <- compute i points_arr.(i);
            incr n;
            (* The deadline (or a cancel request) is checked after each
               consumed point, and tripping it stops every worker from
               pulling further points. *)
            if should_stop () then Atomic.set stop true
          done;
          (* A range cut short by a stop request goes out shorter; one
             the stop emptied goes out not at all (the post-join sweep
             records past the gap). *)
          if !n > 0 then send lo (if !n = Array.length buf then buf else Array.sub buf 0 !n);
          loop ()
        end
      end
    in
    loop ()
  in
  let guard f =
    try f ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.protect lock (fun () -> fail_locked e bt)
  in
  (* Spawned workers' telemetry lands in per-domain buffers, one trace
     lane each; worker 0's stays on the calling domain's. A spawn that
     fails stops the sweep like any other worker exception. *)
  let domains = ref [] in
  guard (fun () ->
      for k = 1 to jobs - 1 do
        let d =
          Domain.spawn (fun () ->
              guard (fun () -> Obs.with_domain_buffer ~track:k (fun () -> worker k)))
        in
        domains := d :: !domains
      done);
  guard (fun () -> worker 0);
  List.iter Domain.join !domains;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure;
  (* A tripped deadline can leave chunks filed beyond a gap (a chunk the
     stop emptied, whose successors finished). Record them too, still in
     index order: the checkpoint format addresses entries by index, so a
     resumed sweep reuses every one of them. *)
  if !next < Array.length filed then
    Obs.span "dse.record" (fun () ->
        for c = !next to Array.length filed - 1 do
          Option.iter (record_range (c * chunk)) filed.(c)
        done);
  if checkpoint <> None then write_checkpoint ();
  let evaluations =
    List.rev_map (function _, Outcome.Evaluated e -> Some e | _ -> None) !entries
    |> List.filter_map Fun.id
  in
  let pareto = Obs.span "dse.pareto" (fun () -> pareto_of evaluations) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let cpu_seconds = Sys.time () -. cpu0 in
  let stats1 = Eval.stats ev in
  if Obs.enabled () then begin
    Obs.gauge "dse.reorder.max_occupancy" (float_of_int !max_parked);
    Obs.count ~by:(List.length (List.filter (fun e -> not e.valid) evaluations)) "dse.unfit";
    Obs.gauge "dse.points_per_sec"
      (if elapsed > 0.0 then float_of_int !processed /. elapsed else 0.0)
  end;
  {
    space_name = Space.name space;
    param_names;
    evaluations;
    pareto;
    failures = List.rev !failures;
    raw_space = Space.raw_size space;
    sampled = total;
    processed = !processed;
    lint_pruned = !lint_pruned;
    absint_pruned = !absint_pruned;
    dep_pruned = !dep_pruned;
    sym_pruned = !sym_pruned;
    resumed = !resumed;
    truncated = Atomic.get stop;
    jobs;
    elapsed_seconds = elapsed;
    cpu_seconds;
    cache_hits = stats1.Eval.hits - stats0.Eval.hits;
    cache_misses = stats1.Eval.misses - stats0.Eval.misses;
  }

let unfit_count r = List.length (List.filter (fun e -> not e.valid) r.evaluations)
let failed_count r = List.length r.failures

let failure_counts r =
  List.map
    (fun stage -> (stage, List.length (List.filter (fun f -> f.f_stage = stage) r.failures)))
    stages

let best r =
  match r.pareto with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun acc e -> if e.estimate.Estimator.cycles < acc.estimate.Estimator.cycles then e else acc)
         first rest)

(* Lint-pruned and failed points never produce an estimate, so the paper's
   ms/design metric (Table IV) divides by the evaluations that actually
   came back from the estimator. The wall-clock and CPU variants differ
   once [jobs] > 1: the CPU one counts every domain's time, coordination
   included. *)
let seconds_per_design r =
  let estimated = List.length r.evaluations in
  if estimated <= 0 then 0.0 else r.elapsed_seconds /. float_of_int estimated

let cpu_seconds_per_design r =
  let estimated = List.length r.evaluations in
  if estimated <= 0 then 0.0 else r.cpu_seconds /. float_of_int estimated

let to_csv r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," r.param_names);
  Buffer.add_string buf ",cycles,alm_pct,dsp_pct,bram_pct,valid,pareto\n";
  let pareto_set = Hashtbl.create (2 * List.length r.pareto) in
  List.iter (fun e -> Hashtbl.replace pareto_set e.point ()) r.pareto;
  List.iter
    (fun e ->
      List.iter (fun (_, v) -> Buffer.add_string buf (string_of_int v ^ ",")) e.point;
      Buffer.add_string buf
        (Printf.sprintf "%.0f,%.3f,%.3f,%.3f,%d,%d\n" e.estimate.Estimator.cycles e.alm_pct
           e.dsp_pct e.bram_pct
           (if e.valid then 1 else 0)
           (if Hashtbl.mem pareto_set e.point then 1 else 0)))
    r.evaluations;
  Buffer.contents buf
