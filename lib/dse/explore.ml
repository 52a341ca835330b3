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
  attribution : Profile.t option;
}

(* ------------------------------------------------------------------ *)
(* Sweep configuration.  One record replaces the labelled-optional
   argument soup the old [run] signature had accreted: every knob has a
   validated default, call sites spell out only what they change, and new
   knobs (like [jobs]) stop rippling through every caller's signature. *)

module Config = struct
  type t = {
    seed : int;
    max_points : int;
    lint : bool;
    absint : bool;
    symbolic : bool;
    jobs : int;
    chunk : int;
    tick_every : int;
    checkpoint : string option;
    checkpoint_every : int;
    resume : bool;
    deadline_seconds : float option;
    profile : bool;
    stop_requested : (unit -> bool) option;
  }

  (* OCaml's runtime caps live domains well above this, but a sweep gains
     nothing past the core count; reject absurd values early with the same
     [Failure]-based message style the CLI's error handler renders. *)
  let max_jobs = 64

  (* A chunk is one claim and one collector message; past a few thousand
     points per message the reorder buffer holds most of the sweep. *)
  let max_chunk = 65_536

  let validate t =
    if t.jobs < 1 then failwith (Printf.sprintf "jobs must be >= 1 (got %d)" t.jobs);
    if t.jobs > max_jobs then
      failwith (Printf.sprintf "jobs must be <= %d (got %d)" max_jobs t.jobs);
    if t.chunk < 1 then failwith (Printf.sprintf "chunk must be >= 1 (got %d)" t.chunk);
    if t.chunk > max_chunk then
      failwith (Printf.sprintf "chunk must be <= %d (got %d)" max_chunk t.chunk);
    if t.max_points < 0 then
      failwith (Printf.sprintf "max_points must be >= 0 (got %d)" t.max_points);
    if t.checkpoint_every < 0 then
      failwith (Printf.sprintf "checkpoint_every must be >= 0 (got %d)" t.checkpoint_every);
    (match t.deadline_seconds with
    | Some d when not (Float.is_finite d && d >= 0.0) ->
      failwith (Printf.sprintf "deadline must be a finite number of seconds >= 0 (got %g)" d)
    | _ -> ());
    t

  (* Cross-field check, applied when the config is consumed (not in every
     [with_*] builder, so builder order never matters). *)
  let validate_run t =
    if t.resume && t.checkpoint = None then failwith "--resume requires --checkpoint FILE";
    validate t

  let default =
    {
      seed = 2016;
      max_points = 75_000;
      lint = true;
      absint = true;
      symbolic = true;
      jobs = 1;
      chunk = 16;
      tick_every = 1000;
      checkpoint = None;
      checkpoint_every = 500;
      resume = false;
      deadline_seconds = None;
      profile = false;
      stop_requested = None;
    }

  let make ?(seed = default.seed) ?(max_points = default.max_points) ?(lint = default.lint)
      ?(absint = default.absint) ?(symbolic = default.symbolic) ?(jobs = default.jobs)
      ?(chunk = default.chunk) ?(tick_every = default.tick_every) ?checkpoint
      ?(checkpoint_every = default.checkpoint_every) ?(resume = default.resume)
      ?deadline_seconds ?(profile = default.profile) ?stop_requested () =
    validate_run
      { seed; max_points; lint; absint; symbolic; jobs; chunk; tick_every; checkpoint;
        checkpoint_every; resume; deadline_seconds; profile; stop_requested }

  let with_seed seed t = validate { t with seed }
  let with_max_points max_points t = validate { t with max_points }
  let with_lint lint t = validate { t with lint }
  let with_absint absint t = validate { t with absint }
  let with_symbolic symbolic t = validate { t with symbolic }
  let with_jobs jobs t = validate { t with jobs }
  let with_chunk chunk t = validate { t with chunk }

  let with_checkpoint ?(every = default.checkpoint_every) path t =
    validate { t with checkpoint = Some path; checkpoint_every = every }

  let with_resume resume t = validate { t with resume }
  let with_deadline deadline t = validate { t with deadline_seconds = Some deadline }
  let with_profile profile t = validate { t with profile }
end

let pareto_of evals =
  let valid = List.filter (fun e -> e.valid) evals in
  Pareto.frontier (fun e -> (e.estimate.Estimator.cycles, e.alm_pct)) valid

let stage_counter stage = "dse.failed." ^ Outcome.stage_name stage

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
              total=%d), not (space=%s seed=%d max_points=%d total=%d)"
             path c.Checkpoint.space_name c.Checkpoint.seed c.Checkpoint.max_points
             c.Checkpoint.total (Space.name space) seed max_points total)
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

(* One worker-to-collector message: a contiguous run of outcomes starting
   at sampling index [lo] (each with its resume flag and pipeline CPU
   seconds), or a worker signing off. One message per *chunk* — not per
   point — is what keeps the channel off the contention profile. *)
type msg = Chunk of int * (Outcome.entry * bool * float) array | Worker_done

(* Minimal mutex/condition channel between worker domains and the
   collector. Unbounded: the collector's per-message work (merging a
   chunk and an occasional checkpoint) is far cheaper than the chunk's
   pipeline, so the queue stays shallow. [max_depth] tracks the
   high-water mark under the lock (one compare per push); when profiling,
   [?wait] accumulates the seconds a caller spent blocked — lock
   acquisition on the send side, lock + condition wait on the receive
   side — into a caller-owned ref, so the measurement itself shares no
   state between domains. *)
module Chan = struct
  type 'a t = {
    m : Mutex.t;
    nonempty : Condition.t;
    q : 'a Queue.t;
    mutable max_depth : int;
  }

  let create () =
    { m = Mutex.create (); nonempty = Condition.create (); q = Queue.create (); max_depth = 0 }

  let push ?wait t x =
    (match wait with
    | None -> Mutex.lock t.m
    | Some acc ->
      let t0 = Unix.gettimeofday () in
      Mutex.lock t.m;
      acc := !acc +. (Unix.gettimeofday () -. t0));
    Queue.push x t.q;
    let d = Queue.length t.q in
    if d > t.max_depth then t.max_depth <- d;
    Condition.signal t.nonempty;
    Mutex.unlock t.m

  let pop ?wait t =
    let t0 = match wait with None -> 0.0 | Some _ -> Unix.gettimeofday () in
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.nonempty t.m
    done;
    (match wait with
    | None -> ()
    | Some acc -> acc := !acc +. (Unix.gettimeofday () -. t0));
    let x = Queue.pop t.q in
    Mutex.unlock t.m;
    x
end

(* With the Obs sink on, every 100th point gets a [dse.point] span. *)
let point_span_every = 100

let run (cfg : Config.t) (ev : Eval.t) ~space ~generate =
  let cfg = Config.validate_run cfg in
  let { Config.seed; max_points; lint; absint; symbolic; jobs; chunk; tick_every; checkpoint;
        checkpoint_every; resume; deadline_seconds; profile; stop_requested } =
    cfg
  in
  Obs.span "dse.run"
    ~attrs:[ ("space", Space.name space); ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let points = Obs.span "dse.sample" (fun () -> Space.sample space ~seed ~max_points) in
  let total = List.length points in
  let param_names = List.map fst (Space.dims space) in
  if Obs.enabled () then begin
    (* Register every counter up front so reports show the full set at
       zero even for clean or empty sweeps. *)
    Obs.count ~by:total "dse.points_sampled";
    Obs.count ~by:0 "dse.lint_pruned";
    Obs.count ~by:0 "dse.absint_pruned";
    Obs.count ~by:0 "dse.dep_pruned";
    Obs.count ~by:0 "dse.sym_pruned";
    Obs.count ~by:0 "dse.estimated";
    Obs.count ~by:0 "dse.unfit";
    Obs.count ~by:0 "dse.cache.hit";
    Obs.count ~by:0 "dse.cache.miss";
    Obs.count ~by:0 "dse.cache.evict";
    Obs.count ~by:0 "dse.symgate.hit";
    Obs.count ~by:0 "dse.symgate.miss";
    Obs.count ~by:0 "dse.index.hit";
    Obs.count ~by:0 "dse.index.miss";
    Obs.count ~by:0 "dse.index.evict";
    List.iter
      (fun stage -> Obs.count ~by:0 (stage_counter stage))
      [ Generator_error; Lint_error; Estimator_error; Non_finite_estimate ]
  end;
  let prior =
    match checkpoint with
    | Some path when resume ->
      load_resume ~path ~space ~seed ~max_points ~total ~param_names
    | _ -> Hashtbl.create 1
  in
  (* The symbolic gate is fetched once, before any worker starts, from a
     fixed-seed probe sample — so every point (on every domain, at every
     chunk size) consults the identical constraint system and the
     bit-identical-checkpoint guarantee survives. [Eval.gate] derives it
     on the first sweep of a space and answers later sweeps on the same
     [Eval.t] from its memo. It only runs when both analysis passes it
     fronts for are on (otherwise pruning points the concrete pipeline
     would have kept changes results), and stands down while fault
     injection is armed, because its probe elaborations would consume
     fault sites the per-point replay expects. *)
  let gate =
    if symbolic && lint && absint && not (Faults.active ()) then
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
     armed), which is what lets the parallel path promise results
     bit-identical to the sequential one at any cache temperature. *)
  let compute ?stages i p =
    match Hashtbl.find_opt prior i with
    | Some e ->
      if Obs.enabled () then Obs.count "dse.resumed";
      (e, true, 0.0)
    | None ->
      let start = Unix.gettimeofday () in
      let e =
        Faults.with_key i @@ fun () ->
        Obs.span_sampled ~every:point_span_every ~i "dse.point" @@ fun () ->
        (* Pre-elaboration gate: a refuted point never generates, and
           every other point pays the full pipeline as before. Verdict
           time is attributed to the probe stage when profiling. *)
        let refuted =
          match gate with
          | None -> false
          | Some g ->
            let t0 = if stages <> None then Unix.gettimeofday () else 0.0 in
            let r = Symgate.refutes g p in
            (match stages with
            | Some s -> s.Eval.s_probe <- s.Eval.s_probe +. (Unix.gettimeofday () -. t0)
            | None -> ());
            r
        in
        if refuted then begin
          if Obs.enabled () then Obs.count "dse.sym_pruned";
          Outcome.Sym_pruned
        end
        else if Obs.enabled () then begin
          let e = Eval.evaluate ev ?stages ?family ~lint ~absint ~index:i ~generate p in
          (match e with
          | Outcome.Evaluated _ ->
            Obs.count "dse.estimated";
            Obs.observe "dse.ms_per_design" ((Unix.gettimeofday () -. start) *. 1000.0)
          | Outcome.Pruned -> Obs.count "dse.lint_pruned"
          | Outcome.Absint_pruned -> Obs.count "dse.absint_pruned"
          | Outcome.Dep_pruned -> Obs.count "dse.dep_pruned"
          | Outcome.Sym_pruned -> Obs.count "dse.sym_pruned"
          | Outcome.Failed (stage, _) -> Obs.count (stage_counter stage));
          e
        end
        else Eval.evaluate ev ?stages ?family ~lint ~absint ~index:i ~generate p
      in
      (e, false, Unix.gettimeofday () -. start)
  in
  (* Collector state. Only the domain running the collector touches any of
     this — in particular the checkpoint file has a single writer, so the
     replace-then-append flush protocol (and the resume guarantees) are
     untouched by parallelism. *)
  let entries = ref [] (* (index, entry), newest first *) in
  let lint_pruned = ref 0 in
  let absint_pruned = ref 0 in
  let dep_pruned = ref 0 in
  let sym_pruned = ref 0 in
  let resumed = ref 0 in
  let failures = ref [] in
  let processed = ref 0 in
  let cpu_seconds = ref 0.0 in
  (* The checkpoint is rendered as entries are recorded, each once;
     periodic writes flush the rendered bytes. Profiled rendering and
     writes both accumulate into the collector's [write] category; only
     the collector (or the sequential loop) calls these. *)
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
  let write_seconds = ref 0.0 in
  let timed_write f =
    if profile then begin
      let t0 = Unix.gettimeofday () in
      f ();
      write_seconds := !write_seconds +. (Unix.gettimeofday () -. t0)
    end
    else f ()
  in
  let write_checkpoint () =
    match writer with
    | None -> ()
    | Some (path, w) ->
      Obs.span "dse.checkpoint" @@ fun () -> timed_write (fun () -> Checkpoint.flush ~path w)
  in
  (* Merge one point's outcome, in sampling-index order. *)
  let record i p (entry, was_resumed, dt) =
    Obs.tick ~every:tick_every ~label:("dse " ^ Space.name space) ~total i;
    if was_resumed then incr resumed;
    (match entry with
    | Outcome.Pruned -> incr lint_pruned
    | Outcome.Absint_pruned -> incr absint_pruned
    | Outcome.Dep_pruned -> incr dep_pruned
    | Outcome.Sym_pruned -> incr sym_pruned
    | Outcome.Failed (f_stage, f_message) ->
      failures := { f_index = i; f_point = p; f_stage; f_message } :: !failures
    | Outcome.Evaluated _ -> ());
    entries := (i, entry) :: !entries;
    (match writer with
    | Some (_, w) -> timed_write (fun () -> Checkpoint.append w i entry)
    | None -> ());
    incr processed;
    cpu_seconds := !cpu_seconds +. dt;
    if checkpoint_every > 0 && !processed mod checkpoint_every = 0 then write_checkpoint ()
  in
  let truncated, attribution =
    if jobs <= 1 then begin
      (* Sequential path: exactly the pre-parallel sweep loop. When
         profiling, the loop is accounted as one worker (stage split,
         no send-block) and checkpoint writes as the collector. *)
      let stages = if profile then Some (Eval.fresh_stages ()) else None in
      let t_loop0 = if profile then Unix.gettimeofday () else 0.0 in
      let truncated = ref false in
      List.iteri
        (fun i p ->
          if not !truncated then begin
            record i p (compute ?stages i p);
            if should_stop () then truncated := true
          end)
        points;
      let attribution =
        match stages with
        | None -> None
        | Some a ->
          let loop_wall = Unix.gettimeofday () -. t_loop0 in
          let w_wall_s = Float.max 0.0 (loop_wall -. !write_seconds) in
          let accounted = a.Eval.s_generate +. a.Eval.s_probe +. a.Eval.s_analyze +. a.Eval.s_estimate in
          Some
            {
              Profile.jobs = 1;
              wall_s = loop_wall;
              workers =
                [
                  {
                    Profile.w_domain = 0;
                    w_points = !processed - !resumed;
                    w_wall_s;
                    w_generate_s = a.Eval.s_generate;
                    w_probe_s = a.Eval.s_probe;
                    w_analyze_s = a.Eval.s_analyze;
                    w_estimate_s = a.Eval.s_estimate;
                    w_send_block_s = 0.0;
                    w_idle_s = Float.max 0.0 (w_wall_s -. accounted);
                  };
                ];
              collector =
                {
                  Profile.c_wall_s = !write_seconds;
                  c_recv_block_s = 0.0;
                  c_reorder_stall_s = 0.0;
                  c_write_s = !write_seconds;
                  c_merge_s = 0.0;
                };
              max_queue_depth = 0;
              max_reorder_occupancy = 0;
            }
      in
      (!truncated, attribution)
    end
    else begin
      (* Parallel path: [jobs] worker domains claim contiguous index
         *ranges* (of [Config.chunk] points) from a shared atomic cursor,
         run the pipeline into a buffer only they own, and send the
         collector one message per chunk; the collector merges whole
         chunks in sampling-index order through a reorder buffer. Chunked
         claims keep the claim protocol a single fetch-and-add while
         cutting channel traffic (and its condition-variable wakeups) by
         the chunk factor — the contention Profile attributed the jobs>1
         collapse to. When profiling, every accumulator below is either
         owned by exactly one domain (stage/claims/send-block slots by
         worker index, collector refs by the collector) or updated under
         a lock that already exists, so the profiler adds no contention
         of its own. *)
      let points_arr = Array.of_list points in
      let cursor = Atomic.make 0 in
      let stop = Atomic.make false in
      let chan : msg Chan.t = Chan.create () in
      let obs_prof = profile && Obs.enabled () in
      let stage_slots = Array.init jobs (fun _ -> Eval.fresh_stages ()) in
      let claim_slots = Array.make jobs 0 in
      let send_slots = Array.make jobs 0.0 in
      let wall_slots = Array.make jobs 0.0 in
      let worker k () =
        Obs.with_domain_buffer ~track:(k + 1) @@ fun () ->
        let stages = if profile then Some stage_slots.(k) else None in
        let wait = if profile then Some (ref 0.0) else None in
        let t_w0 = if profile then Unix.gettimeofday () else 0.0 in
        (* Ship the first [n] outcomes of the chunk at [lo]. A chunk cut
           short by a stop request ships as a shorter run; a chunk the
           stop emptied entirely ships nothing (the collector's post-join
           sweep releases past the gap). *)
        let send lo buf n =
          if n > 0 then begin
            let payload = if n = Array.length buf then buf else Array.sub buf 0 n in
            match wait with
            | None -> Chan.push chan (Chunk (lo, payload))
            | Some acc ->
              let before = !acc in
              Chan.push ~wait:acc chan (Chunk (lo, payload));
              if obs_prof then Obs.observe "dse.chan.send_wait_us" ((!acc -. before) *. 1e6)
          end
        in
        let rec loop () =
          if not (Atomic.get stop) then begin
            let lo = Atomic.fetch_and_add cursor chunk in
            if lo < total then begin
              let hi = min total (lo + chunk) in
              let buf = Array.make (hi - lo) (Outcome.Pruned, false, 0.0) in
              let n = ref 0 in
              while lo + !n < hi && not (Atomic.get stop) do
                let i = lo + !n in
                buf.(!n) <- compute ?stages i points_arr.(i);
                incr n;
                if profile then claim_slots.(k) <- claim_slots.(k) + 1;
                (* Mirror the sequential loop: the deadline (or a cancel
                   request) is checked after each consumed point, and
                   tripping it stops every worker from pulling further
                   points. *)
                if should_stop () then Atomic.set stop true
              done;
              send lo buf !n;
              loop ()
            end
          end
        in
        loop ();
        if profile then begin
          wall_slots.(k) <- Unix.gettimeofday () -. t_w0;
          (match wait with Some acc -> send_slots.(k) <- !acc | None -> ());
          if obs_prof then Obs.count ~by:claim_slots.(k) (Printf.sprintf "dse.claims.w%d" (k + 1))
        end
      in
      let recv_block = ref 0.0 in
      let reorder_stall = ref 0.0 in
      let max_pending = ref 0 in
      let t_col0 = if profile then Unix.gettimeofday () else 0.0 in
      let domains =
        List.init jobs (fun k ->
            Domain.spawn (fun () ->
                Fun.protect ~finally:(fun () -> Chan.push chan Worker_done) (worker k)))
      in
      (* Reorder buffer, now chunk-granular: chunks arrive in completion
         order, keyed by their first index; release them in index order so
         entries, failures, counters and every periodic checkpoint match
         the sequential run's byte for byte. Arrival stamps (profiling
         only) measure how long out-of-order chunks sit parked before
         their predecessor completes. *)
      let pending = Hashtbl.create 64 in
      let next_emit = ref 0 in
      let live_workers = ref jobs in
      let release () =
        let rec go () =
          match Hashtbl.find_opt pending !next_emit with
          | None -> ()
          | Some (arr, arrived) ->
            Hashtbl.remove pending !next_emit;
            if profile && arrived > 0.0 then
              reorder_stall :=
                !reorder_stall +. Float.max 0.0 (Unix.gettimeofday () -. arrived);
            let lo = !next_emit in
            Array.iteri (fun j r -> record (lo + j) points_arr.(lo + j) r) arr;
            next_emit := lo + Array.length arr;
            go ()
        in
        go ()
      in
      (* The collector's own telemetry (recv-wait samples, checkpoint
         spans, progress ticks) goes through a track-0 domain buffer too,
         so it never contends with worker flushes mid-sweep. *)
      Obs.with_domain_buffer ~track:0 (fun () ->
          let wait = if profile then Some recv_block else None in
          while !live_workers > 0 do
            let before = !recv_block in
            let m = Chan.pop ?wait chan in
            if obs_prof then Obs.observe "dse.chan.recv_wait_us" ((!recv_block -. before) *. 1e6);
            match m with
            | Worker_done -> decr live_workers
            | Chunk (lo, arr) ->
              Hashtbl.replace pending lo
                (arr, if profile then Unix.gettimeofday () else 0.0);
              if profile then max_pending := max !max_pending (Hashtbl.length pending);
              release ()
          done;
          List.iter Domain.join domains;
          (* A tripped deadline can leave completed chunks beyond a gap (a
             truncated chunk whose successors finished whole). Release
             them too, still in index order: the checkpoint format
             addresses entries by index, so a resumed sweep reuses every
             one of them. *)
          Hashtbl.fold (fun lo (arr, _) acc -> (lo, arr) :: acc) pending []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> List.iter (fun (lo, arr) ->
                 Array.iteri (fun j r -> record (lo + j) points_arr.(lo + j) r) arr));
      let attribution =
        if not profile then None
        else begin
          let c_wall = Unix.gettimeofday () -. t_col0 in
          if obs_prof then begin
            Obs.gauge "dse.chan.max_queue_depth" (float_of_int chan.Chan.max_depth);
            Obs.gauge "dse.reorder.max_occupancy" (float_of_int !max_pending)
          end;
          Some
            {
              Profile.jobs;
              wall_s = c_wall;
              workers =
                List.init jobs (fun k ->
                    let a = stage_slots.(k) in
                    let accounted =
                      a.Eval.s_generate +. a.Eval.s_probe +. a.Eval.s_analyze
                      +. a.Eval.s_estimate +. send_slots.(k)
                    in
                    {
                      Profile.w_domain = k;
                      w_points = claim_slots.(k);
                      w_wall_s = wall_slots.(k);
                      w_generate_s = a.Eval.s_generate;
                      w_probe_s = a.Eval.s_probe;
                      w_analyze_s = a.Eval.s_analyze;
                      w_estimate_s = a.Eval.s_estimate;
                      w_send_block_s = send_slots.(k);
                      w_idle_s = Float.max 0.0 (wall_slots.(k) -. accounted);
                    });
              collector =
                {
                  Profile.c_wall_s = c_wall;
                  c_recv_block_s = !recv_block;
                  c_reorder_stall_s = !reorder_stall;
                  c_write_s = !write_seconds;
                  c_merge_s =
                    Float.max 0.0 (c_wall -. !recv_block -. !write_seconds);
                };
              max_queue_depth = chan.Chan.max_depth;
              max_reorder_occupancy = !max_pending;
            }
        end
      in
      (Atomic.get stop, attribution)
    end
  in
  if checkpoint <> None then write_checkpoint ();
  let evaluations =
    List.rev_map (function _, Outcome.Evaluated e -> Some e | _ -> None) !entries
    |> List.filter_map Fun.id
  in
  let pareto = Obs.span "dse.pareto" (fun () -> pareto_of evaluations) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let stats1 = Eval.stats ev in
  if Obs.enabled () then begin
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
    truncated;
    jobs;
    elapsed_seconds = elapsed;
    cpu_seconds = !cpu_seconds;
    cache_hits = stats1.Eval.hits - stats0.Eval.hits;
    cache_misses = stats1.Eval.misses - stats0.Eval.misses;
    attribution;
  }

let unfit_count r = List.length (List.filter (fun e -> not e.valid) r.evaluations)
let failed_count r = List.length r.failures

let failure_counts r =
  List.map
    (fun stage -> (stage, List.length (List.filter (fun f -> f.f_stage = stage) r.failures)))
    [ Generator_error; Lint_error; Estimator_error; Non_finite_estimate ]

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
   came back from the estimator. Wall-clock and aggregate-CPU variants are
   separate on purpose: with [jobs] > 1 wall-clock seconds/design shrinks
   with the core count while CPU seconds/design stays comparable with
   sequential (and older BENCH) numbers. *)
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
