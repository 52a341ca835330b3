module P = Protocol
module Json = Dhdl_util.Json
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Estimator = Dhdl_model.Estimator
module Target = Dhdl_device.Target
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Checkpoint = Dhdl_dse.Checkpoint
module Lint = Dhdl_lint.Lint
module Absint = Dhdl_absint.Absint
module Dependence = Dhdl_absint.Dependence
module Obs = Dhdl_obs.Obs
module Faults = Dhdl_util.Faults

type config = {
  sessions_root : string;
  estimator : Estimator.t Lazy.t;
  queue_capacity : int;
  degrade_depth : int;
  quarantine_threshold : int;
  nn_fallback_limit : int;
  dse_jobs : int;
  dse_checkpoint_every : int;
}

let default_config ~sessions_root ~estimator =
  {
    sessions_root;
    estimator;
    queue_capacity = 64;
    degrade_depth = 16;
    quarantine_threshold = 3;
    nn_fallback_limit = 25;
    dse_jobs = 1;
    dse_checkpoint_every = 8;
  }

type pending = {
  p_req : P.request;
  p_arrival : float;
  p_reply : P.reply -> unit;
}

type item = Req of pending | Quit

(* A running sweep. [sw_finished] flips (in the sweep domain's last act)
   before the domain exits, so the worker can poll it without blocking;
   the domain handle is joined from the worker once finished, or by
   [drain]. All durable state is in the session directory — this record
   is only bookkeeping for cancellation and joining. *)
type sweep = {
  sw_stop : bool Atomic.t;
  sw_finished : bool Atomic.t;
  mutable sw_domain : unit Domain.t option;
}

type t = {
  cfg : config;
  (* The one evaluation pipeline every handler shares: estimate and
     estimate_batch replies, and every sweep the supervisor starts, go
     through this [Eval.t], so its design-key caches are cross-request —
     a design estimated for one client answers the next client (or the
     next sweep) from the cache. Forced lazily like the estimator it
     wraps, and from the worker domain only. *)
  eval : Eval.t Lazy.t;
  q : item Queue.t;
  q_mutex : Mutex.t;
  q_nonempty : Condition.t;
  drain_flag : bool Atomic.t;
  lock : Mutex.t;  (* guards cache, crashes, sweeps *)
  cache : (string, P.reply) Hashtbl.t;  (* request id -> final reply *)
  crashes : (string, string list) Hashtbl.t;  (* request id -> errors, newest first *)
  sweeps : (string, sweep) Hashtbl.t;  (* session id -> running sweep *)
  nn_base : int;  (* estimator.nn_fallback counter at startup *)
  mutable worker : unit Domain.t option;
}

let create cfg =
  {
    cfg;
    eval = lazy (Eval.create (Lazy.force cfg.estimator));
    q = Queue.create ();
    q_mutex = Mutex.create ();
    q_nonempty = Condition.create ();
    drain_flag = Atomic.make false;
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    crashes = Hashtbl.create 8;
    sweeps = Hashtbl.create 8;
    nn_base = Obs.counter_value "estimator.nn_fallback";
    worker = None;
  }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let draining t = Atomic.get t.drain_flag
let queue_depth t = locked t.q_mutex (fun () -> Queue.length t.q)
let cached t id = locked t.lock (fun () -> Hashtbl.find_opt t.cache id)

(* ---------------- helpers shared by the handlers -------------------- *)

let lookup_app name =
  try Registry.find name
  with Not_found ->
    failwith
      (Printf.sprintf "unknown benchmark %S (available: %s)" name
         (String.concat ", " Registry.names))

let need req field value =
  match value with
  | Some v -> v
  | None ->
    failwith
      (Printf.sprintf "verb %S requires field %S" (P.verb_name req.P.q_verb) field)

let need_app req = lookup_app (need req "app" req.P.q_app)

let need_session req =
  let sid = need req "session" req.P.q_session in
  if not (Session.id_ok sid) then
    failwith (Printf.sprintf "bad session id %S (use [A-Za-z0-9._-], <= 64 chars)" sid);
  sid

(* A request's parameters resolve against the app's defaults exactly as
   the CLI's do ([App.resolve]), so a served reply and [dhdl] agree on
   the design a partial binding names. *)
let design_of (app : App.t) params =
  let sizes = app.App.paper_sizes in
  let params = App.resolve app sizes params in
  (params, app.App.generate ~sizes ~params)

let params_json params = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) params)

let expired p =
  match p.p_req.P.q_deadline_ms with
  | None -> false
  | Some ms -> Unix.gettimeofday () -. p.p_arrival > float_of_int ms /. 1000.0

(* Remaining deadline budget, as the [deadline_seconds] a sweep accepts
   (strictly positive — an expired request never reaches here). *)
let remaining_seconds p =
  Option.map
    (fun ms ->
      Float.max 0.001 (p.p_arrival +. (float_of_int ms /. 1000.0) -. Unix.gettimeofday ()))
    p.p_req.P.q_deadline_ms

let nn_fallback_tripped t =
  t.cfg.nn_fallback_limit > 0
  && Obs.counter_value "estimator.nn_fallback" - t.nn_base >= t.cfg.nn_fallback_limit

(* ---------------- estimate / lint / analyze ------------------------- *)

let area_json (a : Estimator.area) =
  Json.Obj
    [
      ("alms", Json.Int a.Estimator.alms);
      ("luts", Json.Int a.Estimator.luts);
      ("regs", Json.Int a.Estimator.regs);
      ("dsps", Json.Int a.Estimator.dsps);
      ("brams", Json.Int a.Estimator.brams);
    ]

(* One estimate item's payload, shared by the estimate verb and every
   estimate_batch entry. The corrected path goes through the shared
   [Eval.t], so repeated specs — within one batch, across requests, or
   against designs a sweep already visited — answer from the estimate
   cache. The degraded path stays on the raw analytical model: it is the
   cheap fallback for an overloaded or NN-suspect server, and must not
   depend on what happens to be cached. *)
let estimate_payload t ev ~depth (app : App.t) req_params =
  let est = Eval.estimator ev in
  let params, design = design_of app req_params in
  let degraded = depth >= t.cfg.degrade_depth || nn_fallback_tripped t in
  let area, cycles, seconds =
    if degraded then begin
      (* Raw analytical model: no NN corrections, no routing/duplication
         effects — cheaper and immune to a misbehaving correction net. *)
      Obs.count "serve.degraded";
      let area = Estimator.estimate_area_uncorrected est design in
      let cycles = Estimator.estimate_cycles est design in
      let mhz = (Estimator.board est).Target.fabric_mhz in
      (area, cycles, cycles /. (mhz *. 1e6))
    end
    else
      let e = Eval.estimate ev design in
      (e.Estimator.area, e.Estimator.cycles, e.Estimator.seconds)
  in
  let alm, dsp, bram = Estimator.utilization est area in
  Json.Obj
    [
      ("app", Json.Str app.App.name);
      ("params", params_json params);
      ("degraded", Json.Bool degraded);
      ("cycles", Json.Float cycles);
      ("seconds", Json.Float seconds);
      ("area", area_json area);
      ("alm_pct", Json.Float alm);
      ("dsp_pct", Json.Float dsp);
      ("bram_pct", Json.Float bram);
      ("fits", Json.Bool (Estimator.fits est area));
    ]

let estimate_reply t req ~depth =
  let id = req.P.q_id in
  let ev = Lazy.force t.eval in
  let app = need_app req in
  P.ok ~id (estimate_payload t ev ~depth app req.P.q_params)

(* The whole batch runs under the request's one deadline, checked before
   each item: items reached in time estimate (through the shared cache),
   later ones answer per-item [deadline_exceeded] — the batch reply
   itself still succeeds, carrying one typed entry per spec in request
   order. A bad spec (unknown benchmark, bad parameters) poisons only its
   own entry. *)
let estimate_batch_reply t p ~depth =
  let req = p.p_req in
  let id = req.P.q_id in
  if req.P.q_specs = [] then
    failwith "verb \"estimate_batch\" requires a non-empty \"specs\" list";
  let ev = Lazy.force t.eval in
  let item_error code msg =
    Json.Obj
      [
        ( "error",
          Json.Obj
            [ ("code", Json.Str (P.error_code_name code)); ("message", Json.Str msg) ] );
      ]
  in
  let failed = ref 0 in
  let items =
    List.map
      (fun (app_name, params) ->
        if expired p then begin
          incr failed;
          item_error P.Deadline_exceeded "batch deadline expired before this item"
        end
        else
          match
            try Ok (estimate_payload t ev ~depth (lookup_app app_name) params)
            with Failure msg -> Error msg
          with
          | Ok payload -> Json.Obj [ ("ok", payload) ]
          | Error msg ->
            incr failed;
            item_error P.Bad_request msg)
      req.P.q_specs
  in
  P.ok ~id
    (Json.Obj
       [
         ("count", Json.Int (List.length items));
         ("failed", Json.Int !failed);
         ("items", Json.List items);
       ])

let lint_reply req =
  let id = req.P.q_id in
  let app = need_app req in
  let _, design = design_of app req.P.q_params in
  let diags = Lint.check design in
  P.ok ~id
    (Json.Obj
       [
         ("clean", Json.Bool (diags = []));
         ("errors", Json.Int (List.length (Lint.errors diags)));
         ("report", Json.Raw (Lint.render_json ~design diags));
       ])

let analyze_reply req =
  let id = req.P.q_id in
  let app = need_app req in
  let _, design = design_of app req.P.q_params in
  let report = Absint.analyze design in
  let deps = Dependence.analyze design in
  P.ok ~id
    (Json.Obj
       [
         ("clean", Json.Bool (Absint.clean report && Dependence.clean deps));
         ("absint", Json.Raw (Absint.render_json report));
         ("dependence", Json.Raw (Dependence.render_json deps));
       ])

(* ---------------- sessions ------------------------------------------ *)

let summary_json (r : Explore.result) =
  Json.Obj
    [
      ("state", Json.Str "done");
      ("sampled", Json.Int r.Explore.sampled);
      ("processed", Json.Int r.Explore.processed);
      ("evaluated", Json.Int (List.length r.Explore.evaluations));
      ("pareto", Json.Int (List.length r.Explore.pareto));
      ("failures", Json.Int (List.length r.Explore.failures));
      ("lint_pruned", Json.Int r.Explore.lint_pruned);
      ("absint_pruned", Json.Int r.Explore.absint_pruned);
      ("dep_pruned", Json.Int r.Explore.dep_pruned);
      ("sym_pruned", Json.Int r.Explore.sym_pruned);
      ("resumed", Json.Int r.Explore.resumed);
      ( "best_cycles",
        match Explore.best r with
        | Some ev -> Json.Float ev.Explore.estimate.Estimator.cycles
        | None -> Json.Null );
    ]

let run_sweep cfg ~sid ~(spec : Session.spec) ~(app : App.t) ~ev ?deadline_seconds ~stop () =
  let root = cfg.sessions_root in
  try
    let sweep_cfg =
      Explore.Config.make ~seed:spec.Session.s_seed ~max_points:spec.Session.s_max_points
        ~jobs:spec.Session.s_jobs
        ~checkpoint:(Session.checkpoint_path ~root sid)
        ~checkpoint_every:cfg.dse_checkpoint_every ~resume:true ?deadline_seconds
        ~stop_requested:(fun () -> Atomic.get stop)
        ~tick_every:0 ()
    in
    let sizes = app.App.paper_sizes in
    let r =
      Explore.run sweep_cfg ev
        ~space:(app.App.space sizes)
        ~generate:(fun pt -> app.App.generate ~sizes ~params:pt)
    in
    (* A truncated sweep (cancel, drain, or deadline) is not done: its
       state is the checkpoint, and a later dse_start resumes it. *)
    if not r.Explore.truncated then Session.mark_done ~root sid (summary_json r)
  with e -> ( try Session.mark_failed ~root sid (Printexc.to_string e) with _ -> ())

(* Reap a finished sweep's domain. Caller holds [t.lock]. *)
let reap t sid =
  match Hashtbl.find_opt t.sweeps sid with
  | Some sw when Atomic.get sw.sw_finished ->
    Option.iter Domain.join sw.sw_domain;
    sw.sw_domain <- None;
    Hashtbl.remove t.sweeps sid
  | _ -> ()

let sweep_running t sid =
  locked t.lock (fun () ->
      reap t sid;
      Hashtbl.mem t.sweeps sid)

let checkpoint_entries cfg sid =
  match Checkpoint.load ~path:(Session.checkpoint_path ~root:cfg.sessions_root sid) with
  | Ok c -> List.length c.Checkpoint.entries
  | Error _ -> 0

let status_json cfg sid ~running =
  let root = cfg.sessions_root in
  if running then
    Some
      (Json.Obj
         [
           ("session", Json.Str sid);
           ("state", Json.Str "running");
           ("entries", Json.Int (checkpoint_entries cfg sid));
         ])
  else
    match Session.status ~root sid with
    | Session.Unknown -> None
    | Session.Fresh _ ->
      Some
        (Json.Obj
           [ ("session", Json.Str sid); ("state", Json.Str "fresh"); ("entries", Json.Int 0) ])
    | Session.Interrupted (_, entries, torn) ->
      Some
        (Json.Obj
           [
             ("session", Json.Str sid);
             ("state", Json.Str "interrupted");
             ("entries", Json.Int entries);
             ("truncated_tail", Json.Bool torn);
           ])
    | Session.Failed (_, msg) ->
      Some
        (Json.Obj
           [ ("session", Json.Str sid); ("state", Json.Str "failed"); ("message", Json.Str msg) ])
    | Session.Done (_, summary) ->
      Some (Json.Obj [ ("session", Json.Str sid); ("summary", summary); ("state", Json.Str "done") ])

let dse_start t p =
  let req = p.p_req in
  let id = req.P.q_id in
  let sid = need_session req in
  let root = t.cfg.sessions_root in
  let app = need_app req in
  let spec =
    {
      Session.s_app = app.App.name;
      s_seed = Option.value req.P.q_seed ~default:2016;
      s_max_points = Option.value req.P.q_max_points ~default:2000;
      s_jobs = t.cfg.dse_jobs;
    }
  in
  if sweep_running t sid then
    P.ok ~id
      (Json.Obj [ ("session", Json.Str sid); ("state", Json.Str "running"); ("started", Json.Bool false) ])
  else begin
    (* Validate the spec before any reply from disk — a finished session
       must not answer a request that names a different sweep. *)
    (match Session.load_spec ~root sid with
    | Some existing when existing <> spec ->
      failwith
        (Printf.sprintf
           "session %S already exists for sweep (app=%s seed=%d max_points=%d), not (app=%s \
            seed=%d max_points=%d)"
           sid existing.Session.s_app existing.Session.s_seed existing.Session.s_max_points
           spec.Session.s_app spec.Session.s_seed spec.Session.s_max_points)
    | Some _ | None -> ());
    match Session.status ~root sid with
    | Session.Done (_, summary) ->
      P.ok ~id
        (Json.Obj
           [ ("session", Json.Str sid); ("summary", summary); ("state", Json.Str "done");
             ("started", Json.Bool false) ])
    | (Session.Unknown | Session.Fresh _ | Session.Interrupted _ | Session.Failed _) as st ->
      (match Session.load_spec ~root sid with
      | Some _ -> ()
      | None -> Session.write_spec ~root sid spec);
      (* Re-running a failed session clears the failure record first so
         the crash-only state machine goes back to fresh/interrupted. *)
      (match st with
      | Session.Failed _ -> ( try Sys.remove (Filename.concat (Session.dir ~root sid) "error.json") with Sys_error _ -> ())
      | _ -> ());
      let resumed_entries =
        match st with Session.Interrupted (_, n, _) -> n | _ -> 0
      in
      (* Force outside the sweep domain: Lazy.t is not safe to force from
         two domains, and the worker is the only other forcer. The sweep
         shares the supervisor's [Eval.t], so designs this server already
         proved or estimated (for any client) skip those stages. *)
      let ev = Lazy.force t.eval in
      let stop = Atomic.make false in
      let sw = { sw_stop = stop; sw_finished = Atomic.make false; sw_domain = None } in
      locked t.lock (fun () -> Hashtbl.replace t.sweeps sid sw);
      let deadline_seconds = remaining_seconds p in
      let cfg = t.cfg in
      let finished = sw.sw_finished in
      let dom =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set finished true)
              (fun () -> run_sweep cfg ~sid ~spec ~app ~ev ?deadline_seconds ~stop ()))
      in
      sw.sw_domain <- Some dom;
      Obs.count "serve.sweeps_started";
      P.ok ~id
        (Json.Obj
           [
             ("session", Json.Str sid);
             ("state", Json.Str "running");
             ("started", Json.Bool true);
             ("resumed_entries", Json.Int resumed_entries);
           ])
  end

let dse_status t req =
  let id = req.P.q_id in
  let sid = need_session req in
  let running = sweep_running t sid in
  match status_json t.cfg sid ~running with
  | Some payload -> P.ok ~id payload
  | None -> P.error ~id P.Unknown_session (Printf.sprintf "no session %S" sid)

let dse_cancel t req =
  let id = req.P.q_id in
  let sid = need_session req in
  let cancelled =
    match locked t.lock (fun () -> reap t sid; Hashtbl.find_opt t.sweeps sid) with
    | Some sw ->
      Atomic.set sw.sw_stop true;
      (* The sweep notices within one point; join so the final checkpoint
         is on disk before we report the post-cancel state. *)
      Option.iter Domain.join sw.sw_domain;
      sw.sw_domain <- None;
      locked t.lock (fun () -> Hashtbl.remove t.sweeps sid);
      true
    | None -> false
  in
  match status_json t.cfg sid ~running:false with
  | Some (Json.Obj fields) -> P.ok ~id (Json.Obj (("cancelled", Json.Bool cancelled) :: fields))
  | Some payload -> P.ok ~id payload
  | None -> P.error ~id P.Unknown_session (Printf.sprintf "no session %S" sid)

(* ---------------- dispatch ------------------------------------------ *)

let exec t p ~depth =
  let req = p.p_req in
  let id = req.P.q_id in
  try
    match req.P.q_verb with
    | P.Ping -> P.ok ~id (Json.Obj [ ("pong", Json.Bool true) ])
    | P.Shutdown ->
      Atomic.set t.drain_flag true;
      P.ok ~id (Json.Obj [ ("draining", Json.Bool true) ])
    | P.Estimate -> estimate_reply t req ~depth
    | P.Estimate_batch -> estimate_batch_reply t p ~depth
    | P.Lint -> lint_reply req
    | P.Analyze -> analyze_reply req
    | P.Dse_start -> dse_start t p
    | P.Dse_status -> dse_status t req
    | P.Dse_cancel -> dse_cancel t req
  with
  | Failure msg -> P.error ~id P.Bad_request msg
  | Session.Store_error msg -> P.error ~id P.Internal ("session store: " ^ msg)

let finalize t id reply =
  locked t.lock (fun () ->
      Hashtbl.replace t.cache id reply;
      Hashtbl.remove t.crashes id);
  reply

(* Execute one pending request to a final reply: serve from the reply
   cache, expire, or attempt the handler — retrying a crash (including
   faults injected at [serve.handler]) until [quarantine_threshold], at
   which point the request is parked with its error chain. Every path
   returns exactly one reply. *)
let rec process t p ~depth =
  let id = p.p_req.P.q_id in
  match cached t id with
  | Some r -> r
  | None ->
    if expired p then
      finalize t id
        (P.error ~id P.Deadline_exceeded
           (Printf.sprintf "deadline of %d ms expired before execution"
              (Option.value p.p_req.P.q_deadline_ms ~default:0)))
    else begin
      let attempt = locked t.lock (fun () -> List.length (Option.value (Hashtbl.find_opt t.crashes id) ~default:[])) in
      match
        (* Key every fault decision of this attempt by (id, attempt), so
           retries re-roll instead of replaying the same crash forever. *)
        Faults.with_key (Hashtbl.hash (id, attempt)) (fun () ->
            Faults.inject "serve.handler";
            exec t p ~depth)
      with
      | reply -> finalize t id reply
      | exception e ->
        let msg = Printexc.to_string e in
        Obs.count "serve.handler_crash";
        let crashes =
          locked t.lock (fun () ->
              let prev = Option.value (Hashtbl.find_opt t.crashes id) ~default:[] in
              let now = msg :: prev in
              Hashtbl.replace t.crashes id now;
              now)
        in
        if List.length crashes >= t.cfg.quarantine_threshold then begin
          Obs.count "serve.quarantined";
          finalize t id
            (P.error ~chain:(List.rev crashes) ~id P.Quarantined
               (Printf.sprintf "handler crashed %d time(s); request parked" (List.length crashes)))
        end
        else process t p ~depth
    end

let rec worker_loop t =
  Mutex.lock t.q_mutex;
  while Queue.is_empty t.q do
    Condition.wait t.q_nonempty t.q_mutex
  done;
  let item = Queue.pop t.q in
  let depth = Queue.length t.q in
  Mutex.unlock t.q_mutex;
  match item with
  | Quit -> ()
  | Req p ->
    let verb = P.verb_name p.p_req.P.q_verb in
    (* The reply is delivered inside the request's span, so the span
       covers what its callback spends rendering and writing it. *)
    Obs.with_request_track
      ~attrs:[ ("id", p.p_req.P.q_id); ("verb", verb) ]
      ("serve." ^ verb)
      (fun () ->
        let reply = process t p ~depth in
        try p.p_reply reply with _ -> ());
    worker_loop t

let start t =
  match t.worker with
  | Some _ -> ()
  | None -> t.worker <- Some (Domain.spawn (fun () -> worker_loop t))

let submit t req ~reply_to =
  let id = req.P.q_id in
  let deliver r = try reply_to r with _ -> () in
  match cached t id with
  | Some r -> deliver r
  | None ->
    if Atomic.get t.drain_flag then
      deliver (P.error ~id P.Draining "server is draining; retry against another instance")
    else begin
      Mutex.lock t.q_mutex;
      let depth = Queue.length t.q in
      if depth >= t.cfg.queue_capacity then begin
        Mutex.unlock t.q_mutex;
        Obs.count "serve.shed";
        deliver
          (P.error
             ~retry_after_ms:(25 * (depth + 1))
             ~id P.Overloaded
             (Printf.sprintf "pending queue is full (%d request(s))" depth))
      end
      else begin
        Queue.push (Req { p_req = req; p_arrival = Unix.gettimeofday (); p_reply = reply_to }) t.q;
        Condition.signal t.q_nonempty;
        Mutex.unlock t.q_mutex;
        Obs.count "serve.admitted"
      end
    end

let drain t =
  Atomic.set t.drain_flag true;
  (* FIFO: Quit lands behind every admitted request, so the worker drains
     all in-flight work first. *)
  (match t.worker with
  | Some d ->
    Mutex.lock t.q_mutex;
    Queue.push Quit t.q;
    Condition.signal t.q_nonempty;
    Mutex.unlock t.q_mutex;
    Domain.join d;
    t.worker <- None
  | None -> ());
  (* Cancel any sweep still running; each truncates at its next point and
     writes a final checkpoint, leaving the session resumable. *)
  let sweeps = locked t.lock (fun () -> Hashtbl.fold (fun _ sw acc -> sw :: acc) t.sweeps []) in
  List.iter (fun sw -> Atomic.set sw.sw_stop true) sweeps;
  List.iter
    (fun sw ->
      Option.iter Domain.join sw.sw_domain;
      sw.sw_domain <- None)
    sweeps;
  locked t.lock (fun () -> Hashtbl.reset t.sweeps)
