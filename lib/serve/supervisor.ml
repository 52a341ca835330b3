module P = Protocol
module Json = Dhdl_util.Json
module App = Dhdl_apps.App
module Request = Dhdl_apps.Request
module Estimator = Dhdl_model.Estimator
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Checkpoint = Dhdl_dse.Checkpoint
module Lint = Dhdl_lint.Lint
module Obs = Dhdl_obs.Obs
module Faults = Dhdl_util.Faults
module Fifo_table = Dhdl_util.Fifo_table

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

(* A running sweep. [sw_finished] flips (in the sweep domain's last act)
   before the domain exits, so the supervisor can poll it without
   blocking; the domain handle is joined once finished, or by [drain].
   All durable state is in the session directory — this record is only
   bookkeeping for cancellation and joining. *)
type sweep = {
  sw_stop : bool Atomic.t;
  sw_finished : bool Atomic.t;
  mutable sw_domain : unit Domain.t option;
}

(* Everything below runs on the one thread that calls [submit],
   [run_next] and [drain]; only sweeps run on domains of their own, and
   they touch nothing here but their [sweep] atomics. *)
type t = {
  cfg : config;
  (* The one evaluation pipeline every handler shares: estimate and
     estimate_batch replies, and every sweep the supervisor starts, go
     through this [Eval.t], so its design-key caches are cross-request —
     a design estimated for one client answers the next client (or the
     next sweep) from the cache. Forced lazily like the estimator it
     wraps, and never from a sweep domain. *)
  eval : Eval.t Lazy.t;
  q : pending Queue.t;
  mutable drain_flag : bool;
  cache : (string, P.reply) Fifo_table.t;  (* request id -> final reply *)
  crashes : (string, string list) Hashtbl.t;  (* request id -> errors, newest first *)
  sweeps : (string, sweep) Hashtbl.t;  (* session id -> running sweep *)
  nn_base : int;  (* estimator.nn_fallback counter at startup *)
}

(* A cached reply matters only to a retry of its id, and a [Client.call]
   backs off for at most [Client.retry_window_s] (1.125 s) in all
   between its attempts. The cache holds that window's replies at 4,000
   a second, well above the rate the serve benchmark's mix is answered
   at (about 1,500 a second): 4,500 replies, at most 95 MB even if every
   one were a 21 KB 64-spec batch reply. *)
let reply_cache_cap = int_of_float (Float.ceil (Client.retry_window_s *. 4000.0))

let create cfg =
  {
    cfg;
    eval = lazy (Eval.create (Lazy.force cfg.estimator));
    q = Queue.create ();
    drain_flag = false;
    cache = Fifo_table.create reply_cache_cap;
    crashes = Hashtbl.create 8;
    sweeps = Hashtbl.create 8;
    nn_base = Obs.counter_value "estimator.nn_fallback";
  }

let draining t = t.drain_flag
let queue_depth t = Queue.length t.q
let cached t id = Fifo_table.find_opt t.cache id

(* ---------------- helpers shared by the handlers -------------------- *)

let need req field value =
  match value with
  | Some v -> v
  | None ->
    failwith
      (Printf.sprintf "verb %S requires field %S" (P.verb_name req.P.q_verb) field)

let app_name req = need req "app" req.P.q_app

let need_session req =
  let sid = need req "session" req.P.q_session in
  if not (Session.id_ok sid) then
    failwith (Printf.sprintf "bad session id %S (use [A-Za-z0-9._-], <= 64 chars)" sid);
  sid

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

(* One estimate item's payload, shared by the estimate verb and every
   estimate_batch entry. The point is resolved and checked by the request
   layer, exactly as the CLI's is; this handler only decides whether to
   degrade. The corrected path goes through the shared [Eval.t], so
   repeated specs — within one batch, across requests, or against points
   a paper-size sweep already visited — answer from the estimate cache,
   found through the point index without generating the design. The degraded
   path is the raw analytical model: the cheap fallback for an overloaded
   or NN-suspect server. *)
let estimate_payload t ev ~depth app params =
  let p = Request.bind ev app params in
  let degraded = depth >= t.cfg.degrade_depth || nn_fallback_tripped t in
  if degraded then Obs.count "serve.degraded";
  Request.estimate_json (Request.estimate_bound ~degraded ev p)

let estimate_reply t req ~depth =
  let id = req.P.q_id in
  let ev = Lazy.force t.eval in
  P.ok ~id (estimate_payload t ev ~depth (app_name req) req.P.q_params)

(* The whole batch runs under the request's one deadline, checked before
   each item: items reached in time estimate (through the shared cache),
   later ones answer per-item [deadline_exceeded] — the batch reply
   itself still succeeds, carrying one typed entry per spec in request
   order. A bad spec (unknown benchmark, bad parameters, a stage that
   fails) poisons only its own entry. *)
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
      (fun (app, params) ->
        if expired p then begin
          incr failed;
          item_error P.Deadline_exceeded "batch deadline expired before this item"
        end
        else
          match
            try Ok (estimate_payload t ev ~depth app params) with Failure msg -> Error msg
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

(* Lint and analyze wrap the CLI's [--json] document: lint adds [clean]
   and [errors] around the report, analyze adds [clean] to it. *)
let lint_reply req =
  let l = Request.lint (Request.point (app_name req) req.P.q_params) in
  let diags = l.Request.l_diags in
  P.ok ~id:req.P.q_id
    (Json.Obj
       [
         ("clean", Json.Bool (diags = []));
         ("errors", Json.Int (List.length (Lint.errors diags)));
         ("report", Request.lint_json l);
       ])

let analyze_reply req =
  let a = Request.analyze (Request.point (app_name req) req.P.q_params) in
  P.ok ~id:req.P.q_id
    (Json.Obj
       (("clean", Json.Bool (Request.analysis_clean a)) :: Json.obj_or_empty (Request.analysis_json a)))

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
        ~jobs:cfg.dse_jobs
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

(* Reap a finished sweep's domain. *)
let reap t sid =
  match Hashtbl.find_opt t.sweeps sid with
  | Some sw when Atomic.get sw.sw_finished ->
    Option.iter Domain.join sw.sw_domain;
    sw.sw_domain <- None;
    Hashtbl.remove t.sweeps sid
  | _ -> ()

let sweep_running t sid =
  reap t sid;
  Hashtbl.mem t.sweeps sid

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
  let app = Request.app (app_name req) in
  let spec =
    {
      Session.s_app = app.App.name;
      s_seed = Option.value req.P.q_seed ~default:2016;
      s_max_points = Option.value req.P.q_max_points ~default:2000;
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
         two domains, and this thread is the only other forcer. The sweep
         shares the supervisor's [Eval.t], so designs this server already
         proved or estimated (for any client) skip those stages. *)
      let ev = Lazy.force t.eval in
      let stop = Atomic.make false in
      let sw = { sw_stop = stop; sw_finished = Atomic.make false; sw_domain = None } in
      Hashtbl.replace t.sweeps sid sw;
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
    reap t sid;
    match Hashtbl.find_opt t.sweeps sid with
    | Some sw ->
      Atomic.set sw.sw_stop true;
      (* The sweep notices within one point; join so the final checkpoint
         is on disk before we report the post-cancel state. *)
      Option.iter Domain.join sw.sw_domain;
      sw.sw_domain <- None;
      Hashtbl.remove t.sweeps sid;
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
      t.drain_flag <- true;
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

(* A final reply is cached under its id; past [reply_cache_cap] the
   oldest is evicted, and a retry of its id runs again. *)
let finalize t id reply =
  let evicted = Fifo_table.add t.cache id reply in
  if evicted > 0 then Obs.count ~by:evicted "serve.reply_cache.evict";
  Hashtbl.remove t.crashes id;
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
      let attempt = List.length (Option.value (Hashtbl.find_opt t.crashes id) ~default:[]) in
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
        let crashes = msg :: Option.value (Hashtbl.find_opt t.crashes id) ~default:[] in
        Hashtbl.replace t.crashes id crashes;
        if List.length crashes >= t.cfg.quarantine_threshold then begin
          Obs.count "serve.quarantined";
          finalize t id
            (P.error ~chain:(List.rev crashes) ~id P.Quarantined
               (Printf.sprintf "handler crashed %d time(s); request parked" (List.length crashes)))
        end
        else process t p ~depth
    end

let deliver reply_to r = try reply_to r with _ -> ()

let run_next t =
  match Queue.take_opt t.q with
  | None -> false
  | Some p ->
    let depth = Queue.length t.q in
    let verb = P.verb_name p.p_req.P.q_verb in
    (* The reply is delivered inside the request's span, so the span
       covers what its callback spends rendering and writing it. *)
    Obs.with_request_track
      ~attrs:[ ("id", p.p_req.P.q_id); ("verb", verb) ]
      ("serve." ^ verb)
      (fun () -> deliver p.p_reply (process t p ~depth));
    true

let submit t req ~reply_to =
  let id = req.P.q_id in
  match cached t id with
  | Some r -> deliver reply_to r
  | None ->
    if t.drain_flag then
      deliver reply_to (P.error ~id P.Draining "server is draining; retry against another instance")
    else begin
      let depth = Queue.length t.q in
      if depth >= t.cfg.queue_capacity then begin
        Obs.count "serve.shed";
        deliver reply_to
          (P.error
             ~retry_after_ms:(25 * (depth + 1))
             ~id P.Overloaded
             (Printf.sprintf "pending queue is full (%d request(s))" depth))
      end
      else begin
        Queue.push { p_req = req; p_arrival = Unix.gettimeofday (); p_reply = reply_to } t.q;
        Obs.count "serve.admitted"
      end
    end

let drain t =
  t.drain_flag <- true;
  while run_next t do
    ()
  done;
  (* Cancel any sweep still running; each truncates at its next point and
     writes a final checkpoint, leaving the session resumable. *)
  Hashtbl.iter (fun _ sw -> Atomic.set sw.sw_stop true) t.sweeps;
  Hashtbl.iter
    (fun _ sw ->
      Option.iter Domain.join sw.sw_domain;
      sw.sw_domain <- None)
    t.sweeps;
  Hashtbl.reset t.sweeps
