module Texttable = Dhdl_util.Texttable
module Obs = Dhdl_obs.Obs

type worker = {
  w_domain : int;
  w_points : int;
  w_wall_s : float;
  w_generate_s : float;
  w_probe_s : float;
  w_analyze_s : float;
  w_estimate_s : float;
  w_send_block_s : float;
  w_idle_s : float;
}

type collector = {
  c_wall_s : float;
  c_write_s : float;
  c_merge_s : float;
}

type t = {
  jobs : int;
  wall_s : float;
  setup_s : float;
  workers : worker list;
  collector : collector;
  max_reorder_occupancy : int;
}

(* ---- reading the spans ------------------------------------------------ *)

let end_us sp = sp.Obs.sp_start_us +. sp.Obs.sp_dur_us

(* [sp] starts inside [outer]'s interval on [outer]'s track. *)
let inside outer sp =
  sp != outer
  && sp.Obs.sp_track = outer.Obs.sp_track
  && sp.Obs.sp_start_us >= outer.Obs.sp_start_us
  && sp.Obs.sp_start_us <= end_us outer

let seconds name spans =
  List.fold_left
    (fun acc sp -> if sp.Obs.sp_name = name then acc +. sp.Obs.sp_dur_us else acc)
    0.0 spans
  /. 1e6

let count name spans = List.length (List.filter (fun sp -> sp.Obs.sp_name = name) spans)

let attr_int key sp = Option.bind (List.assoc_opt key sp.Obs.sp_attrs) int_of_string_opt

(* One worker's lanes, from the spans on its track inside its [dse.worker]
   span. The point spans hold the generate, analyze and estimate spans
   and nothing else that is timed; the probe lane is the rest of them. *)
let worker_of spans w =
  let mine = List.filter (inside w) spans in
  let generate = seconds "eval.generate" mine
  and analyze = seconds "eval.analyze" mine
  and estimate = seconds "estimate" mine
  and send_block = seconds "dse.lock_wait" mine in
  let probe = Float.max 0.0 (seconds "dse.point" mine -. generate -. analyze -. estimate) in
  let wall = (w.Obs.sp_dur_us /. 1e6) -. seconds "dse.record" mine in
  {
    w_domain = Option.value ~default:w.Obs.sp_track (attr_int "worker" w);
    w_points = count "dse.point" mine;
    w_wall_s = wall;
    w_generate_s = generate;
    w_probe_s = probe;
    w_analyze_s = analyze;
    w_estimate_s = estimate;
    w_send_block_s = send_block;
    w_idle_s = Float.max 0.0 (wall -. generate -. probe -. analyze -. estimate -. send_block);
  }

let of_snapshot (snap : Obs.snapshot) =
  let latest acc sp =
    match acc with
    | Some r when r.Obs.sp_start_us > sp.Obs.sp_start_us -> acc
    | _ -> if sp.Obs.sp_name = "dse.run" then Some sp else acc
  in
  match List.fold_left latest None snap.Obs.snap_spans with
  | None -> None
  | Some run ->
    let spans =
      List.filter
        (fun sp -> sp.Obs.sp_start_us >= run.Obs.sp_start_us && sp.Obs.sp_start_us <= end_us run)
        snap.Obs.snap_spans
    in
    (* The run's own children: setup and the final checkpoint flush. *)
    let own =
      List.filter (fun sp -> inside run sp && sp.Obs.sp_depth = run.Obs.sp_depth + 1) spans
    in
    let workers =
      List.filter (fun sp -> sp.Obs.sp_name = "dse.worker") spans
      |> List.map (worker_of spans)
      |> List.sort (fun a b -> compare a.w_domain b.w_domain)
    in
    let c_wall = seconds "dse.record" spans +. seconds "dse.checkpoint" own in
    let c_write = seconds "dse.checkpoint" spans in
    Some
      {
        jobs = Option.value ~default:(List.length workers) (attr_int "jobs" run);
        wall_s = run.Obs.sp_dur_us /. 1e6;
        setup_s =
          List.fold_left
            (fun acc name -> acc +. seconds name own)
            0.0
            [ "dse.sample"; "dse.resume"; "dse.symgate"; "dse.pareto" ];
        workers;
        collector =
          { c_wall_s = c_wall; c_write_s = c_write; c_merge_s = Float.max 0.0 (c_wall -. c_write) };
        max_reorder_occupancy =
          (match List.assoc_opt "dse.reorder.max_occupancy" snap.Obs.snap_gauges with
          | Some v -> int_of_float v
          | None -> 0);
      }

(* ---- derived figures -------------------------------------------------- *)

let sum f t = List.fold_left (fun acc w -> acc +. f w) 0.0 t.workers
let worker_seconds = sum (fun w -> w.w_wall_s)

(* Cache probes count as work: they replace the analysis/estimation they
   memoize. *)
let work w = w.w_generate_s +. w.w_probe_s +. w.w_analyze_s +. w.w_estimate_s

(* Fractions are taken over the sum of the six accounted categories (not
   raw wall) so that work + contention + stall = 1 exactly even when clock
   granularity makes the categories sum to slightly more or less than the
   measured wall time. *)
let frac t f =
  let accounted = sum (fun w -> work w +. w.w_send_block_s +. w.w_idle_s) t in
  if accounted > 0.0 then sum f t /. accounted else 0.0

let work_fraction t = frac t work
let contention_fraction t = frac t (fun w -> w.w_send_block_s)
let stall_fraction t = frac t (fun w -> w.w_idle_s)

(* The resource the sweep lost the most seconds to: the record lock
   workers wait for (send block), or the checkpoint write that whoever
   holds it may be doing. *)
let top_contender t =
  List.fold_left
    (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("none", 0.0)
    [ ("record lock", sum (fun w -> w.w_send_block_s) t); ("checkpoint write", t.collector.c_write_s) ]

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile: jobs=%d, wall %.3f s, setup %.3f s, worker-seconds %.3f\n" t.jobs
       t.wall_s t.setup_s (worker_seconds t));
  Buffer.add_string buf
    (Printf.sprintf "  attribution: work %s  contention %s  stall %s\n" (pct (work_fraction t))
       (pct (contention_fraction t))
       (pct (stall_fraction t)));
  let name, secs = top_contender t in
  Buffer.add_string buf (Printf.sprintf "  top contended resource: %s (%.4f s)\n" name secs);
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Texttable.render
       ~header:
         [ "worker"; "points"; "wall s"; "generate s"; "cache-probe s"; "lint/absint s";
           "estimate s"; "send-block s"; "idle s" ]
       (List.map
          (fun w ->
            [ Printf.sprintf "w%d" w.w_domain; string_of_int w.w_points;
              Printf.sprintf "%.4f" w.w_wall_s; Printf.sprintf "%.4f" w.w_generate_s;
              Printf.sprintf "%.4f" w.w_probe_s; Printf.sprintf "%.4f" w.w_analyze_s;
              Printf.sprintf "%.4f" w.w_estimate_s; Printf.sprintf "%.4f" w.w_send_block_s;
              Printf.sprintf "%.4f" w.w_idle_s ])
          t.workers));
  let c = t.collector in
  Buffer.add_string buf
    (Printf.sprintf
       "  collector: %.4f s recording under the record lock — checkpoint write %.4f s, merge \
        %.4f s; at most %d chunk(s) parked\n"
       c.c_wall_s c.c_write_s c.c_merge_s t.max_reorder_occupancy);
  Buffer.contents buf

let worker_json w =
  Printf.sprintf
    "{\"domain\":%d,\"points\":%d,\"wall_s\":%.6f,\"generate_s\":%.6f,\"probe_s\":%.6f,\"analyze_s\":%.6f,\"estimate_s\":%.6f,\"send_block_s\":%.6f,\"idle_s\":%.6f}"
    w.w_domain w.w_points w.w_wall_s w.w_generate_s w.w_probe_s w.w_analyze_s w.w_estimate_s
    w.w_send_block_s w.w_idle_s

let to_json t =
  let c = t.collector in
  let top_name, top_s = top_contender t in
  Printf.sprintf
    "{\"jobs\":%d,\"wall_s\":%.6f,\"setup_s\":%.6f,\"worker_seconds\":%.6f,\"work_frac\":%.6f,\"contention_frac\":%.6f,\"stall_frac\":%.6f,\"top_contender\":\"%s\",\"top_contender_s\":%.6f,\"workers\":[%s],\"collector\":{\"wall_s\":%.6f,\"write_s\":%.6f,\"merge_s\":%.6f},\"max_reorder_occupancy\":%d}"
    t.jobs t.wall_s t.setup_s (worker_seconds t) (work_fraction t) (contention_fraction t)
    (stall_fraction t) top_name top_s
    (String.concat "," (List.map worker_json t.workers))
    c.c_wall_s c.c_write_s c.c_merge_s t.max_reorder_occupancy
