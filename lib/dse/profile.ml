module Texttable = Dhdl_util.Texttable

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
  workers : worker list;
  collector : collector;
  max_reorder_occupancy : int;
}

let worker_seconds t = List.fold_left (fun acc w -> acc +. w.w_wall_s) 0.0 t.workers

(* Fractions are taken over the sum of the six accounted categories (not
   raw wall) so that work + contention + stall = 1 exactly even when clock
   granularity makes the categories sum to slightly more or less than the
   measured wall time. Cache probes count as work: they replace the
   analysis/estimation they memoize. *)
let accounted t =
  List.fold_left
    (fun acc w ->
      acc +. w.w_generate_s +. w.w_probe_s +. w.w_analyze_s +. w.w_estimate_s +. w.w_send_block_s
      +. w.w_idle_s)
    0.0 t.workers

let frac t part = if accounted t > 0.0 then part /. accounted t else 0.0

let work_fraction t =
  frac t
    (List.fold_left
       (fun acc w -> acc +. w.w_generate_s +. w.w_probe_s +. w.w_analyze_s +. w.w_estimate_s)
       0.0 t.workers)

let contention_fraction t =
  frac t (List.fold_left (fun acc w -> acc +. w.w_send_block_s) 0.0 t.workers)

let stall_fraction t = frac t (List.fold_left (fun acc w -> acc +. w.w_idle_s) 0.0 t.workers)

(* The resources a sweep can contend on, with the seconds lost to each:
   the record lock workers wait for (send block), and the checkpoint
   write that whoever holds it may be doing. *)
let contenders t =
  [
    ("record lock", List.fold_left (fun a w -> a +. w.w_send_block_s) 0.0 t.workers);
    ("checkpoint write", t.collector.c_write_s);
  ]

let top_contender t =
  List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
    ("none", 0.0) (contenders t)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "profile: jobs=%d, wall %.3f s, worker-seconds %.3f\n" t.jobs t.wall_s
       (worker_seconds t));
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
    "{\"jobs\":%d,\"wall_s\":%.6f,\"worker_seconds\":%.6f,\"work_frac\":%.6f,\"contention_frac\":%.6f,\"stall_frac\":%.6f,\"top_contender\":\"%s\",\"top_contender_s\":%.6f,\"workers\":[%s],\"collector\":{\"wall_s\":%.6f,\"write_s\":%.6f,\"merge_s\":%.6f},\"max_reorder_occupancy\":%d}"
    t.jobs t.wall_s (worker_seconds t) (work_fraction t) (contention_fraction t)
    (stall_fraction t) top_name top_s
    (String.concat "," (List.map worker_json t.workers))
    c.c_wall_s c.c_write_s c.c_merge_s t.max_reorder_occupancy
