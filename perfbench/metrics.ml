(* The benchmark's metric tables and its one-line JSON result.

   Every workload prints every metric of the table its mode selects: the
   end-to-end table without tracing, the per-layer table with it. A layer a
   workload never enters reads 0 there. BENCHMARK.json lists the same names
   and units; test_perfbench checks that the two agree. *)

type spec = { name : string; unit : string }

let spec (name, unit) = { name; unit }

let end_to_end =
  List.map spec
    [
      ("setup_s", "s");
      ("points_per_s", "points/s");
      ("req_per_s", "req/s");
      ("req_p50_ms", "ms");
      ("req_p99_ms", "ms");
      ("ok_pct", "%");
      ("peak_rss_mb", "MB");
      ("alm_err_pct", "%");
      ("dsp_err_pct", "%");
      ("bram_err_pct", "%");
      ("cycles_err_pct", "%");
    ]

let per_layer =
  List.map spec
    [
      ("setup.characterize_s", "s");
      ("setup.train_s", "s");
      ("symgate.derives", "count");
      ("symgate.derive_s", "s");
      ("symgate.verdicts", "count");
      ("symgate.verdict_s", "s");
      ("symgate.refuted_ratio", "ratio");
      ("generate.calls", "count");
      ("generate.s", "s");
      ("generate.evaluated_ratio", "ratio");
      ("design_key.calls", "count");
      ("design_key.s", "s");
      ("eval.hits", "count");
      ("eval.misses", "count");
      ("eval.hit_ratio", "ratio");
      ("eval.probe_s", "s");
      ("lint.calls", "count");
      ("lint.s", "s");
      ("absint.calls", "count");
      ("absint.s", "s");
      ("absint.refuted_ratio", "ratio");
      ("dependence.calls", "count");
      ("dependence.s", "s");
      ("dependence.refuted_ratio", "ratio");
      ("estimator.calls", "count");
      ("estimator.us_per_design", "us");
      ("area_model.s", "s");
      ("nn_correction.s", "s");
      ("cycle_model.s", "s");
      ("checkpoint.writes", "count");
      ("checkpoint.bytes", "bytes");
      ("checkpoint.s", "s");
      ("explore.self_s", "s");
      ("serve.connections", "count");
      ("serve.rtt_s", "s");
      ("serve.codec_s", "s");
      ("serve.self_s", "s");
      ("serve.fail.no_reply", "count");
      ("serve.fail.bad_reply", "count");
      ("serve.fail.typed", "count");
      ("gc.minor_words", "words");
      ("gc.major_collections", "count");
      ("trace.untraced_s", "s");
      ("trace.unattributed_s", "s");
      ("trace.overhead_s", "s");
    ]

let is_alnum c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* A name starts with a letter or digit and holds at most 64 letters,
   digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* A unit holds 1 to 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-') s

let number v =
  if not (Float.is_finite v) then invalid_arg (Printf.sprintf "Metrics.number: %h" v);
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line. [values] must give exactly the metrics of [specs]. *)
let render ~correct ~attempted ~failed specs values =
  let missing = List.filter (fun s -> not (List.mem_assoc s.name values)) specs in
  let extra = List.filter (fun (n, _) -> not (List.exists (fun s -> s.name = n) specs)) values in
  (match (missing, extra) with
  | [], [] -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics.render: missing [%s], unexpected [%s]"
         (String.concat " " (List.map (fun s -> s.name) missing))
         (String.concat " " (List.map fst extra))));
  let metric s =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name
      (number (List.assoc s.name values))
      s.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map metric specs))
