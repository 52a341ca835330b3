(* Tests of the benchmark's own helpers: percentile selection, metric
   names, seeded inputs, host-speed scaling and the replay check. *)

module Pstats = Perfbench.Pstats
module Metrics = Perfbench.Metrics
module Inputs = Perfbench.Inputs
module Replay = Perfbench.Replay
module Speed = Perfbench.Speed
module Registry = Dhdl_apps.Registry
module Estimator = Dhdl_model.Estimator
module Eval = Dhdl_dse.Eval
module Explore = Dhdl_dse.Explore
module Outcome = Dhdl_dse.Outcome
module Checkpoint = Dhdl_dse.Checkpoint
module Json = Dhdl_serve.Json

let test_percentiles () =
  let check name exp got = Alcotest.(check int) name exp got in
  check "p99 of 1000 leaves 10 beyond" 10 (Pstats.beyond ~n:1000 990);
  check "p99 of 999 leaves 9 beyond" 9 (Pstats.beyond ~n:999 990);
  check "p99 of 1010 leaves 10 beyond" 10 (Pstats.beyond ~n:1010 990);
  check "p50 of 4 is the second sample" 2 (Pstats.rank ~n:4 500);
  Alcotest.(check (option int)) "1000 samples support p99" (Some 990)
    (Pstats.highest_with_tail 1000);
  Alcotest.(check (option int)) "999 samples fall back to p95" (Some 950)
    (Pstats.highest_with_tail 999);
  Alcotest.(check (option int)) "10000 samples support p99.9" (Some 999)
    (Pstats.highest_with_tail 10_000);
  Alcotest.(check (option int)) "15 samples support nothing" None
    (Pstats.highest_with_tail 15);
  let sorted = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 (Pstats.percentile sorted 990);
  Alcotest.(check (float 0.0)) "median of 3,1,2" 2.0 (Pstats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "median of 4,1,3,2" 2.5 (Pstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "mean of 1,2,6" 3.0 (Pstats.mean [ 1.0; 2.0; 6.0 ])

let test_metric_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("name " ^ s.Metrics.name) true (Metrics.valid_name s.Metrics.name);
      Alcotest.(check bool) ("unit " ^ s.Metrics.unit) true (Metrics.valid_unit s.Metrics.unit))
    (Metrics.end_to_end @ Metrics.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects name " ^ bad) false (Metrics.valid_name bad))
    [ ""; "_x"; ".x"; "a b"; "p99/ms"; String.make 65 'a'; "é" ];
  List.iter
    (fun bad -> Alcotest.(check bool) ("rejects unit " ^ bad) false (Metrics.valid_unit bad))
    [ ""; "m s"; "points per s"; String.make 17 's' ];
  let names = List.map (fun s -> s.Metrics.name) (Metrics.end_to_end @ Metrics.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* BENCHMARK.json declares exactly the metrics the bench prints. *)
let test_benchmark_json () =
  let doc =
    match Json.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  in
  let declared key =
    match Option.bind (Json.member key doc) Json.to_list with
    | None -> Alcotest.fail ("BENCHMARK.json lacks " ^ key)
    | Some l ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> Alcotest.fail ("malformed metric in " ^ key))
        l
  in
  let ours specs = List.map (fun s -> (s.Metrics.name, s.Metrics.unit)) specs in
  Alcotest.(check (list (pair string string))) "end_to_end" (ours Metrics.end_to_end) (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" (ours Metrics.per_layer) (declared "per_layer")

let test_render () =
  let line =
    Metrics.render ~correct:true ~attempted:3 ~failed:1
      [ { Metrics.name = "a_s"; unit = "s" }; { Metrics.name = "n"; unit = "count" } ]
      [ ("n", 7.0); ("a_s", 0.125) ]
  in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a_s\": {\"value\": 0.125, \
     \"unit\": \"s\"}, \"n\": {\"value\": 7, \"unit\": \"count\"}}}"
    line;
  Alcotest.check_raises "missing metric" (Invalid_argument "Metrics.render: missing [n], unexpected []")
    (fun () ->
      ignore
        (Metrics.render ~correct:true ~attempted:1 ~failed:0
           [ { Metrics.name = "n"; unit = "count" } ]
           []))

let test_inputs_deterministic () =
  let gda = Registry.find "gda" in
  let pts seed = Inputs.sweep_points ~seed ~n:200 gda in
  Alcotest.(check bool) "same seed, same points" true (pts 5 = pts 5);
  Alcotest.(check bool) "other seed, other points" false (pts 5 = pts 6);
  let script seed = Inputs.script ~seed ~n:1000 in
  Alcotest.(check bool) "same seed, same script" true (script 5 = script 5);
  Alcotest.(check bool) "other seed, other script" false (script 5 = script 6);
  let s = script 5 in
  let share cls = List.length (List.filter (fun q -> q.Inputs.cls = cls) s) in
  Alcotest.(check (list int)) "class mix per 1000 requests" [ 550; 150; 100; 100; 100 ]
    (List.map share Inputs.[ Estimate_new; Estimate_repeat; Batch; Lint; Analyze ]);
  List.iter
    (fun q ->
      let expect = if q.Inputs.cls = Inputs.Batch then Inputs.batch_size else 1 in
      Alcotest.(check int) "specs per request" expect (List.length q.Inputs.specs))
    s;
  Alcotest.(check (list int)) "indices" (List.init 1000 Fun.id) (List.map (fun q -> q.Inputs.index) s);
  (* Long enough to use up blackscholes' 624 legal points. *)
  let news =
    List.filter_map
      (fun q -> if q.Inputs.cls = Inputs.Estimate_new then Some (List.hd q.Inputs.specs) else None)
      (Inputs.script ~seed:5 ~n:12_000)
  in
  Alcotest.(check int) "new estimates never repeat a point" (List.length news)
    (List.length (List.sort_uniq compare news))

(* A unit's factor is the reference over the median of the probes around
   it, so one slow probe next to it does not move it, and the window stops
   at the ends of the probe record. *)
let test_speed_factor () =
  let quiet = Speed.reference_s and slow = 2.0 *. Speed.reference_s in
  let sp =
    { Speed.times = [| quiet; quiet; quiet; 10.0 *. quiet; quiet; quiet; quiet; slow; slow; slow; slow; slow; 0.0 |]; n = 12 }
  in
  let close = Alcotest.(check (float 1e-12)) in
  close "a spike beside the unit is ignored" 1.0 (Speed.factor sp { Speed.wall = 1.0; after = 3 });
  close "first unit" 1.0 (Speed.factor sp { Speed.wall = 1.0; after = 1 });
  close "a slow phase halves the scaled time" 1.5 (Speed.scaled sp { Speed.wall = 3.0; after = 10 });
  close "last unit" 0.5 (Speed.factor sp { Speed.wall = 1.0; after = 11 });
  let sp = Speed.create () in
  let v, st = Speed.time sp (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "stamp points at the probe after the unit" (sp.Speed.n - 1) st.Speed.after;
  Alcotest.(check bool) "positive factor" true (Speed.factor sp st > 0.0)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:40 ~epochs:60 ())

(* A small real sweep whose checkpoint the replay must reproduce — and must
   reject once one entry is tampered with. *)
let test_replay_check () =
  let est = Lazy.force estimator in
  let app = Registry.find "dotproduct" in
  let dir = Filename.temp_dir ~temp_dir:Filename.current_dir_name "replay" "" in
  let path = Filename.concat dir "run.jsonl" in
  let seed = 3 and max_points = 40 in
  let cfg = Explore.Config.make ~seed ~max_points ~checkpoint:path ~checkpoint_every:8 () in
  let r = Explore.run cfg (Eval.create est) ~space:(Inputs.space app) ~generate:(Inputs.generate app) in
  let expected =
    match Checkpoint.load ~path with
    | Ok c -> Array.of_list (List.map snd c.Checkpoint.entries)
    | Error e -> Alcotest.fail e
  in
  let replay expected =
    let m = Replay.mirror () in
    let result =
      Replay.sweep (Replay.tally ()) m est
        {
          Replay.app;
          seed;
          max_points;
          checkpoint_every = 8;
          checkpoint_path = Filename.concat dir "replay.jsonl";
          expected;
        }
    in
    (result, m)
  in
  (match replay expected with
  | Ok (), m ->
    Alcotest.(check (pair int int)) "cache hits and misses as Explore.run counted"
      (r.Explore.cache_hits, r.Explore.cache_misses) (m.Replay.hits, m.Replay.misses);
    Alcotest.(check string) "replay checkpoint bytes"
      (In_channel.with_open_bin path In_channel.input_all)
      (In_channel.with_open_bin (Filename.concat dir "replay.jsonl") In_channel.input_all)
  | Error msg, _ -> Alcotest.fail msg);
  let i =
    match
      List.find_opt (fun i -> match expected.(i) with Outcome.Evaluated _ -> true | _ -> false)
        (List.init (Array.length expected) Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "sweep evaluated no point"
  in
  let tampered kind =
    let t = Array.copy expected in
    t.(i) <- kind;
    t
  in
  (match expected.(i) with
  | Outcome.Evaluated e ->
    let worse =
      Outcome.Evaluated
        { e with Outcome.estimate = { e.Outcome.estimate with Estimator.cycles = e.Outcome.estimate.Estimator.cycles +. 1.0 } }
    in
    List.iter
      (fun (what, entry) ->
        match replay (tampered entry) with
        | Error _, _ -> ()
        | Ok (), _ -> Alcotest.failf "replay accepted a %s entry" what)
      [ ("pruned", Outcome.Pruned); ("sym-pruned", Outcome.Sym_pruned); ("re-estimated", worse) ]
  | _ -> assert false);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Alcotest.run "perfbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile selection" `Quick test_percentiles;
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
          Alcotest.test_case "result line" `Quick test_render;
          Alcotest.test_case "seeded inputs deterministic" `Quick test_inputs_deterministic;
          Alcotest.test_case "host-speed scaling" `Quick test_speed_factor;
          Alcotest.test_case "replay check" `Quick test_replay_check;
        ] );
    ]
