(* Tests for the design-space exploration layer: parameter spaces, the
   pruning heuristics, sampling, and Pareto extraction over estimates. *)

module Space = Dhdl_dse.Space
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Estimator = Dhdl_model.Estimator
module Pareto = Dhdl_util.Pareto
module App = Dhdl_apps.App

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_space =
  Space.make ~name:"toy"
    ~dims:[ ("a", [ 1; 2; 3 ]); ("b", [ 10; 20 ]); ("c", [ 0; 1 ]) ]
    ~legal:(fun p -> App.get p "a" 0 + App.get p "c" 0 <> 4)
    ()

let test_raw_size () = check_int "3*2*2" 12 (Space.raw_size small_space)

let test_enumerate () =
  let pts = Space.enumerate small_space in
  (* a=3, c=1 is illegal: 12 - 2 = 10 points. *)
  check_int "legal points" 10 (List.length pts);
  check_bool "all legal" true (List.for_all (fun p -> App.get p "a" 0 + App.get p "c" 0 <> 4) pts);
  check_bool "all distinct" true (List.length (List.sort_uniq compare pts) = 10)

let test_point_order () =
  let pts = Space.enumerate small_space in
  List.iter
    (fun p -> Alcotest.(check (list string)) "param order" [ "a"; "b"; "c" ] (List.map fst p))
    pts

let test_sample_small_space_full () =
  let pts = Space.sample small_space ~seed:1 ~max_points:100 in
  check_int "full enumeration" 10 (List.length pts)

let test_sample_deterministic () =
  let big =
    Space.make ~name:"big"
      ~dims:(List.init 6 (fun i -> (Printf.sprintf "p%d" i, [ 1; 2; 3; 4; 5; 6; 7; 8 ])))
      ()
  in
  let a = Space.sample big ~seed:9 ~max_points:500 in
  let b = Space.sample big ~seed:9 ~max_points:500 in
  check_bool "same sample" true (a = b);
  check_int "requested size" 500 (List.length a);
  check_bool "distinct" true (List.length (List.sort_uniq compare a) = 500);
  let c = Space.sample big ~seed:10 ~max_points:500 in
  check_bool "different seed differs" true (a <> c)

let test_sample_hostile_legality () =
  (* A space where almost everything is illegal still terminates. *)
  let hostile =
    Space.make ~name:"hostile"
      ~dims:[ ("a", List.init 100 (fun i -> i)); ("b", List.init 100 (fun i -> i)) ]
      ~legal:(fun p -> App.get p "a" 0 = 0 && App.get p "b" 0 = 0)
      ()
  in
  let pts = Space.sample hostile ~seed:3 ~max_points:50 in
  check_bool "terminates with few points" true (List.length pts <= 1)

(* [Space.sample] decodes each draw from arrays built once per call; it
   must draw exactly the points the old [List.nth] decoder drew, kept
   verbatim in oracle/space_oracle.ml. *)
let random_space =
  let open QCheck.Gen in
  let dims =
    int_range 1 5 >>= fun n ->
    list_repeat n (list_size (int_range 1 9) (int_range (-50) 1000))
  in
  map
    (fun (domains, m, (seed, max_points)) ->
      let space =
        Space.make ~name:"random"
          ~dims:(List.mapi (fun i vs -> (Printf.sprintf "d%d" i, vs)) domains)
          ~legal:(fun p -> Hashtbl.hash p mod m <> 0)
          ()
      in
      (space, seed, max_points))
    (triple dims (int_range 1 4) (pair (int_range 0 10_000) (int_range 1 200)))

let prop_sample_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"sample and decoder = the List.nth decoder"
    (QCheck.make
       ~print:(fun (sp, seed, n) ->
         Printf.sprintf "dims=%s seed=%d max_points=%d"
           (String.concat ";"
              (List.map
                 (fun (k, vs) -> k ^ "=" ^ String.concat "," (List.map string_of_int vs))
                 (Space.dims sp)))
           seed n)
       random_space)
    (fun (sp, seed, max_points) ->
      let decode = Space.decoder sp in
      let total = Space.raw_size sp in
      let rng = Dhdl_util.Rng.create seed in
      List.for_all
        (fun _ ->
          let idx = Dhdl_util.Rng.int rng total in
          decode idx = Space_oracle.point_at sp idx)
        (List.init 20 Fun.id)
      && Space.sample sp ~seed ~max_points = Space_oracle.sample sp ~seed ~max_points)

let test_sample_registry_matches_oracle () =
  List.iter
    (fun (a : App.t) ->
      let sp = a.App.space a.App.paper_sizes in
      List.iter
        (fun seed ->
          check_bool
            (Printf.sprintf "%s seed %d draws the oracle's points" a.App.name seed)
            true
            (Space.sample sp ~seed ~max_points:1000 = Space_oracle.sample sp ~seed ~max_points:1000))
        [ 1; 7; 11; 2016; 0x5eed ])
    Dhdl_apps.Registry.all

let test_family () =
  check_bool "a space made without sizes has no family" true (Space.family small_space = None);
  let a = Dhdl_apps.Registry.find "gda" in
  let key sizes = Option.map (fun f -> Space.point_key f [ ("tile", 8) ]) (Space.family (a.App.space sizes)) in
  check_bool "an app's space has a family" true (key a.App.paper_sizes <> None);
  check_bool "sizes tell families apart" true (key a.App.paper_sizes <> key a.App.test_sizes);
  check_bool "one family per name and sizes" true (key a.App.paper_sizes = key a.App.paper_sizes)

let test_divisor_helpers () =
  Alcotest.(check (list int)) "divisors_for" [ 1; 2; 4; 8 ] (Space.divisors_for 8);
  check_bool "par candidates capped" true (List.for_all (fun p -> p <= 64) (Space.par_candidates 1024))

let test_mem_limit () = check_bool "64k words" true (Space.mem_limit_words = 65_536)

(* ------------------------- Explore --------------------------------- *)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:80 ~epochs:150 ())

let run_explore () =
  let app = Dhdl_apps.Registry.find "dotproduct" in
  let sizes = [ ("n", 65_536) ] in
  Explore.run
    Explore.Config.(default |> with_seed 11 |> with_max_points 120)
    (Eval.create (Lazy.force estimator))
    ~space:(app.App.space sizes)
    ~generate:(fun p -> app.App.generate ~sizes ~params:p)

let result = lazy (run_explore ())

let test_explore_counts () =
  let r = Lazy.force result in
  check_int "one outcome per sampled point" r.Explore.sampled
    (List.length r.Explore.evaluations + r.Explore.lint_pruned + Explore.failed_count r);
  check_int "clean sweep has no failures" 0 (Explore.failed_count r);
  check_int "processed everything" r.Explore.sampled r.Explore.processed;
  check_bool "not truncated" false r.Explore.truncated;
  check_int "nothing resumed" 0 r.Explore.resumed;
  check_bool "sampled something" true (r.Explore.sampled > 20);
  check_bool "timing recorded" true (r.Explore.elapsed_seconds > 0.0);
  check_bool "per-design seconds" true (Explore.seconds_per_design r > 0.0)

(* Satellite: failed points must not count as "estimated" — neither in the
   Table IV ms/design denominator nor in the unfit count. *)
let test_metrics_exclude_failed_points () =
  Fun.protect ~finally:Dhdl_util.Faults.reset @@ fun () ->
  Dhdl_util.Faults.configure ~seed:9 ~p:0.0 ();
  Dhdl_util.Faults.set_site "dse.generator" 0.3;
  let r = run_explore () in
  check_bool "some failures" true (Explore.failed_count r > 0);
  check_bool "some evaluations" true (r.Explore.evaluations <> []);
  let estimated = List.length r.Explore.evaluations in
  check_bool "denominator is successful estimates only" true
    (abs_float
       (Explore.seconds_per_design r -. (r.Explore.elapsed_seconds /. float_of_int estimated))
    < 1e-12);
  check_bool "unfit counts only evaluated points" true (Explore.unfit_count r <= estimated);
  check_int "accounting"
    r.Explore.sampled
    (estimated + r.Explore.lint_pruned + Explore.failed_count r)

let test_metrics_all_points_failed () =
  Fun.protect ~finally:Dhdl_util.Faults.reset @@ fun () ->
  Dhdl_util.Faults.set_site "dse.generator" 1.0;
  let r = run_explore () in
  check_int "no evaluations" 0 (List.length r.Explore.evaluations);
  check_int "no unfit points without estimates" 0 (Explore.unfit_count r);
  Alcotest.(check (float 0.0)) "ms/design undefined, reported as 0" 0.0
    (Explore.seconds_per_design r)

let test_explore_pareto_valid () =
  let r = Lazy.force result in
  check_bool "pareto nonempty" true (r.Explore.pareto <> []);
  List.iter
    (fun (e : Explore.evaluation) -> check_bool "pareto member valid" true e.Explore.valid)
    r.Explore.pareto

let test_explore_pareto_nondominated () =
  let r = Lazy.force result in
  let proj (e : Explore.evaluation) = (e.Explore.estimate.Estimator.cycles, e.Explore.alm_pct) in
  List.iter
    (fun m ->
      check_bool "not dominated" false
        (List.exists
           (fun e -> e.Explore.valid && Pareto.dominates (proj e) (proj m))
           r.Explore.evaluations))
    r.Explore.pareto

let test_explore_best () =
  let r = Lazy.force result in
  match Explore.best r with
  | None -> Alcotest.fail "expected a best design"
  | Some b ->
    List.iter
      (fun (e : Explore.evaluation) ->
        if e.Explore.valid then
          check_bool "best is fastest" true
            (b.Explore.estimate.Estimator.cycles <= e.Explore.estimate.Estimator.cycles))
      r.Explore.evaluations

let test_explore_utilizations_recorded () =
  let r = Lazy.force result in
  List.iter
    (fun (e : Explore.evaluation) ->
      check_bool "alm pct" true (e.Explore.alm_pct >= 0.0);
      check_bool "bram pct" true (e.Explore.bram_pct >= 0.0))
    r.Explore.evaluations

let test_to_csv () =
  let r = Lazy.force result in
  let csv = Explore.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + one row per point" (r.Explore.sampled + 1) (List.length lines);
  let header = List.hd lines in
  check_bool "has cycles column" true
    (List.exists (( = ) "cycles") (String.split_on_char ',' header));
  check_bool "has param columns" true
    (List.exists (( = ) "tile") (String.split_on_char ',' header));
  (* Pareto rows are flagged. *)
  check_bool "some pareto flags" true
    (List.exists (fun l -> String.length l > 2 && String.sub l (String.length l - 2) 2 = ",1")
       (List.tl lines))

let test_pareto_of_empty () =
  Alcotest.(check int) "no valid points, no pareto" 0 (List.length (Explore.pareto_of []))

let () =
  Alcotest.run "dse"
    [
      ( "space",
        [
          Alcotest.test_case "raw size" `Quick test_raw_size;
          Alcotest.test_case "enumerate" `Quick test_enumerate;
          Alcotest.test_case "point order" `Quick test_point_order;
          Alcotest.test_case "small space full" `Quick test_sample_small_space_full;
          Alcotest.test_case "sample deterministic" `Quick test_sample_deterministic;
          Alcotest.test_case "hostile legality" `Quick test_sample_hostile_legality;
          QCheck_alcotest.to_alcotest prop_sample_matches_oracle;
          Alcotest.test_case "registry samples = oracle, 5 seeds" `Quick
            test_sample_registry_matches_oracle;
          Alcotest.test_case "families" `Quick test_family;
          Alcotest.test_case "divisor helpers" `Quick test_divisor_helpers;
          Alcotest.test_case "mem limit" `Quick test_mem_limit;
        ] );
      ( "explore",
        [
          Alcotest.test_case "counts" `Quick test_explore_counts;
          Alcotest.test_case "failed points excluded from metrics" `Quick
            test_metrics_exclude_failed_points;
          Alcotest.test_case "all points failed" `Quick test_metrics_all_points_failed;
          Alcotest.test_case "pareto valid" `Quick test_explore_pareto_valid;
          Alcotest.test_case "pareto nondominated" `Quick test_explore_pareto_nondominated;
          Alcotest.test_case "best is fastest" `Quick test_explore_best;
          Alcotest.test_case "utilizations" `Quick test_explore_utilizations_recorded;
          Alcotest.test_case "empty pareto" `Quick test_pareto_of_empty;
          Alcotest.test_case "csv export" `Quick test_to_csv;
        ] );
    ]
