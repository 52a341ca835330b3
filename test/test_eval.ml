(* The keyed Eval API: canonical design keys, the memoizing pipeline's
   extensional equality with a direct (cache-free) pipeline, byte-identical
   checkpoints across {jobs} x {cache temperature} x {sink}, warm-cache
   resume, deterministic eviction, fault-injection cache bypass, the
   symbolic-gate memo (derived once per space family, byte-identical
   either way, kept out of the per-point cache counts), and grep-level
   pins that no caller outside Eval and the request layer still wires
   Estimator.estimate, the concrete analyses or Symgate.derive into a
   pipeline by hand, and that the front ends resolve every point through
   the request layer.

   Runs under both `dune runtest` and the focused `dune build @eval`. *)

module Estimator = Dhdl_model.Estimator
module Design_key = Dhdl_model.Design_key
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Space = Dhdl_dse.Space
module Checkpoint = Dhdl_dse.Checkpoint
module Symgate = Dhdl_dse.Symgate
module Lint = Dhdl_lint.Lint
module Diag = Dhdl_ir.Diag
module Faults = Dhdl_util.Faults
module App = Dhdl_apps.App
module Obs = Dhdl_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

let app = lazy (Dhdl_apps.Registry.find "dotproduct")
let sizes = [ ("n", 65_536) ]
let space () = (Lazy.force app).App.space sizes
let generate p = (Lazy.force app).App.generate ~sizes ~params:p
let points n = Space.sample (space ()) ~seed:11 ~max_points:n

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_eval_" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_faults f = Fun.protect ~finally:Faults.reset f

let mixed_faults () =
  Faults.configure ~seed:5 ~p:0.0 ();
  List.iter (fun s -> Faults.set_site s 0.05) [ "dse.generator"; "dse.lint"; "dse.estimator" ]

(* ------------------------------------------------------------------ *)
(* Design keys                                                         *)
(* ------------------------------------------------------------------ *)

let test_key_laws () =
  let pts = points 40 in
  (* Regenerating the same point gives the same design, hence equal keys. *)
  List.iter
    (fun p ->
      let k1 = Design_key.of_design (generate p) in
      let k2 = Design_key.of_design (generate p) in
      check_bool "equal designs have equal keys" true (Design_key.equal k1 k2))
    pts;
  (* Numeric parameters (tile sizes, par factors) are bindings, not
     structure: varying them must keep the skeleton and move the binding.
     MetaPipe toggles, by contrast, change the control hierarchy and so
     may change the skeleton — that is structural by design. *)
  let base = (Lazy.force app).App.default_params sizes in
  let key_with k v =
    Design_key.of_design (generate (List.map (fun (n, x) -> if n = k then (n, v) else (n, x)) base))
  in
  let k0 = Design_key.of_design (generate base) in
  List.iter
    (fun (name, v) ->
      let k = key_with name v in
      check_str
        (Printf.sprintf "%s=%d is a binding, not structure" name v)
        (Design_key.skeleton k0) (Design_key.skeleton k);
      check_bool
        (Printf.sprintf "%s=%d moves the binding" name v)
        false
        (String.equal (Design_key.binding k0) (Design_key.binding k)))
    [ ("tile", 128); ("par", 4) ];
  let keyed = List.map (fun p -> (p, Design_key.of_design (generate p))) pts in
  List.iteri
    (fun i (pi, ki) ->
      List.iteri
        (fun j (pj, kj) ->
          if i < j && pi <> pj then
            check_bool "distinct points have distinct keys" false (Design_key.equal ki kj))
        keyed)
    keyed

let test_key_separates_outcomes () =
  (* The law the caches rely on: designs with different estimates must
     have different keys (key equality => outcome equality). *)
  let est = Lazy.force estimator in
  let pts = points 25 in
  let rows =
    List.map
      (fun p ->
        let d = generate p in
        (Design_key.to_string (Design_key.of_design d), Estimator.estimate est d))
      pts
  in
  List.iteri
    (fun i (ki, ei) ->
      List.iteri
        (fun j (kj, ej) -> if i < j && ei <> ej then
            check_bool "different estimate, different key" false (String.equal ki kj))
        rows)
    rows

let test_key_sees_structure () =
  (* Apps with different dataflow must never collide on skeleton. *)
  let sk name app_sizes =
    let a = Dhdl_apps.Registry.find name in
    let d = a.App.generate ~sizes:app_sizes ~params:(a.App.default_params app_sizes) in
    Design_key.skeleton (Design_key.of_design d)
  in
  let s1 = sk "dotproduct" sizes in
  let s2 = sk "gda" (Dhdl_apps.Registry.find "gda").App.paper_sizes in
  check_bool "different apps, different skeletons" false (String.equal s1 s2)

(* The direct-buffer key serializer writes the bytes the Printf one
   wrote, so keys (and every cache keyed by them) do not move: the 7
   apps at both size tables, 200 seeded bindings each, then generated
   designs as built and with hostile leaves mapped in (nan, infinities,
   -0., subnormals, odd dtypes, min_int / max_int). *)
let test_key_bytes_registry () =
  let keyed, bad = Serial_oracle.registry_keys ~seed:17 ~bindings:200 in
  check_bool "most sampled bindings keyed" true (keyed >= 2_000);
  Alcotest.(check (list string)) "keys equal the Printf serializer's" [] bad

let test_key_bytes_hostile () =
  let keyed, bad = Serial_oracle.corpus_keys ~seed:23 60 in
  check_int "designs keyed" 120 keyed;
  Alcotest.(check (list string)) "keys equal the Printf serializer's" [] bad

(* ------------------------------------------------------------------ *)
(* Extensional equality: cached pipeline = direct pipeline             *)
(* ------------------------------------------------------------------ *)

(* The pre-Eval inline pipeline, reconstructed: lint + absint verdict by
   diagnostic class, then estimate + fit + utilization. Any divergence
   from [Eval.evaluate] is an API-migration bug. *)
let direct_pipeline est ~index:_ point =
  match generate point with
  | exception _ -> Alcotest.fail "generator raised on a legal point"
  | design ->
    let diags = Lint.check ~dev:(Estimator.device est) design in
    let proof, heuristic =
      List.partition (fun g -> List.mem g.Diag.code Lint.proof_codes) (Lint.errors diags)
    in
    if heuristic <> [] then Outcome.Pruned
    else if proof <> [] then
      if List.for_all (fun g -> g.Diag.code = "L013") proof then Outcome.Dep_pruned
      else Outcome.Absint_pruned
    else
      let e = Estimator.estimate est design in
      let alm, dsp, bram = Estimator.utilization est e.Estimator.area in
      Outcome.Evaluated
        {
          Outcome.point;
          estimate = e;
          valid = Estimator.fits est e.Estimator.area;
          alm_pct = alm;
          dsp_pct = dsp;
          bram_pct = bram;
        }

let eval_all ev pts =
  List.mapi (fun i p -> Eval.evaluate ev ~absint:true ~index:i ~generate p) pts

let test_extensional_equality () =
  let est = Lazy.force estimator in
  let pts = points 30 in
  let direct = List.mapi (fun i p -> direct_pipeline est ~index:i p) pts in
  let cached_ev = Eval.create est in
  let cold = eval_all cached_ev pts in
  let warm = eval_all cached_ev pts in
  let off = eval_all (Eval.create ~analysis_cap:0 ~estimate_cap:0 est) pts in
  check_bool "cold cache = direct pipeline" true (cold = direct);
  check_bool "warm cache = direct pipeline" true (warm = direct);
  check_bool "cache disabled = direct pipeline" true (off = direct);
  let s = Eval.stats cached_ev in
  check_bool "warm pass hit the caches" true (s.Eval.hits > 0)

let test_warm_pass_is_all_hits () =
  let ev = Eval.create (Lazy.force estimator) in
  let pts = points 20 in
  ignore (eval_all ev pts);
  let s1 = Eval.stats ev in
  ignore (eval_all ev pts);
  let s2 = Eval.stats ev in
  check_int "no new misses when warm" s1.Eval.misses s2.Eval.misses;
  check_bool "every warm probe hit" true (s2.Eval.hits > s1.Eval.hits)

let test_eviction_is_deterministic () =
  let pts = points 25 in
  let run () = eval_all (Eval.create ~analysis_cap:0 ~estimate_cap:3 (Lazy.force estimator)) pts in
  let r1 = run () and r2 = run () in
  check_bool "tiny cache, identical outcomes" true (r1 = r2);
  let ev = Eval.create ~analysis_cap:0 ~estimate_cap:3 (Lazy.force estimator) in
  ignore (eval_all ev pts);
  check_bool "capacity 3 under 25 designs evicts" true ((Eval.stats ev).Eval.evictions > 0)

let test_faults_bypass_cache () =
  (* Armed fault sites must bypass the caches outright: the estimator's
     own nn_correction site fires under the ambient per-point key, so a
     memoized estimate would replay another point's fault decision. *)
  with_faults @@ fun () ->
  mixed_faults ();
  let ev = Eval.create (Lazy.force estimator) in
  ignore (eval_all ev (points 20));
  ignore (eval_all ev (points 20));
  let s = Eval.stats ev in
  check_int "no hits under faults" 0 s.Eval.hits;
  check_int "no misses under faults" 0 s.Eval.misses

(* ------------------------------------------------------------------ *)
(* Sweep-level identity across jobs x cache x sink                     *)
(* ------------------------------------------------------------------ *)

(* [sink] runs the sweep with the Obs sink on, every span recorded. *)
let sweep ?(jobs = 1) ?(sink = false) ?checkpoint ?(resume = false) ev =
  let cfg =
    Explore.Config.make ~seed:11 ~max_points:60 ~jobs ?checkpoint ~resume ~checkpoint_every:4
      ~tick_every:0 ()
  in
  let go () = Explore.run cfg ev ~space:(space ()) ~generate in
  if sink then begin
    Obs.enable ();
    Fun.protect ~finally:Obs.disable go
  end
  else go ()

let strip (r : Explore.result) =
  (r.Explore.evaluations, r.Explore.pareto, r.Explore.failures, r.Explore.sampled,
   r.Explore.lint_pruned, r.Explore.absint_pruned, r.Explore.dep_pruned)

let test_checkpoint_identity_matrix () =
  let est = Lazy.force estimator in
  let warm_ev = Eval.create est in
  ignore (sweep warm_ev);
  let golden = tmp "matrix_golden.jsonl" in
  let reference = sweep ~checkpoint:golden (Eval.create est) in
  let golden_bytes = read_file golden in
  let cell ~jobs ~sink temperature =
    let ev =
      match temperature with
      | `Cold -> Eval.create est
      | `Off -> Eval.create ~analysis_cap:0 ~estimate_cap:0 est
      | `Warm -> warm_ev
    in
    let cp = tmp (Printf.sprintf "matrix_j%d_s%b_%s.jsonl" jobs sink
                    (match temperature with `Cold -> "cold" | `Off -> "off" | `Warm -> "warm"))
    in
    let r = sweep ~jobs ~sink ~checkpoint:cp ev in
    check_bool
      (Printf.sprintf "results identical (jobs=%d sink=%b)" jobs sink)
      true
      (strip r = strip reference);
    check_str
      (Printf.sprintf "checkpoint bytes identical (jobs=%d sink=%b)" jobs sink)
      golden_bytes (read_file cp);
    Sys.remove cp
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun sink -> List.iter (cell ~jobs ~sink) [ `Cold; `Off; `Warm ])
        [ false; true ])
    [ 1; 4 ];
  Sys.remove golden

let test_chunked_parallel_under_faults () =
  (* The chunked engine must keep the bit-identity contract with 5%
     injected faults at every pipeline stage, whichever worker gets which
     chunk: 60 points are 4 chunks, shared by 2, 3 or 4 domains. *)
  with_faults @@ fun () ->
  let est = Lazy.force estimator in
  mixed_faults ();
  let p1 = tmp "faults_seq.jsonl" in
  let seq = sweep ~checkpoint:p1 (Eval.create est) in
  check_bool "faults actually fired" true (Explore.failed_count seq > 0);
  List.iter
    (fun jobs ->
      mixed_faults ();
      let pj = tmp (Printf.sprintf "faults_j%d.jsonl" jobs) in
      let par = sweep ~jobs ~checkpoint:pj (Eval.create est) in
      check_bool (Printf.sprintf "jobs=%d identical to jobs=1" jobs) true (strip par = strip seq);
      check_str (Printf.sprintf "jobs=%d checkpoint bytes" jobs) (read_file p1) (read_file pj);
      Sys.remove pj)
    [ 2; 3; 4 ];
  Sys.remove p1

let test_warm_resume_determinism () =
  (* Killing a sweep and resuming it on an already-warm cache must
     reconstruct the uninterrupted bytes exactly. *)
  let ev = Eval.create (Lazy.force estimator) in
  let golden = tmp "resume_golden.jsonl" and kill = tmp "resume_kill.jsonl" in
  let reference = sweep ~checkpoint:golden ev in
  (match Checkpoint.load ~path:golden with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    Checkpoint.save ~path:kill
      { c with Checkpoint.entries = List.filteri (fun i _ -> i < 25) c.Checkpoint.entries });
  let resumed = sweep ~jobs:4 ~checkpoint:kill ~resume:true ev in
  check_int "25 points reused" 25 resumed.Explore.resumed;
  check_bool "warm resume reconstructs the result" true (strip resumed = strip reference);
  check_str "warm resume reconstructs the bytes" (read_file golden) (read_file kill);
  Sys.remove golden;
  Sys.remove kill

let test_cache_counters_surfaced () =
  let est = Lazy.force estimator in
  let ev = Eval.create est in
  let cold = sweep ev in
  let warm = sweep ev in
  check_int "cold sweep has no hits" 0 cold.Explore.cache_hits;
  check_bool "cold sweep records misses" true (cold.Explore.cache_misses > 0);
  check_int "warm sweep has no misses" 0 warm.Explore.cache_misses;
  check_bool "warm sweep records hits" true (warm.Explore.cache_hits > 0);
  (* And the Obs counters mirror them when the sink is on. *)
  Obs.enable ();
  let obs_ev = Eval.create est in
  ignore (sweep obs_ev);
  ignore (sweep obs_ev);
  let snap = Obs.snapshot () in
  Obs.disable ();
  let counter name = try List.assoc name snap.Obs.snap_counters with Not_found -> 0 in
  check_bool "dse.cache.hit counted" true (counter "dse.cache.hit" > 0);
  check_bool "dse.cache.miss counted" true (counter "dse.cache.miss" > 0);
  check_int "dse.cache.evict stays zero uncapped" 0 (counter "dse.cache.evict")

(* ------------------------------------------------------------------ *)
(* Gate memo: one derivation per space family per Eval                 *)
(* ------------------------------------------------------------------ *)

(* kmeans at paper sizes: its gate refutes part of the space, so a wrong
   gate would show in the checkpoints. *)
let kmeans = lazy (Dhdl_apps.Registry.find "kmeans")
let km_space sizes = (Lazy.force kmeans).App.space sizes
let km_generate sizes p = (Lazy.force kmeans).App.generate ~sizes ~params:p
let km_paper () = (Lazy.force kmeans).App.paper_sizes

let km_sweep ?(jobs = 1) ?checkpoint ?resume ev =
  let sizes = km_paper () in
  let cfg =
    Explore.Config.make ~seed:2016 ~max_points:60 ~jobs ?checkpoint ?resume ~checkpoint_every:4
      ~tick_every:0 ()
  in
  (* A fresh closure per run, as the server and the CLI pass. *)
  Explore.run cfg ev ~space:(km_space sizes) ~generate:(fun p -> km_generate sizes p)

(* ------------------------------------------------------------------ *)
(* Outcome counters: each outcome counted once, when it is recorded    *)
(* ------------------------------------------------------------------ *)

(* Each dse.* outcome counter, beside the result's count it must equal. *)
let result_counts (r : Explore.result) =
  [
    ("dse.lint_pruned", r.Explore.lint_pruned);
    ("dse.absint_pruned", r.Explore.absint_pruned);
    ("dse.dep_pruned", r.Explore.dep_pruned);
    ("dse.sym_pruned", r.Explore.sym_pruned);
    ("dse.estimated", List.length r.Explore.evaluations);
  ]
  @ List.map
      (fun (stage, n) -> ("dse.failed." ^ Outcome.stage_name stage, n))
      (Explore.failure_counts r)

let counter_of = function
  | Outcome.Evaluated _ -> "dse.estimated"
  | Outcome.Pruned -> "dse.lint_pruned"
  | Outcome.Absint_pruned -> "dse.absint_pruned"
  | Outcome.Dep_pruned -> "dse.dep_pruned"
  | Outcome.Sym_pruned -> "dse.sym_pruned"
  | Outcome.Failed (stage, _) -> "dse.failed." ^ Outcome.stage_name stage

(* [f]'s result, the outcome counters it recorded, and its dse.resumed. *)
let with_counters f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let r = f () in
  ( r,
    List.map (fun (name, _) -> (name, Obs.counter_value name)) (result_counts r),
    Obs.counter_value "dse.resumed" )

let check_counts = Alcotest.(check (list (pair string int)))

let test_outcome_counters () =
  let est = Lazy.force estimator in
  List.iter
    (fun jobs ->
      (* kmeans at paper sizes: the gate, the proofs and the estimator
         each decide some of the points. *)
      let r, got, resumed = with_counters (fun () -> km_sweep ~jobs (Eval.create est)) in
      check_bool "gate and estimator both decide points" true
        (r.Explore.sym_pruned > 0 && r.Explore.evaluations <> []);
      check_counts (Printf.sprintf "kmeans, jobs=%d" jobs) (result_counts r) got;
      check_int "nothing resumed" 0 resumed;
      (* dotproduct under 5% faults: the failure counters. *)
      with_faults @@ fun () ->
      mixed_faults ();
      let r, got, _ = with_counters (fun () -> sweep ~jobs (Eval.create est)) in
      check_bool "faults fired" true (Explore.failed_count r > 0);
      check_counts (Printf.sprintf "dotproduct under faults, jobs=%d" jobs) (result_counts r) got)
    [ 1; 4 ];
  (* Resumed from the first half of a checkpoint, a sweep counts the
     reused half only under dse.resumed. *)
  let full = tmp "counters_full.jsonl" and half = tmp "counters_half.jsonl" in
  ignore (km_sweep ~checkpoint:full (Eval.create est));
  let c = match Checkpoint.load ~path:full with Ok c -> c | Error msg -> Alcotest.fail msg in
  let entries = c.Checkpoint.entries in
  let kept = List.filteri (fun i _ -> 2 * i < List.length entries) entries in
  let reused name = List.length (List.filter (fun (_, e) -> counter_of e = name) kept) in
  List.iter
    (fun jobs ->
      Checkpoint.save ~path:half { c with Checkpoint.entries = kept };
      let r, got, resumed =
        with_counters (fun () -> km_sweep ~jobs ~checkpoint:half ~resume:true (Eval.create est))
      in
      check_int "dse.resumed counts the reused half" (List.length kept) resumed;
      check_counts
        (Printf.sprintf "resumed, jobs=%d: only computed points" jobs)
        (List.map (fun (name, n) -> (name, n - reused name)) (result_counts r))
        got)
    [ 1; 4 ];
  Sys.remove full;
  Sys.remove half

(* The dse.symgate.hit / dse.symgate.miss counters [f] records. *)
let gate_counts f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let v = f () in
  (v, (Obs.counter_value "dse.symgate.hit", Obs.counter_value "dse.symgate.miss"))

let check_counts msg expected got = Alcotest.(check (pair int int)) msg expected got

let test_gate_memo_second_run () =
  let ev = Eval.create (Lazy.force estimator) in
  let r1, c1 = gate_counts (fun () -> km_sweep ev) in
  check_counts "first run derives (hit, miss)" (0, 1) c1;
  check_bool "the gate refutes points" true (r1.Explore.sym_pruned > 0);
  let r2, c2 = gate_counts (fun () -> km_sweep ev) in
  check_counts "second run on the same Eval derives nothing (hit, miss)" (1, 0) c2;
  check_int "same sym-pruned count" r1.Explore.sym_pruned r2.Explore.sym_pruned;
  let sizes = km_paper () in
  let g1 = Eval.gate ev ~space:(km_space sizes) ~generate:(km_generate sizes) in
  let g2 = Eval.gate ev ~space:(km_space sizes) ~generate:(fun p -> km_generate sizes p) in
  check_bool "a fresh closure gets the memoized gate" true (g1 == g2)

let test_gate_memo_checkpoint_identity () =
  let est = Lazy.force estimator in
  let warm = Eval.create est in
  ignore (km_sweep warm);
  List.iter
    (fun jobs ->
      let hit = tmp (Printf.sprintf "gate_hit_j%d.jsonl" jobs) in
      let fresh = tmp (Printf.sprintf "gate_fresh_j%d.jsonl" jobs) in
      let (), c = gate_counts (fun () -> ignore (km_sweep ~jobs ~checkpoint:hit warm)) in
      check_counts (Printf.sprintf "jobs=%d run hit the memo" jobs) (1, 0) c;
      let (), c = gate_counts (fun () -> ignore (km_sweep ~jobs ~checkpoint:fresh (Eval.create est))) in
      check_counts (Printf.sprintf "jobs=%d run derived afresh" jobs) (0, 1) c;
      check_str
        (Printf.sprintf "memo-hit and fresh-derive checkpoints identical (jobs=%d)" jobs)
        (read_file fresh) (read_file hit);
      Sys.remove hit;
      Sys.remove fresh)
    [ 1; 4 ]

let test_gate_memo_keyed_by_family () =
  (* Same space name, different sizes: two families, so the memo must not
     answer one with the other's gate. *)
  let ev = Eval.create (Lazy.force estimator) in
  let a = Lazy.force kmeans in
  let paper = km_paper () and small = a.App.test_sizes in
  check_str "both spaces share a name" (Space.name (km_space paper)) (Space.name (km_space small));
  let (g_paper, g_small), c =
    gate_counts (fun () ->
        let gp = Eval.gate ev ~space:(km_space paper) ~generate:(km_generate paper) in
        let gs = Eval.gate ev ~space:(km_space small) ~generate:(km_generate small) in
        (gp, gs))
  in
  check_counts "different sizes miss (hit, miss)" (0, 2) c;
  check_bool "and get different systems" false (Symgate.systems g_small = Symgate.systems g_paper)

(* The same space without its sizes, hence without a family: what a
   sweep sees with no point index and no gate memo. *)
let unfamilied sp = Space.make ~name:(Space.name sp) ~dims:(Space.dims sp) ~legal:(Space.legal sp) ()

let test_gate_memo_hit_runs_no_probe () =
  (* A hit is found by the family alone: no probe is generated, keyed or
     looked up in the point index. *)
  let ev = Eval.create (Lazy.force estimator) in
  let sizes = km_paper () in
  let calls = ref 0 in
  let counted p =
    incr calls;
    km_generate sizes p
  in
  let g1 = Eval.gate ev ~space:(km_space sizes) ~generate:counted in
  check_int "the miss generates every probe"
    (List.length (Symgate.probe_sample (km_space sizes)))
    !calls;
  calls := 0;
  let (g2, index_lookups), c =
    gate_counts (fun () ->
        let g = Eval.gate ev ~space:(km_space sizes) ~generate:counted in
        (g, Obs.counter_value "dse.index.hit" + Obs.counter_value "dse.index.miss"))
  in
  check_counts "the second call hits (hit, miss)" (1, 0) c;
  check_bool "and returns the memoized gate" true (g1 == g2);
  check_int "a hit calls no generator" 0 !calls;
  check_int "a hit makes no index lookup" 0 index_lookups

let test_gate_without_family () =
  let ev = Eval.create (Lazy.force estimator) in
  let sizes = km_paper () in
  let bare = unfamilied (km_space sizes) in
  let (g1, g2), c =
    gate_counts (fun () ->
        let g1 = Eval.gate ev ~space:bare ~generate:(km_generate sizes) in
        let g2 = Eval.gate ev ~space:bare ~generate:(km_generate sizes) in
        (g1, g2))
  in
  check_counts "each call derives (hit, miss)" (0, 2) c;
  check_bool "into a value of its own" false (g1 == g2);
  check_bool "with equal systems" true (Symgate.systems g1 = Symgate.systems g2)

let test_gate_memo_off_without_cache () =
  let ev = Eval.create ~analysis_cap:0 (Lazy.force estimator) in
  let sizes = km_paper () in
  let g1 = Eval.gate ev ~space:(km_space sizes) ~generate:(km_generate sizes) in
  let g2 = Eval.gate ev ~space:(km_space sizes) ~generate:(km_generate sizes) in
  check_bool "analysis_cap 0 derives every call" false (g1 == g2);
  check_bool "to the same systems" true (Symgate.systems g1 = Symgate.systems g2);
  let (), c = gate_counts (fun () -> ignore (km_sweep ev); ignore (km_sweep ev)) in
  check_counts "no memo, no hit or miss (hit, miss)" (0, 0) c

let test_gate_memo_outside_cache_stats () =
  (* Explore.result's cache counts cover the per-point caches only: one
     analysis probe per point past the gate, one estimate probe more per
     evaluated point, whether the gate was derived or memoized. *)
  let ev = Eval.create (Lazy.force estimator) in
  let probes (r : Explore.result) =
    (2 * List.length r.Explore.evaluations) + r.Explore.lint_pruned + r.Explore.absint_pruned
    + r.Explore.dep_pruned
  in
  let cold = km_sweep ev in
  check_int "cold run: hits + misses = per-point probes" (probes cold)
    (cold.Explore.cache_hits + cold.Explore.cache_misses);
  let warm = km_sweep ev in
  check_int "warm run: hits = per-point probes" (probes warm) warm.Explore.cache_hits;
  check_int "warm run: no misses" 0 warm.Explore.cache_misses;
  let before = Eval.stats ev in
  let sizes = km_paper () in
  ignore (Eval.gate ev ~space:(km_space sizes) ~generate:(km_generate sizes));
  check_bool "a gate hit leaves Eval.stats alone" true (Eval.stats ev = before)

(* ------------------------------------------------------------------ *)
(* Point index: a revisited point is answered from its binding         *)
(* ------------------------------------------------------------------ *)

let gda = lazy (Dhdl_apps.Registry.find "gda")

(* One server-style session (fresh checkpoint, resume on, a checkpoint
   every 8 points) with a generator that counts its calls: the result,
   the checkpoint bytes and the calls. *)
let counted_session ?(points = 1_000) ev ~space ~sizes name =
  let a = Lazy.force gda in
  let calls = ref 0 in
  let generate p =
    incr calls;
    a.App.generate ~sizes ~params:p
  in
  let path = tmp name in
  if Sys.file_exists path then Sys.remove path;
  let cfg =
    Explore.Config.make ~seed:7 ~max_points:points ~checkpoint:path ~checkpoint_every:8
      ~resume:true ~tick_every:0 ()
  in
  let r = Explore.run cfg ev ~space ~generate in
  let bytes = read_file path in
  Sys.remove path;
  (r, bytes, !calls)

let counts (r : Explore.result) = (r.Explore.cache_hits, r.Explore.cache_misses)

let test_index_warm_resweep () =
  let est = Lazy.force estimator in
  let a = Lazy.force gda in
  let space = a.App.space a.App.paper_sizes in
  let sizes = a.App.paper_sizes in
  let ev = Eval.create est in
  let cold, cold_bytes, cold_calls = counted_session ev ~space ~sizes "index_cold.jsonl" in
  let probes = List.length (Symgate.probe_sample space) in
  check_int "the cold fill generates every point and every probe"
    (cold.Explore.sampled - cold.Explore.sym_pruned + probes)
    cold_calls;
  let warm, warm_bytes, warm_calls = counted_session ev ~space ~sizes "index_warm.jsonl" in
  check_int "the warm re-sweep generates nothing, gate probes included" 0 warm_calls;
  (* The same two sessions with no point index. *)
  let plain = Eval.create est in
  let bare = unfamilied space in
  let _, _, _ = counted_session plain ~space:bare ~sizes "plain_cold.jsonl" in
  let pwarm, pwarm_bytes, pwarm_calls = counted_session plain ~space:bare ~sizes "plain_warm.jsonl" in
  check_int "without the index the warm re-sweep generates it all" cold_calls pwarm_calls;
  check_bool "warm result = the result without the index" true (strip warm = strip pwarm);
  check_str "warm checkpoint = the checkpoint without the index" pwarm_bytes warm_bytes;
  check_str "warm checkpoint = the cold one" cold_bytes warm_bytes;
  Alcotest.(check (pair int int)) "cache hits and misses = without the index" (counts pwarm) (counts warm)

let test_index_sizes_apart () =
  (* One Eval sweeps gda at paper and at test sizes, back and forth: each
     family's points must come back as a fresh Eval computes them. *)
  let est = Lazy.force estimator in
  let a = Lazy.force gda in
  let shared = Eval.create est in
  List.iteri
    (fun i sizes ->
      let space = a.App.space sizes in
      let got, got_bytes, _ = counted_session ~points:200 shared ~space ~sizes "sizes_shared.jsonl" in
      let want, want_bytes, _ =
        counted_session ~points:200 (Eval.create est) ~space ~sizes "sizes_fresh.jsonl"
      in
      check_bool (Printf.sprintf "run %d: result = a fresh Eval's" i) true (strip got = strip want);
      check_str (Printf.sprintf "run %d: checkpoint = a fresh Eval's" i) want_bytes got_bytes)
    [ a.App.paper_sizes; a.App.test_sizes; a.App.paper_sizes; a.App.test_sizes ]

let index_counters () =
  let snap = Obs.snapshot () in
  List.map
    (fun name -> List.assoc_opt name snap.Obs.snap_counters)
    [ "dse.index.hit"; "dse.index.miss"; "dse.index.evict" ]

let test_index_needs_a_family () =
  let est = Lazy.force estimator in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let ev = Eval.create est in
  let toy = unfamilied (space ()) in
  let run space = Explore.run (Explore.Config.make ~seed:11 ~max_points:60 ~tick_every:0 ()) ev ~space ~generate in
  ignore (run toy);
  ignore (run toy);
  Alcotest.(check (list (option int)))
    "a space without sizes registers dse.index.* at zero and never counts them"
    [ Some 0; Some 0; Some 0 ] (index_counters ());
  (* The same points under the app's family do use the index. *)
  ignore (run (space ()));
  ignore (run (space ()));
  check_bool "the app's space counts index hits" true (Obs.counter_value "dse.index.hit" > 0)

let test_index_off_under_faults () =
  with_faults @@ fun () ->
  let est = Lazy.force estimator in
  let warm = Eval.create est in
  ignore (sweep warm);
  let calls = ref 0 in
  let counted p =
    incr calls;
    generate p
  in
  let cfg path =
    Explore.Config.make ~seed:11 ~max_points:60 ~checkpoint:path ~checkpoint_every:4 ~tick_every:0 ()
  in
  (* Armed with nothing firing: every point still reaches its generator. *)
  Faults.configure ~seed:5 ~p:0.0 ();
  Obs.enable ();
  let r =
    Fun.protect ~finally:Obs.disable (fun () ->
        let r = Explore.run (cfg (tmp "armed.jsonl")) warm ~space:(space ()) ~generate:counted in
        Alcotest.(check (list (option int)))
          "no index traffic while faults are armed" [ Some 0; Some 0; Some 0 ] (index_counters ());
        r)
  in
  Sys.remove (tmp "armed.jsonl");
  check_int "the generator runs for every point" r.Explore.sampled !calls;
  (* Firing faults on a warm Eval replay what a fresh Eval sees. *)
  let under_faults ev name =
    mixed_faults ();
    let path = tmp name in
    let r = Explore.run (cfg path) ev ~space:(space ()) ~generate in
    let bytes = read_file path in
    Sys.remove path;
    (r, bytes)
  in
  let got, got_bytes = under_faults warm "faults_warm.jsonl" in
  let want, want_bytes = under_faults (Eval.create est) "faults_fresh.jsonl" in
  check_bool "faults fired" true (Explore.failed_count want > 0);
  check_bool "warm Eval under faults = fresh Eval" true (strip got = strip want);
  check_str "and its checkpoint bytes" want_bytes got_bytes

(* A generator first run after an index hit (here the analysis cache is
   off, so the hit still needs the design) fails its point as a
   generator error, as an eager generation would. *)
let test_index_lazy_generator_failure () =
  let ev = Eval.create ~analysis_cap:0 (Lazy.force estimator) in
  let p = List.hd (points 1) in
  let fail = ref false in
  let generate q = if !fail then failwith "boom" else generate q in
  let family = Space.family (space ()) in
  let run () = Eval.evaluate ev ?family ~absint:true ~index:0 ~generate p in
  check_bool "the first run does not fail" true (match run () with Outcome.Failed _ -> false | _ -> true);
  fail := true;
  match run () with
  | Outcome.Failed (Outcome.Generator_error, msg) -> check_str "its message" "Failure(\"boom\")" msg
  | _ -> Alcotest.fail "expected a generator error"

(* A served estimate, repeated alone and inside a batch, is found through
   the point index and answers the same bytes. *)
let test_index_served () =
  let module P = Dhdl_serve.Protocol in
  let module Supervisor = Dhdl_serve.Supervisor in
  let est = Lazy.force estimator in
  let root = tmp "served_sessions" in
  let sup = Supervisor.create (Supervisor.default_config ~sessions_root:root ~estimator:(Lazy.from_val est)) in
  Fun.protect ~finally:(fun () -> Supervisor.drain sup) @@ fun () ->
  let call req =
    let slot = ref None in
    Supervisor.submit sup req ~reply_to:(fun r -> slot := Some r);
    while !slot = None && Supervisor.run_next sup do () done;
    match !slot with
    | Some { P.r_body = Ok payload; _ } -> payload
    | _ -> Alcotest.failf "%s: no ok reply" req.P.q_id
  in
  let render = Dhdl_util.Json.render in
  let params = [ ("tile", 40); ("parP1", 4) ] in
  let expected =
    let module Request = Dhdl_apps.Request in
    render (Request.estimate_json (Request.estimate (Eval.create est) (Request.point "gda" params)))
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let hits () = Obs.counter_value "dse.index.hit" in
  let first = call (P.request ~id:"e1" ~app:"gda" ~params P.Estimate) in
  check_int "a first estimate misses the index" 0 (hits ());
  let again = call (P.request ~id:"e2" ~app:"gda" ~params P.Estimate) in
  check_int "a repeated estimate hits the index" 1 (hits ());
  check_str "first reply = the unindexed payload" expected (render first);
  check_str "repeated reply, same bytes" expected (render again);
  let batch =
    call (P.request ~id:"b1" ~specs:[ ("kmeans", []); ("kmeans", []) ] P.Estimate_batch)
  in
  check_int "a repeated spec within a batch hits the index" 2 (hits ());
  let single =
    let module Request = Dhdl_apps.Request in
    render (Request.estimate_json (Request.estimate (Eval.create est) (Request.point "kmeans" [])))
  in
  match Dhdl_util.Json.member "items" batch with
  | Some (Dhdl_util.Json.List [ i1; i2 ]) ->
    check_str "batch item 1 = the unindexed payload" single
      (render (Option.get (Dhdl_util.Json.member "ok" i1)));
    check_str "batch item 2, same bytes" single (render (Option.get (Dhdl_util.Json.member "ok" i2)))
  | _ -> Alcotest.fail "batch reply lacks two items"

(* ------------------------------------------------------------------ *)
(* Grep pin: Eval is the only evaluation pipeline                      *)
(* ------------------------------------------------------------------ *)

(* Shared scanner for the API-boundary pins below: find call-chain uses
   of [needle] (an ident-boundary match) in every .ml under the
   production directories, minus per-directory exemptions. Type
   annotations ([e : Estimator.estimate]) name a type, not a function; a
   match whose nearest preceding non-space character is ':' is one of
   those, not a call. *)
let scan_offenders ~needle dirs =
  let ident c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' in
  let offenders = ref [] in
  let scan_file path =
    let s = read_file path in
    let nlen = String.length needle in
    let annotation i =
      let rec back j =
        if j < 0 then false
        else if s.[j] = ' ' || s.[j] = '\n' then back (j - 1)
        else s.[j] = ':'
      in
      back (i - 1)
    in
    let rec go from =
      match String.index_from_opt s from needle.[0] with
      | None -> ()
      | Some i ->
        if i + nlen <= String.length s && String.sub s i nlen = needle then begin
          (* The trailing boundary only matters when the needle ends in an
             ident char (so "Estimator.estimate" skips "…estimates"); a
             needle ending in '.' pins a whole module's namespace. *)
          if
            ((not (ident needle.[nlen - 1]))
            || i + nlen >= String.length s
            || not (ident s.[i + nlen]))
            && (i = 0 || not (ident s.[i - 1]))
            && not (annotation i)
          then offenders := path :: !offenders;
          go (i + nlen)
        end
        else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (dir, except) ->
      match Sys.readdir dir with
      | exception Sys_error _ -> Alcotest.fail (Printf.sprintf "cannot read %s" dir)
      | names ->
        Array.iter
          (fun n ->
            if Filename.check_suffix n ".ml" && not (List.mem n except) then
              scan_file (Filename.concat dir n))
          names)
    dirs;
  List.sort_uniq compare !offenders

(* [Estimator.estimate] (the corrected-model entry point, not
   estimate_cycles / estimate_area_uncorrected / timed_estimate) may
   appear in exactly one production file: lib/dse/eval.ml. Everything
   else — the explorer, the request layer, the serve supervisor, the CLI,
   the experiment drivers, the benches, the examples — must go through
   Eval. *)
let test_no_direct_estimator_pipelines () =
  let offenders =
    scan_offenders ~needle:"Estimator.estimate"
      [
        ("../lib/dse", [ "eval.ml" ]);
        ("../lib/apps", []);
        ("../lib/serve", []);
        ("../lib/core", []);
        ("../bin", []);
        ("../bench", []);
        ("../examples", []);
      ]
  in
  Alcotest.(check (list string))
    "no direct Estimator.estimate call-chains outside Eval" [] offenders

(* Same discipline for the concrete analysis passes: [Absint.analyze] /
   [Dependence.analyze] (and anything else on those modules) may only be
   reached through [Eval]'s cached pipeline or the request layer
   (lib/apps/request.ml), which answers [dhdl analyze] and the served
   [analyze] verb alike. A new caller that invoked them directly would
   silently bypass the symbolic pre-elaboration gate (and the analysis
   cache), so the boundary is pinned here. *)
let test_no_direct_analysis_pipelines () =
  let dirs =
    [
      ("../lib/dse", [ "eval.ml" ]);
      ("../lib/apps", [ "request.ml" ]);
      ("../lib/serve", []);
      ("../lib/core", []);
      ("../bin", []);
      ("../bench", []);
      ("../examples", []);
    ]
  in
  List.iter
    (fun needle ->
      Alcotest.(check (list string))
        (Printf.sprintf "no direct %s call-chains outside Eval and Request" needle)
        []
        (scan_offenders ~needle dirs))
    [ "Absint."; "Dependence." ]

(* The symbolic gate is derived through [Eval.gate]'s memo. The one other
   caller is the request layer's symbolic analyze, which derives a gate
   to print it. *)
let test_no_direct_gate_derivation () =
  Alcotest.(check (list string))
    "no Symgate.derive outside Eval and Request" []
    (scan_offenders ~needle:"Symgate.derive"
       [
         ("../lib/dse", [ "eval.ml" ]);
         ("../lib/apps", [ "request.ml" ]);
         ("../lib/serve", []);
         ("../lib/core", []);
         ("../bin", []);
         ("../bench", []);
         ("../examples", []);
       ])

(* The front ends name a design point only through the request layer:
   neither the CLI nor the server looks a benchmark up, resolves a
   binding or lints a design itself, so both check a binding the same
   way, once. *)
let test_front_ends_through_request () =
  List.iter
    (fun needle ->
      Alcotest.(check (list string))
        (Printf.sprintf "no %s in bin/ or lib/serve/" needle)
        []
        (scan_offenders ~needle [ ("../bin", []); ("../lib/serve", []) ]))
    [ "Registry.find"; "App.resolve"; "Lint.check" ]

(* One JSON reader: the ['u' ->] arm that decodes a \u escape appears
   only in lib/util/json.ml. Every hand-written reader carries one, and
   with it its own escape, number and nesting rules. *)
let test_one_json_reader () =
  let lib_dirs =
    Sys.readdir "../lib" |> Array.to_list |> List.sort compare
    |> List.map (Filename.concat "../lib")
    |> List.filter Sys.is_directory
  in
  Alcotest.(check (list string))
    "no \\u escape arm outside lib/util/json.ml" []
    (scan_offenders ~needle:"'u' ->"
       (List.map (fun d -> (d, if d = "../lib/util" then [ "json.ml" ] else [])) lib_dirs
       @ [ ("../bin", []); ("../bench", []); ("../examples", []) ]))

let () =
  Alcotest.run "eval"
    [
      ( "design keys",
        [
          Alcotest.test_case "key laws" `Quick test_key_laws;
          Alcotest.test_case "keys separate outcomes" `Quick test_key_separates_outcomes;
          Alcotest.test_case "keys see structure" `Quick test_key_sees_structure;
          Alcotest.test_case "key bytes = Printf serializer, registry" `Quick
            test_key_bytes_registry;
          Alcotest.test_case "key bytes = Printf serializer, hostile leaves" `Quick
            test_key_bytes_hostile;
        ] );
      ( "pipeline equality",
        [
          Alcotest.test_case "cached = direct, cold/warm/off" `Quick test_extensional_equality;
          Alcotest.test_case "warm pass is all hits" `Quick test_warm_pass_is_all_hits;
          Alcotest.test_case "eviction is deterministic" `Quick test_eviction_is_deterministic;
          Alcotest.test_case "faults bypass the caches" `Quick test_faults_bypass_cache;
        ] );
      ( "sweep identity",
        [
          Alcotest.test_case "checkpoints across jobs x cache x sink" `Quick
            test_checkpoint_identity_matrix;
          Alcotest.test_case "chunked parallel under 5% faults" `Quick
            test_chunked_parallel_under_faults;
          Alcotest.test_case "warm resume determinism" `Quick test_warm_resume_determinism;
          Alcotest.test_case "cache counters surfaced" `Quick test_cache_counters_surfaced;
          Alcotest.test_case "outcome counters = result, jobs 1 and 4" `Quick
            test_outcome_counters;
        ] );
      ( "gate memo",
        [
          Alcotest.test_case "second run derives nothing" `Quick test_gate_memo_second_run;
          Alcotest.test_case "memo hit = fresh derive, jobs 1 and 4" `Quick
            test_gate_memo_checkpoint_identity;
          Alcotest.test_case "keyed by family" `Quick test_gate_memo_keyed_by_family;
          Alcotest.test_case "a hit runs no probe" `Quick test_gate_memo_hit_runs_no_probe;
          Alcotest.test_case "no family, derived every call" `Quick test_gate_without_family;
          Alcotest.test_case "off with analysis_cap 0" `Quick test_gate_memo_off_without_cache;
          Alcotest.test_case "outside the cache stats" `Quick test_gate_memo_outside_cache_stats;
        ] );
      ( "point index",
        [
          Alcotest.test_case "warm gda re-sweep generates nothing" `Quick test_index_warm_resweep;
          Alcotest.test_case "paper and test sizes on one Eval" `Quick test_index_sizes_apart;
          Alcotest.test_case "no family, no index" `Quick test_index_needs_a_family;
          Alcotest.test_case "off while faults are armed" `Quick test_index_off_under_faults;
          Alcotest.test_case "served repeats hit the index" `Quick test_index_served;
          Alcotest.test_case "a lazy generator failure" `Quick test_index_lazy_generator_failure;
        ] );
      ( "api boundary",
        [
          Alcotest.test_case "no direct pipelines outside Eval" `Quick
            test_no_direct_estimator_pipelines;
          Alcotest.test_case "no direct analysis outside Eval / Request" `Quick
            test_no_direct_analysis_pipelines;
          Alcotest.test_case "no gate derivation outside Eval / Request" `Quick
            test_no_direct_gate_derivation;
          Alcotest.test_case "one JSON reader" `Quick test_one_json_reader;
          Alcotest.test_case "front ends resolve through Request" `Quick
            test_front_ends_through_request;
        ] );
    ]
