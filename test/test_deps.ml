(* Tests for the loop-carried dependence analysis (Dhdl_absint.Dependence):
   the single-source-of-truth II wiring (estimator == simulator on every
   registry point, and no local II logic left in either consumer), the
   differential oracle against enumerated iteration spaces, the L012/L013
   lint passes, the Dep_pruned DSE classification with its checkpoint
   round-trip, the dependence JSON payload of `dhdl analyze`, the
   ragged-tile row-coalescing fix in Cycle_model.transfer_estimate, and
   the kernel oracle: the distance solver, the lane search and word ids
   against the exhaustive scans in test/oracle. *)

module Ir = Dhdl_ir.Ir
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Diag = Dhdl_ir.Diag
module Traverse = Dhdl_ir.Traverse
module Target = Dhdl_device.Target
module Dependence = Dhdl_absint.Dependence
module Cycle_model = Dhdl_model.Cycle_model
module Estimator = Dhdl_model.Estimator
module Perf_sim = Dhdl_sim.Perf_sim
module Interp = Dhdl_sim.Interp
module Lint = Dhdl_lint.Lint
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Space = Dhdl_dse.Space
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Checkpoint = Dhdl_dse.Checkpoint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let has_error code diags =
  List.exists (fun g -> g.Diag.code = code && g.Diag.severity = Diag.Error) diags

let has_warning code diags =
  List.exists (fun g -> g.Diag.code = code && g.Diag.severity = Diag.Warning) diags

(* ------------------------- fixtures -------------------------------- *)

(* A distance-1 shift: iteration i stores the word iteration i+1 loads.
   Legal sequentially (II = recurrence latency), but any par > 1 issues a
   producing store and the consuming load in the same cycle. *)
let shift_design ?(par = 1) () =
  let b = B.create "shift" in
  let m = B.bram b "m" Dtype.float32 [ 17 ] in
  let body =
    B.pipe ~label:"shift" ~counters:[ ("i", 0, 16, 1) ] ~par (fun p ->
        B.store p m [ B.add p (B.iter "i") (B.const 1.0) ] (B.load p m [ B.iter "i" ]))
  in
  B.finish b ~top:(B.sequential_block ~label:"main" [ body ])

(* A feed-forward body: independent iterations, II = 1 at any par. *)
let stream_design () =
  let b = B.create "stream" in
  let m = B.bram b "m" Dtype.float32 [ 16 ] in
  let body =
    B.pipe ~label:"fill" ~counters:[ ("i", 0, 16, 1) ] (fun p ->
        B.store p m [ B.iter "i" ] (B.const 2.0))
  in
  B.finish b ~top:(B.sequential_block ~label:"main" [ body ])

(* ------------------------- one II source of truth ------------------ *)

(* The test/dune stanza declares both consumer sources as deps, so they are
   present in the sandbox at the same relative location. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_no_local_ii_logic () =
  List.iter
    (fun path ->
      let src = read_file path in
      check_bool (path ^ " routes through Dependence.ii") true
        (contains ~needle:"Dependence.ii" src);
      (* The old syntactic heuristic lived on these identifiers; its only
         remaining home is Dependence.heuristic_ii (the L012 comparator). *)
      List.iter
        (fun needle ->
          check_bool
            (Printf.sprintf "%s has no local II logic (%s)" path needle)
            false (contains ~needle src))
        [ "unsafe_rmw"; "rotating" ])
    [ "../lib/model/cycle_model.ml"; "../lib/sim/perf_sim.ml" ]

let test_registry_ii_agreement () =
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun sizes ->
          let pts = Space.sample (a.App.space sizes) ~seed:11 ~max_points:6 in
          let pts = a.App.default_params sizes :: pts in
          List.iter
            (fun p ->
              let d = a.App.generate ~sizes ~params:p in
              List.iter
                (fun c ->
                  let label =
                    Printf.sprintf "%s %s: estimator II == simulator II" a.App.name
                      (Ir.ctrl_label c)
                  in
                  check_int label (Cycle_model.pipe_ii c) (Perf_sim.initiation_interval c);
                  match c with
                  | Ir.Pipe _ -> check_bool (label ^ " >= 1") true (Cycle_model.pipe_ii c >= 1)
                  | _ -> check_int (label ^ " non-pipe is 0") 0 (Cycle_model.pipe_ii c))
                (Traverse.all_ctrls d))
            pts)
        [ a.App.test_sizes; a.App.paper_sizes ])
    Registry.all

(* ------------------------- differential oracle --------------------- *)

(* Replay a pair's exposed per-dimension affine address functions over the
   pipe's enumerated iteration space. The exposure precondition (both
   sides affine with identical loop-invariant parts) makes comparing the
   affine parts exact, so this is a runtime aliasing oracle for the static
   verdicts: proved-independent pairs must never collide across distinct
   iterations, and carried witnesses must be real in-range collisions. *)
let oracle_box_cap = 512

let eval_dims dims idx =
  List.map
    (fun (c0, terms) ->
      List.fold_left (fun acc (name, coef) -> acc + (coef * List.assoc name idx)) c0 terms)
    dims

let enumerate counters =
  let trips = List.map (fun (c : Ir.counter) -> Ir.counter_trip c) counters in
  let total = List.fold_left ( * ) 1 trips in
  if total <= 0 || total > oracle_box_cap then None
  else begin
    let rec go acc = function
      | [] -> [ List.rev acc ]
      | (c : Ir.counter) :: rest ->
        List.concat_map
          (fun i -> go ((c.Ir.ctr_name, i) :: acc) rest)
          (List.init (Ir.counter_trip c) Fun.id)
    in
    Some (go [] counters)
  end

let pipe_counters d label =
  let found =
    List.find_map
      (fun c ->
        match c with
        | Ir.Pipe { loop; _ } when loop.Ir.lp_label = label -> Some loop.Ir.lp_counters
        | _ -> None)
      (Traverse.all_ctrls d)
  in
  match found with Some cs -> cs | None -> Alcotest.failf "pipe %s not found" label

let index_of_iters counters iters =
  List.map
    (fun (c : Ir.counter) ->
      let v = List.assoc c.Ir.ctr_name iters in
      let step = if c.Ir.ctr_step = 0 then 1 else c.Ir.ctr_step in
      (c.Ir.ctr_name, (v - c.Ir.ctr_start) / step))
    counters

let oracle_check_design name d =
  (* The interpreter is the runtime: it must execute the whole design
     without tripping its dynamic bounds checker. *)
  (try ignore (Interp.run d ~inputs:[])
   with Failure msg -> Alcotest.failf "%s: interpreter failed: %s" name msg);
  let rep = Dependence.analyze d in
  List.iter
    (fun (p : Dependence.pipe_dep) ->
      let counters = pipe_counters d p.Dependence.pd_label in
      List.iter
        (fun (pr : Dependence.pair) ->
          match (pr.Dependence.p_src_affine, pr.Dependence.p_dst_affine) with
          | Some sa, Some sb -> (
            let label =
              Printf.sprintf "%s/%s %s s%d->s%d" name p.Dependence.pd_label
                (Dependence.kind_str pr.Dependence.p_kind)
                pr.Dependence.p_src pr.Dependence.p_dst
            in
            match pr.Dependence.p_status with
            | Dependence.Independent -> (
              match enumerate counters with
              | None -> ()
              | Some points ->
                (* Bucket source tuples; a hit from a strictly later
                   destination iteration refutes the independence proof.
                   Earlier-iteration collisions belong to the pair in the
                   opposite direction, which is reported separately. *)
                let flat idx =
                  List.fold_left
                    (fun acc (c : Ir.counter) ->
                      (acc * Ir.counter_trip c) + List.assoc c.Ir.ctr_name idx)
                    0 counters
                in
                let tbl = Hashtbl.create 64 in
                List.iter (fun x -> Hashtbl.add tbl (eval_dims sa x) x) points;
                List.iter
                  (fun y ->
                    let hits = Hashtbl.find_all tbl (eval_dims sb y) in
                    check_bool
                      (label ^ ": proved-independent pair never aliases at runtime")
                      false
                      (List.exists (fun x -> flat x < flat y) hits))
                  points)
            | Dependence.Carried { distance; witness } ->
              let w = witness in
              let xi = index_of_iters counters w.Dependence.wt_src_iters in
              let yi = index_of_iters counters w.Dependence.wt_dst_iters in
              List.iter
                (fun (c : Ir.counter) ->
                  let inb i =
                    let v = List.assoc c.Ir.ctr_name i in
                    v >= 0 && v < Ir.counter_trip c
                  in
                  check_bool (label ^ ": witness iterations in range") true (inb xi && inb yi))
                counters;
              check_bool (label ^ ": witness iterations distinct") true (xi <> yi);
              check_bool
                (label ^ ": witness pair actually collides")
                true
                (eval_dims sa xi = eval_dims sb yi);
              check_bool (label ^ ": positive distance") true (distance > 0)
            | Dependence.Unknown _ -> ())
          | _ -> ())
        p.Dependence.pd_pairs)
    rep.Dependence.r_pipes

let test_oracle_registry () =
  List.iter
    (fun (a : App.t) ->
      let sizes = a.App.test_sizes in
      let d = a.App.generate ~sizes ~params:(a.App.default_params sizes) in
      oracle_check_design a.App.name d)
    Registry.all

let test_oracle_fixtures () =
  oracle_check_design "shift" (shift_design ());
  oracle_check_design "stream" (stream_design ());
  (* The shift fixture's RAW pair must be proved carried at distance 1. *)
  let rep = Dependence.analyze (shift_design ()) in
  let pairs = List.concat_map (fun p -> p.Dependence.pd_pairs) rep.Dependence.r_pipes in
  check_bool "shift has a distance-1 RAW" true
    (List.exists
       (fun (pr : Dependence.pair) ->
         pr.Dependence.p_kind = Dependence.Raw
         &&
         match pr.Dependence.p_status with
         | Dependence.Carried { distance; _ } -> distance = 1
         | _ -> false)
       pairs)

(* ------------------------- L012 / L013 ----------------------------- *)

(* The paper-size kmeans centroid-count pipe is the motivating L012 case:
   it loads one invariant-addressed buffer cell and stores another, which
   the syntactic rule reads as an unsafe read-modify-write (II = chain
   latency) but the dependence analysis proves independent (II = 1). *)
let test_l012_kmeans_regression () =
  let a = List.find (fun (a : App.t) -> a.App.name = "kmeans") Registry.all in
  let sizes = a.App.test_sizes in
  let d = a.App.generate ~sizes ~params:(a.App.default_params sizes) in
  let rep = Dependence.analyze d in
  check_bool "a pipe is proved II=1 where the heuristic charged a recurrence" true
    (List.exists
       (fun (p : Dependence.pipe_dep) ->
         p.Dependence.pd_ii = 1 && p.Dependence.pd_heuristic_ii > 1)
       rep.Dependence.r_pipes);
  let diags = Lint.check d in
  check_bool "L012 warning emitted" true (has_warning "L012" diags);
  check_bool "L012 is not an error" false (has_error "L012" diags);
  check_bool "no L013 at the default point" false (has_error "L013" diags)

let test_l013_witness () =
  let diags = Lint.check (shift_design ~par:4 ()) in
  check_bool "L013 error on par=4 shift" true (has_error "L013" diags);
  let msg =
    match List.find_opt (fun g -> g.Diag.code = "L013") diags with
    | Some g -> g.Diag.message
    | None -> Alcotest.failf "no L013 diagnostic"
  in
  check_bool "witness names the memory" true (contains ~needle:"m[" msg);
  check_bool "witness cites lanes" true (contains ~needle:"lanes" msg);
  check_bool "witness cites the dependence kind" true (contains ~needle:"dependence)" msg);
  (* The same design at par=1 is legal: sequential recurrences are fine. *)
  check_bool "no L013 at par=1" false (has_error "L013" (Lint.check (shift_design ())));
  (* The proved II is the full chain latency over distance 1. *)
  let ii = Perf_sim.initiation_interval (List.hd (Traverse.children (shift_design ()).Ir.d_top)) in
  check_bool "shift II is the recurrence latency" true (ii > 1)

let test_benchmarks_l013_clean () =
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun sizes ->
          let d = a.App.generate ~sizes ~params:(a.App.default_params sizes) in
          let rep = Dependence.analyze d in
          check_bool (a.App.name ^ " vectorization legal") true
            (List.for_all
               (fun (p : Dependence.pipe_dep) -> p.Dependence.pd_conflict = None)
               rep.Dependence.r_pipes);
          check_bool (a.App.name ^ " dependence-clean") true (Dependence.clean rep))
        [ a.App.test_sizes; a.App.paper_sizes ])
    Registry.all

(* ------------------------- DSE wiring ------------------------------ *)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:40 ~epochs:60 ())
let dep_space = Space.make ~name:"dep-toy" ~dims:[ ("par", [ 1; 4 ]) ] ()
let dep_generate p = shift_design ~par:(App.get p "par" 1) ()

let run_dep_sweep config =
  Explore.run config (Eval.create (Lazy.force estimator)) ~space:dep_space
    ~generate:dep_generate

(* The symbolic gate (on by default) would refute the bad point before
   elaboration; these tests exercise the *concrete* classification
   machinery, so they run with the gate off. *)
let test_explore_dep_pruning () =
  let r = run_dep_sweep (Explore.Config.make ~seed:1 ~max_points:10 ~symbolic:false ()) in
  check_int "sampled both points" 2 r.Explore.sampled;
  check_int "refuted par pruned as dep_pruned" 1 r.Explore.dep_pruned;
  check_int "not counted as absint_pruned" 0 r.Explore.absint_pruned;
  check_int "not counted as lint_pruned" 0 r.Explore.lint_pruned;
  check_int "legal point estimated" 1 (List.length r.Explore.evaluations);
  (* --no-absint estimates the refuted point instead of dropping it. *)
  let r2 =
    run_dep_sweep (Explore.Config.make ~seed:1 ~max_points:10 ~symbolic:false ~absint:false ())
  in
  check_int "no dep pruning when proofs are off" 0 r2.Explore.dep_pruned;
  check_int "both points estimated" 2 (List.length r2.Explore.evaluations)

let test_checkpoint_roundtrips_dep_pruned () =
  let path = Filename.temp_file "deps" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let config ~resume =
    Explore.Config.make ~seed:1 ~max_points:10 ~symbolic:false ~checkpoint:path ~resume ()
  in
  let r = run_dep_sweep (config ~resume:false) in
  check_int "pruned on first run" 1 r.Explore.dep_pruned;
  (* The serialized entry round-trips through the JSONL parser... *)
  (match Checkpoint.load ~path with
  | Error msg -> Alcotest.failf "checkpoint load failed: %s" msg
  | Ok c ->
    check_bool "dep_pruned entry serialized" true
      (List.exists (fun (_, e) -> e = Outcome.Dep_pruned) c.Checkpoint.entries));
  (* ...and a resumed sweep reuses it without reclassifying. *)
  let r2 = run_dep_sweep (config ~resume:true) in
  check_int "every point resumed" 2 r2.Explore.resumed;
  check_int "dep_pruned survives the checkpoint" 1 r2.Explore.dep_pruned

(* ------------------------- report output --------------------------- *)

(* The dependence payload embedded by `dhdl analyze --json`. *)
let test_render_json_payload () =
  let rep = Dependence.analyze (shift_design ~par:4 ()) in
  let js = Dependence.render_json rep in
  List.iter
    (fun needle -> check_bool ("payload has " ^ needle) true (contains ~needle js))
    [
      "\"design\":\"shift\"";
      "\"summary\":";
      "\"pipes\":";
      "\"ii\":";
      "\"heuristic_ii\":";
      "\"status\":\"carried\"";
      "\"distance\":1";
      "\"witness\":";
      "\"conflict\":";
      "\"lane_a\":";
      "\"races\":";
    ];
  check_bool "balanced braces" true
    (String.fold_left (fun n c -> n + (if c = '{' then 1 else if c = '}' then -1 else 0)) 0 js = 0);
  check_bool "balanced brackets" true
    (String.fold_left (fun n c -> n + (if c = '[' then 1 else if c = ']' then -1 else 0)) 0 js = 0);
  (* A refuted design is not clean (drives analyze's exit code), a pure
     feed-forward one is. *)
  check_bool "refuted design not clean" false (Dependence.clean rep);
  check_bool "stream design clean" true (Dependence.clean (Dependence.analyze (stream_design ())));
  let txt = Dependence.render_text rep in
  check_bool "text report shows the conflict" true (contains ~needle:"UNSAFE PIPELINING" txt);
  check_bool "text report has the summary" true (contains ~needle:"summary:" txt)

(* The same shift along the second dimension of a 2-D memory: its
   witnesses index two dimensions, and the payload must stay JSON (the
   indices once rendered ';'-joined, as the text report shows them). *)
let test_render_json_2d_witness () =
  let b = B.create "shift2d" in
  let m = B.bram b "m" Dtype.float32 [ 2; 17 ] in
  let body =
    B.pipe ~label:"shift" ~counters:[ ("i", 0, 16, 1) ] ~par:4 (fun p ->
        B.store p m
          [ B.const 1.0; B.add p (B.iter "i") (B.const 1.0) ]
          (B.load p m [ B.const 1.0; B.iter "i" ]))
  in
  let rep = Dependence.analyze (B.finish b ~top:(B.sequential_block ~label:"main" [ body ])) in
  let js = Dependence.render_json rep in
  check_bool "a 2-D witness index is rendered" true (contains ~needle:"\"index\":[1," js);
  match Dhdl_util.Json.parse js with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "dependence payload is not JSON: %s" msg

(* ------------------------- kernel oracle --------------------------- *)

(* The distance solver and the lane-collision search against the
   exhaustive scans they replaced (Kernel_oracle), over every Pipe of the
   registry apps at paper and test sizes: 200 seeded bindings per size
   plus the defaults. Each distinct distance system and pipe body is
   compared once. Lane searches run at the pipe's own par and a sample of
   the symbolic scan's pars; `bench kernel-oracle` runs all of 2-96. *)
let test_kernel_oracle_registry () =
  let seen = Kernel_oracle.seen () in
  List.iter
    (fun (label, d) ->
      match Kernel_oracle.dependence_diffs ~pars:Kernel_oracle.some_pars seen d with
      | [] -> ()
      | m :: _ -> Alcotest.failf "%s: %s" label m)
    (Kernel_oracle.registry_designs ~bindings:200)

(* ------------------------- transfer estimate ----------------------- *)

let board = Target.max4_maia

(* Closed-form expectation with an explicit command count. *)
let expected_transfer ~words ~ncmds =
  let bytes = float_of_int (words * 4) in
  float_of_int board.Target.dram_latency_cycles
  +. (4.0 *. float_of_int ncmds)
  +. (bytes /. Target.bytes_per_cycle board)

let test_transfer_ragged_tiles () =
  let b = B.create "xfer" in
  let off3 = B.offchip b "x3" Dtype.float32 [ 4; 6; 8 ] in
  let off2 = B.offchip b "x2" Dtype.float32 [ 16; 8 ] in
  let est offchip tile =
    Cycle_model.transfer_estimate board ~contention:1 ~offchip ~ty:Dtype.float32 ~tile
  in
  let check label offchip tile ~ncmds =
    Alcotest.(check (float 1e-9))
      label
      (expected_transfer ~words:(List.fold_left ( * ) 1 tile) ~ncmds)
      (est offchip tile)
  in
  (* Fully contiguous tiles coalesce into one command. *)
  check "3d full tile" off3 [ 4; 6; 8 ] ~ncmds:1;
  check "2d full-width rows" off2 [ 4; 8 ] ~ncmds:1;
  (* A ragged innermost dimension gives one command per row. *)
  check "2d ragged rows" off2 [ 4; 6 ] ~ncmds:4;
  check "3d ragged inner" off3 [ 2; 3; 4 ] ~ncmds:6;
  (* The 3D ragged-middle case the old row_words overstated: the run stops
     at the first partial dimension (3 of 6), so the 48-word tile needs
     two 24-word commands, not one 48-word command. *)
  check "3d ragged middle" off3 [ 2; 3; 8 ] ~ncmds:2;
  check "3d full inner planes" off3 [ 1; 6; 8 ] ~ncmds:1

(* ------------------------------------------------------------------- *)

let () =
  Alcotest.run "deps"
    [
      ( "single-source",
        [
          Alcotest.test_case "no local II logic" `Quick test_no_local_ii_logic;
          Alcotest.test_case "registry II agreement" `Quick test_registry_ii_agreement;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "registry apps" `Quick test_oracle_registry;
          Alcotest.test_case "fixtures" `Quick test_oracle_fixtures;
        ] );
      ( "lint",
        [
          Alcotest.test_case "L012 kmeans regression" `Quick test_l012_kmeans_regression;
          Alcotest.test_case "L013 witness" `Quick test_l013_witness;
          Alcotest.test_case "benchmarks legal" `Quick test_benchmarks_l013_clean;
        ] );
      ( "dse",
        [
          Alcotest.test_case "dep pruning" `Quick test_explore_dep_pruning;
          Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrips_dep_pruned;
        ] );
      ( "report",
        [
          Alcotest.test_case "render json payload" `Quick test_render_json_payload;
          Alcotest.test_case "render json 2-D witness" `Quick test_render_json_2d_witness;
        ] );
      ( "transfer",
        [ Alcotest.test_case "ragged tiles" `Quick test_transfer_ragged_tiles ] );
      ( "kernel oracle",
        Alcotest.test_case "registry pipes" `Quick test_kernel_oracle_registry
        :: List.map QCheck_alcotest.to_alcotest
             (Kernel_oracle.prop_solve_delta_wide ~count:200
             :: Kernel_oracle.dependence_props ~count:300) );
    ]
