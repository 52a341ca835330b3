(* Tests for the Dhdl_lint pass framework: one hand-built ill-formed design
   per diagnostic code (positive), plus the guarantee that every registered
   benchmark at paper sizes is lint-clean at error severity (negative). *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Diag = Dhdl_ir.Diag
module Lint = Dhdl_lint.Lint
module Passes = Dhdl_lint.Passes
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Estimator = Dhdl_model.Estimator
module Space = Dhdl_dse.Space
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let codes diags = List.map (fun g -> g.Diag.code) diags

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let has_code code diags = List.mem code (codes diags)

let has_error code diags =
  List.exists (fun g -> g.Diag.code = code && g.Diag.severity = Diag.Error) diags

(* ------------------------- fixtures -------------------------------- *)

(* Two Parallel stages storing into the same BRAM: a write-write race. *)
let race_design () =
  let b = B.create "race" in
  let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
  let stage label =
    B.pipe ~label ~counters:[ ("i", 0, 16, 1) ] (fun pb ->
        B.store pb xt [ B.iter "i" ] (B.const 1.0))
  in
  B.finish b ~top:(B.parallel ~label:"fork" [ stage "a"; stage "b" ])

(* One stage writes the buffer another reads: a read-write race. *)
let rw_race_design () =
  let b = B.create "rwrace" in
  let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
  let yt = B.bram b "yT" Dtype.float32 [ 16 ] in
  let writer =
    B.pipe ~label:"w" ~counters:[ ("i", 0, 16, 1) ] (fun pb ->
        B.store pb xt [ B.iter "i" ] (B.const 1.0))
  in
  let reader =
    B.pipe ~label:"r" ~counters:[ ("i", 0, 16, 1) ] (fun pb ->
        B.store pb yt [ B.iter "i" ] (B.load pb xt [ B.iter "i" ]))
  in
  B.finish b ~top:(B.parallel ~label:"fork" [ writer; reader ])

(* A tile buffer flowing between MetaPipe stages; Builder.finish sets
   mem_double, so the hazard is injected by clearing the flag. *)
let metapipe_design () =
  let b = B.create "meta" in
  let x = B.offchip b "x" Dtype.float32 [ 64 ] in
  let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
  let out = B.reg b "out" Dtype.float32 in
  let inner =
    B.reduce_pipe ~label:"sum" ~counters:[ ("i", 0, 16, 1) ] ~par:2 ~op:Op.Add ~out (fun pb ->
        B.load pb xt [ B.iter "i" ])
  in
  let top =
    B.metapipe ~label:"outer"
      ~counters:[ ("t", 0, 64, 16) ]
      [ B.tile_load ~src:x ~dst:xt ~offsets:[ B.iter "t" ] ~par:2 (); inner ]
  in
  (B.finish b ~top, xt)

let queue_design ~depth ~push ~pop =
  let b = B.create "queues" in
  let q = B.queue b "q" Dtype.float32 ~depth in
  let out = B.reg b "out" Dtype.float32 in
  let top =
    B.pipe ~label:"p" ~counters:[ ("i", 0, 8, 1) ] (fun pb ->
        if push then B.push pb q (B.const 1.0);
        if pop then B.write_reg pb out (B.pop pb q))
  in
  B.finish b ~top

(* ------------------------- positive cases -------------------------- *)

let test_l001_write_write () =
  let diags = Lint.check (race_design ()) in
  check_bool "L001 error" true (has_error "L001" diags);
  check_bool "nonzero exit" true (Lint.exit_code diags = 2)

let test_l001_read_write () =
  check_bool "L001 error" true (has_error "L001" (Lint.check (rw_race_design ())))

let test_l002_metapipe_hazard () =
  let d, xt = metapipe_design () in
  check_bool "clean after inference" false (has_code "L002" (Lint.check d));
  xt.Ir.mem_double <- false;
  let diags = Lint.check d in
  check_bool "L002 error after clearing mem_double" true (has_error "L002" diags);
  check_int "exit 2" 2 (Lint.exit_code diags)

let test_l003_banking_mismatch () =
  let d, xt = metapipe_design () in
  check_bool "clean after inference" false (has_code "L003" (Lint.check d));
  xt.Ir.mem_banks <- 1;
  check_bool "L003 error after shrinking banks" true (has_error "L003" (Lint.check d))

let test_l004_dead_memory () =
  let b = B.create "dead" in
  let used = B.bram b "used" Dtype.float32 [ 8 ] in
  let _unused = B.bram b "unused" Dtype.float32 [ 8 ] in
  let top =
    B.pipe ~label:"p" ~counters:[ ("i", 0, 8, 1) ] (fun pb ->
        B.store pb used [ B.iter "i" ] (B.const 1.0))
  in
  let diags = Lint.check (B.finish b ~top) in
  let l4 = List.filter (fun g -> g.Diag.code = "L004") diags in
  check_int "never-accessed and write-only" 2 (List.length l4);
  List.iter (fun g -> check_bool "warning" true (g.Diag.severity = Diag.Warning)) l4

let test_l005_dead_value () =
  let b = B.create "deadval" in
  let xt = B.bram b "xT" Dtype.float32 [ 8 ] in
  let out = B.reg b "out" Dtype.float32 in
  let top =
    B.pipe ~label:"p" ~counters:[ ("i", 0, 8, 1) ] (fun pb ->
        let v = B.load pb xt [ B.iter "i" ] in
        let _dead = B.mul pb v v in
        B.write_reg pb out v)
  in
  let diags = Lint.check (B.finish b ~top) in
  check_bool "L005 warning" true (has_code "L005" diags);
  check_bool "not an error" false (has_error "L005" diags)

let test_l006_capacity () =
  let b = B.create "huge" in
  let big = B.bram b "big" Dtype.float32 [ 2_000_000 ] in
  let out = B.reg b "out" Dtype.float32 in
  let top =
    B.reduce_pipe ~label:"p" ~counters:[ ("i", 0, 2_000_000, 1) ] ~op:Op.Add ~out (fun pb ->
        B.load pb big [ B.iter "i" ])
  in
  let diags = Lint.check (B.finish b ~top) in
  check_bool "L006 device-overflow error" true (has_error "L006" diags);
  check_bool "L006 tiling warning" true
    (List.exists (fun g -> g.Diag.code = "L006" && g.Diag.severity = Diag.Warning) diags)

let test_l007_queue_protocol () =
  let push_only = Lint.check (queue_design ~depth:8 ~push:true ~pop:false) in
  check_bool "push-without-pop warning" true (has_code "L007" push_only);
  check_bool "push-without-pop not error" false (has_error "L007" push_only);
  let pop_only = Lint.check (queue_design ~depth:8 ~push:false ~pop:true) in
  check_bool "pop-without-push error" true (has_error "L007" pop_only);
  let zero = Lint.check (queue_design ~depth:0 ~push:true ~pop:true) in
  check_bool "zero-capacity error" true (has_error "L007" zero)

let test_l008_degenerate_loops () =
  let build ~counters ~par =
    let b = B.create "loops" in
    let out = B.reg b "out" Dtype.float32 in
    let top = B.reduce_pipe ~label:"p" ~counters ~par ~op:Op.Add ~out (fun _ -> B.const 1.0) in
    B.finish b ~top
  in
  let nondiv = Passes.loop_pass (build ~counters:[ ("i", 0, 10, 1) ] ~par:4) in
  check_bool "non-divisor info" true
    (List.exists (fun g -> g.Diag.code = "L008" && g.Diag.severity = Diag.Info) nondiv);
  let idle = Passes.loop_pass (build ~counters:[ ("i", 0, 10, 1) ] ~par:16) in
  check_bool "par > trip warning" true
    (List.exists (fun g -> g.Diag.code = "L008" && g.Diag.severity = Diag.Warning) idle);
  let zero = Passes.loop_pass (build ~counters:[ ("i", 0, 0, 1) ] ~par:1) in
  check_bool "zero-trip warning" true
    (List.exists (fun g -> g.Diag.code = "L008" && g.Diag.severity = Diag.Warning) zero)

(* ------------------------- framework ------------------------------- *)

let test_registry () =
  let ps = Lint.passes () in
  check_int "thirteen passes" 13 (List.length ps);
  Alcotest.(check (list string))
    "codes in order"
    [ "L001"; "L002"; "L003"; "L004"; "L005"; "L006"; "L007"; "L008"; "L009"; "L010"; "L011";
      "L012"; "L013" ]
    (List.map (fun p -> p.Lint.code) ps);
  Alcotest.(check (list string))
    "proof codes"
    [ "L009"; "L010"; "L011"; "L012"; "L013" ]
    Lint.proof_codes;
  (* [only] restricts the registry without touching the validator. *)
  let d = race_design () in
  check_bool "only=L001 keeps the race" true (has_code "L001" (Lint.check ~only:[ "L001" ] d));
  check_bool "only=L004 drops it" false (has_code "L001" (Lint.check ~only:[ "L004" ] d))

let test_sorted_and_deduped () =
  let diags = Lint.check (race_design ()) in
  let ranks = List.map (fun g -> Diag.severity_rank g.Diag.severity) diags in
  check_bool "sorted by severity" true (List.sort compare ranks = ranks);
  check_int "no duplicates" (List.length diags)
    (List.length (List.sort_uniq Diag.compare diags))

let test_exit_codes () =
  check_int "clean" 0 (Lint.exit_code []);
  let warn = Diag.make ~code:"L004" ~severity:Diag.Warning "w" in
  let info = Diag.make ~code:"L008" ~severity:Diag.Info "i" in
  let err = Diag.make ~code:"L001" ~severity:Diag.Error "e" in
  check_int "warnings pass by default" 0 (Lint.exit_code [ warn; info ]);
  check_int "warnings fail under --fail-on warning" 1
    (Lint.exit_code ~fail_on:Diag.Warning [ warn; info ]);
  check_int "info fails only under --fail-on info" 1 (Lint.exit_code ~fail_on:Diag.Info [ info ]);
  check_int "info passes under --fail-on warning" 0
    (Lint.exit_code ~fail_on:Diag.Warning [ info ]);
  check_int "warning fails under --fail-on info" 1 (Lint.exit_code ~fail_on:Diag.Info [ warn ]);
  check_int "empty is clean under --fail-on info" 0 (Lint.exit_code ~fail_on:Diag.Info []);
  check_int "errors always 2" 2 (Lint.exit_code ~fail_on:Diag.Info [ err; warn ])

let test_render_text () =
  let d = race_design () in
  let text = Lint.render_text ~design:d (Lint.check d) in
  check_bool "names design" true
    (String.length text > 0 && String.sub text 0 4 = "race");
  check_bool "mentions code" true (contains ~needle:"error[L001]" text)

let test_render_json () =
  let d = race_design () in
  let json = Lint.render_json ~design:d (Lint.check d) in
  check_bool "object" true (json.[0] = '{' && json.[String.length json - 1] = '}');
  check_bool "has diagnostics array" true (contains ~needle:"\"diagnostics\": [" json);
  check_bool "has code field" true (contains ~needle:"\"code\": \"L001\"" json);
  (* Escaping: quotes and newlines must not leak into the JSON raw. *)
  Alcotest.(check string)
    "escape" "a\\\"b\\\\c\\nd" (Dhdl_util.Emit.json_escape "a\"b\\c\nd")

(* A design whose name carries quotes, newlines and a raw control char must
   still render to JSON with every byte escaped. *)
let test_render_json_escaping () =
  let b = B.create "quo\"te\n\001name" in
  let xt = B.bram b "xT" Dtype.float32 [ 8 ] in
  let out = B.reg b "out" Dtype.float32 in
  let top =
    B.reduce_pipe ~label:"p" ~counters:[ ("i", 0, 8, 1) ] ~op:Op.Add ~out (fun pb ->
        B.load pb xt [ B.iter "i" ])
  in
  let d = B.finish b ~top in
  let json = Lint.render_json ~design:d (Lint.check d) in
  check_bool "quote escaped" true (contains ~needle:"quo\\\"te" json);
  check_bool "newline escaped" true (contains ~needle:"\\n" json);
  check_bool "control char escaped" true (contains ~needle:"\\u0001" json);
  check_bool "no raw control bytes" true
    (not (String.exists (fun c -> Char.code c < 32) json))

(* ------------------------- benchmarks are clean -------------------- *)

let test_benchmarks_error_clean () =
  List.iter
    (fun (a : App.t) ->
      let sizes = a.App.paper_sizes in
      let design = a.App.generate ~sizes ~params:(a.App.default_params sizes) in
      Alcotest.(check (list string))
        (a.App.name ^ " has no error-level diagnostics")
        []
        (List.map Diag.to_string (Lint.errors (Lint.check design))))
    Registry.all

(* ------------------------- DSE integration ------------------------- *)

let test_explore_prunes_lint_errors () =
  let est = Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 () in
  let space = Space.make ~name:"toy" ~dims:[ ("racy", [ 0; 1 ]) ] () in
  let clean () =
    let b = B.create "clean" in
    let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
    let out = B.reg b "out" Dtype.float32 in
    let top =
      B.reduce_pipe ~label:"sum" ~counters:[ ("i", 0, 16, 1) ] ~op:Op.Add ~out (fun pb ->
          B.load pb xt [ B.iter "i" ])
    in
    B.finish b ~top
  in
  let generate p = if List.assoc "racy" p = 1 then race_design () else clean () in
  let r =
    Explore.run (Explore.Config.make ~seed:3 ~max_points:10 ()) (Eval.create est) ~space ~generate
  in
  check_int "sampled both points" 2 r.Explore.sampled;
  check_int "racy point pruned" 1 r.Explore.lint_pruned;
  check_int "clean point evaluated" 1 (List.length r.Explore.evaluations)

let () =
  Alcotest.run "lint"
    [
      ( "passes",
        [
          Alcotest.test_case "L001 write-write race" `Quick test_l001_write_write;
          Alcotest.test_case "L001 read-write race" `Quick test_l001_read_write;
          Alcotest.test_case "L002 metapipe hazard" `Quick test_l002_metapipe_hazard;
          Alcotest.test_case "L003 banking mismatch" `Quick test_l003_banking_mismatch;
          Alcotest.test_case "L004 dead memory" `Quick test_l004_dead_memory;
          Alcotest.test_case "L005 dead value" `Quick test_l005_dead_value;
          Alcotest.test_case "L006 capacity" `Quick test_l006_capacity;
          Alcotest.test_case "L007 queue protocol" `Quick test_l007_queue_protocol;
          Alcotest.test_case "L008 degenerate loops" `Quick test_l008_degenerate_loops;
        ] );
      ( "framework",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "sorted and deduped" `Quick test_sorted_and_deduped;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "render text" `Quick test_render_text;
          Alcotest.test_case "render json" `Quick test_render_json;
          Alcotest.test_case "render json escaping" `Quick test_render_json_escaping;
        ] );
      ( "benchmarks",
        [ Alcotest.test_case "all error-clean at paper sizes" `Quick test_benchmarks_error_clean ] );
      ( "dse",
        [ Alcotest.test_case "lint pruning in Explore.run" `Quick test_explore_prunes_lint_errors ] );
    ]
