(* Tests for the benchmark suite: every Table II application validates,
   executes correctly against its CPU reference kernel (at multiple design
   points), and exposes a sane design space. *)

module Ir = Dhdl_ir.Ir
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Space = Dhdl_dse.Space
module Interp = Dhdl_sim.Interp
module K = Dhdl_cpu.Kernels
module Rng = Dhdl_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let close ?(tol = 1e-3) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) /. scale < tol

let check_arrays name a b =
  check_int (name ^ " length") (Array.length b) (Array.length a);
  Array.iteri
    (fun i x ->
      if not (close x b.(i)) then
        Alcotest.failf "%s differs at %d: %f vs %f" name i x b.(i))
    a

let rand_array rng n = Array.init n (fun _ -> Rng.float_in rng (-2.0) 2.0)
let rand_bits rng n = Array.init n (fun _ -> if Rng.bool rng then 1.0 else 0.0)

(* ------------------------- Registry -------------------------------- *)

let test_registry () =
  check_int "seven benchmarks" 7 (List.length Registry.all);
  Alcotest.(check (list string)) "paper order"
    [ "dotproduct"; "outerprod"; "gemm"; "tpchq6"; "blackscholes"; "gda"; "kmeans" ]
    Registry.names;
  check_bool "find" true ((Registry.find "gda").App.name = "gda");
  check_bool "missing raises" true
    (try
       ignore (Registry.find "nope");
       false
     with Not_found -> true)

(* ------------------------- Default parameters ---------------------- *)

(* [App.divisor_tile] as it was before it became a scan: every divisor of
   [n] up to [cap] by trial division, then the largest one [par]
   divides, else the largest one, else [n]. *)
let enumerated_divisor_tile ~n ~cap ~par =
  let ds = Dhdl_util.Intmath.divisors_up_to n cap in
  match List.rev (List.filter (fun d -> d mod par = 0) ds) with
  | d :: _ -> d
  | [] -> ( match List.rev ds with d :: _ -> d | [] -> n)

let prop_divisor_tile_oracle =
  let open QCheck.Gen in
  let n =
    oneof
      [ int_range 1 64; int_range 1 200_000; int_range 1 50_000_000;
        oneofl [ 1; 2; 720; 5040; 65_536; 999_983; 9_995_328; 18_720_000; 187_200_000 ] ]
  in
  (* The scan takes up to [min cap n] steps, so caps at or above [n] are
     drawn for the smaller [n] only. *)
  let case =
    n >>= fun n ->
    let caps =
      [ int_range (-3) 0; int_range 1 4096 ]
      @ if n <= 200_000 then [ int_range 1 (n + 64); int_range n ((2 * n) + 10) ] else []
    in
    let par = oneof [ int_range 1 16; int_range 1 (n + 8); oneofl [ 1; 8; 64; 1024 ] ] in
    triple (return n) (oneof caps) par
  in
  QCheck.Test.make ~count:3_000 ~name:"divisor_tile = the divisor enumeration"
    (QCheck.make ~print:QCheck.Print.(triple int int int) case)
    (fun (n, cap, par) -> App.divisor_tile ~n ~cap ~par = enumerated_divisor_tile ~n ~cap ~par)

let test_divisor_tile_known () =
  check_int "dotproduct" 2000 (App.divisor_tile ~n:187_200_000 ~cap:2048 ~par:8);
  check_int "no divisor par divides: largest divisor" 7 (App.divisor_tile ~n:49 ~cap:10 ~par:2);
  check_int "cap below 1: n" 49 (App.divisor_tile ~n:49 ~cap:0 ~par:2);
  check_int "cap above n" 48 (App.divisor_tile ~n:48 ~cap:1000 ~par:16)

(* Every served request, CLI command and sweep resolves against these. *)
let default_pins =
  [
    ( "dotproduct",
      [ ("tile", 2000); ("par", 8); ("meta", 1) ],
      [ ("tile", 1024); ("par", 8); ("meta", 1) ] );
    ( "outerprod",
      [ ("tileA", 128); ("tileB", 128); ("par", 4); ("metaA", 1); ("metaB", 1) ],
      [ ("tileA", 64); ("tileB", 32); ("par", 4); ("metaA", 1); ("metaB", 1) ] );
    ( "gemm",
      [ ("tileN", 32); ("tileM", 4); ("tileK", 8); ("par", 4); ("metaK", 1); ("metaR", 0) ],
      [ ("tileN", 16); ("tileM", 4); ("tileK", 8); ("par", 4); ("metaK", 1); ("metaR", 0) ] );
    ( "tpchq6",
      [ ("tile", 2000); ("par", 8); ("meta", 1) ],
      [ ("tile", 512); ("par", 8); ("meta", 1) ] );
    ( "blackscholes",
      [ ("tile", 2016); ("par", 4); ("meta", 1) ],
      [ ("tile", 256); ("par", 4); ("meta", 1) ] );
    ( "gda",
      [ ("tile", 24); ("parP1", 4); ("parP2", 4); ("metaM1", 1); ("metaM2", 1) ],
      [ ("tile", 24); ("parP1", 4); ("parP2", 4); ("metaM1", 1); ("metaM2", 1) ] );
    ( "kmeans",
      [ ("tile", 32); ("parDist", 4); ("parAcc", 2); ("parPoints", 2); ("meta", 1) ],
      [ ("tile", 32); ("parDist", 4); ("parAcc", 2); ("parPoints", 2); ("meta", 1) ] );
  ]

let test_default_params_pinned () =
  let params = Alcotest.(list (pair string int)) in
  List.iter
    (fun (name, paper, test) ->
      let app = Registry.find name in
      Alcotest.check params (name ^ " at paper sizes") paper (app.App.default_params app.App.paper_sizes);
      Alcotest.check params (name ^ " at test sizes") test (app.App.default_params app.App.test_sizes))
    default_pins;
  check_int "every app pinned" (List.length Registry.all) (List.length default_pins)

(* ------------------------- Structural checks ----------------------- *)

let test_all_validate_at_test_sizes () =
  List.iter
    (fun (app : App.t) ->
      let d = App.generate_default app app.App.test_sizes in
      Alcotest.(check (list string)) (app.App.name ^ " valid") [] (Dhdl_ir.Analysis.validate d))
    Registry.all

let test_all_validate_at_paper_sizes () =
  List.iter
    (fun (app : App.t) ->
      let d = App.generate_default app app.App.paper_sizes in
      Alcotest.(check (list string)) (app.App.name ^ " valid") [] (Dhdl_ir.Analysis.validate d))
    Registry.all

let test_spaces_nonempty_and_legal () =
  List.iter
    (fun (app : App.t) ->
      let space = app.App.space app.App.paper_sizes in
      check_bool (app.App.name ^ " space") true (Space.raw_size space > 100);
      let pts = Space.sample space ~seed:3 ~max_points:25 in
      check_bool (app.App.name ^ " has legal points") true (pts <> []);
      (* Every sampled point must instantiate to a valid design. *)
      List.iter
        (fun p ->
          Alcotest.(check (list string))
            (app.App.name ^ " point valid")
            []
            (Dhdl_ir.Analysis.validate (app.App.generate ~sizes:app.App.paper_sizes ~params:p)))
        pts)
    Registry.all

(* Each tile parameter of each app, and the dataset extent it tiles. *)
let tile_extents =
  [
    ("dotproduct", [ ("tile", "n") ]);
    ("outerprod", [ ("tileA", "n"); ("tileB", "m") ]);
    ("gemm", [ ("tileN", "n"); ("tileM", "m"); ("tileK", "k") ]);
    ("tpchq6", [ ("tile", "n") ]);
    ("blackscholes", [ ("tile", "n") ]);
    ("gda", [ ("tile", "r") ]);
    ("kmeans", [ ("tile", "n") ]);
  ]

(* A tile that does not divide its extent is refused with a [Failure]
   naming the parameter, its value and the extent, not an assertion's
   source location; through the request layer the message keeps only
   the stage's name in front of it. *)
let test_tile_must_divide () =
  List.iter
    (fun (app : App.t) ->
      let sizes = app.App.paper_sizes in
      let defaults = app.App.default_params sizes in
      let extents = List.assoc app.App.name tile_extents in
      Alcotest.(check (list string))
        (app.App.name ^ ": every tile parameter has an extent")
        (List.filter (String.starts_with ~prefix:"tile") (List.map fst defaults))
        (List.map fst extents);
      List.iter
        (fun (param, dim) ->
          let n = App.size sizes dim in
          let rec non_divisor v = if n mod v <> 0 then v else non_divisor (v + 1) in
          let v = non_divisor 2 in
          let params = List.map (fun (k, x) -> if k = param then (k, v) else (k, x)) defaults in
          let expected = Printf.sprintf "parameter %S must divide %s = %d (got %d)" param dim n v in
          let what = Printf.sprintf "%s %s=%d" app.App.name param v in
          (match app.App.generate ~sizes ~params with
          | _ -> Alcotest.failf "%s generated a design" what
          | exception Failure msg -> Alcotest.(check string) (what ^ ": generator") expected msg);
          match Dhdl_apps.Request.point app.App.name [ (param, v) ] with
          | _ -> Alcotest.failf "%s resolved to a point" what
          | exception Failure msg ->
            Alcotest.(check string) (what ^ ": request layer") ("generator: " ^ expected) msg)
        extents)
    Registry.all

let test_generation_deterministic () =
  List.iter
    (fun (app : App.t) ->
      let a = App.generate_default app app.App.test_sizes in
      let b = App.generate_default app app.App.test_sizes in
      check_int (app.App.name ^ " hash") (Ir.design_hash a) (Ir.design_hash b))
    Registry.all

let test_params_recorded () =
  let app = Registry.find "gda" in
  let d = App.generate_default app app.App.test_sizes in
  check_bool "params in design" true (List.mem_assoc "parP1" d.Ir.d_params)

(* ------------------------- Functional correctness ------------------ *)

let run_app app sizes params inputs = Interp.run (app.App.generate ~sizes ~params) ~inputs

let test_dotproduct_correct () =
  let app = Registry.find "dotproduct" in
  let rng = Rng.create 100 in
  let n = 1024 in
  let x = rand_array rng n and y = rand_array rng n in
  (* Several design points, including sequential and wide-vector ones. *)
  List.iter
    (fun (tile, par, meta) ->
      let env =
        run_app app [ ("n", n) ]
          [ ("tile", tile); ("par", par); ("meta", meta) ]
          [ ("x", x); ("y", y) ]
      in
      check_bool
        (Printf.sprintf "tile=%d par=%d meta=%d" tile par meta)
        true
        (close (Interp.reg env "result") (K.dotproduct x y)))
    [ (64, 1, 0); (128, 8, 1); (1024, 64, 1); (256, 3, 1) ]

let test_outerprod_correct () =
  let app = Registry.find "outerprod" in
  let rng = Rng.create 101 in
  let n = 64 and m = 48 in
  let x = rand_array rng n and y = rand_array rng m in
  List.iter
    (fun (ta, tb, ma, mb) ->
      let env =
        run_app app
          [ ("n", n); ("m", m) ]
          [ ("tileA", ta); ("tileB", tb); ("par", 4); ("metaA", ma); ("metaB", mb) ]
          [ ("x", x); ("y", y) ]
      in
      check_arrays "outerprod" (Interp.offchip env "out") (K.outerprod x y))
    [ (16, 24, 1, 1); (64, 48, 0, 0); (32, 16, 1, 0) ]

let test_gemm_correct () =
  let app = Registry.find "gemm" in
  let rng = Rng.create 102 in
  let n = 16 and m = 12 and k = 8 in
  let a = rand_array rng (n * k) and b = rand_array rng (k * m) in
  List.iter
    (fun (tn, tm, tk, mk) ->
      let env =
        run_app app
          [ ("n", n); ("m", m); ("k", k) ]
          [ ("tileN", tn); ("tileM", tm); ("tileK", tk); ("par", 2); ("metaK", mk); ("metaR", 0) ]
          [ ("a", a); ("b", b) ]
      in
      check_arrays "gemm" (Interp.offchip env "c") (K.gemm ~n ~m ~k a b))
    [ (16, 12, 8, 1); (4, 4, 4, 0); (8, 6, 2, 1) ]

let test_tpchq6_correct () =
  let app = Registry.find "tpchq6" in
  let rng = Rng.create 103 in
  let n = 512 in
  let prices = Array.init n (fun _ -> Rng.float_in rng 1.0 100.0) in
  let discounts = Array.init n (fun _ -> Rng.float_in rng 0.0 0.11) in
  let quantities = Array.init n (fun _ -> float_of_int (Rng.int rng 50)) in
  let dates = Array.init n (fun _ -> float_of_int (Rng.int rng 10) +. 0.5) in
  let env =
    run_app app [ ("n", n) ]
      [ ("tile", 128); ("par", 8); ("meta", 1) ]
      [ ("price", prices); ("discount", discounts); ("quantity", quantities); ("date", dates) ]
  in
  check_bool "revenue matches" true
    (close (Interp.reg env "revenue") (K.tpchq6 ~prices ~discounts ~quantities ~dates))

let test_blackscholes_correct () =
  let app = Registry.find "blackscholes" in
  let rng = Rng.create 104 in
  let n = 256 in
  let spot = Array.init n (fun _ -> Rng.float_in rng 20.0 120.0) in
  let strike = Array.init n (fun _ -> Rng.float_in rng 20.0 120.0) in
  let time = Array.init n (fun _ -> Rng.float_in rng 0.25 4.0) in
  let otype = rand_bits rng n in
  let env =
    run_app app [ ("n", n) ]
      [ ("tile", 64); ("par", 4); ("meta", 1) ]
      [ ("spot", spot); ("strike", strike); ("time", time); ("otype", otype) ]
  in
  let expected =
    K.blackscholes ~spot ~strike ~time ~rate:Dhdl_apps.Blackscholes_app.rate
      ~volatility:Dhdl_apps.Blackscholes_app.volatility ~otype
  in
  check_arrays "blackscholes" (Interp.offchip env "price") expected

let test_gda_correct () =
  let app = Registry.find "gda" in
  let rng = Rng.create 105 in
  let r = 48 and d = 8 in
  let x = rand_array rng (r * d) and y = rand_bits rng r in
  let mu0 = rand_array rng d and mu1 = rand_array rng d in
  List.iter
    (fun (tile, m1, m2) ->
      let env =
        run_app app
          [ ("r", r); ("d", d) ]
          [ ("tile", tile); ("parP1", 4); ("parP2", 8); ("metaM1", m1); ("metaM2", m2) ]
          [ ("x", x); ("y", y); ("mu0", mu0); ("mu1", mu1) ]
      in
      check_arrays "gda" (Interp.offchip env "sigma") (K.gda ~rows:r ~cols:d ~x ~y ~mu0 ~mu1))
    [ (24, 1, 1); (48, 0, 0); (8, 1, 0) ]

let test_kmeans_correct () =
  let app = Registry.find "kmeans" in
  let rng = Rng.create 106 in
  let n = 64 and d = 8 and k = 4 in
  let data = rand_array rng (n * d) in
  let cents = rand_array rng (k * d) in
  let env =
    run_app app
      [ ("n", n); ("k", k); ("d", d) ]
      [ ("tile", 16); ("parDist", 4); ("parAcc", 2); ("parPoints", 4); ("meta", 1) ]
      [ ("points", data); ("centroids", cents) ]
  in
  let sums, counts = K.kmeans_sums ~points:n ~dims:d ~k ~data ~centroids:cents in
  check_arrays "sums" (Interp.offchip env "sums") sums;
  check_arrays "counts" (Interp.offchip env "counts") counts

let prop_gda_param_invariance =
  (* Whatever legal parameters the DSE picks, the computed sigma is the
     same — the guarantee that makes exploring over the template parameters
     safe. *)
  QCheck.Test.make ~name:"gda results invariant under parameters" ~count:15 QCheck.small_int
    (fun seed ->
      let app = Registry.find "gda" in
      let sizes = [ ("r", 24); ("d", 8) ] in
      let rng = Rng.create (seed + 7) in
      let x = rand_array rng (24 * 8) and y = rand_bits rng 24 in
      let mu0 = rand_array rng 8 and mu1 = rand_array rng 8 in
      let space = app.App.space sizes in
      let point = List.hd (Space.sample space ~seed ~max_points:1) in
      let env =
        run_app app sizes point [ ("x", x); ("y", y); ("mu0", mu0); ("mu1", mu1) ]
      in
      let expect = K.gda ~rows:24 ~cols:8 ~x ~y ~mu0 ~mu1 in
      Array.for_all2 close (Interp.offchip env "sigma") expect)

let () =
  Alcotest.run "apps"
    [
      ("registry", [ Alcotest.test_case "suite" `Quick test_registry ]);
      ( "defaults",
        [
          QCheck_alcotest.to_alcotest prop_divisor_tile_oracle;
          Alcotest.test_case "divisor_tile known" `Quick test_divisor_tile_known;
          Alcotest.test_case "default params pinned" `Quick test_default_params_pinned;
        ] );
      ( "structure",
        [
          Alcotest.test_case "validate test sizes" `Quick test_all_validate_at_test_sizes;
          Alcotest.test_case "validate paper sizes" `Quick test_all_validate_at_paper_sizes;
          Alcotest.test_case "spaces legal" `Quick test_spaces_nonempty_and_legal;
          Alcotest.test_case "tiles must divide their extents" `Quick test_tile_must_divide;
          Alcotest.test_case "deterministic" `Quick test_generation_deterministic;
          Alcotest.test_case "params recorded" `Quick test_params_recorded;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "dotproduct" `Quick test_dotproduct_correct;
          Alcotest.test_case "outerprod" `Quick test_outerprod_correct;
          Alcotest.test_case "gemm" `Quick test_gemm_correct;
          Alcotest.test_case "tpchq6" `Quick test_tpchq6_correct;
          Alcotest.test_case "blackscholes" `Quick test_blackscholes_correct;
          Alcotest.test_case "gda" `Quick test_gda_correct;
          Alcotest.test_case "kmeans" `Quick test_kmeans_correct;
          QCheck_alcotest.to_alcotest prop_gda_param_invariance;
        ] );
    ]
