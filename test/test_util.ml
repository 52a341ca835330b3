(* Unit and property tests for the utility layer: PRNG, statistics, integer
   arithmetic, linear algebra, Pareto extraction and text rendering. *)

module Rng = Dhdl_util.Rng
module Stats = Dhdl_util.Stats
module Intmath = Dhdl_util.Intmath
module Matrix = Dhdl_util.Matrix
module Pareto = Dhdl_util.Pareto
module Texttable = Dhdl_util.Texttable
module Asciiplot = Dhdl_util.Asciiplot
module Emit = Dhdl_util.Emit

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------- Rng ------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let sa = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check_bool "streams differ" true (sa <> sb)

let test_rng_zero_seed () =
  let a = Rng.create 0 in
  check_bool "zero seed works" true (Rng.int a 10 >= 0)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  check_int "copy continues identically" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let sa = List.init 10 (fun _ -> Rng.int a 1000) in
  let sb = List.init 10 (fun _ -> Rng.int b 1000) in
  check_bool "split decorrelates" true (sa <> sb)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_int_in =
  QCheck.Test.make ~name:"rng int_in inclusive" ~count:500
    QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, width) ->
      let r = Rng.create seed in
      let v = Rng.int_in r lo (lo + width) in
      v >= lo && v <= lo + width)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng float in bounds" ~count:300 QCheck.small_int (fun seed ->
      let r = Rng.create seed in
      let v = Rng.float r 3.5 in
      v >= 0.0 && v < 3.5)

let test_rng_gaussian_stats () =
  let r = Rng.create 13 in
  let xs = List.init 20_000 (fun _ -> Rng.gaussian r ~mean:5.0 ~sigma:2.0) in
  Alcotest.(check (float 0.1)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 0.1)) "sigma" 2.0 (Stats.stddev xs)

let prop_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size Gen.(1 -- 30) int))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Rng.shuffle (Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let test_sample_distinct () =
  let r = Rng.create 3 in
  let xs = List.init 50 (fun i -> i) in
  let s = Rng.sample r xs 20 in
  check_int "size" 20 (List.length s);
  check_int "distinct" 20 (List.length (List.sort_uniq compare s));
  let all = Rng.sample r xs 100 in
  check_int "capped at population" 50 (List.length all)

let test_choice_membership () =
  let r = Rng.create 5 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    check_bool "member" true (Array.mem (Rng.choice r arr) arr)
  done;
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.choice_list: empty list") (fun () ->
      ignore (Rng.choice_list r []))

(* ------------------------- Stats ----------------------------------- *)

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "empty" 0.0 (Stats.mean [])

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ] ** 1.0 |> fun x -> Float.round x);
  check_float "empty" 0.0 (Stats.geomean [])

let test_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-6)) "known" (sqrt 2.0) (Stats.stddev [ 1.0; 3.0; 1.0; 3.0 ] *. sqrt 2.0)

let test_median () =
  check_float "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "empty" 0.0 (Stats.median [])

let test_minmax () =
  check_float "min" (-1.0) (Stats.minimum [ 3.0; -1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; -1.0; 2.0 ])

let test_percent_error () =
  check_float "basic" 10.0 (Stats.percent_error ~actual:100.0 ~predicted:110.0);
  check_float "under" 10.0 (Stats.percent_error ~actual:100.0 ~predicted:90.0);
  check_float "zero-zero" 0.0 (Stats.percent_error ~actual:0.0 ~predicted:0.0);
  check_float "zero-actual" 100.0 (Stats.percent_error ~actual:0.0 ~predicted:5.0)

let test_mape () =
  check_float "mape" 10.0 (Stats.mean_abs_percent_error [ (100.0, 110.0); (100.0, 90.0) ])

let test_correlation () =
  check_float "perfect" 1.0 (Stats.correlation [ 1.0; 2.0; 3.0 ] [ 2.0; 4.0; 6.0 ]);
  check_float "anti" (-1.0) (Stats.correlation [ 1.0; 2.0; 3.0 ] [ 3.0; 2.0; 1.0 ]);
  check_float "degenerate" 0.0 (Stats.correlation [ 1.0; 1.0 ] [ 2.0; 3.0 ])

let test_rank_preserved () =
  check_bool "kept" true (Stats.rank_preserved [ 1.0; 5.0; 3.0 ] [ 10.0; 50.0; 30.0 ]);
  check_bool "broken" false (Stats.rank_preserved [ 1.0; 5.0; 3.0 ] [ 10.0; 20.0; 30.0 ])

(* ------------------------- Intmath --------------------------------- *)

let test_ceil_div () =
  check_int "exact" 4 (Intmath.ceil_div 12 3);
  check_int "round up" 5 (Intmath.ceil_div 13 3);
  check_int "one" 1 (Intmath.ceil_div 1 100)

let test_round_up () =
  check_int "round_up" 15 (Intmath.round_up 13 5);
  check_int "exact" 15 (Intmath.round_up 15 5)

(* Against the float floor, over both signs of either operand. *)
let prop_floor_div =
  QCheck.Test.make ~name:"floor_div = floor of the real quotient" ~count:2_000
    QCheck.(pair (int_range (-10_000) 10_000) (int_range (-50) 50))
    (fun (a, b) ->
      b = 0
      || Intmath.floor_div a b = int_of_float (Float.floor (float_of_int a /. float_of_int b)))

let prop_gcd_lcm =
  QCheck.Test.make ~name:"gcd*lcm = a*b" ~count:300
    QCheck.(pair (int_range 1 10_000) (int_range 1 10_000))
    (fun (a, b) -> Intmath.gcd a b * Intmath.lcm a b = a * b)

let prop_divisors =
  QCheck.Test.make ~name:"divisors all divide and are complete" ~count:100
    QCheck.(int_range 1 2_000)
    (fun n ->
      let ds = Intmath.divisors n in
      List.for_all (fun d -> n mod d = 0) ds
      && List.length ds = List.length (List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1)))
      && List.sort compare ds = ds)

let test_divisors_known () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Intmath.divisors 12);
  Alcotest.(check (list int)) "capped" [ 1; 2; 3; 4 ] (Intmath.divisors_up_to 12 5)

let test_pow2 () =
  Alcotest.(check (list int)) "pow2" [ 1; 2; 4; 8 ] (Intmath.pow2_up_to 8);
  check_bool "is_pow2 yes" true (Intmath.is_pow2 64);
  check_bool "is_pow2 no" false (Intmath.is_pow2 48);
  check_bool "is_pow2 zero" false (Intmath.is_pow2 0)

let prop_next_pow2 =
  QCheck.Test.make ~name:"next_pow2 minimal power" ~count:200
    QCheck.(int_range 1 100_000)
    (fun n ->
      let p = Intmath.next_pow2 n in
      Intmath.is_pow2 p && p >= n && (p = 1 || p / 2 < n))

let test_ilog2 () =
  check_int "1" 0 (Intmath.ilog2_ceil 1);
  check_int "2" 1 (Intmath.ilog2_ceil 2);
  check_int "3" 2 (Intmath.ilog2_ceil 3);
  check_int "1024" 10 (Intmath.ilog2_ceil 1024)

let test_clamp_prod () =
  check_int "clamp low" 2 (Intmath.clamp ~lo:2 ~hi:8 0);
  check_int "clamp high" 8 (Intmath.clamp ~lo:2 ~hi:8 99);
  check_int "prod" 24 (Intmath.prod [ 2; 3; 4 ]);
  check_int "prod empty" 1 (Intmath.prod [])

(* ------------------------- Matrix ---------------------------------- *)

let test_solve_known () =
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matrix.solve a [| 5.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "x0" 1.0 x.(0);
  Alcotest.(check (float 1e-9)) "x1" 3.0 x.(1)

let test_solve_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular system") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let prop_solve_residual =
  QCheck.Test.make ~name:"solve residual small" ~count:100 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n = 4 in
      let a = Matrix.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Matrix.set a i j (Rng.float_in rng (-1.0) 1.0)
        done;
        (* Diagonal dominance keeps the system well-conditioned. *)
        Matrix.set a i i (Rng.float_in rng 4.0 6.0)
      done;
      let b = Array.init n (fun _ -> Rng.float_in rng (-5.0) 5.0) in
      let x = Matrix.solve a b in
      let r = Matrix.mul_vec a x in
      Array.for_all2 (fun ri bi -> Float.abs (ri -. bi) < 1e-6) r b)

let test_transpose_involution () =
  let a = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Matrix.transpose (Matrix.transpose a) in
  for i = 0 to 1 do
    for j = 0 to 2 do
      check_float "tt = id" (Matrix.get a i j) (Matrix.get t i j)
    done
  done

let test_identity_mul () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let p = Matrix.mul (Matrix.identity 2) a in
  for i = 0 to 1 do
    for j = 0 to 1 do
      check_float "I*A = A" (Matrix.get a i j) (Matrix.get p i j)
    done
  done

let test_least_squares_exact () =
  (* y = 3x + 1 fit from 4 points. *)
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| 3.0; 1.0 |] |] in
  let sol = Matrix.least_squares a [| 1.0; 4.0; 7.0; 10.0 |] in
  Alcotest.(check (float 1e-4)) "slope" 3.0 sol.(0);
  Alcotest.(check (float 1e-4)) "intercept" 1.0 sol.(1)

(* ------------------------- Pareto ---------------------------------- *)

let test_dominates () =
  check_bool "strict" true (Pareto.dominates (1.0, 1.0) (2.0, 2.0));
  check_bool "partial" true (Pareto.dominates (1.0, 2.0) (2.0, 2.0));
  check_bool "equal" false (Pareto.dominates (1.0, 1.0) (1.0, 1.0));
  check_bool "incomparable" false (Pareto.dominates (1.0, 3.0) (2.0, 2.0))

let test_frontier_known () =
  let pts = [ (1.0, 5.0); (2.0, 3.0); (3.0, 4.0); (4.0, 1.0); (5.0, 2.0) ] in
  let f = Pareto.frontier (fun p -> p) pts in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "frontier" [ (1.0, 5.0); (2.0, 3.0); (4.0, 1.0) ] f

let pair_gen = QCheck.(list_of_size Gen.(2 -- 40) (pair (float_range 0.0 10.0) (float_range 0.0 10.0)))

let prop_frontier_nondominated =
  QCheck.Test.make ~name:"frontier members are non-dominated" ~count:200 pair_gen (fun pts ->
      let f = Pareto.frontier (fun p -> p) pts in
      List.for_all (fun m -> not (List.exists (fun p -> Pareto.dominates p m) pts)) f)

let prop_frontier_covers =
  QCheck.Test.make ~name:"non-members are dominated or duplicates" ~count:200 pair_gen (fun pts ->
      let f = Pareto.frontier (fun p -> p) pts in
      List.for_all
        (fun p -> List.mem p f || List.exists (fun m -> Pareto.dominates m p || m = p) f)
        pts)

let prop_frontier_subset =
  QCheck.Test.make ~name:"frontier is a subset" ~count:200 pair_gen (fun pts ->
      List.for_all (fun m -> List.mem m pts) (Pareto.frontier (fun p -> p) pts))

let test_is_frontier_member () =
  let pts = [ (1.0, 5.0); (4.0, 1.0) ] in
  check_bool "member" true (Pareto.is_frontier_member (fun p -> p) pts (2.0, 2.0));
  check_bool "dominated" false (Pareto.is_frontier_member (fun p -> p) pts (5.0, 6.0))

(* ------------------------- Texttable / Asciiplot ------------------- *)

let test_commas () =
  Alcotest.(check string) "millions" "1,234,567" (Texttable.fmt_int_commas 1_234_567);
  Alcotest.(check string) "small" "42" (Texttable.fmt_int_commas 42);
  Alcotest.(check string) "negative" "-1,000" (Texttable.fmt_int_commas (-1000))

let test_render_table () =
  let s = Texttable.render ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "long"; "22" ] ] in
  check_bool "has header" true (String.length s > 0);
  check_bool "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.trim l <> "" && String.length l >= 6))

let test_fmt () =
  Alcotest.(check string) "float" "3.14" (Texttable.fmt_float 3.14159);
  Alcotest.(check string) "pct" "12.3%" (Texttable.fmt_pct 12.34)

let test_asciiplot_degenerate () =
  (* Non-positive values on a log axis are dropped, not crashed on. *)
  let s =
    Asciiplot.render ~log_y:true
      [ { Asciiplot.label = '.'; points = [ (0.0, 0.0); (1.0, -5.0); (2.0, 100.0) ] } ]
  in
  check_bool "renders" true (String.length s > 0);
  (* A single point still renders (degenerate ranges). *)
  let one = Asciiplot.render [ { Asciiplot.label = '*'; points = [ (1.0, 1.0) ] } ] in
  check_bool "single point" true (String.contains one '*')

let test_asciiplot () =
  let s =
    Asciiplot.render ~width:20 ~height:5
      [ { Asciiplot.label = '.'; points = [ (0.0, 1.0); (1.0, 10.0) ] } ]
  in
  check_bool "has dot" true (String.contains s '.');
  Alcotest.(check string) "empty" "(no points)\n" (Asciiplot.render []);
  let logp =
    Asciiplot.render ~log_y:true [ { Asciiplot.label = '*'; points = [ (0.0, 10.0); (1.0, 1000.0) ] } ]
  in
  check_bool "log axis labeled" true (String.length logp > 0)

(* ---- Emit: the writers must produce the standard formatters' bytes ---- *)

let via f x =
  let b = Buffer.create 16 in
  f b x;
  Buffer.contents b

let test_emit_int_edges () =
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (via Emit.add_int n))
    [ 0; 1; -1; 9; 10; -10; 99; 100; -101; 123_456_789; max_int; min_int; max_int - 1;
      min_int + 1 ]

let prop_emit_int =
  QCheck.Test.make ~count:2_000 ~name:"add_int = string_of_int" QCheck.int (fun n ->
      String.equal (string_of_int n) (via Emit.add_int n))

let test_emit_hex_float_specials () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (Printf.sprintf "%h" f)
        (via Emit.add_hex_float f))
    [ nan; -.nan; infinity; neg_infinity; 0.; -0.; 1.; -1.; 0.1; Float.min_float; Float.max_float;
      -.Float.max_float; Float.epsilon; Int64.float_of_bits 1L;
      Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL; -.Int64.float_of_bits 3L ]

let prop_emit_hex_float =
  QCheck.Test.make ~count:5_000 ~name:"add_hex_float = %h on random bit patterns" QCheck.int64
    (fun bits ->
      let f = Int64.float_of_bits bits in
      String.equal (Printf.sprintf "%h" f) (via Emit.add_hex_float f))

(* The one escaper replaces four identical copies; the oracle keeps one. *)
let test_emit_escape_every_byte () =
  for c = 0 to 255 do
    let s = String.make 1 (Char.chr c) in
    Alcotest.(check string)
      (Printf.sprintf "byte 0x%02x" c)
      (Serial_oracle.Old_render.escape s) (Emit.json_escape s)
  done;
  Alcotest.(check string) "add_json_escaped appends" "x\\u001f\\\"y"
    (let b = Buffer.create 8 in
     Buffer.add_char b 'x';
     Emit.add_json_escaped b "\031\"y";
     Buffer.contents b)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "zero seed" `Quick test_rng_zero_seed;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "gaussian stats" `Quick test_rng_gaussian_stats;
          Alcotest.test_case "sample distinct" `Quick test_sample_distinct;
          Alcotest.test_case "choice member" `Quick test_choice_membership;
          qtest prop_rng_int_bounds;
          qtest prop_rng_int_in;
          qtest prop_rng_float_bounds;
          qtest prop_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "min max" `Quick test_minmax;
          Alcotest.test_case "percent error" `Quick test_percent_error;
          Alcotest.test_case "mape" `Quick test_mape;
          Alcotest.test_case "correlation" `Quick test_correlation;
          Alcotest.test_case "rank preserved" `Quick test_rank_preserved;
        ] );
      ( "emit",
        [
          Alcotest.test_case "int edges" `Quick test_emit_int_edges;
          qtest prop_emit_int;
          Alcotest.test_case "hex float specials" `Quick test_emit_hex_float_specials;
          qtest prop_emit_hex_float;
          Alcotest.test_case "escape = old escaper, every byte" `Quick test_emit_escape_every_byte;
          qtest (Serial_oracle.prop_escape ~count:2_000);
        ] );
      ( "intmath",
        [
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "round_up" `Quick test_round_up;
          Alcotest.test_case "divisors known" `Quick test_divisors_known;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "ilog2" `Quick test_ilog2;
          Alcotest.test_case "clamp/prod" `Quick test_clamp_prod;
          qtest prop_floor_div;
          qtest prop_gcd_lcm;
          qtest prop_divisors;
          qtest prop_next_pow2;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "solve known" `Quick test_solve_known;
          Alcotest.test_case "solve singular" `Quick test_solve_singular;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
          qtest prop_solve_residual;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "dominates" `Quick test_dominates;
          Alcotest.test_case "frontier known" `Quick test_frontier_known;
          Alcotest.test_case "is_frontier_member" `Quick test_is_frontier_member;
          qtest prop_frontier_nondominated;
          qtest prop_frontier_covers;
          qtest prop_frontier_subset;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "commas" `Quick test_commas;
          Alcotest.test_case "table" `Quick test_render_table;
          Alcotest.test_case "fmt" `Quick test_fmt;
          Alcotest.test_case "asciiplot" `Quick test_asciiplot;
          Alcotest.test_case "asciiplot degenerate" `Quick test_asciiplot_degenerate;
        ] );
    ]
