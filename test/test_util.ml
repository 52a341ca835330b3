(* Unit and property tests for the utility layer: PRNG, statistics, integer
   arithmetic, linear algebra, Pareto extraction, text rendering, and the
   one JSON reader under hostile input. *)

module Rng = Dhdl_util.Rng
module Stats = Dhdl_util.Stats
module Intmath = Dhdl_util.Intmath
module Matrix = Dhdl_util.Matrix
module Pareto = Dhdl_util.Pareto
module Texttable = Dhdl_util.Texttable
module Asciiplot = Dhdl_util.Asciiplot
module Emit = Dhdl_util.Emit
module Fifo_table = Dhdl_util.Fifo_table
module Json = Dhdl_util.Json
module Checkpoint = Dhdl_dse.Checkpoint
module Outcome = Dhdl_dse.Outcome
module Estimator = Dhdl_model.Estimator
module Area_model = Dhdl_model.Area_model

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------- Fifo_table ------------------------------ *)

(* Against a list model in insertion order: adding a bound key is a
   no-op, and past the cap the oldest entries go first. *)
let prop_fifo_table =
  QCheck.Test.make ~count:500 ~name:"Fifo_table = insertion-order list model"
    QCheck.(pair (int_range 0 6) (small_list (pair (int_range 0 9) small_nat)))
    (fun (cap, adds) ->
      let t = Fifo_table.create cap in
      let model = ref [] in
      List.for_all
        (fun (k, v) ->
          let evicted = Fifo_table.add t k v in
          let expected =
            if List.mem_assoc k !model then 0
            else begin
              model := !model @ [ (k, v) ];
              let extra = max 0 (List.length !model - cap) in
              model := List.filteri (fun i _ -> i >= extra) !model;
              extra
            end
          in
          evicted = expected
          && List.for_all (fun key -> Fifo_table.find_opt t key = List.assoc_opt key !model)
               (List.init 10 Fun.id))
        adds)

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

(* ------------------------- Json ------------------------------------ *)

let finite_floats =
  [| 0.; -0.; 1.; -1.5; 0.1; 1e14; 1e15; -1e15; 9.2e16; 1e17; 1e300; Float.max_float;
     -.Float.max_float; Float.min_float; Float.epsilon; Int64.float_of_bits 1L;
     999999999999999.; -999999999999999.; 1e15 +. 1.; 9007199254740992.; 1e18; 4.6116860184273879e18;
     Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL; -.Int64.float_of_bits 1L |]

(* Integral floats below 1e15 (written "%.1f") and at or above it
   (written "%.17g"), either sign. *)
let gen_integral_float =
  let open QCheck.Gen in
  oneof
    [ map Float.of_int small_signed_int;
      map Float.of_int (int_range (-999_999_999_999_999) 999_999_999_999_999);
      map Float.of_int (int_range (-4_000_000_000_000_000_000) 4_000_000_000_000_000_000);
      map (fun k -> 1e15 +. Float.of_int k) (int_range (-3) 3);
      map (fun k -> -1e15 -. Float.of_int k) (int_range (-3) 3) ]

(* Subnormals, either sign: exponent bits all zero. *)
let gen_subnormal =
  QCheck.Gen.map2
    (fun b neg ->
      let f = Int64.float_of_bits (Int64.logand b 0x000F_FFFF_FFFF_FFFFL) in
      if neg then -.f else f)
    QCheck.Gen.ui64 QCheck.Gen.bool

(* Any of the 256 bytes, and more often the ones the writer escapes and
   the reader's string fast path stops at. *)
let gen_byte =
  QCheck.Gen.(frequency [ (4, char); (1, oneofl [ '"'; '\\'; '\n'; '\000'; '\031'; '\127'; '\255' ]) ])

let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:gen_byte (int_range 0 12) in
  let finite f = if Float.is_finite f then f else 0.5 in
  let leaf =
    frequency
      [ (1, return Json.Null); (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun n -> Json.Int n) (oneof [ int; small_signed_int; oneofl [ min_int; max_int ] ]));
        ( 4,
          map
            (fun f -> Json.Float f)
            (oneof
               [ oneofa finite_floats; map finite float;
                 map (fun b -> finite (Int64.float_of_bits b)) ui64; gen_integral_float;
                 gen_subnormal ]) );
        (3, map (fun s -> Json.Str s) str) ]
  in
  sized_size (int_range 0 40)
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (2, leaf);
               (1, map (fun xs -> Json.List xs) (list_size (int_range 0 4) (self (n / 3))));
               ( 1,
                 map (fun kvs -> Json.Obj kvs) (list_size (int_range 0 4) (pair str (self (n / 3)))) )
             ])

let arb_json = QCheck.make ~print:Json.render gen_json

(* Structural equality with numbers compared by value: [Float 1e15]
   renders as [1000000000000000] and reads back as [Int]. Floats compare
   by bits, so [-0.] must come back as [-0.]. *)
let rec same_json a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Int n, Json.Float f | Json.Float f, Json.Int n -> Float.of_int n = f
  | Json.List xs, Json.List ys -> List.equal same_json xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && same_json v v') xs ys
  | _ -> a = b

let prop_json_roundtrip =
  QCheck.Test.make ~count:2_000 ~name:"parse (render v) = v" arb_json (fun v ->
      match Json.parse (Json.render v) with Ok v' -> same_json v v' | Error _ -> false)

(* [Ok] or [Error], never an exception (a stack overflow included). *)
let total s = match Json.parse s with Ok _ | Error _ -> true

(* Random byte strings, weighted toward JSON's own bytes. *)
let arb_bytes =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (6, oneofl (List.of_seq (String.to_seq "{}[]\",:\\u0123456789aeE+-.")));
        (2, oneofl [ 't'; 'r'; 'n'; 'l'; 'f'; 's'; ' '; '\n' ]); (1, char) ]
  in
  QCheck.make ~print:String.escaped (string_size ~gen:byte (int_range 0 64))

let prop_json_total_bytes =
  QCheck.Test.make ~count:5_000 ~name:"parse never raises on arbitrary bytes" arb_bytes total

let prop_json_total_prefixes =
  QCheck.Test.make ~count:500 ~name:"parse never raises on a prefix of a rendered value" arb_json
    (fun v ->
      let r = Json.render v in
      List.for_all (fun k -> total (String.sub r 0 k)) (List.init (String.length r + 1) Fun.id))

let prop_json_total_mutants =
  QCheck.Test.make ~count:2_000 ~name:"parse never raises on a rendered value with one byte replaced"
    QCheck.(triple arb_json small_nat char)
    (fun (v, at, c) ->
      let r = Bytes.of_string (Json.render v) in
      Bytes.set r (at mod Bytes.length r) c;
      total (Bytes.to_string r))

let parses s = match Json.parse s with Ok v -> Some v | Error _ -> None

(* ---------------- Json against the verbatim old codec (Json_oracle) *)

(* Exact equality: floats by their bits, so [Int 7] and [Float 7.] and
   [0.] and [-0.] all differ. *)
let rec identical a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal identical xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && identical v v') xs ys
  | _ -> a = b

(* The same value, or the same error message, offset included. *)
let parse_as_oracle s =
  match (Json.parse s, Json_oracle.parse s) with
  | Ok v, Ok v' -> identical v v'
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let prop_render_oracle =
  QCheck.Test.make ~count:3_000 ~name:"render = the oracle's render, finite values" arb_json
    (fun v -> String.equal (Json.render v) (Json_oracle.render v))

let prop_parse_oracle_rendered =
  QCheck.Test.make ~count:2_000 ~name:"parse = the oracle's parse, rendered values" arb_json
    (fun v -> parse_as_oracle (Json.render v))

let prop_parse_oracle_prefixes =
  QCheck.Test.make ~count:400 ~name:"parse = the oracle's parse, every prefix" arb_json (fun v ->
      let r = Json.render v in
      List.for_all
        (fun k -> parse_as_oracle (String.sub r 0 k))
        (List.init (String.length r + 1) Fun.id))

let prop_parse_oracle_mutants =
  QCheck.Test.make ~count:3_000 ~name:"parse = the oracle's parse, one-byte mutants"
    QCheck.(triple arb_json small_nat char)
    (fun (v, at, c) ->
      let r = Bytes.of_string (Json.render v) in
      Bytes.set r (at mod Bytes.length r) c;
      parse_as_oracle (Bytes.to_string r))

let prop_parse_oracle_bytes =
  QCheck.Test.make ~count:5_000 ~name:"parse = the oracle's parse, random bytes" arb_bytes
    parse_as_oracle

(* Number lexemes around the integer fast path (an optional '-' and 1-18
   digits), alone and where a value sits in a document. *)
let number_edges =
  [ "0"; "-0"; "7"; "-7"; "007"; "-007"; "+7"; "-"; "--1"; "-+1"; "1-2"; "1e3"; "1E3"; "5."; ".5";
    "-.5"; "1.0"; "-1.5e-3"; "1e400"; "-1e400"; "1e"; "e1"; "+"; ".";
    String.make 18 '9'; "-" ^ String.make 18 '9'; String.make 18 '0'; "1" ^ String.make 17 '0';
    String.make 19 '9'; "-" ^ String.make 19 '9'; String.make 19 '0'; "1" ^ String.make 18 '0';
    "-1" ^ String.make 18 '0'; "4611686018427387903"; "4611686018427387904";
    "-4611686018427387904"; "-4611686018427387905"; "9999999999999999999" ]

let in_contexts lexeme =
  [ lexeme; " " ^ lexeme ^ " "; "[" ^ lexeme ^ "]"; "[" ^ lexeme ^ ","; "{\"a\":" ^ lexeme ^ "}";
    "[" ^ lexeme ^ " ]"; "[1," ^ lexeme ^ "]"; lexeme ^ "x"; lexeme ^ "\"" ]

let test_json_number_edges () =
  List.iter
    (fun lexeme ->
      List.iter
        (fun doc -> check_bool (Printf.sprintf "%S as the oracle reads it" doc) true (parse_as_oracle doc))
        (in_contexts lexeme))
    number_edges;
  check_bool "18 nines is an Int" true
    (Json.parse (String.make 18 '9') = Ok (Json.Int 999_999_999_999_999_999));
  check_bool "-0 is Int 0" true (Json.parse "-0" = Ok (Json.Int 0))

let prop_parse_oracle_lexemes =
  let open QCheck.Gen in
  let lexeme =
    string_size
      ~gen:(frequency [ (8, numeral); (1, oneofl [ '-'; '+'; '.'; 'e'; 'E' ]) ])
      (int_range 0 22)
  in
  QCheck.Test.make ~count:5_000 ~name:"parse = the oracle's parse, number lexemes"
    (QCheck.make ~print:String.escaped (map2 (fun l k -> List.nth (in_contexts l) k) lexeme (int_range 0 8)))
    parse_as_oracle

(* Strings around the string fast path (no backslash before the closing
   quote): escapes first, last and alone, and strings cut off. *)
let test_json_string_edges () =
  List.iter
    (fun doc -> check_bool (Printf.sprintf "%S as the oracle reads it" doc) true (parse_as_oracle doc))
    [ "\"\""; "\"abc\""; "\"\\n\""; "\"a\\\"b\""; "\"\\\\\""; "\"abc\\\""; "\"abc"; "\"abc\\";
      "\"ab\\u00e9c\""; "\"\\u12\""; "\"\\x\""; "\"raw\ncontrol\000\""; "\""; "{\"k\":\"v\"}";
      "{\"k\\\"\":1}"; "{\"k"; "[\"a\",\"b\\\\\",\"c\"]" ]

(* JSON has no NaN or infinity; the oracle writes [nan], [inf] and
   [-inf], which no JSON reader accepts. *)
let test_json_non_finite_null () =
  List.iter
    (fun f -> Alcotest.(check string) (Printf.sprintf "%h renders null" f) "null" (Json.render (Json.Float f)))
    [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity ];
  let doc = Json.render (Json.Obj [ ("a", Json.List [ Json.Float Float.nan; Json.Float 1.5 ]) ]) in
  Alcotest.(check string) "nested" "{\"a\":[null,1.5]}" doc;
  check_bool "reads back" true
    (Json.parse doc = Ok (Json.Obj [ ("a", Json.List [ Json.Null; Json.Float 1.5 ]) ]))

let test_json_unicode_escapes () =
  let str s = parses (Printf.sprintf "\"%s\"" s) in
  check_bool "\\u00e9 is UTF-8" true (str "caf\\u00e9" = Some (Json.Str "caf\xc3\xa9"));
  check_bool "upper-case hex" true (str "\\u00C9" = Some (Json.Str "\xc3\x89"));
  check_bool "ASCII stays one byte" true (str "\\u0041\\u0000" = Some (Json.Str "A\000"));
  check_bool "three-byte scalar" true (str "\\u20ac" = Some (Json.Str "\xe2\x82\xac"));
  check_bool "a surrogate half is ?" true (str "\\ud800" = Some (Json.Str "?"));
  check_bool "a pair is two ?" true (str "\\ud83d\\ude00" = Some (Json.Str "??"));
  List.iter
    (fun bad -> check_bool (bad ^ " is an error") true (str bad = None))
    [ "\\u1_00"; "\\u0_0_"; "\\u+123"; "\\u12"; "\\u12g4"; "\\u" ]

(* A checkpoint file holding only a header line; [space], [seed] and
   [params] are spliced in as raw JSON text. *)
let write_header path ~space ~seed ~params =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\"kind\":\"header\",\"version\":1,\"space\":\"%s\",\"seed\":%s,\"max_points\":2,\
         \"total\":2,\"params\":[%s]}\n"
        space seed params)

let test_json_unicode_consumers () =
  (match Dhdl_serve.Protocol.parse_request "{\"id\":\"caf\\u00e9\",\"verb\":\"ping\"}" with
  | Ok r -> Alcotest.(check string) "serve request id" "caf\xc3\xa9" r.Dhdl_serve.Protocol.q_id
  | Error msg -> Alcotest.fail msg);
  let path = Filename.temp_file "json_unicode" ".jsonl" in
  write_header path ~space:"caf\\u00e9" ~seed:"1" ~params:"\"p\\ud800\"";
  (match Checkpoint.load ~path with
  | Ok c ->
    Alcotest.(check string) "checkpoint space name" "caf\xc3\xa9" c.Checkpoint.space_name;
    Alcotest.(check (list string)) "checkpoint params" [ "p?" ] c.Checkpoint.params
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  match Dhdl_obs.Obs.summary_of_jsonl "{\"type\":\"counter\",\"name\":\"caf\\u00e9\",\"value\":7}\n" with
  | Ok summary ->
    check_bool "JSONL counter name" true
      (List.exists (String.starts_with ~prefix:"caf\xc3\xa9 ") (String.split_on_char '\n' summary))
  | Error msg -> Alcotest.fail msg

(* The program writes integers as integer lexemes, so in a checkpoint or
   a JSONL log a float where an integer belongs is corruption, not a
   value to round. *)
let test_json_file_integers_strict () =
  let path = Filename.temp_file "json_ints" ".jsonl" in
  List.iter
    (fun (seed, ok) ->
      write_header path ~space:"s" ~seed ~params:"";
      check_bool ("checkpoint seed " ^ seed) ok (Result.is_ok (Checkpoint.load ~path)))
    [ ("7", true); ("-7", true); ("7.0", false); ("1e3", false); ("9999999999999999999", false) ];
  Sys.remove path;
  List.iter
    (fun (value, ok) ->
      check_bool ("JSONL counter value " ^ value) ok
        (Result.is_ok
           (Dhdl_obs.Obs.summary_of_jsonl
              (Printf.sprintf "{\"type\":\"counter\",\"name\":\"c\",\"value\":%s}\n" value))))
    [ ("7", true); ("7.0", false); ("1e3", false); ("1e300", false) ]

let nested depth = String.make depth '[' ^ String.make depth ']'

let nested_objects depth =
  String.concat "" (List.init (depth - 1) (fun _ -> "{\"a\":")) ^ "{}" ^ String.make (depth - 1) '}'

let test_json_depth_cap () =
  check_int "the cap" 512 Json.max_depth;
  check_bool "depth 512 parses" true (parses (nested 512) <> None);
  check_bool "objects to depth 512 parse" true (parses (nested_objects 512) <> None);
  (match Json.parse (nested 513) with
  | Ok _ -> Alcotest.fail "depth 513 accepted"
  | Error msg ->
    Alcotest.(check string) "error at the 513th bracket" "nesting deeper than 512 at offset 512" msg);
  check_bool "objects at depth 513 fail" true (parses (nested_objects 513) = None);
  let line = String.make 4_000_000 '[' in
  let t0 = Unix.gettimeofday () in
  let r = Json.parse line in
  let dt = Unix.gettimeofday () -. t0 in
  check_bool "4,000,000-deep line is an error" true (Result.is_error r);
  check_bool (Printf.sprintf "answered in %.3f s (< 1 s)" dt) true (dt < 1.0)

(* Every NaN reads back as a NaN: [%h] does not write a payload. *)
let float_bits f = if Float.is_nan f then 0x7ff8_0000_0000_0000L else Int64.bits_of_float f

let entry_view = function
  | Outcome.Evaluated ev ->
    let est = ev.Outcome.estimate in
    let raw = est.Estimator.raw in
    `Evaluated
      ( ev.Outcome.point, ev.Outcome.valid, est.Estimator.area,
        { raw with Area_model.avg_fanout = 0. },
        List.map float_bits
          [ ev.Outcome.alm_pct; ev.Outcome.dsp_pct; ev.Outcome.bram_pct;
            est.Estimator.cycles; est.Estimator.seconds;
            raw.Area_model.avg_fanout ] )
  | e -> `Other e

let checkpoint_view (c : Checkpoint.t) =
  ( (c.space_name, c.seed, c.max_points, c.total, c.params, c.truncated_tail),
    List.map (fun (i, e) -> (i, entry_view e)) c.entries )

(* A saved checkpoint loads back equal, floats by bits, when its indices
   strictly increase; otherwise (the generator's indices may overflow)
   the load must reject it. *)
let prop_checkpoint_load_save =
  QCheck.Test.make ~count:500 ~name:"Checkpoint.load (save c) = c"
    (QCheck.make ~print:Checkpoint.render Serial_oracle.gen_checkpoint)
    (fun c ->
      let path = Filename.temp_file "ckpt_roundtrip" ".jsonl" in
      Checkpoint.save ~path c;
      let loaded = Checkpoint.load ~path in
      Sys.remove path;
      let rec ascending = function
        | (i, _) :: ((j, _) :: _ as rest) -> i < j && ascending rest
        | _ -> true
      in
      match loaded with
      | Ok c' -> ascending c.entries && checkpoint_view c' = checkpoint_view c
      | Error _ -> not (ascending c.entries))

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
      ("fifo", [ qtest prop_fifo_table ]);
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
      ( "json",
        [
          qtest prop_json_roundtrip;
          qtest prop_json_total_bytes;
          qtest prop_json_total_prefixes;
          qtest prop_json_total_mutants;
          Alcotest.test_case "\\u escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "\\u00e9 through request, checkpoint, JSONL" `Quick
            test_json_unicode_consumers;
          Alcotest.test_case "depth cap" `Quick test_json_depth_cap;
          Alcotest.test_case "file integers are integer lexemes" `Quick
            test_json_file_integers_strict;
          qtest prop_checkpoint_load_save;
        ] );
      ( "codec",
        [
          qtest prop_render_oracle;
          Alcotest.test_case "non-finite floats render null" `Quick test_json_non_finite_null;
          qtest prop_parse_oracle_rendered;
          qtest prop_parse_oracle_prefixes;
          qtest prop_parse_oracle_mutants;
          qtest prop_parse_oracle_bytes;
          Alcotest.test_case "number lexemes at the fast path's edges" `Quick
            test_json_number_edges;
          qtest prop_parse_oracle_lexemes;
          Alcotest.test_case "strings at the fast path's edges" `Quick test_json_string_edges;
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
