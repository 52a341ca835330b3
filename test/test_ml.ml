(* Tests for the machine-learning layer: min-max scaling, linear regression
   and the multilayer perceptron with RPROP training (Encog's model class,
   Section IV.B.2), pinned bit for bit to the trainer it replaced. *)

module Mlp = Dhdl_ml.Mlp
module O = Mlp_oracle
module Scaler = Dhdl_ml.Scaler
module Linreg = Dhdl_ml.Linreg
module Rng = Dhdl_util.Rng

let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

(* ------------------------- Scaler ---------------------------------- *)

let test_scaler_bounds () =
  let samples = [ [| 0.0; 10.0 |]; [| 5.0; 20.0 |]; [| 10.0; 30.0 |] ] in
  let s = Scaler.fit samples in
  Alcotest.(check int) "dim" 2 (Scaler.dim s);
  let t = Scaler.transform s [| 5.0; 20.0 |] in
  check_float "mid x" 0.5 t.(0);
  check_float "mid y" 0.5 t.(1);
  let lo = Scaler.transform s [| 0.0; 10.0 |] in
  check_float "low" 0.0 lo.(0);
  let hi = Scaler.transform s [| 10.0; 30.0 |] in
  check_float "high" 1.0 hi.(1)

let test_scaler_zero_range () =
  let s = Scaler.fit [ [| 7.0 |]; [| 7.0 |] ] in
  check_float "constant column maps to 0.5" 0.5 (Scaler.transform s [| 7.0 |]).(0)

let test_scaler_value_roundtrip () =
  let v = Scaler.transform_value ~lo:10.0 ~hi:20.0 15.0 in
  check_float "forward" 0.5 v;
  check_float "inverse" 15.0 (Scaler.inverse_value ~lo:10.0 ~hi:20.0 v)

let test_scaler_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Scaler.fit: empty sample list") (fun () ->
      ignore (Scaler.fit []))

(* ------------------------- Linreg ---------------------------------- *)

let test_linreg_exact () =
  (* y = 2a - 3b + 5 *)
  let samples =
    [
      ([| 0.0; 0.0 |], 5.0);
      ([| 1.0; 0.0 |], 7.0);
      ([| 0.0; 1.0 |], 2.0);
      ([| 2.0; 1.0 |], 6.0);
      ([| 3.0; 2.0 |], 5.0);
    ]
  in
  let m = Linreg.fit samples in
  Alcotest.(check (float 1e-3)) "coef a" 2.0 (Linreg.coefficients m).(0);
  Alcotest.(check (float 1e-3)) "coef b" (-3.0) (Linreg.coefficients m).(1);
  Alcotest.(check (float 1e-3)) "intercept" 5.0 (Linreg.intercept m);
  Alcotest.(check (float 1e-3)) "predict" 4.0 (Linreg.predict m [| 1.0; 1.0 |]);
  Alcotest.(check (float 1e-6)) "r2 exact" 1.0 (Linreg.r_squared m samples)

let test_linreg_noisy_r2 () =
  let rng = Rng.create 4 in
  let samples =
    List.init 50 (fun i ->
        let x = float_of_int i in
        ([| x |], (2.0 *. x) +. Rng.gaussian rng ~mean:0.0 ~sigma:5.0))
  in
  let m = Linreg.fit samples in
  let r2 = Linreg.r_squared m samples in
  check_bool "good but not perfect" true (r2 > 0.9 && r2 < 1.0)

let test_linreg_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Linreg.fit: empty sample list") (fun () ->
      ignore (Linreg.fit []))

(* ------------------------- Mlp ------------------------------------- *)

let test_mlp_shape () =
  let net = Mlp.create ~layer_sizes:[ 11; 6; 1 ] () in
  Alcotest.(check int) "inputs" 11 (Mlp.inputs net);
  Alcotest.(check int) "outputs" 1 (Mlp.outputs net)

let test_mlp_deterministic () =
  let net = Mlp.create ~rng:(Rng.create 9) ~layer_sizes:[ 3; 4; 2 ] () in
  let a = Mlp.predict net [| 0.1; 0.2; 0.3 |] in
  let b = Mlp.predict net [| 0.1; 0.2; 0.3 |] in
  Alcotest.(check (float 0.0)) "same output 0" a.(0) b.(0);
  Alcotest.(check (float 0.0)) "same output 1" a.(1) b.(1)

let xor_samples =
  [
    ([| 0.0; 0.0 |], [| 0.0 |]);
    ([| 0.0; 1.0 |], [| 1.0 |]);
    ([| 1.0; 0.0 |], [| 1.0 |]);
    ([| 1.0; 1.0 |], [| 0.0 |]);
  ]

let test_mlp_rprop_xor () =
  let net = Mlp.create ~rng:(Rng.create 17) ~layer_sizes:[ 2; 6; 1 ] () in
  let mse = Mlp.train_rprop ~epochs:600 net xor_samples in
  Alcotest.(check bool) "xor learned" true (mse < 0.01);
  List.iter
    (fun (x, t) ->
      let y = Mlp.predict1 net x in
      Alcotest.(check bool) "classified" true (Float.abs (y -. t.(0)) < 0.3))
    xor_samples

let test_mlp_rprop_quadratic () =
  (* The universal-approximation claim the paper cites [35]: fit x^2. *)
  let samples =
    List.init 21 (fun i ->
        let x = float_of_int i /. 20.0 in
        ([| x |], [| x *. x |]))
  in
  let net = Mlp.create ~rng:(Rng.create 23) ~layer_sizes:[ 1; 6; 1 ] () in
  let mse = Mlp.train_rprop ~epochs:800 net samples in
  Alcotest.(check bool) "quadratic fit" true (mse < 1e-3)

let test_mlp_sgd_reduces_error () =
  let net = Mlp.create ~rng:(Rng.create 31) ~layer_sizes:[ 2; 6; 1 ] () in
  let before = Mlp.mse net xor_samples in
  let after = Mlp.train_sgd ~epochs:400 ~rate:0.3 net xor_samples in
  Alcotest.(check bool) "sgd improves" true (after < before)

let test_mlp_multi_output () =
  (* Learn [sum; product] of two inputs on a small grid. *)
  let samples =
    List.concat_map
      (fun i ->
        List.map
          (fun j ->
            let a = float_of_int i /. 4.0 and b = float_of_int j /. 4.0 in
            ([| a; b |], [| (a +. b) /. 2.0; a *. b |]))
          [ 0; 1; 2; 3; 4 ])
      [ 0; 1; 2; 3; 4 ]
  in
  let net = Mlp.create ~rng:(Rng.create 41) ~layer_sizes:[ 2; 8; 2 ] () in
  let mse = Mlp.train_rprop ~epochs:800 net samples in
  Alcotest.(check bool) "two-output regression" true (mse < 5e-3)

let test_mlp_early_stop () =
  (* With target_mse huge, training stops after the first epoch. *)
  let net = Mlp.create ~rng:(Rng.create 5) ~layer_sizes:[ 2; 4; 1 ] () in
  let mse = Mlp.train_rprop ~epochs:100000 ~target_mse:1e9 net xor_samples in
  Alcotest.(check bool) "stops early" true (mse < 1e9 +. 1.0)

let test_mlp_rejects_misshaped_samples () =
  let net = Mlp.create ~rng:(Rng.create 5) ~layer_sizes:[ 2; 4; 1 ] () in
  let bad = Invalid_argument "Mlp: a sample's shape does not match the network" in
  Alcotest.check_raises "short input" bad (fun () ->
      ignore (Mlp.train_rprop net [ ([| 0.0 |], [| 0.0 |]) ]));
  Alcotest.check_raises "long input" bad (fun () ->
      ignore (Mlp.train_sgd net [ ([| 0.0; 1.0; 2.0 |], [| 0.0 |]) ]));
  Alcotest.check_raises "no target" bad (fun () -> ignore (Mlp.mse net [ ([| 0.0; 1.0 |], [||]) ]));
  Alcotest.check_raises "predict"
    (Invalid_argument "Mlp.predict: the input width does not match the network") (fun () ->
      ignore (Mlp.predict net [| 0.0 |]))

(* The epoch loop allocates nothing: 100 more epochs cost no more minor
   words than 10 (the per-call buffers are the same either way). *)
let test_mlp_epochs_do_not_allocate () =
  let rng = Rng.create 3 in
  let samples =
    List.init 50 (fun _ -> (Array.init 11 (fun _ -> Rng.float rng 1.0), [| Rng.float rng 1.0 |]))
  in
  let words epochs =
    let net = Mlp.create ~rng:(Rng.create 5) ~layer_sizes:[ 11; 6; 1 ] () in
    let before = Gc.minor_words () in
    ignore (Mlp.train_rprop ~epochs ~target_mse:neg_infinity net samples);
    Gc.minor_words () -. before
  in
  let short = words 10 and long = words 110 in
  check_bool (Printf.sprintf "110 epochs %.0f words, 10 epochs %.0f" long short) true
    (long -. short < 64.0)

(* ------------------------- Trainer oracle -------------------------- *)

(* A random training case. With [stop_at] > 0, [target_mse] is the
   oracle's error after [stop_at] updates, so the case stops at that
   epoch or before it, never at its last. *)
type case = {
  sizes : int list;
  tanh : bool;
  seed : int;
  samples : (float array * float array) list;
  epochs : int;
  stop_at : int;
}

let print_case c =
  Printf.sprintf "sizes [%s] %s seed %d, %d samples, %d epochs, stop at %d"
    (String.concat "; " (List.map string_of_int c.sizes))
    (if c.tanh then "tanh" else "sigmoid")
    c.seed (List.length c.samples) c.epochs c.stop_at

let gen_case ~max_epochs =
  let open QCheck.Gen in
  let* n_in = int_range 1 12 in
  let* hidden_sizes = list_size (int_range 1 2) (int_range 1 8) in
  let* n_out = int_range 1 3 in
  let* tanh = bool in
  let* seed = int_bound 1_000_000 in
  let* n = int_range 1 40 in
  let value = float_range (-1.0) 1.0 in
  let* samples = list_repeat n (pair (array_repeat n_in value) (array_repeat n_out value)) in
  let* epochs = int_range 0 max_epochs in
  let+ stop_at = if epochs >= 2 then oneof [ return 0; int_range 1 (epochs - 1) ] else return 0 in
  { sizes = (n_in :: hidden_sizes) @ [ n_out ]; tanh; seed; samples; epochs; stop_at }

let arb_case ~max_epochs = QCheck.make ~print:print_case (gen_case ~max_epochs)

(* Both implementations' networks from the same seed; [O.t] and [Mlp.t]
   share a representation, so equal marshalled bytes are equal bits. *)
let both c =
  let rng () = Rng.create c.seed in
  ( O.create ~rng:(rng ()) ~layer_sizes:c.sizes
      ~hidden:(if c.tanh then O.Tanh else O.Sigmoid)
      (),
    Mlp.create ~rng:(rng ()) ~layer_sizes:c.sizes
      ~hidden:(if c.tanh then Mlp.Tanh else Mlp.Sigmoid)
      () )

let bytes v = Marshal.to_string v []
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let agree what c (o, e_o) (n, e_n) =
  if bytes o <> bytes n then
    QCheck.Test.fail_reportf "%s: networks differ (%s)" what (print_case c);
  if not (same_bits e_o e_n) then
    QCheck.Test.fail_reportf "%s: error %h, oracle %h (%s)" what e_n e_o (print_case c);
  if not (same_bits (O.mse o c.samples) (Mlp.mse n c.samples)) then
    QCheck.Test.fail_reportf "%s: mse differs (%s)" what (print_case c);
  true

let prop_rprop_matches_oracle =
  QCheck.Test.make ~name:"train_rprop matches the oracle bit for bit" ~count:600
    (arb_case ~max_epochs:120) (fun c ->
      let target_mse =
        if c.stop_at = 0 then None
        else
          let o, _ = both c in
          Some (O.train_rprop ~epochs:c.stop_at ~target_mse:neg_infinity o c.samples)
      in
      let o, n = both c in
      if bytes o <> bytes n then QCheck.Test.fail_reportf "create differs (%s)" (print_case c);
      let e_o = O.train_rprop ~epochs:c.epochs ?target_mse o c.samples in
      let e_n = Mlp.train_rprop ~epochs:c.epochs ?target_mse n c.samples in
      (match target_mse with
      | Some t when not (e_n <= t) ->
        QCheck.Test.fail_reportf "did not stop by epoch %d (%s)" c.stop_at (print_case c)
      | _ -> ());
      agree "rprop" c (o, e_o) (n, e_n))

let prop_sgd_matches_oracle =
  QCheck.Test.make ~name:"train_sgd matches the oracle bit for bit" ~count:200
    QCheck.(pair (arb_case ~max_epochs:40) (float_range 0.01 0.5))
    (fun (c, rate) ->
      let o, n = both c in
      let e_o = O.train_sgd ~epochs:c.epochs ~rate ~rng:(Rng.create c.seed) o c.samples in
      let e_n = Mlp.train_sgd ~epochs:c.epochs ~rate ~rng:(Rng.create c.seed) n c.samples in
      agree "sgd" c (o, e_o) (n, e_n))

(* The CLI's estimator (seed 2016, 200 samples, 400 epochs): its three
   ensembles' training errors, to the bit. *)
let test_cli_estimator_pinned () =
  let nn =
    Dhdl_model.Nn_correction.train ~seed:2016 ~samples:200
      (Dhdl_model.Characterization.default ())
      Dhdl_device.Target.stratix_v
  in
  let r, g, u = Dhdl_model.Nn_correction.training_mse nn in
  Alcotest.(check (list string))
    "training_mse"
    [ "0x1.9d2eb2a2cb2f8p-18"; "0x1.1661aabcb3244p-19"; "0x1.48221672ceceap-19" ]
    (List.map (Printf.sprintf "%h") [ r; g; u ])

let test_nn_correction_rejects_no_samples () =
  List.iter
    (fun samples ->
      Alcotest.check_raises (Printf.sprintf "%d samples" samples)
        (Invalid_argument
           (Printf.sprintf "Nn_correction.train: samples must be >= 1 (got %d)" samples))
        (fun () ->
          ignore
            (Dhdl_model.Nn_correction.train ~samples
               (Dhdl_model.Characterization.default ())
               Dhdl_device.Target.stratix_v)))
    [ 0; -5 ]

let () =
  Alcotest.run "ml"
    [
      ( "scaler",
        [
          Alcotest.test_case "bounds" `Quick test_scaler_bounds;
          Alcotest.test_case "zero range" `Quick test_scaler_zero_range;
          Alcotest.test_case "value roundtrip" `Quick test_scaler_value_roundtrip;
          Alcotest.test_case "empty" `Quick test_scaler_empty;
        ] );
      ( "linreg",
        [
          Alcotest.test_case "exact fit" `Quick test_linreg_exact;
          Alcotest.test_case "noisy r2" `Quick test_linreg_noisy_r2;
          Alcotest.test_case "empty" `Quick test_linreg_empty;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "shape" `Quick test_mlp_shape;
          Alcotest.test_case "deterministic" `Quick test_mlp_deterministic;
          Alcotest.test_case "rprop xor" `Quick test_mlp_rprop_xor;
          Alcotest.test_case "rprop quadratic" `Quick test_mlp_rprop_quadratic;
          Alcotest.test_case "sgd improves" `Quick test_mlp_sgd_reduces_error;
          Alcotest.test_case "multi output" `Quick test_mlp_multi_output;
          Alcotest.test_case "early stop" `Quick test_mlp_early_stop;
          Alcotest.test_case "misshaped samples" `Quick test_mlp_rejects_misshaped_samples;
          Alcotest.test_case "epochs do not allocate" `Quick test_mlp_epochs_do_not_allocate;
        ] );
      ( "trainer oracle",
        [
          QCheck_alcotest.to_alcotest prop_rprop_matches_oracle;
          QCheck_alcotest.to_alcotest prop_sgd_matches_oracle;
          Alcotest.test_case "cli estimator training_mse" `Quick test_cli_estimator_pinned;
          Alcotest.test_case "no training samples" `Quick test_nn_correction_rejects_no_samples;
        ] );
    ]
