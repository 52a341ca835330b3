(** Black-Scholes-Merton option pricing (Table II: 9,995,328 options).
    A long feed-forward floating-point pipeline (exp/log/sqrt/div chains)
    that the FPGA executes at one result per cycle per lane — the paper's
    best speedup (16.7x). Parameters: tile size, lane count, MetaPipe
    toggle. *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Space = Dhdl_dse.Space
module Intmath = Dhdl_util.Intmath

let rate = 0.02
let volatility = 0.30

(* The PARSEC polynomial CNDF, emitted as primitive nodes. *)
let emit_cndf pb x =
  let abs_x = B.op pb Op.Abs [ x ] in
  let x2 = B.mul pb abs_x abs_x in
  let neg_half_x2 = B.mul pb x2 (B.const (-0.5)) in
  let exp_term = B.op pb Op.Exp [ neg_half_x2 ] in
  let n_prime = B.mul pb exp_term (B.const 0.39894228040143270286) in
  let kx = B.mul pb abs_x (B.const 0.2316419) in
  let k_denom = B.add pb kx (B.const 1.0) in
  let k = B.div pb (B.const 1.0) k_denom in
  (* Horner evaluation of the 5-term polynomial. *)
  let poly = B.mul pb k (B.const 1.330274429) in
  let poly = B.add pb poly (B.const (-1.821255978)) in
  let poly = B.mul pb poly k in
  let poly = B.add pb poly (B.const 1.781477937) in
  let poly = B.mul pb poly k in
  let poly = B.add pb poly (B.const (-0.356563782)) in
  let poly = B.mul pb poly k in
  let poly = B.add pb poly (B.const 0.319381530) in
  let k_sum = B.mul pb poly k in
  let tail = B.mul pb n_prime k_sum in
  let v = B.sub pb (B.const 1.0) tail in
  let one_minus = B.sub pb (B.const 1.0) v in
  let negative = B.op pb Op.Lt [ x; B.const 0.0 ] in
  B.mux pb negative one_minus v

let generate ~sizes ~params =
  let n = App.size sizes "n" in
  let tile = App.get params "tile" 1024 in
  let par = App.get params "par" 2 in
  let meta = App.get params "meta" 1 <> 0 in
  App.must_divide "tile" tile ~extent:("n", n);
  let b = B.create ~params "blackscholes" in
  let spot = B.offchip b "spot" Dtype.float32 [ n ] in
  let strike = B.offchip b "strike" Dtype.float32 [ n ] in
  let time = B.offchip b "time" Dtype.float32 [ n ] in
  let otype = B.offchip b "otype" Dtype.float32 [ n ] in
  let price = B.offchip b "price" Dtype.float32 [ n ] in
  let spot_t = B.bram b "spotT" Dtype.float32 [ tile ] in
  let strike_t = B.bram b "strikeT" Dtype.float32 [ tile ] in
  let time_t = B.bram b "timeT" Dtype.float32 [ tile ] in
  let otype_t = B.bram b "otypeT" Dtype.float32 [ tile ] in
  let price_t = B.bram b "priceT" Dtype.float32 [ tile ] in
  let compute =
    B.pipe ~label:"bsm" ~counters:[ ("i", 0, tile, 1) ] ~par (fun pb ->
        let s = B.load pb spot_t [ B.iter "i" ] in
        let k = B.load pb strike_t [ B.iter "i" ] in
        let t = B.load pb time_t [ B.iter "i" ] in
        let ot = B.load pb otype_t [ B.iter "i" ] in
        let sqrt_t = B.op pb Op.Sqrt [ t ] in
        let log_sk = B.op pb Op.Log [ B.div pb s k ] in
        let drift = B.const (rate +. (0.5 *. volatility *. volatility)) in
        let num = B.add pb log_sk (B.mul pb drift t) in
        let den = B.mul pb (B.const volatility) sqrt_t in
        let d1 = B.div pb num den in
        let d2 = B.sub pb d1 den in
        let n_d1 = emit_cndf pb d1 in
        let n_d2 = emit_cndf pb d2 in
        let neg_rt = B.mul pb (B.const (-.rate)) t in
        let discounted = B.mul pb k (B.op pb Op.Exp [ neg_rt ]) in
        let call = B.sub pb (B.mul pb s n_d1) (B.mul pb discounted n_d2) in
        let put_left = B.mul pb discounted (B.sub pb (B.const 1.0) n_d2) in
        let put_right = B.mul pb s (B.sub pb (B.const 1.0) n_d1) in
        let put = B.sub pb put_left put_right in
        let is_put = B.op pb Op.Neq [ ot; B.const 0.0 ] in
        B.store pb price_t [ B.iter "i" ] (B.mux pb is_put put call))
  in
  let top =
    B.metapipe ~label:"tiles"
      ~counters:[ ("t", 0, n, tile) ]
      ~pipelined:meta
      [
        B.parallel ~label:"loads"
          [
            B.tile_load ~src:spot ~dst:spot_t ~offsets:[ B.iter "t" ] ~par ();
            B.tile_load ~src:strike ~dst:strike_t ~offsets:[ B.iter "t" ] ~par ();
            B.tile_load ~src:time ~dst:time_t ~offsets:[ B.iter "t" ] ~par ();
            B.tile_load ~src:otype ~dst:otype_t ~offsets:[ B.iter "t" ] ~par ();
          ];
        compute;
        B.tile_store ~dst:price ~src:price_t ~offsets:[ B.iter "t" ] ~par ();
      ]
  in
  B.finish b ~top

let space sizes =
  let n = App.size sizes "n" in
  let tiles =
    let ds = List.filter (fun t -> t >= 64 && t <= 16_384) (Intmath.divisors n) in
    if ds = [] then [ n ] else ds
  in
  Space.make ~name:"blackscholes"
    ~dims:[ ("tile", tiles); ("par", [ 1; 2; 4; 8; 16 ]); ("meta", [ 0; 1 ]) ]
    ~legal:(fun p ->
      let tile = App.get p "tile" 0 and par = App.get p "par" 1 in
      tile mod par = 0)
    ~sizes ()

let app =
  {
    App.name = "blackscholes";
    description = "Black-Scholes-Merton option pricing";
    paper_sizes = [ ("n", 9_995_328) ];
    test_sizes = [ ("n", 256) ];
    default_params =
      (fun sizes ->
        let n = App.size sizes "n" in
        [ ("tile", App.divisor_tile ~n ~cap:2048 ~par:4); ("par", 4); ("meta", 1) ]);
    space;
    generate;
    cpu_workload = (fun sizes -> Dhdl_cpu.Cost_model.blackscholes ~n:(App.size sizes "n"));
  }
