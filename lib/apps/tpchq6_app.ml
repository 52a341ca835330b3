(** TPC-H Query 6 (Table II: 18,720,000 records): stream four column arrays,
    filter by date / discount / quantity predicates, and reduce
    price * discount over the surviving rows. Data-dependent branches become
    multiplexers in the dataflow pipeline (Section V.D). *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Space = Dhdl_dse.Space
module Intmath = Dhdl_util.Intmath

let generate ~sizes ~params =
  let n = App.size sizes "n" in
  let tile = App.get params "tile" 2048 in
  let par = App.get params "par" 4 in
  let meta = App.get params "meta" 1 <> 0 in
  App.must_divide "tile" tile ~extent:("n", n);
  let b = B.create ~params "tpchq6" in
  let price = B.offchip b "price" Dtype.float32 [ n ] in
  let discount = B.offchip b "discount" Dtype.float32 [ n ] in
  let quantity = B.offchip b "quantity" Dtype.float32 [ n ] in
  let date = B.offchip b "date" Dtype.float32 [ n ] in
  let pt = B.bram b "priceT" Dtype.float32 [ tile ] in
  let dt = B.bram b "discountT" Dtype.float32 [ tile ] in
  let qt = B.bram b "quantityT" Dtype.float32 [ tile ] in
  let st = B.bram b "dateT" Dtype.float32 [ tile ] in
  let partial = B.reg b "partial" Dtype.float32 in
  let revenue = B.reg b "revenue" Dtype.float32 in
  let filter_reduce =
    B.reduce_pipe ~label:"filter" ~counters:[ ("i", 0, tile, 1) ] ~par ~op:Op.Add ~out:partial
      (fun pb ->
        let pr = B.load pb pt [ B.iter "i" ] in
        let di = B.load pb dt [ B.iter "i" ] in
        let qu = B.load pb qt [ B.iter "i" ] in
        let da = B.load pb st [ B.iter "i" ] in
        let date_ok_lo = B.op pb Op.Ge [ da; B.const 5.0 ] in
        let date_ok_hi = B.op pb Op.Lt [ da; B.const 6.0 ] in
        let disc_lo = B.op pb Op.Ge [ di; B.const 0.05 ] in
        let disc_hi = B.op pb Op.Le [ di; B.const 0.07 ] in
        let qty_ok = B.op pb Op.Lt [ qu; B.const 24.0 ] in
        let c1 = B.op pb Op.And [ date_ok_lo; date_ok_hi ] in
        let c2 = B.op pb Op.And [ disc_lo; disc_hi ] in
        let c3 = B.op pb Op.And [ c1; c2 ] in
        let cond = B.op pb Op.And [ c3; qty_ok ] in
        let pd = B.mul pb pr di in
        B.mux pb cond pd (B.const 0.0))
  in
  let top =
    B.metapipe ~label:"tiles"
      ~counters:[ ("t", 0, n, tile) ]
      ~pipelined:meta
      ~reduce:(Op.Add, partial, revenue)
      [
        B.parallel ~label:"loads"
          [
            B.tile_load ~src:price ~dst:pt ~offsets:[ B.iter "t" ] ~par ();
            B.tile_load ~src:discount ~dst:dt ~offsets:[ B.iter "t" ] ~par ();
            B.tile_load ~src:quantity ~dst:qt ~offsets:[ B.iter "t" ] ~par ();
            B.tile_load ~src:date ~dst:st ~offsets:[ B.iter "t" ] ~par ();
          ];
        filter_reduce;
      ]
  in
  B.finish b ~top

let space sizes =
  let n = App.size sizes "n" in
  let tiles =
    let ds = List.filter (fun t -> t >= 64 && t <= 16_384) (Intmath.divisors n) in
    if ds = [] then [ n ] else ds
  in
  Space.make ~name:"tpchq6"
    ~dims:[ ("tile", tiles); ("par", [ 1; 2; 4; 8; 16; 32 ]); ("meta", [ 0; 1 ]) ]
    ~legal:(fun p ->
      let tile = App.get p "tile" 0 and par = App.get p "par" 1 in
      tile mod par = 0)
    ~sizes ()

let app =
  {
    App.name = "tpchq6";
    description = "TPC-H Query 6";
    paper_sizes = [ ("n", 18_720_000) ];
    test_sizes = [ ("n", 512) ];
    default_params =
      (fun sizes ->
        let n = App.size sizes "n" in
        [ ("tile", App.divisor_tile ~n ~cap:2048 ~par:8); ("par", 8); ("meta", 1) ]);
    space;
    generate;
    cpu_workload = (fun sizes -> Dhdl_cpu.Cost_model.tpchq6 ~n:(App.size sizes "n"));
  }
