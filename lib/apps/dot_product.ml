(** Vector dot product (Table II: 187,200,000 elements) — the canonical
    memory-bound streaming reduction. Design parameters: tile size, inner
    reduction parallelization, and the outer MetaPipe toggle that overlaps
    tile loads with the reduction tree. *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Space = Dhdl_dse.Space
module Intmath = Dhdl_util.Intmath

let generate ~sizes ~params =
  let n = App.size sizes "n" in
  let tile = App.get params "tile" 1024 in
  let par = App.get params "par" 4 in
  let meta = App.get params "meta" 1 <> 0 in
  App.must_divide "tile" tile ~extent:("n", n);
  let b = B.create ~params "dotproduct" in
  let x = B.offchip b "x" Dtype.float32 [ n ] in
  let y = B.offchip b "y" Dtype.float32 [ n ] in
  let xt = B.bram b "xT" Dtype.float32 [ tile ] in
  let yt = B.bram b "yT" Dtype.float32 [ tile ] in
  let partial = B.reg b "partial" Dtype.float32 in
  let result = B.reg b "result" Dtype.float32 in
  let inner =
    B.reduce_pipe ~label:"dot" ~counters:[ ("i", 0, tile, 1) ] ~par ~op:Op.Add ~out:partial
      (fun pb ->
        let xv = B.load pb xt [ B.iter "i" ] in
        let yv = B.load pb yt [ B.iter "i" ] in
        B.mul pb xv yv)
  in
  let top =
    B.metapipe ~label:"tiles"
      ~counters:[ ("t", 0, n, tile) ]
      ~pipelined:meta
      ~reduce:(Op.Add, partial, result)
      [
        B.parallel ~label:"loads"
          [
            B.tile_load ~src:x ~dst:xt ~offsets:[ B.iter "t" ] ~par ();
            B.tile_load ~src:y ~dst:yt ~offsets:[ B.iter "t" ] ~par ();
          ];
        inner;
      ]
  in
  B.finish b ~top

let space sizes =
  let n = App.size sizes "n" in
  let tiles =
    List.filter (fun t -> t >= 64 && t <= Space.mem_limit_words) (Intmath.divisors n)
  in
  let tiles = if tiles = [] then [ n ] else tiles in
  Space.make ~name:"dotproduct"
    ~dims:[ ("tile", tiles); ("par", [ 1; 2; 4; 8; 16; 32; 64 ]); ("meta", [ 0; 1 ]) ]
    ~legal:(fun p ->
      let tile = App.get p "tile" 0 and par = App.get p "par" 1 in
      tile mod par = 0)
    ()

let app =
  {
    App.name = "dotproduct";
    description = "Vector dot product";
    paper_sizes = [ ("n", 187_200_000) ];
    test_sizes = [ ("n", 1_024) ];
    default_params =
      (fun sizes ->
        let n = App.size sizes "n" in
        [ ("tile", App.divisor_tile ~n ~cap:2048 ~par:8); ("par", 8); ("meta", 1) ]);
    space;
    generate;
    cpu_workload = (fun sizes -> Dhdl_cpu.Cost_model.dotproduct ~n:(App.size sizes "n"));
  }
