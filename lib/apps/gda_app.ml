(** Gaussian discriminant analysis (Table II: R = 360,000 rows, D = 96) —
    the paper's running example (Figures 2-4). Two nested MetaPipes with
    element-wise BRAM reductions; compute bound with high spatial locality.
    Parameters: row tile size, the two pipe parallelizations, and the two
    MetaPipe toggles (M1toggle / M2toggle of Figure 3). *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Space = Dhdl_dse.Space
module Intmath = Dhdl_util.Intmath

let generate ~sizes ~params =
  let rows = App.size sizes "r" in
  let cols = App.size sizes "d" in
  let rtile = App.get params "tile" 40 in
  let p1 = App.get params "parP1" 4 in
  let p2 = App.get params "parP2" 4 in
  let m1 = App.get params "metaM1" 1 <> 0 in
  let m2 = App.get params "metaM2" 1 <> 0 in
  App.must_divide "tile" rtile ~extent:("r", rows);
  let b = B.create ~params "gda" in
  let x = B.offchip b "x" Dtype.float32 [ rows; cols ] in
  let y = B.offchip b "y" Dtype.bool_t [ rows ] in
  let mu0 = B.offchip b "mu0" Dtype.float32 [ cols ] in
  let mu1 = B.offchip b "mu1" Dtype.float32 [ cols ] in
  let sigma = B.offchip b "sigma" Dtype.float32 [ cols; cols ] in
  let mu0t = B.bram b "mu0T" Dtype.float32 [ cols ] in
  let mu1t = B.bram b "mu1T" Dtype.float32 [ cols ] in
  let xt = B.bram b "xT" Dtype.float32 [ rtile; cols ] in
  let yt = B.bram b "yT" Dtype.bool_t [ rtile ] in
  let subt = B.bram b "subT" Dtype.float32 [ cols ] in
  let sigma_tile = B.bram b "sigmaTile" Dtype.float32 [ cols; cols ] in
  let sigma_blk = B.bram b "sigmaBlk" Dtype.float32 [ cols; cols ] in
  let sigt = B.bram b "sigT" Dtype.float32 [ cols; cols ] in
  (* P1: subT(cc) = xT(rr,cc) - (yT(rr) ? mu1T(cc) : mu0T(cc)) *)
  let p1_pipe =
    B.pipe ~label:"P1" ~counters:[ ("cc", 0, cols, 1) ] ~par:p1 (fun pb ->
        let yv = B.load pb yt [ B.iter "rr" ] in
        let m1v = B.load pb mu1t [ B.iter "cc" ] in
        let m0v = B.load pb mu0t [ B.iter "cc" ] in
        let mu = B.mux pb yv m1v m0v in
        let xv = B.load pb xt [ B.iter "rr"; B.iter "cc" ] in
        B.store pb subt [ B.iter "cc" ] (B.sub pb xv mu))
  in
  (* P2: sigmaTile(ii,jj) = subT(ii) * subT(jj) *)
  let p2_pipe =
    B.pipe ~label:"P2"
      ~counters:[ ("ii", 0, cols, 1); ("jj", 0, cols, 1) ]
      ~par:p2
      (fun pb ->
        let a = B.load pb subt [ B.iter "ii" ] in
        let c = B.load pb subt [ B.iter "jj" ] in
        B.store pb sigma_tile [ B.iter "ii"; B.iter "jj" ] (B.mul pb a c))
  in
  (* M2: per-row outer products accumulated into sigmaBlk. *)
  let m2_loop =
    B.metapipe ~label:"M2"
      ~counters:[ ("rr", 0, rtile, 1) ]
      ~pipelined:m2
      ~reduce:(Op.Add, sigma_tile, sigma_blk)
      [ p1_pipe; p2_pipe ]
  in
  (* M1: row tiles accumulated into sigT. *)
  let m1_loop =
    B.metapipe ~label:"M1"
      ~counters:[ ("r", 0, rows, rtile) ]
      ~pipelined:m1
      ~reduce:(Op.Add, sigma_blk, sigt)
      [
        B.parallel ~label:"loadTile"
          [
            B.tile_load ~src:x ~dst:xt ~offsets:[ B.iter "r"; B.const 0.0 ] ~par:p1 ();
            B.tile_load ~src:y ~dst:yt ~offsets:[ B.iter "r" ] ~par:1 ();
          ];
        m2_loop;
      ]
  in
  let top =
    B.sequential_block ~label:"main"
      [
        B.parallel ~label:"loadMu"
          [
            B.tile_load ~src:mu0 ~dst:mu0t ~offsets:[ B.const 0.0 ] ~par:1 ();
            B.tile_load ~src:mu1 ~dst:mu1t ~offsets:[ B.const 0.0 ] ~par:1 ();
          ];
        m1_loop;
        B.tile_store ~dst:sigma ~src:sigt ~offsets:[ B.const 0.0; B.const 0.0 ] ~par:p2 ();
      ]
  in
  B.finish b ~top

let space sizes =
  let rows = App.size sizes "r" in
  let cols = App.size sizes "d" in
  let tiles =
    let ds = List.filter (fun t -> t >= 8 && t <= 1024) (Intmath.divisors rows) in
    if ds = [] then [ rows ] else ds
  in
  let p1s = List.filter (fun p -> p <= 32) (Intmath.divisors cols) in
  let p2s = List.filter (fun p -> p <= 192) (Intmath.divisors (cols * cols)) in
  Space.make ~name:"gda"
    ~dims:
      [
        ("tile", tiles);
        ("parP1", p1s);
        ("parP2", p2s);
        ("metaM1", [ 0; 1 ]);
        ("metaM2", [ 0; 1 ]);
      ]
    ~legal:(fun p ->
      let tile = App.get p "tile" 0 in
      tile * cols <= Space.mem_limit_words)
    ~sizes ()

let app =
  {
    App.name = "gda";
    description = "Gaussian discriminant analysis";
    paper_sizes = [ ("r", 360_000); ("d", 96) ];
    test_sizes = [ ("r", 48); ("d", 8) ];
    default_params =
      (fun sizes ->
        let rows = App.size sizes "r" in
        [ ("tile", min 24 rows); ("parP1", 4); ("parP2", 4); ("metaM1", 1); ("metaM2", 1) ]);
    space;
    generate;
    cpu_workload =
      (fun sizes -> Dhdl_cpu.Cost_model.gda ~rows:(App.size sizes "r") ~cols:(App.size sizes "d"));
  }
