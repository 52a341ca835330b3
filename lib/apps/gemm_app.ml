(** Tiled single-precision matrix multiply (Table II: 1536 x 1536).
    Compute-heavy with high temporal/spatial locality: Pareto-optimal
    designs hold large 2-D chunks on chip (Section V.C.1). Parameters: the
    three tile sizes, dot-product parallelization, and MetaPipe toggles on
    the k-accumulation and row loops. *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Space = Dhdl_dse.Space
module Intmath = Dhdl_util.Intmath

let generate ~sizes ~params =
  let n = App.size sizes "n" in
  let m = App.size sizes "m" in
  let k = App.size sizes "k" in
  let tn = App.get params "tileN" 32 in
  let tm = App.get params "tileM" 32 in
  let tk = App.get params "tileK" 32 in
  let par = App.get params "par" 4 in
  let meta_k = App.get params "metaK" 1 <> 0 in
  let meta_r = App.get params "metaR" 0 <> 0 in
  App.must_divide "tileN" tn ~extent:("n", n);
  App.must_divide "tileM" tm ~extent:("m", m);
  App.must_divide "tileK" tk ~extent:("k", k);
  let b = B.create ~params "gemm" in
  let a = B.offchip b "a" Dtype.float32 [ n; k ] in
  let bm = B.offchip b "b" Dtype.float32 [ k; m ] in
  let c = B.offchip b "c" Dtype.float32 [ n; m ] in
  let at = B.bram b "aT" Dtype.float32 [ tn; tk ] in
  let bt = B.bram b "bT" Dtype.float32 [ tk; tm ] in
  let cacc = B.bram b "cAcc" Dtype.float32 [ tn; tm ] in
  (* Fresh accumulator tile per (i, j) output tile. *)
  let zero =
    B.pipe ~label:"zeroC"
      ~counters:[ ("zi", 0, tn, 1); ("zj", 0, tm, 1) ]
      ~par
      (fun pb -> B.store pb cacc [ B.iter "zi"; B.iter "zj" ] (B.const 0.0))
  in
  (* Rank-tk update of one output row: the innermost iterator jj rotates the
     cAcc address, so the read-add-write accumulation pipelines at II = 1. *)
  let row_update =
    B.pipe ~label:"macRow"
      ~counters:[ ("kk", 0, tk, 1); ("jj", 0, tm, 1) ]
      ~par
      (fun pb ->
        let av = B.load pb at [ B.iter "ii"; B.iter "kk" ] in
        let bv = B.load pb bt [ B.iter "kk"; B.iter "jj" ] in
        let cv = B.load pb cacc [ B.iter "ii"; B.iter "jj" ] in
        B.store pb cacc [ B.iter "ii"; B.iter "jj" ] (B.add pb cv (B.mul pb av bv)))
  in
  let tile_compute = B.metapipe ~label:"rows" ~counters:[ ("ii", 0, tn, 1) ] [ row_update ] in
  let k_loop =
    B.metapipe ~label:"kTiles"
      ~counters:[ ("kt", 0, k, tk) ]
      ~pipelined:meta_k
      [
        B.parallel ~label:"loadAB"
          [
            B.tile_load ~src:a ~dst:at ~offsets:[ B.iter "i"; B.iter "kt" ] ~par ();
            B.tile_load ~src:bm ~dst:bt ~offsets:[ B.iter "kt"; B.iter "j" ] ~par ();
          ];
        tile_compute;
      ]
  in
  let j_loop =
    B.metapipe ~label:"colTiles"
      ~counters:[ ("j", 0, m, tm) ]
      ~pipelined:false
      [ zero; k_loop; B.tile_store ~dst:c ~src:cacc ~offsets:[ B.iter "i"; B.iter "j" ] ~par () ]
  in
  let top =
    B.metapipe ~label:"rowTiles" ~counters:[ ("i", 0, n, tn) ] ~pipelined:meta_r [ j_loop ]
  in
  B.finish b ~top

let space sizes =
  let n = App.size sizes "n" in
  let m = App.size sizes "m" in
  let k = App.size sizes "k" in
  let tiles extent =
    let ds = List.filter (fun t -> t >= 8 && t <= 512) (Intmath.divisors extent) in
    if ds = [] then [ extent ] else ds
  in
  Space.make ~name:"gemm"
    ~dims:
      [
        ("tileN", tiles n);
        ("tileM", tiles m);
        ("tileK", tiles k);
        ("par", [ 1; 2; 4; 8; 16; 32; 64 ]);
        ("metaK", [ 0; 1 ]);
        ("metaR", [ 0; 1 ]);
      ]
    ~legal:(fun p ->
      let tn = App.get p "tileN" 0 and tm = App.get p "tileM" 0 in
      let tk = App.get p "tileK" 0 and par = App.get p "par" 1 in
      let words = (tn * tk) + (tk * tm) + (tn * tm) in
      words <= 2 * Space.mem_limit_words && tm mod par = 0)
    ~sizes ()

let app =
  {
    App.name = "gemm";
    description = "Tiled matrix multiplication";
    paper_sizes = [ ("n", 1_536); ("m", 1_536); ("k", 1_536) ];
    test_sizes = [ ("n", 16); ("m", 12); ("k", 8) ];
    default_params =
      (fun sizes ->
        let n = App.size sizes "n" and m = App.size sizes "m" and k = App.size sizes "k" in
        [
          ("tileN", min 32 n);
          ("tileM", min 4 m);
          ("tileK", min 8 k);
          ("par", min 4 (min 8 k));
          ("metaK", 1);
          ("metaR", 0);
        ]);
    space;
    generate;
    cpu_workload =
      (fun sizes ->
        Dhdl_cpu.Cost_model.gemm ~n:(App.size sizes "n") ~m:(App.size sizes "m")
          ~k:(App.size sizes "k"));
  }
