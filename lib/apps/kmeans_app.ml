(** k-means clustering (Table II: 960,000 points, k = 8, 384 dims): one
    Lloyd iteration. Distance evaluation against every centroid, an argmin
    carried through registers, and data-dependent read-modify-write
    accumulation of per-cluster sums and counts — the access pattern
    (groupBy-style scatter) that DDDG-based tools cannot pipeline
    (Section II). ALM-bound: the K x D distance lanes dominate. *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Space = Dhdl_dse.Space
module Intmath = Dhdl_util.Intmath

let generate ~sizes ~params =
  let points = App.size sizes "n" in
  let dims = App.size sizes "d" in
  let k = App.size sizes "k" in
  let tile = App.get params "tile" 64 in
  let pd = App.get params "parDist" 4 in
  let pa = App.get params "parAcc" 2 in
  let pp = App.get params "parPoints" 1 in
  let meta = App.get params "meta" 1 <> 0 in
  App.must_divide "tile" tile ~extent:("n", points);
  let b = B.create ~params "kmeans" in
  let data = B.offchip b "points" Dtype.float32 [ points; dims ] in
  let cents = B.offchip b "centroids" Dtype.float32 [ k; dims ] in
  let out_sums = B.offchip b "sums" Dtype.float32 [ k; dims ] in
  let out_counts = B.offchip b "counts" Dtype.float32 [ k ] in
  let ct = B.bram b "centT" Dtype.float32 [ k; dims ] in
  let xt = B.bram b "xT" Dtype.float32 [ tile; dims ] in
  let sums = B.bram b "sumsT" Dtype.float32 [ k; dims ] in
  let counts = B.bram b "countsT" Dtype.float32 [ k ] in
  let distb = B.bram b "distB" Dtype.float32 [ k ] in
  let best_dist = B.reg b "bestDist" Dtype.float32 in
  let best_idx = B.reg b "bestIdx" Dtype.float32 in
  (* Clear the per-point distance accumulators and argmin registers. *)
  let reset =
    B.pipe ~label:"reset" ~counters:[ ("zc", 0, k, 1) ] (fun pb ->
        B.store pb distb [ B.iter "zc" ] (B.const 0.0);
        B.write_reg pb best_dist (B.const infinity);
        B.write_reg pb best_idx (B.const 0.0))
  in
  (* Squared distances of point rr to every centroid, accumulated in one
     deep pipeline: the innermost iterator c rotates the distB address, so
     the read-add-write chain runs at II = 1 across all K x D terms. *)
  let dist_pipe =
    B.pipe ~label:"dist"
      ~counters:[ ("dd", 0, dims, 1); ("c", 0, k, 1) ]
      ~par:pd
      (fun pb ->
        let xv = B.load pb xt [ B.iter "rr"; B.iter "dd" ] in
        let cv = B.load pb ct [ B.iter "c"; B.iter "dd" ] in
        let diff = B.sub pb xv cv in
        let sq = B.mul pb diff diff in
        let cur = B.load pb distb [ B.iter "c" ] in
        B.store pb distb [ B.iter "c" ] (B.add pb cur sq))
  in
  (* Argmin sweep over the K accumulated distances. *)
  let select =
    B.pipe ~label:"select" ~counters:[ ("c", 0, k, 1) ] (fun pb ->
        let d = B.load pb distb [ B.iter "c" ] in
        let bd = B.read_reg pb best_dist in
        let closer = B.op pb Op.Lt [ d; bd ] in
        B.write_reg pb best_dist (B.mux pb closer d bd);
        let bi = B.read_reg pb best_idx in
        B.write_reg pb best_idx (B.mux pb closer (B.iter "c") bi))
  in
  let centroid_loop =
    B.metapipe ~label:"centroids" ~counters:[] ~pipelined:false [ dist_pipe; select ]
  in
  (* Scatter-accumulate the point into its winning cluster. *)
  let accumulate =
    B.pipe ~label:"accum" ~counters:[ ("dd", 0, dims, 1) ] ~par:pa (fun pb ->
        let idx = B.read_reg pb best_idx in
        let cur = B.load pb sums [ idx; B.iter "dd" ] in
        let xv = B.load pb xt [ B.iter "rr"; B.iter "dd" ] in
        B.store pb sums [ idx; B.iter "dd" ] (B.add pb cur xv))
  in
  let count_up =
    B.pipe ~label:"count" ~counters:[] (fun pb ->
        let idx = B.read_reg pb best_idx in
        let cur = B.load pb counts [ idx ] in
        B.store pb counts [ idx ] (B.add pb cur (B.const 1.0)))
  in
  (* Outer-loop parallelization: [pp] replicas of the whole per-point
     datapath process the tile's points concurrently (Section III.B.3's
     node replication at an outer level). *)
  let point_loop =
    B.metapipe ~label:"pointLoop" ~counters:[ ("rr", 0, tile, 1) ] ~par:pp ~pipelined:false
      [ reset; centroid_loop; accumulate; count_up ]
  in
  let tile_loop =
    B.metapipe ~label:"tiles"
      ~counters:[ ("t", 0, points, tile) ]
      ~pipelined:meta
      [
        B.tile_load ~src:data ~dst:xt ~offsets:[ B.iter "t"; B.const 0.0 ] ~par:pd ();
        point_loop;
      ]
  in
  let top =
    B.sequential_block ~label:"main"
      [
        B.tile_load ~src:cents ~dst:ct ~offsets:[ B.const 0.0; B.const 0.0 ] ~par:1 ();
        tile_loop;
        B.tile_store ~dst:out_sums ~src:sums ~offsets:[ B.const 0.0; B.const 0.0 ] ~par:pa ();
        B.tile_store ~dst:out_counts ~src:counts ~offsets:[ B.const 0.0 ] ~par:1 ();
      ]
  in
  B.finish b ~top

let space sizes =
  let points = App.size sizes "n" in
  let dims = App.size sizes "d" in
  let tiles =
    let ds = List.filter (fun t -> t >= 16 && t <= 2048) (Intmath.divisors points) in
    if ds = [] then [ points ] else ds
  in
  let pars = List.filter (fun p -> p <= 32) (Intmath.divisors dims) in
  Space.make ~name:"kmeans"
    ~dims:
      [
        ("tile", tiles);
        ("parDist", pars);
        ("parAcc", List.filter (fun p -> p <= 8) pars);
        ("parPoints", [ 1; 2; 4; 8; 16; 32 ]);
        ("meta", [ 0; 1 ]);
      ]
    ~legal:(fun p ->
      let tile = App.get p "tile" 0 and pp = App.get p "parPoints" 1 in
      tile * dims <= Space.mem_limit_words && tile mod pp = 0)
    ()

let app =
  {
    App.name = "kmeans";
    description = "k-means clustering";
    paper_sizes = [ ("n", 960_000); ("k", 8); ("d", 384) ];
    test_sizes = [ ("n", 64); ("k", 4); ("d", 8) ];
    default_params =
      (fun sizes ->
        let points = App.size sizes "n" in
        [ ("tile", min 32 points); ("parDist", 4); ("parAcc", 2); ("parPoints", 2); ("meta", 1) ]);
    space;
    generate;
    cpu_workload =
      (fun sizes ->
        Dhdl_cpu.Cost_model.kmeans ~points:(App.size sizes "n") ~dims:(App.size sizes "d")
          ~k:(App.size sizes "k"));
  }
