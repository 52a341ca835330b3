(** Vector outer product (Table II: 38,400 x 38,400) — BRAM- and
    memory-bound: the output tile grows quadratically with the input tiles.
    Parameters: both tile sizes, compute parallelization, and MetaPipe
    toggles for the row and column loops. *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Space = Dhdl_dse.Space
module Intmath = Dhdl_util.Intmath

let generate ~sizes ~params =
  let n = App.size sizes "n" in
  let m = App.size sizes "m" in
  let tn = App.get params "tileA" 128 in
  let tm = App.get params "tileB" 128 in
  let par = App.get params "par" 4 in
  let m1 = App.get params "metaA" 1 <> 0 in
  let m2 = App.get params "metaB" 1 <> 0 in
  App.must_divide "tileA" tn ~extent:("n", n);
  App.must_divide "tileB" tm ~extent:("m", m);
  let b = B.create ~params "outerprod" in
  let x = B.offchip b "x" Dtype.float32 [ n ] in
  let y = B.offchip b "y" Dtype.float32 [ m ] in
  let out = B.offchip b "out" Dtype.float32 [ n; m ] in
  let xt = B.bram b "xT" Dtype.float32 [ tn ] in
  let yt = B.bram b "yT" Dtype.float32 [ tm ] in
  let ot = B.bram b "outT" Dtype.float32 [ tn; tm ] in
  let compute =
    B.pipe ~label:"prod"
      ~counters:[ ("ii", 0, tn, 1); ("jj", 0, tm, 1) ]
      ~par
      (fun pb ->
        let xv = B.load pb xt [ B.iter "ii" ] in
        let yv = B.load pb yt [ B.iter "jj" ] in
        B.store pb ot [ B.iter "ii"; B.iter "jj" ] (B.mul pb xv yv))
  in
  let inner =
    B.metapipe ~label:"cols"
      ~counters:[ ("j", 0, m, tm) ]
      ~pipelined:m2
      [
        B.tile_load ~src:y ~dst:yt ~offsets:[ B.iter "j" ] ~par ();
        compute;
        B.tile_store ~dst:out ~src:ot ~offsets:[ B.iter "i"; B.iter "j" ] ~par ();
      ]
  in
  let top =
    B.metapipe ~label:"rows"
      ~counters:[ ("i", 0, n, tn) ]
      ~pipelined:m1
      [ B.tile_load ~src:x ~dst:xt ~offsets:[ B.iter "i" ] ~par (); inner ]
  in
  B.finish b ~top

let space sizes =
  let n = App.size sizes "n" in
  let m = App.size sizes "m" in
  let tiles extent =
    let ds = List.filter (fun t -> t >= 32 && t <= 4096) (Intmath.divisors extent) in
    if ds = [] then [ extent ] else ds
  in
  Space.make ~name:"outerprod"
    ~dims:
      [
        ("tileA", tiles n);
        ("tileB", tiles m);
        ("par", [ 1; 2; 4; 8; 16; 32; 64; 128 ]);
        ("metaA", [ 0; 1 ]);
        ("metaB", [ 0; 1 ]);
      ]
    ~legal:(fun p ->
      let tn = App.get p "tileA" 0 and tm = App.get p "tileB" 0 in
      let par = App.get p "par" 1 in
      tn * tm <= Space.mem_limit_words && tm mod par = 0)
    ~sizes ()

let app =
  {
    App.name = "outerprod";
    description = "Vector outer product";
    paper_sizes = [ ("n", 38_400); ("m", 38_400) ];
    test_sizes = [ ("n", 64); ("m", 32) ];
    default_params =
      (fun sizes ->
        let n = App.size sizes "n" and m = App.size sizes "m" in
        [ ("tileA", min 128 n); ("tileB", min 128 m); ("par", 4); ("metaA", 1); ("metaB", 1) ]);
    space;
    generate;
    cpu_workload =
      (fun sizes ->
        Dhdl_cpu.Cost_model.outerprod ~n:(App.size sizes "n") ~m:(App.size sizes "m"));
  }
