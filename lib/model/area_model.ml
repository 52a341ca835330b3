module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module Traverse = Dhdl_ir.Traverse
module Target = Dhdl_device.Target
module Resources = Dhdl_device.Resources
module Primitives = Dhdl_device.Primitives
module Linreg = Dhdl_ml.Linreg
module Intmath = Dhdl_util.Intmath
module R = Resources

type raw = {
  resources : Resources.t;
  nets : int;
  avg_fanout : float;
  tree_depth : int;
  streams : int;
  ctrl_count : int;
  double_buffers : int;
  prim_count : int;
}

(* The estimator approximates every block as the base 512 x 40
   configuration instead of the fitter's exact width/depth trade-off
   table — slightly pessimistic for narrow memories. *)
let bram_blocks_estimate dev (m : Ir.mem) =
  match m.Ir.mem_kind with
  | Ir.Offchip | Ir.Reg -> 0
  | Ir.Bram ->
    let banks = max 1 m.Ir.mem_banks in
    let depth = Intmath.ceil_div (Ir.mem_words m) banks in
    let cols = Intmath.ceil_div (Dtype.bits m.Ir.mem_ty) dev.Target.bram_max_width in
    let rows = Intmath.ceil_div depth dev.Target.bram_min_depth in
    banks * cols * rows * if m.Ir.mem_double then 2 else 1
  | Ir.Queue ->
    let cols = Intmath.ceil_div (Dtype.bits m.Ir.mem_ty) dev.Target.bram_max_width in
    let rows = Intmath.ceil_div (Ir.mem_words m) dev.Target.bram_min_depth in
    cols * rows * if m.Ir.mem_double then 2 else 1

let mem_estimate dev (m : Ir.mem) =
  match m.Ir.mem_kind with
  | Ir.Offchip -> R.zero
  | Ir.Bram ->
    let banks = max 1 m.Ir.mem_banks in
    R.make ~packable:(8 * banks) ~unpackable:(2 * banks) ~regs:(4 * banks)
      ~brams:(bram_blocks_estimate dev m) ()
  | Ir.Reg ->
    let bits = Dtype.bits m.Ir.mem_ty in
    R.make ~packable:(bits / 2) ~regs:(bits * if m.Ir.mem_double then 2 else 1) ()
  | Ir.Queue ->
    let bits = Dtype.bits m.Ir.mem_ty in
    let levels = Intmath.ilog2_ceil (max 2 (Ir.mem_words m)) in
    R.add
      (R.scale levels (R.make ~packable:(bits * 2) ~unpackable:bits ~regs:bits ()))
      (R.make ~brams:(bram_blocks_estimate dev m) ~regs:(bits * 2) ())

(* Overheads predicted by the fitted template models, split into LUT
   populations with the estimator's fixed 70/30 packable assumption. *)
let split_luts luts =
  let l = max 0 (int_of_float luts) in
  let packable = l * 7 / 10 in
  R.make ~packable ~unpackable:(l - packable) ()

let with_regs res regs = R.add res (R.make ~regs:(max 0 (int_of_float regs)) ())

(* --- Pipe body modeling ------------------------------------------------ *)

let stmt_latency = function
  | Ir.Sop { op; ty; _ } -> Primitives.latency op ty
  | Ir.Sload _ -> Primitives.load_store_latency
  | Ir.Sread_reg _ -> 1
  | Ir.Sstore _ | Ir.Swrite_reg _ | Ir.Spush _ -> 1
  | Ir.Spop _ -> 2

let stmt_operands = function
  | Ir.Sop { args; _ } -> args
  | Ir.Sload { addr; _ } -> addr
  | Ir.Sstore { addr; data; _ } -> data :: addr
  | Ir.Sread_reg _ | Ir.Spop _ -> []
  | Ir.Swrite_reg { data; _ } | Ir.Spush { data; _ } -> [ data ]

let body_schedule body =
  let ends = Hashtbl.create 32 in
  let types = Hashtbl.create 32 in
  let ready o = match o with Ir.Value v -> Option.value ~default:0 (Hashtbl.find_opt ends v) | _ -> 0 in
  let deepest = ref 0 in
  List.iter
    (fun stmt ->
      let issue = List.fold_left (fun m o -> max m (ready o)) 0 (stmt_operands stmt) in
      let fin = issue + stmt_latency stmt in
      deepest := max !deepest fin;
      (match stmt with
      | Ir.Sop { dst; ty; _ } | Ir.Sload { dst; ty; _ } ->
        Hashtbl.replace ends dst fin;
        Hashtbl.replace types dst ty
      | Ir.Sread_reg { dst; reg } ->
        Hashtbl.replace ends dst fin;
        Hashtbl.replace types dst reg.Ir.mem_ty
      | Ir.Spop { dst; queue } ->
        Hashtbl.replace ends dst fin;
        Hashtbl.replace types dst queue.Ir.mem_ty
      | Ir.Sstore _ | Ir.Swrite_reg _ | Ir.Spush _ -> ()))
    body;
  (ends, types, !deepest)

let delay_estimate ~par body =
  let ends, types, _ = body_schedule body in
  let ready o = match o with Ir.Value v -> Option.value ~default:0 (Hashtbl.find_opt ends v) | _ -> 0 in
  let acc = ref R.zero in
  List.iter
    (fun stmt ->
      let issue = List.fold_left (fun m o -> max m (ready o)) 0 (stmt_operands stmt) in
      List.iter
        (fun o ->
          match o with
          | Ir.Value v ->
            let slack = issue - ready o in
            if slack > 0 then begin
              let bits =
                match Hashtbl.find_opt types v with Some ty -> Dtype.bits ty | None -> 32
              in
              let r =
                if slack > Primitives.delay_regs_threshold then
                  (* Bit-capacity approximation of a BRAM shift register. *)
                  R.make ~brams:(max 1 (Intmath.ceil_div (slack * bits) 20_480)) ()
                else R.make ~regs:(slack * bits) ()
              in
              acc := R.add !acc (R.scale par r)
            end
          | Ir.Const _ | Ir.Iter _ -> ())
        (stmt_operands stmt))
    body;
  !acc

let critical_path body =
  let _, _, d = body_schedule body in
  d

(* Multiply-add fusion heuristic: a float multiply consumed exactly once by
   a float add is assumed fused by the backend. (The backend additionally
   fuses reduction-tree inputs, which this model does not capture — the
   documented source of the gemm estimation error, Section V.B.) *)
let fma_area = R.make ~packable:400 ~unpackable:180 ~regs:580 ~dsps:1 ()

let count_fused_pairs body =
  let uses = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (function
          | Ir.Value v -> Hashtbl.replace uses v (1 + Option.value ~default:0 (Hashtbl.find_opt uses v))
          | _ -> ())
        (stmt_operands s))
    body;
  let muls = Hashtbl.create 16 in
  List.iter
    (function
      | Ir.Sop { dst; op = Op.Mul; ty = Dtype.Flt _; _ } -> Hashtbl.replace muls dst ()
      | _ -> ())
    body;
  let fused = Hashtbl.create 16 in
  List.iter
    (function
      | Ir.Sop { op = Op.Add; ty = Dtype.Flt _; args; _ } ->
        List.iter
          (function
            | Ir.Value v
              when Hashtbl.mem muls v && (not (Hashtbl.mem fused v)) && Hashtbl.find_opt uses v = Some 1
              ->
              Hashtbl.replace fused v ()
            | _ -> ())
          args
      | _ -> ())
    body;
  Hashtbl.length fused

let subtract_savings (saved : R.t) total =
  R.make
    ~packable:(max 0 (total.R.lut_packable - saved.R.lut_packable))
    ~unpackable:(max 0 (total.R.lut_unpackable - saved.R.lut_unpackable))
    ~regs:(max 0 (total.R.regs - saved.R.regs))
    ~dsps:(total.R.dsps + saved.R.dsps)
    ~brams:total.R.brams ()

let stmt_area ~par = function
  | Ir.Sop { op; ty; _ } -> R.scale par (Primitives.area op ty)
  | Ir.Sload { mem; _ } | Ir.Sstore { mem; _ } ->
    R.scale par (Primitives.load_store_area mem.Ir.mem_ty)
  | Ir.Sread_reg { reg; _ } | Ir.Swrite_reg { reg; _ } ->
    R.make ~packable:(Dtype.bits reg.Ir.mem_ty / 4) ()
  | Ir.Spush { queue; _ } | Ir.Spop { queue; _ } ->
    R.make ~packable:(Dtype.bits queue.Ir.mem_ty)
      ~unpackable:(Dtype.bits queue.Ir.mem_ty / 2)
      ~regs:(Dtype.bits queue.Ir.mem_ty / 2) ()

let scalar_reduce_area ~par (r : Ir.scalar_reduce) =
  let ty = r.Ir.sr_out.Ir.mem_ty in
  let combiner = Primitives.area r.Ir.sr_op ty in
  let tree = if par > 1 then R.scale (par - 1) combiner else R.zero in
  R.sum [ tree; combiner; R.make ~regs:(Dtype.bits ty) () ]

let mem_reduce_lanes ~par (r : Ir.mem_reduce) =
  max (max 1 par) (max (max 1 r.Ir.mr_src.Ir.mem_banks) (max 1 r.Ir.mr_dst.Ir.mem_banks))

let mem_reduce_area ~par (r : Ir.mem_reduce) =
  let ty = r.Ir.mr_dst.Ir.mem_ty in
  let lane = R.add (Primitives.area r.Ir.mr_op ty) (R.scale 3 (Primitives.load_store_area ty)) in
  R.add (R.scale (mem_reduce_lanes ~par r) lane) (Primitives.counter_area ~bits:16)

let counter_chain_area ~par counters =
  List.fold_left
    (fun acc c ->
      let bits = Intmath.ilog2_ceil (max 2 (abs c.Ir.ctr_stop + 1)) + 1 in
      let base = Primitives.counter_area ~bits in
      let vec = if par > 1 then R.scale (par - 1) (R.make ~packable:(bits / 2) ~regs:bits ()) else R.zero in
      R.add acc (R.add base vec))
    R.zero counters

let ctrl_estimate (char : Characterization.t) _dev ctrl =
  match ctrl with
  | Ir.Pipe { loop; body; reduce } ->
    let par = loop.Ir.lp_par in
    let nctr = List.length loop.Ir.lp_counters in
    let compute = R.sum (List.map (stmt_area ~par) body) in
    let fused = count_fused_pairs body in
    let saved =
      let sep = R.add (Primitives.area Op.Mul Dtype.float32) (Primitives.area Op.Add Dtype.float32) in
      R.scale (fused * par)
        (R.make
           ~packable:(max 0 (sep.R.lut_packable - fma_area.R.lut_packable))
           ~unpackable:(max 0 (sep.R.lut_unpackable - fma_area.R.lut_unpackable))
           ~regs:(max 0 (sep.R.regs - fma_area.R.regs))
           ())
    in
    let compute = subtract_savings saved compute in
    let red = match reduce with None -> R.zero | Some r -> scalar_reduce_area ~par r in
    let overhead =
      with_regs
        (split_luts (Linreg.predict char.Characterization.pipe_overhead [| float_of_int nctr; float_of_int par |]))
        (Linreg.predict char.Characterization.pipe_overhead_regs [| float_of_int nctr; float_of_int par |])
    in
    R.sum [ compute; red; delay_estimate ~par body; overhead ]
  | Ir.Loop { loop; stages; pipelined; reduce } ->
    let nstages = List.length stages in
    let nctr = List.length loop.Ir.lp_counters in
    let feats = [| float_of_int nstages; float_of_int nctr |] in
    let luts_model, regs_model =
      if pipelined then (char.Characterization.metapipe_overhead, char.Characterization.metapipe_overhead_regs)
      else (char.Characterization.seq_overhead, char.Characterization.seq_overhead_regs)
    in
    let overhead = with_regs (split_luts (Linreg.predict luts_model feats)) (Linreg.predict regs_model feats) in
    let red = match reduce with None -> R.zero | Some r -> mem_reduce_area ~par:loop.Ir.lp_par r in
    (* Outer counters beyond the characterized range. *)
    let counters = counter_chain_area ~par:1 loop.Ir.lp_counters in
    R.sum [ overhead; red; counters ]
  | Ir.Parallel { stages; _ } ->
    let feats = [| float_of_int (List.length stages) |] in
    with_regs
      (split_luts (Linreg.predict char.Characterization.parallel_overhead feats))
      (Linreg.predict char.Characterization.parallel_overhead_regs feats)
  | Ir.Tile_load { dst = buf; tile; par; _ } | Ir.Tile_store { src = buf; tile; par; _ } ->
    let feats =
      [| float_of_int par; float_of_int (Dtype.bits buf.Ir.mem_ty); float_of_int (List.length tile) |]
    in
    let luts = Linreg.predict char.Characterization.tile_luts feats in
    let regs = Linreg.predict char.Characterization.tile_regs feats in
    let brams = max 0 (int_of_float (Float.round (Linreg.predict char.Characterization.tile_brams feats))) in
    R.add (with_regs (split_luts luts) regs) (R.make ~brams ())

(* --- Net statistics ---------------------------------------------------- *)

let ctrl_nets ctrl =
  match ctrl with
  | Ir.Pipe { loop; body; reduce } ->
    List.fold_left
      (fun acc s -> acc + (loop.Ir.lp_par * (List.length (stmt_operands s) + 1)))
      0 body
    + (match reduce with None -> 0 | Some _ -> (2 * loop.Ir.lp_par) + 2)
    + (2 * List.length loop.Ir.lp_counters)
    + 4
  | Ir.Loop { loop; stages; pipelined; reduce } ->
    ((if pipelined then 4 else 2) * List.length stages)
    + (2 * List.length loop.Ir.lp_counters)
    + (match reduce with None -> 0 | Some _ -> (2 * loop.Ir.lp_par) + 4)
    + 4
  | Ir.Parallel { stages; _ } -> (2 * List.length stages) + 2
  | Ir.Tile_load { tile; par; _ } | Ir.Tile_store { tile; par; _ } ->
    30 + (2 * List.length tile) + (2 * par)

let raw_estimate char dev (d : Ir.design) =
  let tagged = Traverse.ctrls_with_replication d in
  let ctrls = List.map fst tagged in
  let ctrl_res =
    R.sum (List.map (fun (c, factor) -> R.scale factor (ctrl_estimate char dev c)) tagged)
  in
  let replicated = Traverse.mem_replications d in
  let mem_res = R.sum (List.map (fun (m, factor) -> R.scale factor (mem_estimate dev m)) replicated) in
  let resources = R.add ctrl_res mem_res in
  let mem_nets (m : Ir.mem) =
    match m.Ir.mem_kind with
    | Ir.Offchip -> 8
    | Ir.Bram -> (2 * max 1 m.Ir.mem_banks) + (if m.Ir.mem_double then 4 else 0)
    | Ir.Reg -> 2
    | Ir.Queue -> 6
  in
  let nets =
    List.fold_left (fun acc (c, factor) -> acc + (factor * ctrl_nets c)) 0 tagged
    + List.fold_left (fun acc (m, factor) -> acc + (factor * mem_nets m)) 0 replicated
  in
  let prim_count =
    List.fold_left
      (fun acc (c, factor) ->
        match c with
        | Ir.Pipe { loop; body; _ } -> acc + (factor * List.length body * loop.Ir.lp_par)
        | _ -> acc)
      0 tagged
  in
  let node_count = max 1 (prim_count + List.length d.d_mems + (2 * List.length ctrls)) in
  {
    resources;
    nets;
    avg_fanout = float_of_int nets /. float_of_int node_count;
    tree_depth = Traverse.depth d.d_top;
    streams = List.length (Traverse.tile_transfers d);
    ctrl_count = List.length ctrls;
    double_buffers = List.length (List.filter (fun m -> m.Ir.mem_double) d.d_mems);
    prim_count;
  }

let feature_count = 11

(* Count-valued features are log-compressed before min-max scaling so the
   sigmoid hidden layer keeps resolution across four orders of magnitude of
   design sizes. *)
let features _dev raw =
  let lg n = log1p (float_of_int n) in
  [|
    lg raw.resources.R.lut_packable;
    lg raw.resources.R.lut_unpackable;
    lg raw.resources.R.regs;
    lg raw.resources.R.dsps;
    lg raw.resources.R.brams;
    lg raw.nets;
    raw.avg_fanout;
    float_of_int raw.tree_depth;
    float_of_int raw.streams;
    float_of_int raw.ctrl_count;
    lg raw.double_buffers;
  |]
