module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Dtype = Dhdl_ir.Dtype
module Traverse = Dhdl_ir.Traverse
module Resources = Dhdl_device.Resources
module Primitives = Dhdl_device.Primitives
module Target = Dhdl_device.Target
module Intmath = Dhdl_util.Intmath
module R = Resources

type t = {
  raw : Resources.t;
  nets : int;
  avg_fanout : float;
  tree_depth : int;
  streams : int;
  ctrl_count : int;
  double_buffers : int;
  prim_count : int;
  fused_fmas : int;
}

(* ------------------------------------------------------------------ *)
(* Memory elaboration                                                  *)
(* ------------------------------------------------------------------ *)

let bram_blocks_of_mem dev (m : Ir.mem) =
  match m.Ir.mem_kind with
  | Ir.Offchip | Ir.Reg -> 0
  | Ir.Bram ->
    let banks = max 1 m.Ir.mem_banks in
    let depth_per_bank = Intmath.ceil_div (Ir.mem_words m) banks in
    let per_bank =
      Target.bram_blocks_for dev ~width_bits:(Dtype.bits m.Ir.mem_ty) ~depth:depth_per_bank
    in
    banks * per_bank * if m.Ir.mem_double then 2 else 1
  | Ir.Queue ->
    let depth = Ir.mem_words m in
    let blocks = Target.bram_blocks_for dev ~width_bits:(Dtype.bits m.Ir.mem_ty) ~depth in
    blocks * if m.Ir.mem_double then 2 else 1

let mem_resources dev (m : Ir.mem) =
  match m.Ir.mem_kind with
  | Ir.Offchip -> R.zero
  | Ir.Bram ->
    let banks = max 1 m.Ir.mem_banks in
    (* Bank-select decoding and per-bank write enables. *)
    let ctrl = R.make ~packable:(8 * banks) ~unpackable:(2 * banks) ~regs:(4 * banks) () in
    R.add ctrl (R.make ~brams:(bram_blocks_of_mem dev m) ())
  | Ir.Reg ->
    let bits = Dtype.bits m.Ir.mem_ty in
    let copies = if m.Ir.mem_double then 2 else 1 in
    R.make ~packable:(bits / 2) ~unpackable:0 ~regs:(bits * copies) ()
  | Ir.Queue ->
    (* Priority queue: storage plus a comparator column. *)
    let depth = Ir.mem_words m in
    let bits = Dtype.bits m.Ir.mem_ty in
    let cmp_levels = Intmath.ilog2_ceil (max 2 depth) in
    let cmps = R.scale cmp_levels (R.make ~packable:(bits * 2) ~unpackable:bits ~regs:bits ()) in
    R.add cmps (R.make ~brams:(bram_blocks_of_mem dev m) ~regs:(bits * 2) ())

(* ------------------------------------------------------------------ *)
(* Pipe body scheduling                                                *)
(* ------------------------------------------------------------------ *)

type sched = {
  starts : (int, int) Hashtbl.t;  (** value id -> issue cycle *)
  ends : (int, int) Hashtbl.t;  (** value id -> result-ready cycle *)
  types : (int, Dtype.t) Hashtbl.t;
  critical : int;
}

let stmt_latency = function
  | Ir.Sop { op; ty; _ } -> Primitives.latency op ty
  | Ir.Sload _ -> Primitives.load_store_latency
  | Ir.Sread_reg _ -> 1
  | Ir.Sstore _ | Ir.Swrite_reg _ | Ir.Spush _ -> 1
  | Ir.Spop _ -> 2

let operand_ready sched = function
  | Ir.Const _ | Ir.Iter _ -> 0
  | Ir.Value v -> ( match Hashtbl.find_opt sched.ends v with Some e -> e | None -> 0)

let stmt_operands = function
  | Ir.Sop { args; _ } -> args
  | Ir.Sload { addr; _ } -> addr
  | Ir.Sstore { addr; data; _ } -> data :: addr
  | Ir.Sread_reg _ | Ir.Spop _ -> []
  | Ir.Swrite_reg { data; _ } | Ir.Spush { data; _ } -> [ data ]

(* ASAP scheduling: each statement issues as soon as all operands are
   ready; the critical path is the latest result. *)
let asap body =
  let sched =
    { starts = Hashtbl.create 32; ends = Hashtbl.create 32; types = Hashtbl.create 32; critical = 0 }
  in
  let critical = ref 0 in
  List.iter
    (fun stmt ->
      let ready =
        List.fold_left (fun acc o -> max acc (operand_ready sched o)) 0 (stmt_operands stmt)
      in
      let lat = stmt_latency stmt in
      let fin = ready + lat in
      critical := max !critical fin;
      match stmt with
      | Ir.Sop { dst; ty; _ } ->
        Hashtbl.replace sched.starts dst ready;
        Hashtbl.replace sched.ends dst fin;
        Hashtbl.replace sched.types dst ty
      | Ir.Sload { dst; ty; _ } ->
        Hashtbl.replace sched.starts dst ready;
        Hashtbl.replace sched.ends dst fin;
        Hashtbl.replace sched.types dst ty
      | Ir.Sread_reg { dst; reg } ->
        Hashtbl.replace sched.starts dst ready;
        Hashtbl.replace sched.ends dst fin;
        Hashtbl.replace sched.types dst reg.Ir.mem_ty
      | Ir.Spop { dst; queue } ->
        Hashtbl.replace sched.starts dst ready;
        Hashtbl.replace sched.ends dst fin;
        Hashtbl.replace sched.types dst queue.Ir.mem_ty
      | Ir.Sstore _ | Ir.Swrite_reg _ | Ir.Spush _ -> ())
    body;
  { sched with critical = !critical }

(* Delay balancing: every operand arriving earlier than its consumer's
   issue cycle needs a matching delay line of (slack x width) bits. Deep
   delays are implemented in block RAM (Section IV.B.2). *)
let delay_resources_of_body dev ~par body =
  let sched = asap body in
  let acc = ref R.zero in
  List.iter
    (fun stmt ->
      let issue =
        List.fold_left (fun m o -> max m (operand_ready sched o)) 0 (stmt_operands stmt)
      in
      List.iter
        (fun o ->
          match o with
          | Ir.Const _ | Ir.Iter _ -> ()
          | Ir.Value v ->
            let slack = issue - operand_ready sched o in
            if slack > 0 then begin
              let bits =
                match Hashtbl.find_opt sched.types v with
                | Some ty -> Dtype.bits ty
                | None -> 32
              in
              let r =
                if slack > Primitives.delay_regs_threshold then
                  R.make ~brams:(Target.bram_blocks_for dev ~width_bits:bits ~depth:slack) ()
                else R.make ~regs:(slack * bits) ()
              in
              acc := R.add !acc (R.scale par r)
            end)
        (stmt_operands stmt))
    body;
  !acc

let pipe_delay_resources dev = function
  | Ir.Pipe { loop; body; _ } -> delay_resources_of_body dev ~par:loop.Ir.lp_par body
  | Ir.Loop _ | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> R.zero

let pipe_critical_path = function
  | Ir.Pipe { body; _ } -> (asap body).critical
  | Ir.Loop _ | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> 0

(* ------------------------------------------------------------------ *)
(* Backend datapath fusion (Section V.B)                               *)
(* ------------------------------------------------------------------ *)

(* The Maxeler backend fuses float multiplies feeding a single float add
   into one multiply-add unit, and additionally fuses multiplies feeding
   the first level of a floating-point reduction tree. *)
let fma_area = R.make ~packable:400 ~unpackable:180 ~regs:580 ~dsps:1 ()

let count_mul_add_pairs body =
  let uses = Hashtbl.create 16 in
  let bump = function
    | Ir.Value v -> Hashtbl.replace uses v (1 + Option.value ~default:0 (Hashtbl.find_opt uses v))
    | Ir.Const _ | Ir.Iter _ -> ()
  in
  List.iter (fun stmt -> List.iter bump (stmt_operands stmt)) body;
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
              when Hashtbl.mem muls v
                   && (not (Hashtbl.mem fused v))
                   && Hashtbl.find_opt uses v = Some 1 ->
              Hashtbl.replace fused v ()
            | _ -> ())
          args
      | _ -> ())
    body;
  Hashtbl.length fused

(* ------------------------------------------------------------------ *)
(* Per-controller elaboration                                          *)
(* ------------------------------------------------------------------ *)

let counter_bits c = Intmath.ilog2_ceil (max 2 (abs c.Ir.ctr_stop + 1)) + 1

let counter_chain_resources ~par counters =
  List.fold_left
    (fun acc c ->
      let bits = counter_bits c in
      let base = Primitives.counter_area ~bits in
      let vector =
        if par > 1 then R.scale (par - 1) (R.make ~packable:(bits / 2) ~regs:bits ()) else R.zero
      in
      R.add acc (R.add base vector))
    R.zero counters

let pipe_fsm = R.make ~packable:46 ~unpackable:18 ~regs:64 ()
let seq_fsm = R.make ~packable:64 ~unpackable:26 ~regs:88 ()
let metapipe_base = R.make ~packable:88 ~unpackable:34 ~regs:112 ()
let metapipe_per_stage = R.make ~packable:30 ~unpackable:12 ~regs:46 ()
let parallel_base = R.make ~packable:36 ~unpackable:14 ~regs:48 ()
let parallel_per_stage = R.make ~packable:12 ~unpackable:6 ~regs:18 ()
let tile_cmdgen_base = R.make ~packable:150 ~unpackable:60 ~regs:190 ()

let stmt_compute_area ~par stmt =
  match stmt with
  | Ir.Sop { op; ty; _ } -> R.scale par (Primitives.area op ty)
  | Ir.Sload { mem; _ } -> R.scale par (Primitives.load_store_area mem.Ir.mem_ty)
  | Ir.Sstore { mem; _ } -> R.scale par (Primitives.load_store_area mem.Ir.mem_ty)
  | Ir.Sread_reg { reg; _ } -> R.make ~packable:(Dtype.bits reg.Ir.mem_ty / 4) ()
  | Ir.Swrite_reg { reg; _ } -> R.make ~packable:(Dtype.bits reg.Ir.mem_ty / 4) ()
  | Ir.Spush { queue; _ } | Ir.Spop { queue; _ } ->
    (* Insertion shifter / compaction mux port of the sorting queue. *)
    R.make ~packable:(Dtype.bits queue.Ir.mem_ty) ~unpackable:(Dtype.bits queue.Ir.mem_ty / 2)
      ~regs:(Dtype.bits queue.Ir.mem_ty / 2) ()

let scalar_reduce_resources ~par (r : Ir.scalar_reduce) =
  let ty = r.Ir.sr_out.Ir.mem_ty in
  let combiner = Primitives.area r.Ir.sr_op ty in
  let tree = if par > 1 then R.scale (par - 1) combiner else R.zero in
  let accumulator = R.add combiner (R.make ~regs:(Dtype.bits ty) ()) in
  R.add tree accumulator

(* Float reduce trees fed by multiplies get their first tree level fused
   into multiply-adds by the backend: reclaim the difference. *)
let reduce_tree_fusion_savings ~par body (r : Ir.scalar_reduce) =
  match (r.Ir.sr_op, r.Ir.sr_out.Ir.mem_ty) with
  | Op.Add, Dtype.Flt _ when par > 1 ->
    let feeds_mul =
      match r.Ir.sr_value with
      | Ir.Value v ->
        List.exists
          (function Ir.Sop { dst; op = Op.Mul; _ } when dst = v -> true | _ -> false)
          body
      | Ir.Const _ | Ir.Iter _ -> false
    in
    if feeds_mul then
      let first_level = par / 2 in
      let adder = Primitives.area Op.Add Dtype.float32 in
      let mul = Primitives.area Op.Mul Dtype.float32 in
      let saved_each =
        R.add adder mul |> fun sep ->
        R.make
          ~packable:(max 0 (sep.R.lut_packable - fma_area.R.lut_packable))
          ~unpackable:(max 0 (sep.R.lut_unpackable - fma_area.R.lut_unpackable))
          ~regs:(max 0 (sep.R.regs - fma_area.R.regs))
          ()
      in
      (first_level, R.scale first_level saved_each)
    else (0, R.zero)
  | _ -> (0, R.zero)

let negate_savings (saved : R.t) total =
  R.make
    ~packable:(max 0 (total.R.lut_packable - saved.R.lut_packable))
    ~unpackable:(max 0 (total.R.lut_unpackable - saved.R.lut_unpackable))
    ~regs:(max 0 (total.R.regs - saved.R.regs))
    ~dsps:(total.R.dsps + saved.R.dsps)
    ~brams:total.R.brams ()

let mem_reduce_lanes ~par (r : Ir.mem_reduce) =
  (* The element-wise combine unit is as wide as the reduction buffers'
     banking, so it keeps up with the stage that produced the source. *)
  max (max 1 par) (max (max 1 r.Ir.mr_src.Ir.mem_banks) (max 1 r.Ir.mr_dst.Ir.mem_banks))

let mem_reduce_resources ~par (r : Ir.mem_reduce) =
  let ty = r.Ir.mr_dst.Ir.mem_ty in
  let lane =
    R.sum
      [
        Primitives.area r.Ir.mr_op ty;
        R.scale 3 (Primitives.load_store_area ty);
      ]
  in
  R.add (R.scale (mem_reduce_lanes ~par r) lane)
    (counter_chain_resources ~par:1
       [ { Ir.ctr_name = "ri"; ctr_start = 0; ctr_stop = Ir.mem_words r.Ir.mr_dst; ctr_step = 1 } ])

let tile_transfer_resources dev ~ty ~tile ~par =
  let word_bits = Dtype.bits ty in
  let counters =
    List.mapi
      (fun i extent -> { Ir.ctr_name = Printf.sprintf "t%d" i; ctr_start = 0; ctr_stop = extent; ctr_step = 1 })
      tile
  in
  R.sum
    [
      tile_cmdgen_base;
      counter_chain_resources ~par counters;
      Primitives.fifo_area ~width_bits:(word_bits * max 1 par) ~depth:512 dev;
      Primitives.fifo_area ~width_bits:96 ~depth:16 dev;
    ]

(* ------------------------------------------------------------------ *)
(* Net counting                                                        *)
(* ------------------------------------------------------------------ *)

let stmt_nets ~par stmt = par * (List.length (stmt_operands stmt) + 1)

let ctrl_nets ctrl =
  match ctrl with
  | Ir.Pipe { loop; body; reduce } ->
    let body_nets = List.fold_left (fun acc s -> acc + stmt_nets ~par:loop.Ir.lp_par s) 0 body in
    let red_nets = match reduce with None -> 0 | Some _ -> (2 * loop.Ir.lp_par) + 2 in
    body_nets + red_nets + (2 * List.length loop.Ir.lp_counters) + 4
  | Ir.Loop { loop; stages; pipelined; reduce } ->
    let hs = if pipelined then 4 else 2 in
    (hs * List.length stages)
    + (2 * List.length loop.Ir.lp_counters)
    + (match reduce with None -> 0 | Some r -> (2 * loop.Ir.lp_par) + (Ir.mem_words r.Ir.mr_dst / 256) + 4)
    + 4
  | Ir.Parallel { stages; _ } -> (2 * List.length stages) + 2
  | Ir.Tile_load { tile; par; _ } | Ir.Tile_store { tile; par; _ } ->
    30 + (2 * List.length tile) + (2 * par)

let mem_nets (m : Ir.mem) =
  match m.Ir.mem_kind with
  | Ir.Offchip -> 8
  | Ir.Bram -> (2 * max 1 m.Ir.mem_banks) + (if m.Ir.mem_double then 4 else 0)
  | Ir.Reg -> 2
  | Ir.Queue -> 6

(* ------------------------------------------------------------------ *)
(* Whole-design elaboration                                            *)
(* ------------------------------------------------------------------ *)

let ctrl_resources dev ctrl =
  match ctrl with
  | Ir.Pipe { loop; body; reduce } ->
    let par = loop.Ir.lp_par in
    let compute = R.sum (List.map (stmt_compute_area ~par) body) in
    (* Multiply-add fusion: replace fused pairs' separate units. *)
    let fused = count_mul_add_pairs body in
    let fusion_savings =
      let sep = R.add (Primitives.area Op.Mul Dtype.float32) (Primitives.area Op.Add Dtype.float32) in
      let saved_each =
        R.make
          ~packable:(max 0 (sep.R.lut_packable - fma_area.R.lut_packable))
          ~unpackable:(max 0 (sep.R.lut_unpackable - fma_area.R.lut_unpackable))
          ~regs:(max 0 (sep.R.regs - fma_area.R.regs))
          ()
      in
      R.scale (fused * par) saved_each
    in
    let compute = negate_savings fusion_savings compute in
    let reduce_res, tree_fusions =
      match reduce with
      | None -> (R.zero, 0)
      | Some r ->
        let base = scalar_reduce_resources ~par r in
        let fused_tree, saved = reduce_tree_fusion_savings ~par body r in
        (negate_savings saved base, fused_tree)
    in
    let delays = delay_resources_of_body dev ~par body in
    let counters = counter_chain_resources ~par loop.Ir.lp_counters in
    (R.sum [ compute; reduce_res; delays; counters; pipe_fsm ], (fused * par) + tree_fusions)
  | Ir.Loop { loop; stages; pipelined; reduce } ->
    let base = if pipelined then metapipe_base else seq_fsm in
    let per_stage = if pipelined then metapipe_per_stage else parallel_per_stage in
    let stage_cost = R.scale (List.length stages) per_stage in
    let counters = counter_chain_resources ~par:1 loop.Ir.lp_counters in
    let red =
      match reduce with None -> R.zero | Some r -> mem_reduce_resources ~par:loop.Ir.lp_par r
    in
    (R.sum [ base; stage_cost; counters; red ], 0)
  | Ir.Parallel { stages; _ } ->
    (R.add parallel_base (R.scale (List.length stages) parallel_per_stage), 0)
  | Ir.Tile_load { dst; tile; par; _ } ->
    (tile_transfer_resources dev ~ty:dst.Ir.mem_ty ~tile ~par, 0)
  | Ir.Tile_store { src; tile; par; _ } ->
    (tile_transfer_resources dev ~ty:src.Ir.mem_ty ~tile ~par, 0)

let elaborate dev (d : Ir.design) =
  let tagged = Traverse.ctrls_with_replication d in
  let ctrls = List.map fst tagged in
  (* Outer-loop parallelization replicates the whole stage subtree. *)
  let ctrl_res, fused =
    List.fold_left
      (fun (acc, f) (c, factor) ->
        let r, fc = ctrl_resources dev c in
        (R.add acc (R.scale factor r), f + (factor * fc)))
      (R.zero, 0) tagged
  in
  let replicated = Traverse.mem_replications d in
  let mem_res =
    R.sum (List.map (fun (m, factor) -> R.scale factor (mem_resources dev m)) replicated)
  in
  let raw = R.add ctrl_res mem_res in
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
  let node_count =
    prim_count + List.length d.d_mems + (2 * List.length ctrls) |> max 1
  in
  {
    raw;
    nets;
    avg_fanout = float_of_int nets /. float_of_int node_count;
    tree_depth = Traverse.depth d.d_top;
    streams = List.length (Traverse.tile_transfers d);
    ctrl_count = List.length ctrls;
    double_buffers = List.length (List.filter (fun m -> m.Ir.mem_double) d.d_mems);
    prim_count;
    fused_fmas = fused;
  }
