(* Differential oracle for the serializers.

   [Old_key] (with the [Dtype.to_string] it called) and [Old_render]
   are the [Printf] serializers that [Design_key.of_design] and
   [Checkpoint]'s writer replaced, kept verbatim, as [Kernel_oracle]
   keeps the exhaustive kernels. [Old_render.escape] is the JSON
   escaper that diagnostics, telemetry, the serve protocol and
   checkpoints each kept a copy of. The checks run both sides and
   compare bytes over the registry apps' designs, over generated designs
   with hostile leaves (special floats, odd dtypes, extreme ints) and
   over QCheck-generated checkpoint entries. test_eval, test_faults and
   test_util run them. *)

module Ir = Dhdl_ir.Ir
module Dtype = Dhdl_ir.Dtype
module Op = Dhdl_ir.Op
module Design_key = Dhdl_model.Design_key
module Design_gen = Dhdl_model.Design_gen
module Estimator = Dhdl_model.Estimator
module Area_model = Dhdl_model.Area_model
module R = Dhdl_device.Resources
module Rng = Dhdl_util.Rng
module Checkpoint = Dhdl_dse.Checkpoint
module Outcome = Dhdl_dse.Outcome
module Space = Dhdl_dse.Space
module App = Dhdl_apps.App

(* ------------------------------------------------------------------ *)
(* The Printf serializers                                              *)
(* ------------------------------------------------------------------ *)

(* The [Printf] [Dtype.to_string] that [Old_key] calls, so that a fault
   in the shared dtype writer shows as a key mismatch. *)
module Old_dtype = struct
  open Dtype

  let to_string = function
    | Fix { signed; int_bits; frac_bits } ->
      Printf.sprintf "%sFix(%d.%d)" (if signed then "" else "U") int_bits frac_bits
    | Flt { exp_bits; sig_bits } -> Printf.sprintf "Float(%d,%d)" exp_bits sig_bits
    | Bool -> "Bool"
end

module Old_key = struct
  module Dtype = Old_dtype

  type t = Design_key.t = { skeleton : string; binding : string }

  let of_design (d : Ir.design) : t =
    let sk = Buffer.create 512 in
    let bd = Buffer.create 256 in
    let str b s =
      Buffer.add_char b '|';
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s
    in
    let num v =
      Buffer.add_char bd '#';
      Buffer.add_string bd (string_of_int v)
    in
    let nums vs = List.iter num vs in
    let fnum v =
      Buffer.add_char bd '~';
      (* %h is exact for every float, unlike %g's default precision. *)
      Buffer.add_string bd (Printf.sprintf "%h" v)
    in
    let flag b = Buffer.add_char bd (if b then '1' else '0') in
    let mem_kind = function
      | Ir.Offchip -> 'O'
      | Ir.Bram -> 'B'
      | Ir.Reg -> 'R'
      | Ir.Queue -> 'Q'
    in
    let mem (m : Ir.mem) =
      Buffer.add_char sk 'm';
      Buffer.add_char sk (mem_kind m.Ir.mem_kind);
      str sk m.Ir.mem_name;
      str sk (Dtype.to_string m.Ir.mem_ty);
      Buffer.add_string sk (string_of_int (List.length m.Ir.mem_dims));
      nums m.Ir.mem_dims;
      num m.Ir.mem_banks;
      flag m.Ir.mem_double
    in
    let operand = function
      | Ir.Const f ->
        Buffer.add_char sk 'c';
        fnum f
      | Ir.Iter s ->
        Buffer.add_char sk 'i';
        str sk s
      | Ir.Value v ->
        Buffer.add_char sk 'v';
        Buffer.add_string sk (string_of_int v)
    in
    let operands args = List.iter operand args in
    let stmt = function
      | Ir.Sop { dst; op; args; ty } ->
        Buffer.add_string sk "Xop";
        Buffer.add_string sk (string_of_int dst);
        str sk (Op.name op);
        str sk (Dtype.to_string ty);
        operands args
      | Ir.Sload { dst; mem = m; addr; ty } ->
        Buffer.add_string sk "Xld";
        Buffer.add_string sk (string_of_int dst);
        str sk m.Ir.mem_name;
        str sk (Dtype.to_string ty);
        operands addr
      | Ir.Sstore { mem = m; addr; data } ->
        Buffer.add_string sk "Xst";
        str sk m.Ir.mem_name;
        operands addr;
        operand data
      | Ir.Sread_reg { dst; reg } ->
        Buffer.add_string sk "Xrr";
        Buffer.add_string sk (string_of_int dst);
        str sk reg.Ir.mem_name
      | Ir.Swrite_reg { reg; data } ->
        Buffer.add_string sk "Xwr";
        str sk reg.Ir.mem_name;
        operand data
      | Ir.Spush { queue; data } ->
        Buffer.add_string sk "Xqp";
        str sk queue.Ir.mem_name;
        operand data
      | Ir.Spop { dst; queue } ->
        Buffer.add_string sk "Xqo";
        Buffer.add_string sk (string_of_int dst);
        str sk queue.Ir.mem_name
    in
    let counter (c : Ir.counter) =
      Buffer.add_char sk 'k';
      str sk c.Ir.ctr_name;
      num c.Ir.ctr_start;
      num c.Ir.ctr_stop;
      num c.Ir.ctr_step
    in
    let loop (lp : Ir.loop_info) =
      str sk lp.Ir.lp_label;
      Buffer.add_char sk (match lp.Ir.lp_pattern with Ir.Map_pattern -> 'M' | Ir.Reduce_pattern -> 'R');
      Buffer.add_string sk (string_of_int (List.length lp.Ir.lp_counters));
      List.iter counter lp.Ir.lp_counters;
      num lp.Ir.lp_par
    in
    let rec ctrl = function
      | Ir.Pipe { loop = lp; body; reduce } ->
        Buffer.add_char sk 'P';
        loop lp;
        List.iter stmt body;
        (match reduce with
        | None -> Buffer.add_char sk '.'
        | Some r ->
          Buffer.add_char sk 'r';
          str sk (Op.name r.Ir.sr_op);
          str sk r.Ir.sr_out.Ir.mem_name;
          operand r.Ir.sr_value)
      | Ir.Loop { loop = lp; pipelined; stages; reduce } ->
        Buffer.add_char sk (if pipelined then 'L' else 'S');
        loop lp;
        Buffer.add_string sk (string_of_int (List.length stages));
        List.iter ctrl stages;
        (match reduce with
        | None -> Buffer.add_char sk '.'
        | Some r ->
          Buffer.add_char sk 'r';
          str sk (Op.name r.Ir.mr_op);
          str sk r.Ir.mr_src.Ir.mem_name;
          str sk r.Ir.mr_dst.Ir.mem_name)
      | Ir.Parallel { par_label; stages } ->
        Buffer.add_char sk 'F';
        str sk par_label;
        Buffer.add_string sk (string_of_int (List.length stages));
        List.iter ctrl stages
      | Ir.Tile_load { src; dst; offsets; tile; par } ->
        Buffer.add_string sk "TL";
        str sk src.Ir.mem_name;
        str sk dst.Ir.mem_name;
        operands offsets;
        Buffer.add_string sk (string_of_int (List.length tile));
        nums tile;
        num par
      | Ir.Tile_store { dst; src; offsets; tile; par } ->
        Buffer.add_string sk "TS";
        str sk dst.Ir.mem_name;
        str sk src.Ir.mem_name;
        operands offsets;
        Buffer.add_string sk (string_of_int (List.length tile));
        nums tile;
        num par
    in
    str sk d.Ir.d_name;
    Buffer.add_string sk (string_of_int (List.length d.Ir.d_mems));
    List.iter mem d.Ir.d_mems;
    ctrl d.Ir.d_top;
    Buffer.add_string sk (string_of_int (List.length d.Ir.d_params));
    List.iter
      (fun (k, v) ->
        str sk k;
        num v)
      d.Ir.d_params;
    {
      skeleton = Digest.to_hex (Digest.string (Buffer.contents sk));
      binding = Digest.to_hex (Digest.string (Buffer.contents bd));
    }
end

module Old_render = struct
  open Checkpoint

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let hex f = Printf.sprintf "\"%h\"" f
  let ints xs = "[" ^ String.concat "," (List.map string_of_int xs) ^ "]"

  type writer = Buffer.t

  let append (buf : writer) i (e : Outcome.entry) =
    match e with
    | Outcome.Pruned -> Printf.bprintf buf "{\"kind\":\"pruned\",\"i\":%d}\n" i
    | Outcome.Absint_pruned -> Printf.bprintf buf "{\"kind\":\"absint_pruned\",\"i\":%d}\n" i
    | Outcome.Dep_pruned -> Printf.bprintf buf "{\"kind\":\"dep_pruned\",\"i\":%d}\n" i
    | Outcome.Sym_pruned -> Printf.bprintf buf "{\"kind\":\"sym_pruned\",\"i\":%d}\n" i
    | Outcome.Failed (stage, msg) ->
      Printf.bprintf buf "{\"kind\":\"failed\",\"i\":%d,\"stage\":\"%s\",\"msg\":\"%s\"}\n" i
        (Outcome.stage_name stage) (escape msg)
    | Outcome.Evaluated ev ->
      let est = ev.Outcome.estimate in
      let a = est.Estimator.area in
      let raw = est.Estimator.raw in
      let res = raw.Area_model.resources in
      Printf.bprintf buf
        "{\"kind\":\"eval\",\"i\":%d,\"point\":%s,\"valid\":%b,\"alm_pct\":%s,\"dsp_pct\":%s,\"bram_pct\":%s,\"cycles\":%s,\"seconds\":%s,\"area\":%s,\"raw\":%s,\"avg_fanout\":%s}\n"
        i
        (ints (List.map snd ev.Outcome.point))
        ev.Outcome.valid (hex ev.Outcome.alm_pct) (hex ev.Outcome.dsp_pct) (hex ev.Outcome.bram_pct)
        (hex est.Estimator.cycles) (hex est.Estimator.seconds)
        (ints
           [ a.Estimator.alms; a.Estimator.luts; a.Estimator.regs; a.Estimator.dsps;
             a.Estimator.brams; a.Estimator.routing_luts; a.Estimator.unavailable_luts;
             a.Estimator.duplicated_regs; a.Estimator.duplicated_brams ])
        (ints
           [ res.R.lut_packable; res.R.lut_unpackable; res.R.regs; res.R.dsps; res.R.brams;
             raw.Area_model.nets; raw.Area_model.tree_depth; raw.Area_model.streams;
             raw.Area_model.ctrl_count; raw.Area_model.double_buffers; raw.Area_model.prim_count ])
        (hex raw.Area_model.avg_fanout)

  let writer t =
    let buf = Buffer.create 4096 in
    Printf.bprintf buf
      "{\"kind\":\"header\",\"version\":%d,\"space\":\"%s\",\"seed\":%d,\"max_points\":%d,\"total\":%d,\"params\":[%s]}\n"
      version (escape t.space_name) t.seed t.max_points t.total
      (String.concat "," (List.map (fun p -> "\"" ^ escape p ^ "\"") t.params));
    List.iter (fun (i, e) -> append buf i e) t.entries;
    buf

  let render t = Buffer.contents (writer t)
end

(* ------------------------------------------------------------------ *)
(* Design keys                                                         *)
(* ------------------------------------------------------------------ *)

(* [Some (old, new)] when the two serializers key [d] differently. *)
let key_mismatch d =
  let old_k = Old_key.of_design d and new_k = Design_key.of_design d in
  if Design_key.equal old_k new_k then None
  else Some (Design_key.to_string old_k, Design_key.to_string new_k)

(* Every registry app at both size tables, [bindings] seeded points each.
   Returns the number of designs keyed and one line per mismatch. *)
let registry_keys ~seed ~bindings =
  let keyed = ref 0 and bad = ref [] in
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun (table, sizes) ->
          List.iter
            (fun p ->
              match app.App.generate ~sizes ~params:p with
              | exception _ -> ()
              | d -> (
                incr keyed;
                match key_mismatch d with
                | None -> ()
                | Some (o, n) ->
                  bad := Printf.sprintf "%s (%s sizes): old %s, new %s" app.App.name table o n :: !bad))
            (Space.sample (app.App.space sizes) ~seed ~max_points:bindings))
        [ ("paper", app.App.paper_sizes); ("test", app.App.test_sizes) ])
    Dhdl_apps.Registry.all;
  (!keyed, List.rev !bad)

let hostile_floats =
  [| nan; infinity; neg_infinity; -0.; 0.; Int64.float_of_bits 1L;
     Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL; -.Int64.float_of_bits 3L; Float.min_float;
     Float.max_float; -.Float.max_float; Float.epsilon; 0.1; -1.5 |]

let hostile_dtypes =
  [| Dtype.Fix { signed = false; int_bits = 32; frac_bits = 0 };
     Dtype.Fix { signed = true; int_bits = 16; frac_bits = 8 };
     Dtype.Fix { signed = false; int_bits = 0; frac_bits = 16 };
     Dtype.Flt { exp_bits = 11; sig_bits = 53 }; Dtype.Bool |]

let hostile_ints = [| min_int; max_int; -1; -7; 0; -1_000_000_007; max_int - 1; min_int + 1 |]

(* [d] with about half of its numeric leaves and element types swapped
   for hostile values. Only the serialization sees the result: it need
   not be a valid design. *)
let hostile rng (d : Ir.design) =
  let pick arr x = if Rng.bool rng then Rng.choice rng arr else x in
  let int x = pick hostile_ints x in
  let ints xs = List.map int xs in
  let ty t = pick hostile_dtypes t in
  let operand = function Ir.Const f -> Ir.Const (pick hostile_floats f) | o -> o in
  let operands = List.map operand in
  let stmt = function
    | Ir.Sop s -> Ir.Sop { s with args = operands s.args; ty = ty s.ty; dst = int s.dst }
    | Ir.Sload s -> Ir.Sload { s with addr = operands s.addr; ty = ty s.ty; dst = int s.dst }
    | Ir.Sstore s -> Ir.Sstore { s with addr = operands s.addr; data = operand s.data }
    | Ir.Swrite_reg s -> Ir.Swrite_reg { s with data = operand s.data }
    | Ir.Spush s -> Ir.Spush { s with data = operand s.data }
    | (Ir.Sread_reg _ | Ir.Spop _) as s -> s
  in
  let counter (c : Ir.counter) =
    { c with Ir.ctr_start = int c.Ir.ctr_start; ctr_stop = int c.Ir.ctr_stop; ctr_step = int c.Ir.ctr_step }
  in
  let loop (lp : Ir.loop_info) =
    { lp with Ir.lp_counters = List.map counter lp.Ir.lp_counters; lp_par = int lp.Ir.lp_par }
  in
  let rec ctrl = function
    | Ir.Pipe p ->
      Ir.Pipe
        { loop = loop p.loop; body = List.map stmt p.body;
          reduce = Option.map (fun r -> { r with Ir.sr_value = operand r.Ir.sr_value }) p.reduce }
    | Ir.Loop l -> Ir.Loop { l with loop = loop l.loop; stages = List.map ctrl l.stages }
    | Ir.Parallel p -> Ir.Parallel { p with stages = List.map ctrl p.stages }
    | Ir.Tile_load t ->
      Ir.Tile_load { t with offsets = operands t.offsets; tile = ints t.tile; par = int t.par }
    | Ir.Tile_store t ->
      Ir.Tile_store { t with offsets = operands t.offsets; tile = ints t.tile; par = int t.par }
  in
  let mem (m : Ir.mem) =
    { m with Ir.mem_ty = ty m.Ir.mem_ty; mem_dims = ints m.Ir.mem_dims; mem_banks = int m.Ir.mem_banks }
  in
  { d with
    Ir.d_mems = List.map mem d.Ir.d_mems;
    d_top = ctrl d.Ir.d_top;
    d_params = List.map (fun (k, v) -> (k, int v)) d.Ir.d_params }

(* [n] generated designs, each keyed as generated and with hostile leaves
   mapped in. Returns the number of designs keyed and the mismatches. *)
let corpus_keys ~seed n =
  let rng = Rng.create seed in
  let keyed = ref 0 and bad = ref [] in
  List.iteri
    (fun i d ->
      List.iter
        (fun (what, d) ->
          incr keyed;
          match key_mismatch d with
          | None -> ()
          | Some (o, n) -> bad := Printf.sprintf "corpus %d %s: old %s, new %s" i what o n :: !bad)
        [ ("as generated", d); ("hostile", hostile rng d) ])
    (Design_gen.corpus ~seed n);
  (!keyed, List.rev !bad)

(* ------------------------------------------------------------------ *)
(* Checkpoint entries                                                  *)
(* ------------------------------------------------------------------ *)

let hostile_string =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (4, char_range 'a' 'z'); (2, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '/'; ' ' ]);
        (2, map Char.chr (int_range 0 0x1f)); (1, map Char.chr (int_range 0x7f 0xff)) ]
  in
  string_size ~gen:byte (int_range 0 24)

let hostile_float =
  QCheck.Gen.(
    frequency
      [ (3, oneofa hostile_floats); (3, float); (2, map Int64.float_of_bits ui64);
        (2, float_range 0.0 100.0) ])

let hostile_int = QCheck.Gen.(frequency [ (2, oneofa hostile_ints); (3, int); (3, small_nat) ])

let gen_entry params =
  let open QCheck.Gen in
  let ints n = list_repeat n hostile_int in
  let evaluated =
    ints (List.length params) >>= fun point ->
    ints 9 >>= fun area ->
    ints 11 >>= fun raw ->
    list_repeat 6 hostile_float >>= fun fs ->
    bool >>= fun valid ->
    match (area, raw, fs) with
    | ( [ alms; luts; regs; dsps; brams; routing_luts; unavailable_luts; duplicated_regs;
          duplicated_brams ],
        [ lut_packable; lut_unpackable; rregs; rdsps; rbrams; nets; tree_depth; streams;
          ctrl_count; double_buffers; prim_count ],
        [ alm_pct; dsp_pct; bram_pct; cycles; seconds; avg_fanout ] ) ->
      let raw =
        { Area_model.resources =
            { R.lut_packable; lut_unpackable; regs = rregs; dsps = rdsps; brams = rbrams };
          nets; avg_fanout; tree_depth; streams; ctrl_count; double_buffers; prim_count }
      in
      let area =
        { Estimator.alms; luts; regs; dsps; brams; routing_luts; unavailable_luts;
          duplicated_regs; duplicated_brams }
      in
      return
        (Outcome.Evaluated
           { Outcome.point = List.combine params point;
             estimate = { Estimator.area; cycles; seconds; raw };
             valid; alm_pct; dsp_pct; bram_pct })
    | _ -> assert false
  in
  let failed =
    pair
      (oneofl
         [ Outcome.Generator_error; Outcome.Lint_error; Outcome.Estimator_error;
           Outcome.Non_finite_estimate ])
      hostile_string
    >|= fun (stage, msg) -> Outcome.Failed (stage, msg)
  in
  frequency
    [ (4, evaluated); (3, failed);
      (1, oneofl [ Outcome.Pruned; Outcome.Absint_pruned; Outcome.Dep_pruned; Outcome.Sym_pruned ]) ]

(* A whole checkpoint: hostile header strings and ints, and up to 12
   entries at increasing (possibly negative, possibly gapped) indices. *)
let gen_checkpoint =
  let open QCheck.Gen in
  hostile_string >>= fun space_name ->
  list_size (int_range 0 4) hostile_string >>= fun params ->
  hostile_int >>= fun seed ->
  hostile_int >>= fun max_points ->
  hostile_int >>= fun total ->
  list_size (int_range 0 12) (pair (int_range 1 5) (gen_entry params)) >>= fun steps ->
  hostile_int >|= fun start ->
  let _, entries =
    List.fold_left (fun (i, acc) (step, e) -> (i + step, (i, e) :: acc)) (start, []) steps
  in
  { Checkpoint.space_name; seed; max_points; total; params; entries = List.rev entries;
    truncated_tail = false }

(* Old and new rendering of one checkpoint: header and entries, the
   latter through [Checkpoint.writer]'s [append]. *)
let entries_agree (c : Checkpoint.t) = String.equal (Old_render.render c) (Checkpoint.render c)

let prop_entries ~count =
  QCheck.Test.make ~count ~name:"checkpoint writer = Printf renderer"
    (QCheck.make ~print:Old_render.render gen_checkpoint)
    entries_agree

let prop_escape ~count =
  QCheck.Test.make ~count ~name:"Emit.json_escape = the old escaper"
    (QCheck.make ~print:String.escaped QCheck.Gen.(string_size ~gen:char (int_range 0 64)))
    (fun s -> String.equal (Old_render.escape s) (Dhdl_util.Emit.json_escape s))
