module Ir = Dhdl_ir.Ir
module Dtype = Dhdl_ir.Dtype
module Op = Dhdl_ir.Op
module Emit = Dhdl_util.Emit

type t = { skeleton : string; binding : string }

let skeleton t = t.skeleton
let binding t = t.binding
let to_string t = t.skeleton ^ ":" ^ t.binding
let equal a b = String.equal a.skeleton b.skeleton && String.equal a.binding b.binding

let compare a b =
  match String.compare a.skeleton b.skeleton with
  | 0 -> String.compare a.binding b.binding
  | c -> c

(* Serialization discipline: every field of the design lands in exactly one
   of two buffers, with a one-character tag before each record so that
   adjacent fields can never run together and alias a different design
   ("ab"+"c" vs "a"+"bc"). Shape goes to [sk], numbers to [bd]; the
   traversal order is the design's own structure, so equal graphs
   serialize identically without any sorting. *)
let of_design (d : Ir.design) =
  let sk = Buffer.create 512 in
  let bd = Buffer.create 256 in
  let int = Emit.add_int in
  let str b s =
    Buffer.add_char b '|';
    int b (String.length s);
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  (* [str] of [Dtype.to_string ty], rendered once into a scratch buffer so
     its length can lead it. *)
  let ty_buf = Buffer.create 16 in
  let dtype ty =
    Buffer.clear ty_buf;
    Dtype.to_buffer ty_buf ty;
    Buffer.add_char sk '|';
    int sk (Buffer.length ty_buf);
    Buffer.add_char sk ':';
    Buffer.add_buffer sk ty_buf
  in
  let num v =
    Buffer.add_char bd '#';
    int bd v
  in
  let nums vs = List.iter num vs in
  let fnum v =
    Buffer.add_char bd '~';
    (* %h is exact for every float, unlike %g's default precision. *)
    Emit.add_hex_float bd v
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
    dtype m.Ir.mem_ty;
    int sk (List.length m.Ir.mem_dims);
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
      int sk v
  in
  let operands args = List.iter operand args in
  let stmt = function
    | Ir.Sop { dst; op; args; ty } ->
      Buffer.add_string sk "Xop";
      int sk dst;
      str sk (Op.name op);
      dtype ty;
      operands args
    | Ir.Sload { dst; mem = m; addr; ty } ->
      Buffer.add_string sk "Xld";
      int sk dst;
      str sk m.Ir.mem_name;
      dtype ty;
      operands addr
    | Ir.Sstore { mem = m; addr; data } ->
      Buffer.add_string sk "Xst";
      str sk m.Ir.mem_name;
      operands addr;
      operand data
    | Ir.Sread_reg { dst; reg } ->
      Buffer.add_string sk "Xrr";
      int sk dst;
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
      int sk dst;
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
    int sk (List.length lp.Ir.lp_counters);
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
      int sk (List.length stages);
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
      int sk (List.length stages);
      List.iter ctrl stages
    | Ir.Tile_load { src; dst; offsets; tile; par } ->
      Buffer.add_string sk "TL";
      str sk src.Ir.mem_name;
      str sk dst.Ir.mem_name;
      operands offsets;
      int sk (List.length tile);
      nums tile;
      num par
    | Ir.Tile_store { dst; src; offsets; tile; par } ->
      Buffer.add_string sk "TS";
      str sk dst.Ir.mem_name;
      str sk src.Ir.mem_name;
      operands offsets;
      int sk (List.length tile);
      nums tile;
      num par
  in
  str sk d.Ir.d_name;
  int sk (List.length d.Ir.d_mems);
  List.iter mem d.Ir.d_mems;
  ctrl d.Ir.d_top;
  int sk (List.length d.Ir.d_params);
  List.iter
    (fun (k, v) ->
      str sk k;
      num v)
    d.Ir.d_params;
  {
    skeleton = Digest.to_hex (Digest.string (Buffer.contents sk));
    binding = Digest.to_hex (Digest.string (Buffer.contents bd));
  }
