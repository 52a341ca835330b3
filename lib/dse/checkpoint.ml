module Estimator = Dhdl_model.Estimator
module Area_model = Dhdl_model.Area_model
module R = Dhdl_device.Resources
module Emit = Dhdl_util.Emit
module Json = Dhdl_util.Json

type t = {
  space_name : string;
  seed : int;
  max_points : int;
  total : int;
  params : string list;
  entries : (int * Outcome.entry) list;
  truncated_tail : bool;
}

let version = 1

(* ------------------------------------------------------------------ *)
(* Rendering.  Floats are written as C99 hex literals ("%h") so that a
   loaded checkpoint reproduces the original values bit-for-bit — the
   resume guarantee is that a resumed sweep equals an uninterrupted one
   structurally, floats included. Every field is written straight into
   the buffer through [Emit], which produces the bytes [Printf] would. *)

let add_str buf s =
  Buffer.add_char buf '"';
  Emit.add_json_escaped buf s;
  Buffer.add_char buf '"'

let add_hex buf f =
  Buffer.add_char buf '"';
  Emit.add_hex_float buf f;
  Buffer.add_char buf '"'

let add_ints buf xs =
  Buffer.add_char buf '[';
  List.iteri
    (fun k x ->
      if k > 0 then Buffer.add_char buf ',';
      Emit.add_int buf x)
    xs;
  Buffer.add_char buf ']'

(* [{"kind":"<kind>","i":<i>] — the opening every entry line shares. *)
let add_entry_head buf kind i =
  Buffer.add_string buf "{\"kind\":\"";
  Buffer.add_string buf kind;
  Buffer.add_string buf "\",\"i\":";
  Emit.add_int buf i

let add_field buf name =
  Buffer.add_string buf ",\"";
  Buffer.add_string buf name;
  Buffer.add_string buf "\":"

let add_pruned buf kind i =
  add_entry_head buf kind i;
  Buffer.add_string buf "}\n"

(* What a writer last put on disk: the path, the identity of the file it
   wrote there, and how many of the writer's bytes that file holds. *)
type flushed = { f_path : string; f_dev : int; f_ino : int; f_len : int }

(* A writer is the rendered file so far: the header line, then one line
   per appended entry. Each entry is rendered once, when it is appended,
   so a sweep that checkpoints every few points pays for the bytes once;
   after the first flush, a flush writes only the bytes since the last. *)
type writer = { buf : Buffer.t; mutable flushed : flushed option }

let append w i (e : Outcome.entry) =
  let buf = w.buf in
  match e with
  | Outcome.Pruned -> add_pruned buf "pruned" i
  | Outcome.Absint_pruned -> add_pruned buf "absint_pruned" i
  | Outcome.Dep_pruned -> add_pruned buf "dep_pruned" i
  | Outcome.Sym_pruned -> add_pruned buf "sym_pruned" i
  | Outcome.Failed (stage, msg) ->
    add_entry_head buf "failed" i;
    add_field buf "stage";
    add_str buf (Outcome.stage_name stage);
    add_field buf "msg";
    add_str buf msg;
    Buffer.add_string buf "}\n"
  | Outcome.Evaluated ev ->
    let est = ev.Outcome.estimate in
    let a = est.Estimator.area in
    let raw = est.Estimator.raw in
    let res = raw.Area_model.resources in
    add_entry_head buf "eval" i;
    add_field buf "point";
    add_ints buf (List.map snd ev.Outcome.point);
    add_field buf "valid";
    Buffer.add_string buf (if ev.Outcome.valid then "true" else "false");
    add_field buf "alm_pct";
    add_hex buf ev.Outcome.alm_pct;
    add_field buf "dsp_pct";
    add_hex buf ev.Outcome.dsp_pct;
    add_field buf "bram_pct";
    add_hex buf ev.Outcome.bram_pct;
    add_field buf "cycles";
    add_hex buf est.Estimator.cycles;
    add_field buf "seconds";
    add_hex buf est.Estimator.seconds;
    add_field buf "area";
    add_ints buf
      [ a.Estimator.alms; a.Estimator.luts; a.Estimator.regs; a.Estimator.dsps;
        a.Estimator.brams; a.Estimator.routing_luts; a.Estimator.unavailable_luts;
        a.Estimator.duplicated_regs; a.Estimator.duplicated_brams ];
    add_field buf "raw";
    add_ints buf
      [ res.R.lut_packable; res.R.lut_unpackable; res.R.regs; res.R.dsps; res.R.brams;
        raw.Area_model.nets; raw.Area_model.tree_depth; raw.Area_model.streams;
        raw.Area_model.ctrl_count; raw.Area_model.double_buffers; raw.Area_model.prim_count ];
    add_field buf "avg_fanout";
    add_hex buf raw.Area_model.avg_fanout;
    Buffer.add_string buf "}\n"

let writer t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"kind\":\"header\",\"version\":";
  Emit.add_int buf version;
  add_field buf "space";
  add_str buf t.space_name;
  add_field buf "seed";
  Emit.add_int buf t.seed;
  add_field buf "max_points";
  Emit.add_int buf t.max_points;
  add_field buf "total";
  Emit.add_int buf t.total;
  add_field buf "params";
  Buffer.add_char buf '[';
  List.iteri
    (fun k p ->
      if k > 0 then Buffer.add_char buf ',';
      add_str buf p)
    t.params;
  Buffer.add_string buf "]}\n";
  let w = { buf; flushed = None } in
  List.iter (fun (i, e) -> append w i e) t.entries;
  w

(* Full replace: the temp file is written whole, then renamed over [path],
   so whatever [path] held before (another sweep's file, a torn tail) is
   never half-replaced. Returns the written file's identity. *)
let replace ~path buf =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let st =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Buffer.output_buffer oc buf;
        Stdlib.flush oc;
        Unix.fstat (Unix.descr_of_out_channel oc))
  in
  Sys.rename tmp path;
  st

(* Append the bytes past [f.f_len] if [path] is still the file the last
   flush left: same inode, same length. [false] (nothing written) when it
   is not, or when it is gone. *)
let append_new ~path buf f =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let st = Unix.fstat fd in
        st.Unix.st_dev = f.f_dev && st.Unix.st_ino = f.f_ino && st.Unix.st_size = f.f_len
        && begin
             let fresh = Buffer.sub buf f.f_len (Buffer.length buf - f.f_len) in
             let len = String.length fresh in
             let sent = ref 0 in
             while !sent < len do
               sent := !sent + Unix.write_substring fd fresh !sent (len - !sent)
             done;
             true
           end)

let flush ~path w =
  let last = w.flushed in
  (* Cleared first: if this flush raises, the next one replaces the file
     whole instead of trusting a length that may no longer hold. *)
  w.flushed <- None;
  let len = Buffer.length w.buf in
  match last with
  | Some f when String.equal f.f_path path && append_new ~path w.buf f ->
    w.flushed <- Some { f with f_len = len }
  | Some _ | None ->
    let st = replace ~path w.buf in
    w.flushed <- Some { f_path = path; f_dev = st.Unix.st_dev; f_ino = st.Unix.st_ino; f_len = len }

let render t = Buffer.contents (writer t).buf
let save ~path t = ignore (replace ~path (writer t).buf)

(* ------------------------------------------------------------------ *)
(* Parsing: each line is one object read by [Json.parse]. Integers are
   read only from [Int] lexemes, floats only from their hex strings. *)

exception Bad of string

let parse line = match Json.parse line with Ok j -> j | Error msg -> raise (Bad msg)

let field conv what name j =
  match Json.member name j with
  | None -> raise (Bad ("missing field " ^ name))
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> raise (Bad (Printf.sprintf "field %s is not %s" name what)))

let int_of = function Json.Int n -> Some n | _ -> None

(* [Some] of every element's conversion, [None] if any fails. *)
let all conv vs =
  List.fold_right
    (fun v acc -> match (conv v, acc) with Some x, Some xs -> Some (x :: xs) | _ -> None)
    vs (Some [])

let as_int = field int_of "an integer"
let as_string = field Json.to_string "a string"
let as_bool = field Json.to_bool "a bool"
let int_list = field (fun v -> Option.bind (Json.to_list v) (all int_of)) "an integer array"
let string_list = field (fun v -> Option.bind (Json.to_list v) (all Json.to_string)) "a string array"

let as_float_hex =
  field (fun v -> Option.bind (Json.to_string v) float_of_string_opt) "a hex-float string"

let entry_of_json ~params j : int * Outcome.entry =
  let i = as_int "i" j in
  match as_string "kind" j with
  | "pruned" -> (i, Outcome.Pruned)
  | "absint_pruned" -> (i, Outcome.Absint_pruned)
  | "dep_pruned" -> (i, Outcome.Dep_pruned)
  | "sym_pruned" -> (i, Outcome.Sym_pruned)
  | "failed" ->
    let stage =
      let name = as_string "stage" j in
      match Outcome.stage_of_name name with
      | Some s -> s
      | None -> raise (Bad ("unknown failure stage " ^ name))
    in
    (i, Outcome.Failed (stage, as_string "msg" j))
  | "eval" ->
    let point_vals = int_list "point" j in
    if List.length point_vals <> List.length params then
      raise (Bad "point arity does not match header params");
    let point = List.combine params point_vals in
    let area =
      match int_list "area" j with
      | [ alms; luts; regs; dsps; brams; routing_luts; unavailable_luts; duplicated_regs;
          duplicated_brams ] ->
        { Estimator.alms; luts; regs; dsps; brams; routing_luts; unavailable_luts;
          duplicated_regs; duplicated_brams }
      | _ -> raise (Bad "area must have 9 fields")
    in
    let raw =
      match int_list "raw" j with
      | [ lut_packable; lut_unpackable; regs; dsps; brams; nets; tree_depth; streams; ctrl_count;
          double_buffers; prim_count ] ->
        { Area_model.resources = { R.lut_packable; lut_unpackable; regs; dsps; brams };
          nets; avg_fanout = as_float_hex "avg_fanout" j; tree_depth; streams;
          ctrl_count; double_buffers; prim_count }
      | _ -> raise (Bad "raw must have 11 fields")
    in
    let estimate =
      { Estimator.area; cycles = as_float_hex "cycles" j;
        seconds = as_float_hex "seconds" j; raw }
    in
    ( i,
      Outcome.Evaluated
        { Outcome.point; estimate; valid = as_bool "valid" j;
          alm_pct = as_float_hex "alm_pct" j;
          dsp_pct = as_float_hex "dsp_pct" j;
          bram_pct = as_float_hex "bram_pct" j } )
  | kind -> raise (Bad ("unknown entry kind " ^ kind))

let load ~path =
  try
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | line -> go (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    let lines = List.filter (fun l -> String.trim l <> "") lines in
    match lines with
    | [] -> Error (path ^ ": empty checkpoint")
    | header :: rest ->
      let h = parse header in
      if as_string "kind" h <> "header" then raise (Bad "first line is not a header");
      let v = as_int "version" h in
      if v <> version then raise (Bad (Printf.sprintf "unsupported checkpoint version %d" v));
      let params = string_list "params" h in
      (* A kill during a flush's append (or a torn copy) can cut the final
         line. A torn tail carries no information the sweep cannot
         recompute, so drop it and flag the load instead of rejecting the
         whole checkpoint; a parse error on any non-final line is still
         real corruption. *)
      (* Every writer appends in ascending index order (a deadline may
         leave gaps), so an index that does not increase is a duplicated
         or reordered segment: corruption, not a later copy that wins. *)
      let after acc ((i, _) as e) =
        (match acc with
        | (prev, _) :: _ when i <= prev ->
          raise (Bad (Printf.sprintf "entry index %d does not follow %d" i prev))
        | _ -> ());
        e :: acc
      in
      let rec parse_entries acc = function
        | [] -> (List.rev acc, false)
        | [ last ] -> (
          match entry_of_json ~params (parse last) with
          | e -> (List.rev (after acc e), false)
          | exception Bad _ -> (List.rev acc, true))
        | line :: rest -> parse_entries (after acc (entry_of_json ~params (parse line))) rest
      in
      let entries, truncated_tail = parse_entries [] rest in
      Ok
        {
          space_name = as_string "space" h;
          seed = as_int "seed" h;
          max_points = as_int "max_points" h;
          total = as_int "total" h;
          params;
          entries;
          truncated_tail;
        }
  with
  | Bad msg -> Error (Printf.sprintf "%s: corrupt checkpoint (%s)" path msg)
  | Sys_error msg -> Error msg
