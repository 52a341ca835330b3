module Estimator = Dhdl_model.Estimator
module Area_model = Dhdl_model.Area_model
module R = Dhdl_device.Resources

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
   structurally, floats included. *)

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

(* A writer is the rendered file so far: the header line, then one line
   per appended entry. Each entry is rendered once, when it is appended,
   so a sweep that rewrites its checkpoint every few points pays for the
   bytes once and the rewrites only copy the buffer to disk. *)
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

(* Atomic write: the checkpoint on disk is always a complete, parseable
   snapshot — a crash mid-write leaves the previous checkpoint intact. *)
let flush ~path w =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc w);
  Sys.rename tmp path

let render t = Buffer.contents (writer t)
let save ~path t = flush ~path (writer t)

(* ------------------------------------------------------------------ *)
(* Parsing: a minimal JSON reader covering exactly the subset above. *)

exception Bad of string

type json =
  | Null
  | Bool of bool
  | Num of string  (** Raw lexeme; converted on access. *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\r') do incr pos done
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let h = String.init 4 (fun _ -> next ()) in
          let code = try int_of_string ("0x" ^ h) with _ -> fail "bad \\u escape" in
          Buffer.add_char buf (if code < 256 then Char.chr code else '?')
        | _ -> fail "bad escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then (incr pos; Obj [])
      else
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> members ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        members []
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then (incr pos; Arr [])
      else
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match next () with
          | ',' -> elements (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        elements []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some c when is_num_char c ->
      let start = !pos in
      while !pos < n && is_num_char s.[!pos] do incr pos done;
      Num (String.sub s start (!pos - start))
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> (
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> raise (Bad ("missing field " ^ name)))
  | _ -> raise (Bad ("expected an object with field " ^ name))

let as_int = function
  | Num raw -> (try int_of_string raw with _ -> raise (Bad ("bad integer " ^ raw)))
  | _ -> raise (Bad "expected an integer")

let as_float_hex = function
  | Str raw -> (try float_of_string raw with _ -> raise (Bad ("bad float " ^ raw)))
  | _ -> raise (Bad "expected a hex-float string")

let as_string = function Str s -> s | _ -> raise (Bad "expected a string")
let as_bool = function Bool b -> b | _ -> raise (Bad "expected a bool")
let as_list = function Arr xs -> xs | _ -> raise (Bad "expected an array")
let int_list v = List.map as_int (as_list v)

let entry_of_json ~params j : int * Outcome.entry =
  let i = as_int (member "i" j) in
  match as_string (member "kind" j) with
  | "pruned" -> (i, Outcome.Pruned)
  | "absint_pruned" -> (i, Outcome.Absint_pruned)
  | "dep_pruned" -> (i, Outcome.Dep_pruned)
  | "sym_pruned" -> (i, Outcome.Sym_pruned)
  | "failed" ->
    let stage =
      let name = as_string (member "stage" j) in
      match Outcome.stage_of_name name with
      | Some s -> s
      | None -> raise (Bad ("unknown failure stage " ^ name))
    in
    (i, Outcome.Failed (stage, as_string (member "msg" j)))
  | "eval" ->
    let point_vals = int_list (member "point" j) in
    if List.length point_vals <> List.length params then
      raise (Bad "point arity does not match header params");
    let point = List.combine params point_vals in
    let area =
      match int_list (member "area" j) with
      | [ alms; luts; regs; dsps; brams; routing_luts; unavailable_luts; duplicated_regs;
          duplicated_brams ] ->
        { Estimator.alms; luts; regs; dsps; brams; routing_luts; unavailable_luts;
          duplicated_regs; duplicated_brams }
      | _ -> raise (Bad "area must have 9 fields")
    in
    let raw =
      match int_list (member "raw" j) with
      | [ lut_packable; lut_unpackable; regs; dsps; brams; nets; tree_depth; streams; ctrl_count;
          double_buffers; prim_count ] ->
        { Area_model.resources = { R.lut_packable; lut_unpackable; regs; dsps; brams };
          nets; avg_fanout = as_float_hex (member "avg_fanout" j); tree_depth; streams;
          ctrl_count; double_buffers; prim_count }
      | _ -> raise (Bad "raw must have 11 fields")
    in
    let estimate =
      { Estimator.area; cycles = as_float_hex (member "cycles" j);
        seconds = as_float_hex (member "seconds" j); raw }
    in
    ( i,
      Outcome.Evaluated
        { Outcome.point; estimate; valid = as_bool (member "valid" j);
          alm_pct = as_float_hex (member "alm_pct" j);
          dsp_pct = as_float_hex (member "dsp_pct" j);
          bram_pct = as_float_hex (member "bram_pct" j) } )
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
      let h = parse_json header in
      if as_string (member "kind" h) <> "header" then raise (Bad "first line is not a header");
      let v = as_int (member "version" h) in
      if v <> version then raise (Bad (Printf.sprintf "unsupported checkpoint version %d" v));
      let params = List.map as_string (as_list (member "params" h)) in
      (* A crash mid-append can tear the final line (the atomic temp-file +
         rename protocol makes this impossible for [save], but other
         writers — or a torn copy — may hand us such a file). A torn tail
         carries no information the sweep cannot recompute, so drop it and
         flag the load instead of rejecting the whole checkpoint; a parse
         error on any non-final line is still real corruption. *)
      let rec parse_entries acc = function
        | [] -> (List.rev acc, false)
        | [ last ] -> (
          match entry_of_json ~params (parse_json last) with
          | e -> (List.rev (e :: acc), false)
          | exception Bad _ -> (List.rev acc, true))
        | line :: rest -> parse_entries (entry_of_json ~params (parse_json line) :: acc) rest
      in
      let entries, truncated_tail = parse_entries [] rest in
      Ok
        {
          space_name = as_string (member "space" h);
          seed = as_int (member "seed" h);
          max_points = as_int (member "max_points" h);
          total = as_int (member "total" h);
          params;
          entries = List.sort (fun (a, _) (b, _) -> compare a b) entries;
          truncated_tail;
        }
  with
  | Bad msg -> Error (Printf.sprintf "%s: corrupt checkpoint (%s)" path msg)
  | Sys_error msg -> Error msg
