module Estimator = Dhdl_model.Estimator
module Area_model = Dhdl_model.Area_model
module R = Dhdl_device.Resources
module Emit = Dhdl_util.Emit

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
          match entry_of_json ~params (parse_json last) with
          | e -> (List.rev (after acc e), false)
          | exception Bad _ -> (List.rev acc, true))
        | line :: rest -> parse_entries (after acc (entry_of_json ~params (parse_json line))) rest
      in
      let entries, truncated_tail = parse_entries [] rest in
      Ok
        {
          space_name = as_string (member "space" h);
          seed = as_int (member "seed" h);
          max_points = as_int (member "max_points" h);
          total = as_int (member "total" h);
          params;
          entries;
          truncated_tail;
        }
  with
  | Bad msg -> Error (Printf.sprintf "%s: corrupt checkpoint (%s)" path msg)
  | Sys_error msg -> Error msg
