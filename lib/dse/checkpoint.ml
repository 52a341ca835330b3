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
   the buffer through [Emit], which produces the bytes [Printf] would and
   allocates nothing per number; each field's prefix is one string. *)

let add_str buf s =
  Buffer.add_char buf '"';
  Emit.add_json_escaped buf s;
  Buffer.add_char buf '"'

(* [prefix] ends with the field's opening quote. *)
let add_hex buf prefix f =
  Buffer.add_string buf prefix;
  Emit.add_hex_float buf f;
  Buffer.add_char buf '"'

let add_next buf n =
  Buffer.add_char buf ',';
  Emit.add_int buf n

let rec add_values buf = function
  | [] -> ()
  | (_, v) :: rest ->
    add_next buf v;
    add_values buf rest

(* [{"kind":"<kind>","i":<i>] — the opening every entry line shares. *)
let add_entry_head buf kind i =
  Buffer.add_string buf "{\"kind\":\"";
  Buffer.add_string buf kind;
  Buffer.add_string buf "\",\"i\":";
  Emit.add_int buf i

let add_pruned buf kind i =
  add_entry_head buf kind i;
  Buffer.add_string buf "}\n"

let add_entry buf i (e : Outcome.entry) =
  match e with
  | Outcome.Pruned -> add_pruned buf "pruned" i
  | Outcome.Absint_pruned -> add_pruned buf "absint_pruned" i
  | Outcome.Dep_pruned -> add_pruned buf "dep_pruned" i
  | Outcome.Sym_pruned -> add_pruned buf "sym_pruned" i
  | Outcome.Failed (stage, msg) ->
    add_entry_head buf "failed" i;
    Buffer.add_string buf ",\"stage\":";
    add_str buf (Outcome.stage_name stage);
    Buffer.add_string buf ",\"msg\":";
    add_str buf msg;
    Buffer.add_string buf "}\n"
  | Outcome.Evaluated ev ->
    let est = ev.Outcome.estimate in
    let a = est.Estimator.area in
    let raw = est.Estimator.raw in
    let res = raw.Area_model.resources in
    add_entry_head buf "eval" i;
    Buffer.add_string buf ",\"point\":[";
    (match ev.Outcome.point with
    | [] -> ()
    | (_, v) :: rest ->
      Emit.add_int buf v;
      add_values buf rest);
    Buffer.add_string buf (if ev.Outcome.valid then "],\"valid\":true" else "],\"valid\":false");
    add_hex buf ",\"alm_pct\":\"" ev.Outcome.alm_pct;
    add_hex buf ",\"dsp_pct\":\"" ev.Outcome.dsp_pct;
    add_hex buf ",\"bram_pct\":\"" ev.Outcome.bram_pct;
    add_hex buf ",\"cycles\":\"" est.Estimator.cycles;
    add_hex buf ",\"seconds\":\"" est.Estimator.seconds;
    Buffer.add_string buf ",\"area\":[";
    Emit.add_int buf a.Estimator.alms;
    add_next buf a.Estimator.luts;
    add_next buf a.Estimator.regs;
    add_next buf a.Estimator.dsps;
    add_next buf a.Estimator.brams;
    add_next buf a.Estimator.routing_luts;
    add_next buf a.Estimator.unavailable_luts;
    add_next buf a.Estimator.duplicated_regs;
    add_next buf a.Estimator.duplicated_brams;
    Buffer.add_string buf "],\"raw\":[";
    Emit.add_int buf res.R.lut_packable;
    add_next buf res.R.lut_unpackable;
    add_next buf res.R.regs;
    add_next buf res.R.dsps;
    add_next buf res.R.brams;
    add_next buf raw.Area_model.nets;
    add_next buf raw.Area_model.tree_depth;
    add_next buf raw.Area_model.streams;
    add_next buf raw.Area_model.ctrl_count;
    add_next buf raw.Area_model.double_buffers;
    add_next buf raw.Area_model.prim_count;
    add_hex buf "],\"avg_fanout\":\"" raw.Area_model.avg_fanout;
    Buffer.add_string buf "}\n"

let header_line t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"kind\":\"header\",\"version\":";
  Emit.add_int buf version;
  Buffer.add_string buf ",\"space\":";
  add_str buf t.space_name;
  Buffer.add_string buf ",\"seed\":";
  Emit.add_int buf t.seed;
  Buffer.add_string buf ",\"max_points\":";
  Emit.add_int buf t.max_points;
  Buffer.add_string buf ",\"total\":";
  Emit.add_int buf t.total;
  Buffer.add_string buf ",\"params\":[";
  List.iteri
    (fun k p ->
      if k > 0 then Buffer.add_char buf ',';
      add_str buf p)
    t.params;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_line t);
  List.iter (fun (i, e) -> add_entry buf i e) t.entries;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Writing.                                                             *)

(* What a writer last put on disk: the path, the identity of the file it
   wrote there, and how many of the writer's bytes that file holds. *)
type flushed = { f_path : string; f_dev : int; f_ino : int; f_len : int }

(* A writer keeps the entries appended so far, to re-render the file when
   it must be replaced, and [pending], the rendered bytes not yet on disk:
   each entry is rendered once, into [line], and copied there. A flush that
   appends writes [pending] as it is; only a replace renders the whole file
   again, a bounded chunk at a time. Either way the writer's memory is its
   entries and a few kilobytes, not the file. *)
type writer = {
  header : string;
  mutable entries : (int * Outcome.entry) list;  (* newest first *)
  line : Buffer.t;
  mutable pending : Bytes.t;
  mutable pending_len : int;
  mutable flushed : flushed option;
}

let writer t =
  { header = header_line t; entries = List.rev t.entries; line = Buffer.create 512;
    pending = Bytes.create 4096; pending_len = 0; flushed = None }

(* Copy [line] onto the end of [pending], growing it if need be. *)
let push w =
  let n = Buffer.length w.line in
  let need = w.pending_len + n in
  if need > Bytes.length w.pending then begin
    let grown = Bytes.create (max need (2 * Bytes.length w.pending)) in
    Bytes.blit w.pending 0 grown 0 w.pending_len;
    w.pending <- grown
  end;
  Buffer.blit w.line 0 w.pending w.pending_len n;
  w.pending_len <- need

let append w i e =
  w.entries <- (i, e) :: w.entries;
  Buffer.clear w.line;
  add_entry w.line i e;
  push w

(* A failed write names the checkpoint, not the syscall: the CLI prints
   the message after "dhdl: error:", and a served sweep records it. *)
let write_error path err = Sys_error (path ^ ": " ^ Unix.error_message err)

(* Write [pending] whole and empty it; returns how many bytes it held. *)
let write_pending fd w =
  let n = w.pending_len in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd w.pending !sent (n - !sent)
  done;
  w.pending_len <- 0;
  n

(* A replace renders this much before writing it. *)
let replace_chunk = 65_536

(* The whole file, the header and then every entry re-rendered, written
   through [pending] a chunk at a time; returns its length. *)
let write_whole fd w =
  let written = ref 0 in
  let emit () =
    push w;
    Buffer.clear w.line;
    if w.pending_len >= replace_chunk then written := !written + write_pending fd w
  in
  w.pending_len <- 0;
  Buffer.clear w.line;
  Buffer.add_string w.line w.header;
  emit ();
  List.iter
    (fun (i, e) ->
      add_entry w.line i e;
      emit ())
    (List.rev w.entries);
  !written + write_pending fd w

(* Full replace: the temp file is written whole, then renamed over [path],
   so whatever [path] held before (another sweep's file, a torn tail) is
   never half-replaced. A failure removes the temp file. Returns the
   written file's identity and length. *)
let replace ~path w =
  let tmp = path ^ ".tmp" in
  let fail err =
    (try Unix.unlink tmp with Unix.Unix_error _ -> ());
    raise (write_error path err)
  in
  match Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o666 with
  | exception Unix.Unix_error (err, _, _) -> fail err
  | fd -> (
    match
      let len = write_whole fd w in
      (Unix.fstat fd, len)
    with
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail err
    | written -> (
      match
        Unix.close fd;
        Unix.rename tmp path
      with
      | () -> written
      | exception Unix.Unix_error (err, _, _) -> fail err))

(* Append [pending] if [path] is still the file the last flush [f] left:
   same inode, same length. [None] (nothing written) when it is not, or
   when it is gone; otherwise what the file is after the append. *)
let append_new ~path w f =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          let st = Unix.fstat fd in
          if st.Unix.st_dev = f.f_dev && st.Unix.st_ino = f.f_ino && st.Unix.st_size = f.f_len
          then Some { f with f_len = f.f_len + write_pending fd w }
          else None
        with Unix.Unix_error (err, _, _) -> raise (write_error path err))

let flush ~path w =
  let last = w.flushed in
  (* Cleared first: if this flush raises, the next one replaces the file
     whole instead of trusting a length that may no longer hold. *)
  w.flushed <- None;
  let appended =
    match last with
    | Some f when String.equal f.f_path path -> append_new ~path w f
    | Some _ | None -> None
  in
  w.flushed <-
    (match appended with
    | Some _ -> appended
    | None ->
      let st, len = replace ~path w in
      Some { f_path = path; f_dev = st.Unix.st_dev; f_ino = st.Unix.st_ino; f_len = len })

let save ~path t = ignore (replace ~path (writer t))

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
