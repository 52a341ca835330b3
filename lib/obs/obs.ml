module Texttable = Dhdl_util.Texttable
module Rng = Dhdl_util.Rng
module Emit = Dhdl_util.Emit
module Json = Dhdl_util.Json

type attrs = (string * string) list

type span = {
  sp_name : string;
  sp_start_us : float;
  sp_dur_us : float;
  sp_depth : int;
  sp_seq : int;
  sp_track : int;
  sp_attrs : attrs;
}

type snapshot = {
  snap_spans : span list;
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_hists : (string * float array) list;
  snap_hist_totals : (string * int) list;
}

(* Capped reservoir for histogram samples: up to [hcap] kept samples drawn
   uniformly (algorithm R) from the full stream, with the true stream
   length in [htotal]. The per-histogram RNG is seeded from the histogram
   name, so a fixed recording sequence always keeps the same samples. *)
type hist = {
  mutable hdata : float array;
  mutable hlen : int;
  mutable htotal : int;
  hcap : int;
  hrng : Rng.t;
}

type sink = {
  mutex : Mutex.t;
  clock : unit -> float;
  epoch : float;
  hist_cap : int;
  mutable spans : span list;  (* reverse completion order *)
  mutable depth : int;
  mutable seq : int;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

(* The ambient sink. [live] mirrors [current <> None] so the disabled fast
   path is a single immediate-bool load with no option allocation. *)
let current : sink option ref = ref None
let live = ref false

let default_hist_cap = 8192

(* Per-domain scratch buffer. A worker domain that records telemetry
   through the global sink would serialize every counter bump and span on
   the sink mutex — on the DSE hot path that contention is paid per point.
   [with_domain_buffer] installs a domain-local buffer instead: recording
   entry points write to it lock-free, and the buffer is merged into the
   global sink under a single lock acquisition when the scope exits. The
   buffer carries a [track] identity so the Chrome exporter can render one
   lane per worker domain. *)
type local = {
  l_counters : (string, int ref) Hashtbl.t;
  l_hists : (string, hist) Hashtbl.t;
  l_track : int;
  mutable l_spans : span list;  (* reverse completion order, local start seq *)
  mutable l_depth : int;
  mutable l_seq : int;
}

let local_key : local option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let local_buffer () = !(Domain.DLS.get local_key)

(* Request lanes: tracks handed out by [fresh_track] start at 100, far
   above any realistic worker-domain count, so the exporters can tell
   "request 3" lanes apart from "worker 3" lanes by range alone. *)
let request_track_base = 100
let next_request_track = Atomic.make request_track_base

let fresh_track () = Atomic.fetch_and_add next_request_track 1

let enable ?(clock = Unix.gettimeofday) ?(hist_cap = default_hist_cap) () =
  Atomic.set next_request_track request_track_base;
  current :=
    Some
      {
        mutex = Mutex.create ();
        clock;
        epoch = clock ();
        hist_cap = max 1 hist_cap;
        spans = [];
        depth = 0;
        seq = 0;
        counters = Hashtbl.create 32;
        gauges = Hashtbl.create 16;
        hists = Hashtbl.create 16;
      };
  live := true

let disable () =
  live := false;
  current := None

let enabled () = !live

let now_us s = (s.clock () -. s.epoch) *. 1e6

let locked s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) f

let span ?(attrs = []) name f =
  match !current with
  | None -> f ()
  | Some s -> (
    match local_buffer () with
    | Some l ->
      (* Lock-free: depth/seq are domain-local; global sequence numbers are
         assigned when the buffer flushes. *)
      let start = now_us s in
      let depth = l.l_depth and seq = l.l_seq in
      l.l_depth <- depth + 1;
      l.l_seq <- seq + 1;
      Fun.protect
        ~finally:(fun () ->
          let dur = now_us s -. start in
          l.l_depth <- l.l_depth - 1;
          l.l_spans <-
            { sp_name = name; sp_start_us = start; sp_dur_us = dur; sp_depth = depth;
              sp_seq = seq; sp_track = l.l_track; sp_attrs = attrs }
            :: l.l_spans)
        f
    | None ->
      let start = now_us s in
      let depth, seq =
        locked s (fun () ->
            let d = s.depth and q = s.seq in
            s.depth <- d + 1;
            s.seq <- q + 1;
            (d, q))
      in
      Fun.protect
        ~finally:(fun () ->
          let dur = now_us s -. start in
          locked s (fun () ->
              s.depth <- s.depth - 1;
              s.spans <-
                { sp_name = name; sp_start_us = start; sp_dur_us = dur; sp_depth = depth;
                  sp_seq = seq; sp_track = 0; sp_attrs = attrs }
                :: s.spans))
        f)

let bump counters name by =
  match Hashtbl.find_opt counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace counters name (ref by)

let count ?(by = 1) name =
  match !current with
  | None -> ()
  | Some s -> (
    match local_buffer () with
    | Some l -> bump l.l_counters name by
    | None -> locked s (fun () -> bump s.counters name by))

let counter_value name =
  match !current with
  | None -> 0
  | Some s -> locked s (fun () -> match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0)

let gauge name v =
  match !current with
  | None -> ()
  | Some s -> locked s (fun () -> Hashtbl.replace s.gauges name v)

let find_hist ~cap hists name =
  match Hashtbl.find_opt hists name with
  | Some h -> h
  | None ->
    let h =
      { hdata = Array.make (min 64 cap) 0.0; hlen = 0; htotal = 0; hcap = cap;
        hrng = Rng.create (Hashtbl.hash name) }
    in
    Hashtbl.replace hists name h;
    h

(* One reservoir step: the sample is the [htotal]-th of the stream; keep it
   outright while under the cap, otherwise replace a uniformly chosen kept
   sample with probability cap/htotal (algorithm R). *)
let hist_step h v =
  h.htotal <- h.htotal + 1;
  if h.hlen < h.hcap then begin
    if h.hlen = Array.length h.hdata then begin
      let bigger = Array.make (min h.hcap (2 * h.hlen)) 0.0 in
      Array.blit h.hdata 0 bigger 0 h.hlen;
      h.hdata <- bigger
    end;
    h.hdata.(h.hlen) <- v;
    h.hlen <- h.hlen + 1
  end
  else begin
    let j = Rng.int h.hrng h.htotal in
    if j < h.hcap then h.hdata.(j) <- v
  end

let hist_observe ~cap hists name v = hist_step (find_hist ~cap hists name) v

let observe name v =
  match !current with
  | None -> ()
  | Some s -> (
    match local_buffer () with
    | Some l -> hist_observe ~cap:s.hist_cap l.l_hists name v
    | None -> locked s (fun () -> hist_observe ~cap:s.hist_cap s.hists name v))

(* Histogram name for the sink-mutex acquisition wait measured at each
   domain-buffer flush — the only point where profiled domains contend on
   the sink itself, kept visible so "the profiler adds no contention" is a
   measured claim rather than an assumption. *)
let flush_wait_hist = "obs.flush_wait_us"

let with_domain_buffer ?(track = 0) f =
  match !current with
  | None -> f ()
  | Some s ->
    let slot = Domain.DLS.get local_key in
    let saved = !slot in
    let l =
      {
        l_counters = Hashtbl.create 16;
        l_hists = Hashtbl.create 8;
        l_track = track;
        l_spans = [];
        l_depth = 0;
        l_seq = 0;
      }
    in
    slot := Some l;
    let flush () =
      slot := saved;
      (* One lock acquisition merges everything the domain recorded. Spans
         get fresh global sequence numbers in their local start order, so
         the snapshot lists each domain's spans parent before child. The
         time spent waiting for the merge lock is itself recorded. *)
      let t0 = now_us s in
      Mutex.lock s.mutex;
      let waited = now_us s -. t0 in
      Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) @@ fun () ->
      Hashtbl.iter (fun name r -> bump s.counters name !r) l.l_counters;
      Hashtbl.iter
        (fun name h ->
          let g = find_hist ~cap:s.hist_cap s.hists name in
          for idx = 0 to h.hlen - 1 do
            hist_step g h.hdata.(idx)
          done;
          (* Samples the local reservoir dropped still count toward the
             true stream length. *)
          g.htotal <- g.htotal + (h.htotal - h.hlen))
        l.l_hists;
      List.iter
        (fun sp ->
          let seq = s.seq in
          s.seq <- seq + 1;
          s.spans <- { sp with sp_seq = seq } :: s.spans)
        (List.sort (fun a b -> compare a.sp_seq b.sp_seq) l.l_spans);
      hist_observe ~cap:s.hist_cap s.hists flush_wait_hist waited
    in
    Fun.protect ~finally:flush f

let with_request_track ?attrs name f =
  match !current with
  | None -> f ()
  | Some _ ->
    let track = fresh_track () in
    with_domain_buffer ~track (fun () -> span ?attrs name f)

let tick ?(every = 1000) ~label ~total i =
  if !live && every > 0 && i > 0 && i mod every = 0 then
    Printf.eprintf "[obs] %s: %d/%d points\n%!" label i total

(* ---------------- snapshot + aggregates ------------------------------- *)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () =
  match !current with
  | None ->
    { snap_spans = []; snap_counters = []; snap_gauges = []; snap_hists = [];
      snap_hist_totals = [] }
  | Some s ->
    locked s (fun () ->
        {
          snap_spans = List.sort (fun a b -> compare a.sp_seq b.sp_seq) s.spans;
          snap_counters = sorted_bindings s.counters (fun r -> !r);
          snap_gauges = sorted_bindings s.gauges Fun.id;
          snap_hists = sorted_bindings s.hists (fun h -> Array.sub h.hdata 0 h.hlen);
          snap_hist_totals = sorted_bindings s.hists (fun h -> h.htotal);
        })

let hist_total snap name =
  match List.assoc_opt name snap.snap_hist_totals with
  | Some n -> n
  | None -> (
    match List.assoc_opt name snap.snap_hists with
    | Some vs -> Array.length vs
    | None -> 0)

let percentile values q =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let s = Array.copy values in
    Array.sort compare s;
    let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let mean values =
  let n = Array.length values in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 values /. float_of_int n

let maximum values = Array.fold_left Float.max 0.0 values

(* ---------------- exporters ------------------------------------------- *)

(* JSON has no NaN or infinity: a non-finite value is written [null],
   which [summary_of_jsonl] reads back as nan. *)
let fmt_us v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null"

(* Shared summary renderer: the live snapshot path feeds it samples, the
   JSONL re-import path feeds it pre-aggregated histogram rows. *)
type hist_row = {
  hr_name : string;
  hr_count : int;
  hr_sampled : int;
  hr_mean : float;
  hr_p50 : float;
  hr_p95 : float;
  hr_max : float;
}

let render_summary_parts ~counters ~gauges ~hist_rows ~span_durs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "telemetry summary\n";
  let empty = counters = [] && gauges = [] && hist_rows = [] && span_durs = [] in
  if empty then Buffer.add_string buf "(no events recorded)\n"
  else begin
    if counters <> [] then begin
      Buffer.add_string buf "\ncounters\n";
      Buffer.add_string buf
        (Texttable.render ~header:[ "counter"; "value" ]
           (List.map (fun (n, v) -> [ n; Texttable.fmt_int_commas v ]) counters))
    end;
    if gauges <> [] then begin
      Buffer.add_string buf "\ngauges\n";
      Buffer.add_string buf
        (Texttable.render ~header:[ "gauge"; "value" ]
           (List.map (fun (n, v) -> [ n; Texttable.fmt_float ~decimals:3 v ]) gauges))
    end;
    if hist_rows <> [] then begin
      Buffer.add_string buf "\nhistograms\n";
      Buffer.add_string buf
        (Texttable.render ~header:[ "histogram"; "count"; "sampled"; "mean"; "p50"; "p95"; "max" ]
           (List.map
              (fun r ->
                [ r.hr_name; string_of_int r.hr_count; string_of_int r.hr_sampled;
                  Texttable.fmt_float ~decimals:3 r.hr_mean;
                  Texttable.fmt_float ~decimals:3 r.hr_p50;
                  Texttable.fmt_float ~decimals:3 r.hr_p95;
                  Texttable.fmt_float ~decimals:3 r.hr_max ])
              hist_rows))
    end;
    if span_durs <> [] then begin
      (* Roll spans up by name, preserving first-appearance order. *)
      let order = ref [] in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (name, dur_us) ->
          match Hashtbl.find_opt tbl name with
          | Some samples -> samples := dur_us :: !samples
          | None ->
            Hashtbl.replace tbl name (ref [ dur_us ]);
            order := name :: !order)
        span_durs;
      Buffer.add_string buf "\nspans\n";
      Buffer.add_string buf
        (Texttable.render
           ~header:[ "span"; "count"; "total ms"; "mean ms"; "p50 ms"; "p95 ms"; "max ms" ]
           (List.rev_map
              (fun name ->
                let vs = Array.of_list !(Hashtbl.find tbl name) in
                let ms = Array.map (fun us -> us /. 1000.0) vs in
                [ name; string_of_int (Array.length ms);
                  Texttable.fmt_float ~decimals:3 (Array.fold_left ( +. ) 0.0 ms);
                  Texttable.fmt_float ~decimals:3 (mean ms);
                  Texttable.fmt_float ~decimals:3 (percentile ms 50.0);
                  Texttable.fmt_float ~decimals:3 (percentile ms 95.0);
                  Texttable.fmt_float ~decimals:3 (maximum ms) ])
              !order))
    end
  end;
  Buffer.contents buf

let render_summary snap =
  render_summary_parts ~counters:snap.snap_counters ~gauges:snap.snap_gauges
    ~hist_rows:
      (List.map
         (fun (n, vs) ->
           { hr_name = n; hr_count = hist_total snap n; hr_sampled = Array.length vs;
             hr_mean = mean vs; hr_p50 = percentile vs 50.0; hr_p95 = percentile vs 95.0;
             hr_max = maximum vs })
         snap.snap_hists)
    ~span_durs:(List.map (fun sp -> (sp.sp_name, sp.sp_dur_us)) snap.snap_spans)

let json_attrs attrs =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (Emit.json_escape k) (Emit.json_escape v))
         attrs)
  ^ "}"

let to_jsonl snap =
  let buf = Buffer.create 4096 in
  List.iter
    (fun sp ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"span\",\"name\":\"%s\",\"start_us\":%s,\"dur_us\":%s,\"depth\":%d,\"track\":%d,\"attrs\":%s}\n"
           (Emit.json_escape sp.sp_name) (fmt_us sp.sp_start_us) (fmt_us sp.sp_dur_us) sp.sp_depth
           sp.sp_track (json_attrs sp.sp_attrs)))
    snap.snap_spans;
  List.iter
    (fun (n, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n" (Emit.json_escape n) v))
    snap.snap_counters;
  List.iter
    (fun (n, v) ->
      Buffer.add_string buf
        (Printf.sprintf "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%s}\n" (Emit.json_escape n)
           (fmt_us v)))
    snap.snap_gauges;
  List.iter
    (fun (n, vs) ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sampled\":%d,\"mean\":%s,\"p50\":%s,\"p95\":%s,\"max\":%s}\n"
           (Emit.json_escape n) (hist_total snap n) (Array.length vs) (fmt_us (mean vs))
           (fmt_us (percentile vs 50.0))
           (fmt_us (percentile vs 95.0))
           (fmt_us (maximum vs))))
    snap.snap_hists;
  Buffer.contents buf

let track_name t =
  if t = 0 then "main"
  else if t >= request_track_base then Printf.sprintf "request %d" (t - request_track_base)
  else Printf.sprintf "worker %d" t

let to_chrome_trace snap =
  let end_ts =
    List.fold_left (fun acc sp -> Float.max acc (sp.sp_start_us +. sp.sp_dur_us)) 0.0
      snap.snap_spans
  in
  let tracks =
    List.sort_uniq compare (0 :: List.map (fun sp -> sp.sp_track) snap.snap_spans)
  in
  let events = Buffer.create 4096 in
  Buffer.add_string events
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"dhdl\"}}";
  List.iter
    (fun t ->
      Buffer.add_string events
        (Printf.sprintf
           ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           t (track_name t)))
    tracks;
  List.iter
    (fun sp ->
      Buffer.add_string events
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":%s}"
           (Emit.json_escape sp.sp_name) sp.sp_track (fmt_us sp.sp_start_us) (fmt_us sp.sp_dur_us)
           (json_attrs sp.sp_attrs)))
    snap.snap_spans;
  List.iter
    (fun (n, v) ->
      Buffer.add_string events
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%s,\"args\":{\"value\":%d}}"
           (Emit.json_escape n) (fmt_us end_ts) v))
    snap.snap_counters;
  List.iter
    (fun (n, v) ->
      Buffer.add_string events
        (Printf.sprintf
           ",\n{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%s,\"args\":{\"value\":%s}}"
           (Emit.json_escape n) (fmt_us end_ts) (fmt_us v)))
    snap.snap_gauges;
  Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n" (Buffer.contents events)

(* ---------------- JSONL re-import ------------------------------------- *)

(* Each line is one object read by [Json.parse]; a span's [attrs] are
   parsed too and ignored. This lets traces recorded on another machine
   be summarized without re-running the workload. *)

exception Parse of string

let field fields conv what k =
  match Json.member k fields with
  | None -> raise (Parse (Printf.sprintf "missing field %S" k))
  | Some v -> (
    match conv v with
    | Some x -> x
    | None -> raise (Parse (Printf.sprintf "field %S is not %s" k what)))

let int_of = function Json.Int i -> Some i | _ -> None

let summary_of_jsonl text =
  let counters = ref [] and gauges = ref [] and hist_rows = ref [] and span_durs = ref [] in
  let line_no = ref 0 in
  try
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           incr line_no;
           if String.trim line <> "" then begin
             let fields =
               match Json.parse line with Ok j -> j | Error msg -> raise (Parse msg)
             in
             let str = field fields Json.to_string "a string" in
             let num =
               field fields (function Json.Null -> Some Float.nan | j -> Json.to_float j) "a number"
             in
             let int = field fields int_of "an integer" in
             match str "type" with
             | "span" -> span_durs := (str "name", num "dur_us") :: !span_durs
             | "counter" -> counters := (str "name", int "value") :: !counters
             | "gauge" -> gauges := (str "name", num "value") :: !gauges
             | "histogram" ->
               let count = int "count" in
               hist_rows :=
                 {
                   hr_name = str "name";
                   hr_count = count;
                   hr_sampled =
                     (match Json.member "sampled" fields with None -> count | Some _ -> int "sampled");
                   hr_mean = num "mean";
                   hr_p50 = num "p50";
                   hr_p95 = num "p95";
                   hr_max = num "max";
                 }
                 :: !hist_rows
             | t -> raise (Parse (Printf.sprintf "unknown record type %S" t))
           end);
    Ok
      (render_summary_parts
         ~counters:(List.sort compare !counters)
         ~gauges:(List.sort compare !gauges)
         ~hist_rows:(List.sort (fun a b -> compare a.hr_name b.hr_name) !hist_rows)
         ~span_durs:(List.rev !span_durs))
  with Parse msg -> Error (Printf.sprintf "line %d: %s" !line_no msg)
