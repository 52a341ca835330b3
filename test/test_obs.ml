(* Tests for the telemetry core: nested span timing against an injected
   clock, counter/gauge/histogram aggregation, the disabled-sink no-op
   fast path, and golden-file checks of the JSONL and Chrome trace_event
   exporters. *)

module Obs = Dhdl_obs.Obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A hand-cranked clock, in seconds (the Unix.gettimeofday convention). *)
let fake = ref 0.0
let advance_ms ms = fake := !fake +. (ms /. 1000.0)

let with_fake_sink f =
  fake := 0.0;
  Obs.enable ~clock:(fun () -> !fake) ();
  Fun.protect ~finally:Obs.disable f

let span_named snap name =
  match List.find_opt (fun sp -> sp.Obs.sp_name = name) snap.Obs.snap_spans with
  | Some sp -> sp
  | None -> Alcotest.failf "no span named %s" name

(* ------------------------- spans ------------------------------------- *)

let test_nested_span_timing () =
  with_fake_sink @@ fun () ->
  Obs.span "outer" (fun () ->
      advance_ms 2.0;
      Obs.span "inner" (fun () -> advance_ms 4.0);
      advance_ms 1.0);
  let snap = Obs.snapshot () in
  check_int "two spans" 2 (List.length snap.Obs.snap_spans);
  (* Snapshot is in start order even though inner finishes first. *)
  Alcotest.(check (list string))
    "start order" [ "outer"; "inner" ]
    (List.map (fun sp -> sp.Obs.sp_name) snap.Obs.snap_spans);
  let outer = span_named snap "outer" and inner = span_named snap "inner" in
  check_float "outer start" 0.0 outer.Obs.sp_start_us;
  check_float "outer duration" 7000.0 outer.Obs.sp_dur_us;
  check_float "inner start" 2000.0 inner.Obs.sp_start_us;
  check_float "inner duration" 4000.0 inner.Obs.sp_dur_us;
  check_int "outer depth" 0 outer.Obs.sp_depth;
  check_int "inner depth" 1 inner.Obs.sp_depth

let test_span_records_on_exception () =
  with_fake_sink @@ fun () ->
  (try Obs.span "boom" (fun () -> advance_ms 3.0; failwith "boom") with Failure _ -> ());
  let snap = Obs.snapshot () in
  let sp = span_named snap "boom" in
  check_float "duration up to the raise" 3000.0 sp.Obs.sp_dur_us;
  (* Depth unwinds so the next root span is depth 0 again. *)
  Obs.span "after" (fun () -> ());
  check_int "depth restored" 0 (span_named (Obs.snapshot ()) "after").Obs.sp_depth

(* A domain buffer numbers its spans in start order when it flushes, as
   the global path does: the parent, which finishes last, keeps the
   smaller seq. *)
let test_buffered_spans_in_start_order () =
  with_fake_sink @@ fun () ->
  Obs.with_domain_buffer ~track:1 (fun () ->
      Obs.span "parent" (fun () ->
          advance_ms 1.0;
          Obs.span "child" (fun () -> advance_ms 2.0)));
  let snap = Obs.snapshot () in
  Alcotest.(check (list string))
    "start order" [ "parent"; "child" ]
    (List.map (fun sp -> sp.Obs.sp_name) snap.Obs.snap_spans);
  let parent = span_named snap "parent" and child = span_named snap "child" in
  check_bool "parent seq < child seq" true (parent.Obs.sp_seq < child.Obs.sp_seq);
  check_int "parent depth" 0 parent.Obs.sp_depth;
  check_int "child depth" 1 child.Obs.sp_depth

(* ------------------------- counters / gauges / histograms ------------- *)

let test_counter_aggregation () =
  with_fake_sink @@ fun () ->
  Obs.count "hits";
  Obs.count "hits";
  Obs.count ~by:5 "hits";
  Obs.count ~by:0 "registered_only";
  check_int "accumulated" 7 (Obs.counter_value "hits");
  let snap = Obs.snapshot () in
  Alcotest.(check (list (pair string int)))
    "sorted counters"
    [ ("hits", 7); ("registered_only", 0) ]
    snap.Obs.snap_counters

let test_gauge_latest_wins () =
  with_fake_sink @@ fun () ->
  Obs.gauge "speed" 1.0;
  Obs.gauge "speed" 2.5;
  match (Obs.snapshot ()).Obs.snap_gauges with
  | [ ("speed", v) ] -> check_float "latest value" 2.5 v
  | _ -> Alcotest.fail "expected one gauge"

let test_histogram_aggregation () =
  with_fake_sink @@ fun () ->
  List.iter (fun v -> Obs.observe "ms" (float_of_int v)) [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 10 ];
  match (Obs.snapshot ()).Obs.snap_hists with
  | [ ("ms", vs) ] ->
    check_int "all samples kept" 10 (Array.length vs);
    (* Insertion order preserved in the snapshot... *)
    check_float "first sample" 3.0 vs.(0);
    (* ...and nearest-rank percentiles over the sorted copy. *)
    check_float "p50" 4.0 (Obs.percentile vs 50.0);
    check_float "p95" 10.0 (Obs.percentile vs 95.0);
    check_float "p100" 10.0 (Obs.percentile vs 100.0)
  | _ -> Alcotest.fail "expected one histogram"

let test_percentile_empty () = check_float "empty" 0.0 (Obs.percentile [||] 50.0)

(* ------------------------- disabled fast path ------------------------- *)

let test_disabled_noop () =
  Obs.disable ();
  check_bool "disabled" false (Obs.enabled ());
  let ran = ref false in
  let v = Obs.span "ignored" (fun () -> ran := true; 42) in
  check_bool "body still runs" true !ran;
  check_int "value passed through" 42 v;
  Obs.count "ignored";
  Obs.gauge "ignored" 1.0;
  Obs.observe "ignored" 1.0;
  check_int "counter reads zero" 0 (Obs.counter_value "ignored");
  let snap = Obs.snapshot () in
  check_bool "empty snapshot" true
    (snap.Obs.snap_spans = [] && snap.Obs.snap_counters = [] && snap.Obs.snap_gauges = []
   && snap.Obs.snap_hists = []);
  check_string "empty summary" "telemetry summary\n(no events recorded)\n"
    (Obs.render_summary snap)

let test_enable_resets () =
  with_fake_sink @@ fun () ->
  Obs.count "old";
  Obs.enable ~clock:(fun () -> !fake) ();
  check_int "fresh sink" 0 (Obs.counter_value "old")

(* ------------------------- exporters ---------------------------------- *)

(* One deterministic scenario shared by both golden checks. *)
let golden_snapshot () =
  with_fake_sink @@ fun () ->
  Obs.span "a" ~attrs:[ ("k", "v") ] (fun () -> advance_ms 1.0);
  Obs.count ~by:2 "c";
  Obs.gauge "g" 1.5;
  Obs.observe "h" 1.0;
  Obs.observe "h" 3.0;
  Obs.snapshot ()

let test_jsonl_golden () =
  let expected =
    "{\"type\":\"span\",\"name\":\"a\",\"start_us\":0.000,\"dur_us\":1000.000,\"depth\":0,\"track\":0,\"attrs\":{\"k\":\"v\"}}\n"
    ^ "{\"type\":\"counter\",\"name\":\"c\",\"value\":2}\n"
    ^ "{\"type\":\"gauge\",\"name\":\"g\",\"value\":1.500}\n"
    ^ "{\"type\":\"histogram\",\"name\":\"h\",\"count\":2,\"sampled\":2,\"mean\":2.000,\"p50\":1.000,\"p95\":3.000,\"max\":3.000}\n"
  in
  check_string "jsonl" expected (Obs.to_jsonl (golden_snapshot ()))

let test_chrome_trace_golden () =
  let expected =
    "{\"traceEvents\":[\n"
    ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"dhdl\"}},\n"
    ^ "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}},\n"
    ^ "{\"name\":\"a\",\"cat\":\"dhdl\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":1000.000,\"args\":{\"k\":\"v\"}},\n"
    ^ "{\"name\":\"c\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1000.000,\"args\":{\"value\":2}},\n"
    ^ "{\"name\":\"g\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":1000.000,\"args\":{\"value\":1.500}}\n"
    ^ "],\"displayTimeUnit\":\"ms\"}\n"
  in
  check_string "chrome trace" expected (Obs.to_chrome_trace (golden_snapshot ()))

let test_json_escaping () =
  let snap =
    with_fake_sink @@ fun () ->
    Obs.span "quote\"and\nnewline" ~attrs:[ ("back\\slash", "tab\there") ] (fun () -> ());
    Obs.snapshot ()
  in
  let jsonl = Obs.to_jsonl snap in
  check_bool "escaped quote" true
    (String.length jsonl > 0
    && contains jsonl "quote\\\"and\\nnewline"
    && contains jsonl "back\\\\slash"
    && contains jsonl "tab\\there")

let test_summary_sections () =
  let s = Obs.render_summary (golden_snapshot ()) in
  List.iter
    (fun needle -> check_bool ("summary mentions " ^ needle) true (contains s needle))
    [ "counters"; "gauges"; "histograms"; "spans"; "p95"; "a"; "c"; "g"; "h" ]

let dhdl_exe = Filename.concat (Filename.concat ".." "bin") "dhdl.exe"

(* JSON has no NaN or infinity: a non-finite value is exported as [null],
   and [dhdl metrics --from] reads it back as nan ([nan] in the log would
   not parse). *)
let test_jsonl_non_finite () =
  let snap =
    with_fake_sink @@ fun () ->
    Obs.gauge "g.nan" Float.nan;
    Obs.gauge "g.inf" Float.infinity;
    Obs.gauge "g.one" 1.0;
    Obs.snapshot ()
  in
  let jsonl = Obs.to_jsonl snap in
  check_string "non-finite gauges are null"
    "{\"type\":\"gauge\",\"name\":\"g.inf\",\"value\":null}\n\
     {\"type\":\"gauge\",\"name\":\"g.nan\",\"value\":null}\n\
     {\"type\":\"gauge\",\"name\":\"g.one\",\"value\":1.000}\n"
    jsonl;
  let path = Filename.temp_file "obs_non_finite" ".jsonl" in
  Out_channel.with_open_bin path (fun oc -> output_string oc jsonl);
  let ic = Unix.open_process_args_in dhdl_exe [| dhdl_exe; "metrics"; "--from"; path |] in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  Sys.remove path;
  check_bool "dhdl metrics --from exits 0" true (status = Unix.WEXITED 0);
  let row name =
    List.find_opt (String.starts_with ~prefix:name) (String.split_on_char '\n' out)
  in
  List.iter
    (fun (name, value) ->
      match row name with
      | Some line ->
        check_bool (Printf.sprintf "%s reads back as %s: %S" name value line) true
          (String.ends_with ~suffix:value (String.trim line))
      | None -> Alcotest.failf "no %s row in:\n%s" name out)
    [ ("g.nan", "nan"); ("g.inf", "nan"); ("g.one", "1.000") ]

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nested timing" `Quick test_nested_span_timing;
          Alcotest.test_case "exception safety" `Quick test_span_records_on_exception;
          Alcotest.test_case "buffered spans in start order" `Quick
            test_buffered_spans_in_start_order;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
          Alcotest.test_case "gauge latest" `Quick test_gauge_latest_wins;
          Alcotest.test_case "histogram aggregation" `Quick test_histogram_aggregation;
          Alcotest.test_case "empty percentile" `Quick test_percentile_empty;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
          Alcotest.test_case "enable resets" `Quick test_enable_resets;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl golden" `Quick test_jsonl_golden;
          Alcotest.test_case "chrome trace golden" `Quick test_chrome_trace_golden;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "summary sections" `Quick test_summary_sections;
          Alcotest.test_case "non-finite values through metrics --from" `Quick
            test_jsonl_non_finite;
        ] );
    ]
