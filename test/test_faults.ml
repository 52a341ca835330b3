(* Fault-injection suite: the deterministic Faults registry itself, the
   per-stage exception barriers in Explore.run, estimator NN-correction
   degradation, checkpoint golden files, and crash/resume equivalence.
   Runs under both `dune runtest` and the focused `dune build @faults`
   pre-merge alias. *)

module Faults = Dhdl_util.Faults
module Space = Dhdl_dse.Space
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Checkpoint = Dhdl_dse.Checkpoint
module Estimator = Dhdl_model.Estimator
module Obs = Dhdl_obs.Obs
module App = Dhdl_apps.App

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

(* Every test that configures faults runs under this wrapper so a failing
   assertion cannot leak an active fault registry into later tests. *)
let with_faults f = Fun.protect ~finally:Faults.reset f

let run_sweep ?checkpoint ?checkpoint_every ?resume ?deadline_seconds ?jobs ?stop_requested
    ?(seed = 11) ?(max_points = 80) est =
  let app = Dhdl_apps.Registry.find "dotproduct" in
  let sizes = [ ("n", 65_536) ] in
  let cfg =
    Explore.Config.make ~seed ~max_points ?checkpoint ?checkpoint_every ?resume ?deadline_seconds
      ?jobs ?stop_requested ()
  in
  Explore.run cfg (Eval.create est)
    ~space:(app.App.space sizes)
    ~generate:(fun p -> app.App.generate ~sizes ~params:p)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_test_" ^ name)

let find_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None else if String.sub haystack i nn = needle then Some i else go (i + 1)
  in
  go 0

let contains haystack needle = find_sub haystack needle <> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* ----------------------- the Faults registry ------------------------- *)

let test_off_by_default () =
  Faults.reset ();
  check_bool "inactive" false (Faults.active ());
  check_bool "never fires" false
    (List.exists (fun k -> Faults.fires ~key:k "anything") (List.init 100 Fun.id))

let test_deterministic () =
  with_faults @@ fun () ->
  let decisions () = List.map (fun k -> Faults.fires ~key:k "site") (List.init 200 Fun.id) in
  Faults.configure ~seed:1 ~p:0.5 ();
  let a = decisions () in
  Faults.configure ~seed:1 ~p:0.5 ();
  check_bool "same seed, same decisions" true (a = decisions ());
  Faults.configure ~seed:2 ~p:0.5 ();
  check_bool "different seed differs" true (a <> decisions ());
  check_bool "roughly half fire" true
    (let hits = List.length (List.filter Fun.id a) in
     hits > 50 && hits < 150)

let test_keyless_counter_sequence () =
  with_faults @@ fun () ->
  Faults.configure ~seed:3 ~p:0.5 ();
  let a = List.init 100 (fun _ -> Faults.fires "walk") in
  Faults.configure ~seed:3 ~p:0.5 ();
  let b = List.init 100 (fun _ -> Faults.fires "walk") in
  check_bool "counter-keyed walk is reproducible" true (a = b)

let test_per_site_override () =
  with_faults @@ fun () ->
  Faults.set_site "always" 1.0;
  check_bool "implicit configure" true (Faults.active ());
  check_bool "p=1 always fires" true
    (List.for_all (fun k -> Faults.fires ~key:k "always") (List.init 50 Fun.id));
  check_bool "other sites stay at default p=0" false
    (List.exists (fun k -> Faults.fires ~key:k "other") (List.init 50 Fun.id));
  check_bool "fired total counted" true (Faults.injected_total () >= 50)

let test_inject_raises () =
  with_faults @@ fun () ->
  Faults.set_site "boom" 1.0;
  (match Faults.inject ~key:0 "boom" with
  | () -> Alcotest.fail "expected Injected"
  | exception Faults.Injected site -> Alcotest.(check string) "site payload" "boom" site);
  check_bool "printer registered" true
    (contains (Printexc.to_string (Faults.Injected "x")) "injected fault at x")

(* ----------------------- per-stage barriers -------------------------- *)

let all_failures_in_stage r stage =
  r.Explore.failures <> []
  && List.for_all (fun f -> f.Explore.f_stage = stage) r.Explore.failures

let barrier_test site stage () =
  let est = Lazy.force estimator in
  with_faults @@ fun () ->
  Faults.set_site site 1.0;
  let r = run_sweep est in
  check_bool "sweep completed" true (r.Explore.processed = r.Explore.sampled);
  check_int "every point failed" r.Explore.sampled (Explore.failed_count r);
  check_bool "classified" true (all_failures_in_stage r stage);
  check_int "no evaluations survive" 0 (List.length r.Explore.evaluations);
  check_bool "pareto empty" true (r.Explore.pareto = [])

let test_generator_barrier = barrier_test "dse.generator" Explore.Generator_error
let test_lint_barrier = barrier_test "dse.lint" Explore.Lint_error
let test_estimator_barrier = barrier_test "dse.estimator" Explore.Estimator_error

let test_non_finite_barrier () =
  let est = Lazy.force estimator in
  with_faults @@ fun () ->
  Faults.set_site "dse.non_finite" 1.0;
  let r = run_sweep est in
  check_bool "classified non-finite" true (all_failures_in_stage r Explore.Non_finite_estimate);
  List.iter
    (fun f -> check_bool "detail in message" true (contains f.Explore.f_message "not finite"))
    r.Explore.failures

let test_failed_counters_registered () =
  let est = Lazy.force estimator in
  with_faults @@ fun () ->
  Faults.set_site "dse.generator" 1.0;
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let r = run_sweep est in
  check_int "generator failures counted" r.Explore.sampled
    (Obs.counter_value "dse.failed.generator");
  (* The other stages never fired but are pre-registered at zero, as is
     dse.unfit — the satellite fix for clean sweeps. *)
  let snap = Obs.snapshot () in
  List.iter
    (fun name ->
      check_bool (name ^ " registered") true
        (List.mem_assoc name snap.Obs.snap_counters))
    [ "dse.failed.lint"; "dse.failed.estimator"; "dse.failed.non_finite"; "dse.unfit";
      "dse.points_sampled"; "dse.lint_pruned"; "dse.estimated" ]

(* --------------------- acceptance: 5% mixed faults ------------------- *)

let mixed_faults () =
  Faults.configure ~seed:5 ~p:0.0 ();
  List.iter (fun s -> Faults.set_site s 0.05) [ "dse.generator"; "dse.lint"; "dse.estimator" ]

let test_mixed_faults_sweep_completes () =
  let est = Lazy.force estimator in
  with_faults @@ fun () ->
  mixed_faults ();
  let r = run_sweep est in
  check_bool "sweep completed" true ((not r.Explore.truncated) && r.Explore.processed = r.Explore.sampled);
  check_bool "some faults fired" true (Explore.failed_count r > 0);
  check_bool "some points survived" true (r.Explore.evaluations <> []);
  check_int "every point accounted for" r.Explore.sampled
    (List.length r.Explore.evaluations + r.Explore.lint_pruned + Explore.failed_count r);
  (* Every failure is classified and the buckets sum to the total. *)
  check_int "buckets sum" (Explore.failed_count r)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Explore.failure_counts r))

(* ------------------- checkpoint golden + resume ---------------------- *)

let test_checkpoint_roundtrip_and_golden () =
  let est = Lazy.force estimator in
  let path = tmp "roundtrip.jsonl" in
  with_faults @@ fun () ->
  mixed_faults ();
  let r = run_sweep ~checkpoint:path est in
  let golden = read_file path in
  (match Checkpoint.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    check_int "entry per processed point" r.Explore.processed (List.length c.Checkpoint.entries);
    check_int "total recorded" r.Explore.sampled c.Checkpoint.total;
    Alcotest.(check (list string)) "params recorded" r.Explore.param_names c.Checkpoint.params;
    Alcotest.(check string) "render is the golden file" golden (Checkpoint.render c));
  (* A second identical sweep checkpoints byte-identically. *)
  mixed_faults ();
  let path2 = tmp "roundtrip2.jsonl" in
  ignore (run_sweep ~checkpoint:path2 est);
  Alcotest.(check string) "re-run matches golden bytes" golden (read_file path2);
  Sys.remove path;
  Sys.remove path2

(* The render-once writer a sweep keeps: after every append and flush the
   file holds exactly [render] of the entries so far, for entries of every
   kind (the faulted sweep's evaluations and failures, plus one of each
   prune kind). *)
let test_writer_matches_render () =
  let est = Lazy.force estimator in
  let path = tmp "writer_src.jsonl" and out = tmp "writer.jsonl" in
  with_faults @@ fun () ->
  mixed_faults ();
  ignore (run_sweep ~checkpoint:path est);
  match Checkpoint.load ~path with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    let n = List.length c.Checkpoint.entries in
    let entries =
      c.Checkpoint.entries
      @ [ (n, Outcome.Pruned); (n + 1, Outcome.Absint_pruned); (n + 2, Outcome.Dep_pruned);
          (n + 3, Outcome.Sym_pruned) ]
    in
    let w = Checkpoint.writer { c with Checkpoint.entries = [] } in
    let check_prefix k =
      Checkpoint.flush ~path:out w;
      Alcotest.(check string)
        (Printf.sprintf "file after %d appends" k)
        (Checkpoint.render { c with Checkpoint.entries = List.filteri (fun j _ -> j < k) entries })
        (read_file out)
    in
    check_prefix 0;
    List.iteri
      (fun k (i, e) ->
        Checkpoint.append w i e;
        check_prefix (k + 1))
      entries;
    check_bool "no temp file left behind" false (Sys.file_exists (out ^ ".tmp"));
    Sys.remove path;
    Sys.remove out

(* ------------------- append-only flushes ----------------------------- *)

let inode path = (Unix.stat path).Unix.st_ino

(* A sweep renames its checkpoint into place on the first flush only:
   every later flush appends to the same file. The stop hook runs after
   each point, so it sees the file after every flush. *)
let test_flushes_keep_inode () =
  let est = Lazy.force estimator in
  let path = tmp "inode.jsonl" in
  (try Sys.remove path with Sys_error _ -> ());
  let seen = ref [] in
  let stop () =
    if Sys.file_exists path then seen := inode path :: !seen;
    false
  in
  let r = run_sweep ~checkpoint:path ~checkpoint_every:4 ~stop_requested:stop est in
  let first = match List.rev !seen with i :: _ -> i | [] -> Alcotest.fail "no flush seen" in
  check_bool "flushed many times" true (List.length !seen >= 19);
  check_bool "every flush kept the first flush's inode" true
    (List.for_all (fun i -> i = first) (inode path :: !seen));
  check_bool "no temp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  (match Checkpoint.load ~path with
  | Ok c -> check_int "every point on disk" r.Explore.processed (List.length c.Checkpoint.entries)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* The append path trusts the file only while it is the one the last
   flush left (same inode, same length). Replaced, truncated, extended or
   deleted between flushes, it is rewritten whole and equals [render]. *)
let test_changed_file_rewritten_whole () =
  let est = Lazy.force estimator in
  let src = tmp "changed_src.jsonl" and out = tmp "changed.jsonl" in
  ignore (run_sweep ~checkpoint:src est);
  let c = match Checkpoint.load ~path:src with Ok c -> c | Error msg -> Alcotest.fail msg in
  let entries = Array.of_list c.Checkpoint.entries in
  let w = Checkpoint.writer { c with Checkpoint.entries = [] } in
  let next = ref 0 in
  let append_and_flush what =
    let i, e = entries.(!next) in
    incr next;
    Checkpoint.append w i e;
    Checkpoint.flush ~path:out w;
    Alcotest.(check string)
      (what ^ ": file equals render")
      (Checkpoint.render
         { c with Checkpoint.entries = Array.to_list (Array.sub entries 0 !next) })
      (read_file out)
  in
  Checkpoint.flush ~path:out w;
  append_and_flush "appended";
  (* Another file of the same length renamed over the checkpoint. *)
  let other = tmp "changed_other.jsonl" in
  write_file other (String.make (String.length (read_file out)) 'x');
  Sys.rename other out;
  append_and_flush "replaced, same length";
  append_and_flush "appended after the rewrite";
  let text = read_file out in
  write_file out (String.sub text 0 (String.length text - 7));
  append_and_flush "truncated";
  write_file out (read_file out ^ "{\"kind\":\"pruned\",\"i\":999999}\n");
  append_and_flush "extended";
  Sys.remove out;
  append_and_flush "deleted";
  Sys.remove src;
  Sys.remove out

(* A failed write names the checkpoint, not the syscall, and leaves no
   temp file; the checkpoint keeps what the last good flush left, and the
   next flush replaces it whole. The temp file is a symlink to /dev/full,
   so every write of the replace fails with ENOSPC. *)
let test_failed_replace_names_the_file () =
  let est = Lazy.force estimator in
  let src = tmp "full_src.jsonl" and path = tmp "full.jsonl" in
  let temp = path ^ ".tmp" in
  let link_exists p = match Unix.lstat p with _ -> true | exception Unix.Unix_error _ -> false in
  List.iter (fun p -> if link_exists p then Sys.remove p) [ path; temp ];
  ignore (run_sweep ~checkpoint:src est);
  let c = match Checkpoint.load ~path:src with Ok c -> c | Error msg -> Alcotest.fail msg in
  let half = List.length c.Checkpoint.entries / 2 in
  let w = Checkpoint.writer { c with Checkpoint.entries = [] } in
  List.iteri (fun k (i, e) -> if k < half then Checkpoint.append w i e) c.Checkpoint.entries;
  Checkpoint.flush ~path w;
  let good = read_file path in
  List.iteri (fun k (i, e) -> if k >= half then Checkpoint.append w i e) c.Checkpoint.entries;
  (* Another file renamed over the checkpoint sends the flush down the
     replace path. *)
  let other = tmp "full_other.jsonl" in
  write_file other good;
  Sys.rename other path;
  let copied = inode path in
  Unix.symlink "/dev/full" temp;
  (match Checkpoint.flush ~path w with
  | () -> Alcotest.fail "a flush through /dev/full must fail"
  | exception Sys_error msg ->
    Alcotest.(check string)
      "the error names the checkpoint" (path ^ ": No space left on device") msg);
  check_bool "no temp file left behind" false (link_exists temp);
  Alcotest.(check string) "the checkpoint keeps its last good bytes" good (read_file path);
  Checkpoint.flush ~path w;
  Alcotest.(check string)
    "the next flush writes the whole file" (Checkpoint.render c) (read_file path);
  check_bool "by replacing it" true (inode path <> copied);
  Sys.remove src;
  Sys.remove path

(* The CLI prints that message as its one error line and exits 1. A file
   size limit makes the first flush fail; SIGXFSZ is ignored so the write
   fails with EFBIG instead of killing the process. *)
let test_cli_names_the_checkpoint () =
  let dir = tmp "xfsz" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let dhdl = Filename.concat (Filename.dirname (Sys.getcwd ())) (Filename.concat "bin" "dhdl.exe") in
  let cp = Filename.concat dir "F" and err = Filename.concat dir "err" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ cp; cp ^ ".tmp"; err ];
  let code =
    Sys.command
      (Printf.sprintf
         "(trap '' XFSZ; ulimit -f 8; exec %s dse gda --train-samples 40 -n 300 --checkpoint %s) \
          >/dev/null 2>%s"
         (Filename.quote dhdl) (Filename.quote cp) (Filename.quote err))
  in
  check_int "exit code" 1 code;
  Alcotest.(check string) "one error line naming the checkpoint"
    (Printf.sprintf "dhdl: error: %s: File too large" cp)
    (List.hd (String.split_on_char '\n' (read_file err)));
  check_bool "no temp file left behind" false (Sys.file_exists (cp ^ ".tmp"));
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ cp; err ];
  Sys.rmdir dir

(* The writer holds the entries and the bytes not yet flushed, never the
   file: appending and flushing 20,000 entries at the server's cadence
   allocates fewer major-heap words (promotions included) than the file
   holds. A writer that kept the rendered file in one growing buffer
   allocated 3.4 times the file. *)
let test_writer_major_words () =
  let est = Lazy.force estimator in
  let src = tmp "major_src.jsonl" and path = tmp "major.jsonl" in
  ignore (run_sweep ~checkpoint:src est);
  let c = match Checkpoint.load ~path:src with Ok c -> c | Error msg -> Alcotest.fail msg in
  let pool = Array.of_list (List.map snd c.Checkpoint.entries) in
  let n = 20_000 and every = 8 in
  let entries = List.init n (fun i -> (i, pool.(i mod Array.length pool))) in
  let w = Checkpoint.writer { c with Checkpoint.entries = [] } in
  let before = (Gc.quick_stat ()).Gc.major_words in
  List.iteri
    (fun k (i, e) ->
      Checkpoint.append w i e;
      if (k + 1) mod every = 0 then Checkpoint.flush ~path w)
    entries;
  Checkpoint.flush ~path w;
  let major = (Gc.quick_stat ()).Gc.major_words -. before in
  let file_words = float_of_int (Unix.stat path).Unix.st_size /. float_of_int (Sys.word_size / 8) in
  check_bool
    (Printf.sprintf "%.0f major words < the file's %.0f words" major file_words)
    true (major < file_words);
  Sys.remove src;
  Sys.remove path

(* A kill during an append can cut the file at any byte of the appended
   segment. Every complete line survives the cut; [truncated_tail] is set
   exactly when a partial line is left; and a resumed sweep converges to
   the golden bytes. *)
let test_cut_appended_segment () =
  let est = Lazy.force estimator in
  let golden_path = tmp "seg_golden.jsonl" and path = tmp "seg.jsonl" in
  ignore (run_sweep ~checkpoint:golden_path est);
  let golden = read_file golden_path in
  let c = match Checkpoint.load ~path:golden_path with Ok c -> c | Error msg -> Alcotest.fail msg in
  let n = List.length c.Checkpoint.entries in
  let tail = 5 in
  let w =
    Checkpoint.writer
      { c with Checkpoint.entries = List.filteri (fun j _ -> j < n - tail) c.Checkpoint.entries }
  in
  Checkpoint.flush ~path w;
  let seg_start = String.length (read_file path) in
  let ino = inode path in
  List.iteri (fun j (i, e) -> if j >= n - tail then Checkpoint.append w i e) c.Checkpoint.entries;
  Checkpoint.flush ~path w;
  check_bool "segment appended in place" true (inode path = ino);
  Alcotest.(check string) "appended file is the golden" golden (read_file path);
  let lines_before k =
    let count = ref 0 in
    String.iteri (fun j ch -> if j < k && ch = '\n' then incr count) golden;
    !count
  in
  let write_prefix k = write_file path (String.sub golden 0 k) in
  for k = seg_start to String.length golden - 1 do
    write_prefix k;
    (* The line the cut falls in is whole if only its newline is gone. *)
    let partial = golden.[k - 1] <> '\n' in
    let whole_without_newline = partial && golden.[k] = '\n' in
    let expect = lines_before k - 1 + if whole_without_newline then 1 else 0 in
    match Checkpoint.load ~path with
    | Error msg -> Alcotest.failf "cut at byte %d failed to load: %s" k msg
    | Ok cut ->
      check_int (Printf.sprintf "entries after a cut at byte %d" k) expect
        (List.length cut.Checkpoint.entries);
      check_bool (Printf.sprintf "torn flag after a cut at byte %d" k)
        (partial && not whole_without_newline) cut.Checkpoint.truncated_tail
  done;
  (* Resume from a cut at each line boundary of the segment and from the
     middle of each of its lines. *)
  let cuts =
    List.concat_map
      (fun j ->
        let start = ref seg_start in
        for _ = 1 to j do start := String.index_from golden !start '\n' + 1 done;
        let stop = String.index_from golden !start '\n' in
        [ !start; (!start + stop) / 2 ])
      (List.init tail Fun.id)
  in
  List.iter
    (fun k ->
      write_prefix k;
      ignore (run_sweep ~checkpoint:path ~resume:true est);
      Alcotest.(check string)
        (Printf.sprintf "resume from a cut at byte %d converges to the golden" k)
        golden (read_file path))
    cuts;
  Sys.remove golden_path;
  Sys.remove path

let test_resume_bit_identical_after_kill () =
  let est = Lazy.force estimator in
  let full_path = tmp "full.jsonl" in
  let kill_path = tmp "killed.jsonl" in
  with_faults @@ fun () ->
  (* Uninterrupted reference sweep, faults active at 5% in all stages. *)
  mixed_faults ();
  let reference = run_sweep ~checkpoint:full_path est in
  (* Simulate a mid-sweep kill: keep only the first 30 checkpoint entries,
     exactly what an interrupted run's last atomic write would hold. *)
  (match Checkpoint.load ~path:full_path with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    Checkpoint.save ~path:kill_path
      { c with Checkpoint.entries = List.filteri (fun i _ -> i < 30) c.Checkpoint.entries });
  (* Resume with an identically configured fault registry. *)
  mixed_faults ();
  let resumed = run_sweep ~checkpoint:kill_path ~resume:true est in
  check_int "30 points reused" 30 resumed.Explore.resumed;
  check_bool "evaluations bit-identical" true
    (resumed.Explore.evaluations = reference.Explore.evaluations);
  check_bool "failures identical" true (resumed.Explore.failures = reference.Explore.failures);
  check_int "lint_pruned identical" reference.Explore.lint_pruned resumed.Explore.lint_pruned;
  check_bool "pareto identical" true (resumed.Explore.pareto = reference.Explore.pareto);
  (* The resumed run's final checkpoint matches the uninterrupted golden. *)
  Alcotest.(check string) "checkpoint converges to golden" (read_file full_path)
    (read_file kill_path);
  Sys.remove full_path;
  Sys.remove kill_path

let test_torn_tail_every_cut () =
  let est = Lazy.force estimator in
  let golden_path = tmp "torn_golden.jsonl" in
  let torn_path = tmp "torn.jsonl" in
  ignore (run_sweep ~checkpoint:golden_path est);
  let golden = read_file golden_path in
  let n =
    match Checkpoint.load ~path:golden_path with
    | Ok c -> List.length c.Checkpoint.entries
    | Error msg -> Alcotest.fail msg
  in
  (* Length of the final entry line, including its newline. *)
  let last_len =
    let body = String.sub golden 0 (String.length golden - 1) in
    String.length golden - String.rindex body '\n' - 1
  in
  check_bool "final line long enough to tear" true (last_len > 2);
  let write_cut cut =
    let oc = open_out_bin torn_path in
    output_string oc (String.sub golden 0 (String.length golden - cut));
    close_out oc
  in
  (* A kill -9 (or a torn copy) can truncate the file at any byte. Every
     cut of the final line must still load: the complete prefix survives,
     and [truncated_tail] fires exactly when a partial line was dropped —
     a 1-byte cut only loses the trailing newline (the line is still
     whole), and a cut of the entire line is just a shorter clean file. *)
  for cut = 1 to last_len do
    write_cut cut;
    match Checkpoint.load ~path:torn_path with
    | Error msg -> Alcotest.failf "cut of %d bytes failed to load: %s" cut msg
    | Ok c ->
      let expect_entries = if cut = 1 then n else n - 1 in
      let expect_torn = cut > 1 && cut < last_len in
      check_int (Printf.sprintf "entries after %d-byte cut" cut) expect_entries
        (List.length c.Checkpoint.entries);
      check_bool (Printf.sprintf "torn flag after %d-byte cut" cut) expect_torn
        c.Checkpoint.truncated_tail
  done;
  (* Resuming from a torn checkpoint reuses the surviving prefix and
     converges to the golden bytes. *)
  write_cut ((last_len / 2) + 1);
  let resumed = run_sweep ~checkpoint:torn_path ~resume:true est in
  check_int "surviving prefix reused" (n - 1) resumed.Explore.resumed;
  Alcotest.(check string) "torn checkpoint converges to golden" golden (read_file torn_path);
  Sys.remove golden_path;
  Sys.remove torn_path

let test_resume_rejects_mismatched_checkpoint () =
  let est = Lazy.force estimator in
  let path = tmp "mismatch.jsonl" in
  let r = run_sweep ~checkpoint:path est in
  check_bool "wrote checkpoint" true (r.Explore.processed > 0);
  (match run_sweep ~seed:12 ~checkpoint:path ~resume:true est with
  | _ -> Alcotest.fail "expected resume to reject a different sweep's checkpoint"
  | exception Failure msg -> check_bool "mentions mismatch" true (contains msg "cannot resume"));
  Sys.remove path

let test_resume_rejects_corrupt_checkpoint () =
  let path = tmp "corrupt.jsonl" in
  let oc = open_out path in
  output_string oc "this is not a checkpoint\n";
  close_out oc;
  (match Checkpoint.load ~path with
  | Ok _ -> Alcotest.fail "expected load to fail"
  | Error msg -> check_bool "mentions corruption" true (contains msg "corrupt"));
  let est = Lazy.force estimator in
  (match run_sweep ~checkpoint:path ~resume:true est with
  | _ -> Alcotest.fail "expected resume to fail on a corrupt checkpoint"
  | exception Failure _ -> ());
  (* A mangled literal on a non-final line is corruption too, not a
     [true] read from its first byte. *)
  Sys.remove path;
  ignore (run_sweep ~checkpoint:path est);
  let text = read_file path in
  let needle = "\"valid\":true" in
  let k =
    match find_sub text needle with
    | Some k -> k
    | None -> Alcotest.fail "no estimated entry to mangle"
  in
  let rest = k + String.length needle in
  let tail = String.sub text rest (String.length text - rest) in
  check_bool "the mangled entry is not the final line" true
    (String.index tail '\n' < String.length tail - 1);
  let oc = open_out_bin path in
  output_string oc (String.sub text 0 k ^ "\"valid\":tXYZ" ^ tail);
  close_out oc;
  (match Checkpoint.load ~path with
  | Ok _ -> Alcotest.fail "expected load to reject a mangled literal"
  | Error msg -> check_bool "mangled literal is corruption" true (contains msg "corrupt"));
  Sys.remove path

(* Entry indices strictly increase in every checkpoint a writer leaves,
   so a duplicated line (what a doubly appended segment would hold) is
   corruption, not a later copy that silently wins. *)
let test_duplicated_line_rejected () =
  let est = Lazy.force estimator in
  let path = tmp "duplicated.jsonl" in
  ignore (run_sweep ~checkpoint:path est);
  let lines = String.split_on_char '\n' (read_file path) in
  let mid = List.length lines / 2 in
  write_file path
    (String.concat "\n" (List.concat (List.mapi (fun j l -> if j = mid then [ l; l ] else [ l ]) lines)));
  (match Checkpoint.load ~path with
  | Ok _ -> Alcotest.fail "expected load to reject a duplicated entry"
  | Error msg -> check_bool "duplicated entry is corruption" true (contains msg "corrupt"));
  Sys.remove path

let test_deadline_truncates_then_resume_completes () =
  let est = Lazy.force estimator in
  let path = tmp "deadline.jsonl" in
  let reference = run_sweep est in
  let partial = run_sweep ~checkpoint:path ~deadline_seconds:0.0 est in
  check_bool "flagged truncated" true partial.Explore.truncated;
  check_bool "stopped early" true (partial.Explore.processed < partial.Explore.sampled);
  check_bool "partial result still consistent" true
    (List.length partial.Explore.evaluations + partial.Explore.lint_pruned
     + Explore.failed_count partial
    = partial.Explore.processed);
  let finished = run_sweep ~checkpoint:path ~resume:true est in
  check_bool "finished after resume" true
    ((not finished.Explore.truncated) && finished.Explore.processed = finished.Explore.sampled);
  check_int "reused the truncated prefix" partial.Explore.processed finished.Explore.resumed;
  check_bool "same evaluations as uninterrupted" true
    (finished.Explore.evaluations = reference.Explore.evaluations);
  Sys.remove path

(* -------------------- estimator degradation -------------------------- *)

let test_nn_fallback () =
  let est = Lazy.force estimator in
  let app = Dhdl_apps.Registry.find "dotproduct" in
  let sizes = [ ("n", 65_536) ] in
  let design = app.App.generate ~sizes ~params:(app.App.default_params sizes) in
  let clean = Estimator.estimate est design in
  let uncorrected = Estimator.estimate_area_uncorrected est design in
  with_faults @@ fun () ->
  Faults.set_site "estimator.nn_correction" 1.0;
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  let degraded = Estimator.estimate est design in
  check_bool "falls back to the raw analytical model" true
    (degraded.Estimator.area = uncorrected);
  check_bool "cycles unaffected by the fallback" true
    (degraded.Estimator.cycles = clean.Estimator.cycles);
  check_bool "fallback counted" true (Obs.counter_value "estimator.nn_fallback" >= 1);
  (* The degraded estimate is still finite and usable by the sweep. *)
  check_bool "finite" true
    (Float.is_finite degraded.Estimator.cycles && degraded.Estimator.area.Estimator.alms >= 0)

let test_nn_fallback_in_sweep () =
  let est = Lazy.force estimator in
  with_faults @@ fun () ->
  Faults.set_site "estimator.nn_correction" 1.0;
  let r = run_sweep est in
  (* Degradation, not failure: every point still evaluates. *)
  check_int "no failures" 0 (Explore.failed_count r);
  check_int "all points evaluated" (r.Explore.sampled - r.Explore.lint_pruned)
    (List.length r.Explore.evaluations)

let () =
  Alcotest.run "faults"
    [
      ( "registry",
        [
          Alcotest.test_case "off by default" `Quick test_off_by_default;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "keyless counter walk" `Quick test_keyless_counter_sequence;
          Alcotest.test_case "per-site override" `Quick test_per_site_override;
          Alcotest.test_case "inject raises" `Quick test_inject_raises;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "generator" `Quick test_generator_barrier;
          Alcotest.test_case "lint" `Quick test_lint_barrier;
          Alcotest.test_case "estimator" `Quick test_estimator_barrier;
          Alcotest.test_case "non-finite estimate" `Quick test_non_finite_barrier;
          Alcotest.test_case "failed counters" `Quick test_failed_counters_registered;
          Alcotest.test_case "5% mixed faults" `Quick test_mixed_faults_sweep_completes;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip + golden" `Quick test_checkpoint_roundtrip_and_golden;
          Alcotest.test_case "writer = render at every prefix" `Quick test_writer_matches_render;
          Alcotest.test_case "resume bit-identical" `Quick test_resume_bit_identical_after_kill;
          Alcotest.test_case "torn tail tolerated at every cut" `Quick test_torn_tail_every_cut;
          Alcotest.test_case "mismatch rejected" `Quick test_resume_rejects_mismatched_checkpoint;
          Alcotest.test_case "corrupt rejected" `Quick test_resume_rejects_corrupt_checkpoint;
          Alcotest.test_case "duplicated line rejected" `Quick test_duplicated_line_rejected;
          Alcotest.test_case "deadline + resume" `Quick test_deadline_truncates_then_resume_completes;
        ] );
      ( "append flush",
        [
          Alcotest.test_case "flushes after the first keep the inode" `Quick
            test_flushes_keep_inode;
          Alcotest.test_case "changed file rewritten whole" `Quick
            test_changed_file_rewritten_whole;
          Alcotest.test_case "every cut of the appended segment" `Quick test_cut_appended_segment;
          Alcotest.test_case "failed replace names the file" `Quick
            test_failed_replace_names_the_file;
          Alcotest.test_case "CLI names the checkpoint" `Quick test_cli_names_the_checkpoint;
          Alcotest.test_case "major words below the file" `Quick test_writer_major_words;
        ] );
      ( "serializer oracle",
        [ QCheck_alcotest.to_alcotest (Serial_oracle.prop_entries ~count:500) ] );
      ( "degradation",
        [
          Alcotest.test_case "nn fallback" `Quick test_nn_fallback;
          Alcotest.test_case "nn fallback in sweep" `Quick test_nn_fallback_in_sweep;
        ] );
    ]
