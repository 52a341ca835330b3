(* The symbolic legality layer: expression/fit/predicate unit laws, the
   derived systems of every registry app at both size tables (constants
   folded, JSON that parses, also as wrapped by `dhdl analyze --symbolic
   --json`), the differential oracle (no symbolic
   [Refuted] verdict may ever contradict concrete analysis, and the gate
   never answers [Legal], over the same apps and tables and seeded
   random bindings), the [Sym_pruned] checkpoint round-trip, parallel /
   chunked byte-identity with the gate on, and the gate's point: a cold
   sweep with the gate on elaborates measurably fewer designs than
   [--no-symbolic] on an app with refutable regions.

   Runs under both `dune runtest` and the focused `dune build @symbolic`. *)

module Estimator = Dhdl_model.Estimator
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Outcome = Dhdl_dse.Outcome
module Space = Dhdl_dse.Space
module Symgate = Dhdl_dse.Symgate
module Symbolic = Dhdl_absint.Symbolic
module Absint = Dhdl_absint.Absint
module Dependence = Dhdl_absint.Dependence
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:60 ~epochs:100 ())

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("dhdl_symbolic_" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let app name = Registry.find name
let space_of a = a.App.space a.App.paper_sizes
let generate_of a p = a.App.generate ~sizes:a.App.paper_sizes ~params:p

(* ------------------------------------------------------------------ *)
(* Expression and predicate laws                                       *)
(* ------------------------------------------------------------------ *)

let test_expr_laws () =
  let open Symbolic in
  let x = Expr.var "x" and y = Expr.var "y" in
  let e = Expr.add (Expr.scale (Q.of_int 3) x) (Expr.sub y (Expr.of_int 7)) in
  (* 3x + y - 7 at x=5, y=2 *)
  (match Expr.eval_int e [ ("x", 5); ("y", 2) ] with
  | Some v -> check_int "3x + y - 7 evaluates" 10 v
  | None -> Alcotest.fail "eval returned None on fully bound expr");
  check_bool "missing param evaluates to None" true (Expr.eval e [ ("x", 5) ] = None);
  check_bool "x + y = y + x" true (Expr.equal (Expr.add x y) (Expr.add y x));
  check_bool "x - x = 0" true (Expr.equal (Expr.sub x x) Expr.zero);
  (* Rational coefficients stay exact: (1/2)x at x=4 is 2. *)
  let half_x = Expr.scale (Q.make 1 2) x in
  check_bool "(1/2)x at x=4" true (Expr.eval_int half_x [ ("x", 4) ] = Some 2);
  check_bool "(1/2)x at x=3 is not integral" true (Expr.eval_int half_x [ ("x", 3) ] = None)

let test_fit_recovers_affine () =
  let open Symbolic in
  (* Observations of 2a + 3b + 5 over a probe grid. *)
  let obs =
    List.concat_map
      (fun a -> List.map (fun b -> ([ ("a", a); ("b", b) ], (2 * a) + (3 * b) + 5)) [ 1; 2; 7 ])
      [ 0; 3; 10 ]
  in
  (match fit ~params:[ "a"; "b" ] obs with
  | None -> Alcotest.fail "fit failed on an exactly affine slot"
  | Some e ->
    List.iter
      (fun (b, v) ->
        check_bool "fitted expr reproduces every observation" true
          (Expr.eval_int e b = Some v))
      obs;
    check_bool "fitted expr extrapolates" true
      (Expr.eval_int e [ ("a", 100); ("b", 1) ] = Some 208));
  (* A non-affine slot (a*b) must be rejected, not approximated. *)
  let bad =
    List.concat_map
      (fun a -> List.map (fun b -> ([ ("a", a); ("b", b) ], a * b)) [ 1; 2; 5 ])
      [ 1; 3; 4 ]
  in
  check_bool "fit rejects a non-affine slot" true (fit ~params:[ "a"; "b" ] bad = None)

let test_predicate_semantics () =
  let open Symbolic in
  let p = Expr.var "p" in
  let sys =
    {
      sy_skeleton = "test";
      sy_params = [ "p"; "t" ];
      sy_pinned = [ ("meta", 1) ];
      sy_checks =
        [
          {
            ck_code = "L013";
            ck_site = "pipe t";
            ck_refutes =
              [ { cl_desc = "window shares a cell"; cl_lits = [ Pos (Le (Expr.of_int 9, p)) ] } ];
          };
          {
            ck_code = "L009";
            ck_site = "tiling";
            ck_refutes =
              [
                {
                  cl_desc = "tile does not divide extent";
                  cl_lits = [ Neg (Divides (Expr.var "t", Expr.of_int 96)) ];
                };
              ];
          };
        ];
      sy_probes = 9;
      sy_note = "";
    }
  in
  let v b = Predicate.eval sys b in
  (* The gate refutes only: a point no clause refutes is Unknown. *)
  (match v [ ("p", 4); ("t", 32); ("meta", 1) ] with
  | Unknown _ -> ()
  | _ -> Alcotest.fail "a point no clause refutes must be Unknown");
  (match v [ ("p", 12); ("t", 32); ("meta", 1) ] with
  | Refuted { code; _ } -> Alcotest.(check string) "refuted with the check's code" "L013" code
  | _ -> Alcotest.fail "p=12 must be Refuted");
  (match v [ ("p", 4); ("t", 7); ("meta", 1) ] with
  | Refuted { code; _ } -> Alcotest.(check string) "divisibility refutes" "L009" code
  | _ -> Alcotest.fail "t=7 must be Refuted");
  (* Pinned mismatch and missing params both fall to Unknown, never to a
     decided verdict: an atom over an unbound parameter fires under
     neither a Neg (t) nor a Pos (p) literal. *)
  (match v [ ("p", 12); ("t", 7); ("meta", 0) ] with
  | Unknown _ -> ()
  | _ -> Alcotest.fail "pinned mismatch must be Unknown");
  (match v [ ("p", 4); ("meta", 1) ] with
  | Unknown _ -> ()
  | _ -> Alcotest.fail "missing param under a Neg literal must be Unknown");
  (match v [ ("t", 32); ("meta", 1) ] with
  | Unknown _ -> ()
  | _ -> Alcotest.fail "missing param under a Pos literal must be Unknown");
  (* A system derivation gave up on has no checks and says why. *)
  let checkless = { sys with sy_checks = []; sy_note = "limited" } in
  match Predicate.eval checkless [ ("p", 12); ("meta", 1) ] with
  | Unknown why -> Alcotest.(check string) "a checkless system answers with its note" "limited" why
  | _ -> Alcotest.fail "a checkless system must be Unknown"

(* ------------------------------------------------------------------ *)
(* Derived systems                                                     *)
(* ------------------------------------------------------------------ *)

(* One derived gate per registry app and size table, shared by the
   tests below. *)
type derived = {
  app : App.t;
  table : string;
  space : Space.t;
  generate : Space.point -> Dhdl_ir.Ir.design;
  gate : Symgate.t;
}

let derived =
  lazy
    (List.concat_map
       (fun (a : App.t) ->
         List.map
           (fun (table, sizes) ->
             let space = a.App.space sizes in
             let generate p = a.App.generate ~sizes ~params:p in
             { app = a; table; space; generate; gate = Symgate.derive ~space ~generate () })
           [ ("paper", a.App.paper_sizes); ("test", a.App.test_sizes) ])
       Registry.all)

let where d = Printf.sprintf "%s (%s sizes)" d.app.App.name d.table

(* Derivation folds constants away: no literal the empty binding decides
   survives (such a clause either never fires or carries an atom that
   always holds), and no check is left without a clause. *)
let test_derivation_folds_constants () =
  List.iter
    (fun d ->
      List.iter
        (fun (sys : Symbolic.system) ->
          List.iter
            (fun (ck : Symbolic.check) ->
              if ck.Symbolic.ck_refutes = [] then
                Alcotest.failf "%s: check %s kept with no clause" (where d) ck.Symbolic.ck_site;
              List.iter
                (fun (cl : Symbolic.clause) ->
                  List.iter
                    (fun l ->
                      if Predicate_oracle.literal_holds [] l <> None then
                        Alcotest.failf "%s: %s keeps the constant literal %s" (where d)
                          ck.Symbolic.ck_site (Symbolic.literal_to_string l))
                    cl.Symbolic.cl_lits)
                ck.Symbolic.ck_refutes)
            sys.Symbolic.sy_checks)
        (Symgate.systems d.gate))
    (Lazy.force derived)

let test_render_json_parses () =
  List.iter
    (fun d ->
      List.iter
        (fun (sys : Symbolic.system) ->
          match Dhdl_util.Json.parse (Symbolic.render_json sys) with
          | Ok json ->
            check_int
              (where d ^ ": one JSON check per derived check")
              (List.length sys.Symbolic.sy_checks)
              (List.length
                 (Option.value ~default:[]
                    (Option.bind (Dhdl_util.Json.member "checks" json) Dhdl_util.Json.to_list)))
          | Error msg -> Alcotest.failf "%s: render_json does not parse: %s" (where d) msg)
        (Symgate.systems d.gate))
    (Lazy.force derived)

(* The CLI wraps those systems with the point and its verdict; the whole
   document must parse too. *)
let dhdl_exe = Filename.concat (Filename.concat ".." "bin") "dhdl.exe"

let test_cli_json_parses () =
  let args = [| dhdl_exe; "analyze"; "kmeans"; "--symbolic"; "--json"; "parDist=16" |] in
  let ic = Unix.open_process_args_in dhdl_exe args in
  let out = In_channel.input_all ic in
  check_bool "a refuted point exits 2" true (Unix.close_process_in ic = Unix.WEXITED 2);
  let module J = Dhdl_util.Json in
  match J.parse out with
  | Error msg -> Alcotest.failf "analyze --symbolic --json does not parse: %s" msg
  | Ok json ->
    let field path =
      List.fold_left (fun j k -> Option.bind j (J.member k)) (Some json) path
    in
    check_bool "systems listed" true
      (match Option.bind (field [ "systems" ]) J.to_list with Some (_ :: _) -> true | _ -> false);
    check_bool "point carries parDist" true
      (Option.bind (field [ "point"; "parDist" ]) J.to_int = Some 16);
    check_bool "verdict is refuted" true
      (Option.bind (field [ "verdict"; "kind" ]) J.to_string = Some "refuted");
    check_bool "verdict names L013" true
      (Option.bind (field [ "verdict"; "code" ]) J.to_string = Some "L013")

(* ------------------------------------------------------------------ *)
(* The differential oracle                                             *)
(* ------------------------------------------------------------------ *)

(* Replay symbolic verdicts against the concrete passes: [Refuted
   {code}] must be confirmed by a concrete error with that code, and the
   gate must never answer [Legal]. [Unknown] promises nothing. Soundness
   rests here, so every registry app is sworn in at both size tables
   over a seed disjoint from the probe seed. At test sizes most spaces
   are smaller than the sample, so the oracle sees every point. *)
let oracle_points = 220
let oracle_seed = 90210

let concrete_flags d =
  let asum = Absint.summarize (Absint.analyze d) in
  let dsum = Dependence.summarize (Dependence.analyze d) in
  (asum.Absint.s_bounds_refuted > 0, dsum.Dependence.s_refuted > 0)

let test_differential_oracle () =
  let refuted = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let pts = Space.sample d.space ~seed:oracle_seed ~max_points:oracle_points in
      if d.table = "paper" then
        check_bool (where d ^ ": oracle has a non-trivial sample") true (List.length pts >= 50);
      let n = ref 0 in
      List.iter
        (fun p ->
          match Symgate.verdict d.gate p with
          | Symbolic.Unknown _ -> ()
          | Symbolic.Legal -> Alcotest.failf "%s: the gate answered Legal" (where d)
          | Symbolic.Refuted { code; witness } ->
            incr n;
            (* Banking has no closed form, so the gate never refutes L010. *)
            let oob, dep = concrete_flags (d.generate p) in
            let confirmed = match code with "L009" -> oob | "L013" -> dep | _ -> false in
            if not confirmed then
              Alcotest.failf "%s: symbolic Refuted [%s] (%s) not confirmed concretely" (where d)
                code witness)
        pts;
      Hashtbl.replace refuted (d.app.App.name, d.table) !n)
    (Lazy.force derived);
  check_int "all seven registry apps sworn in at both size tables" 14 (Hashtbl.length refuted);
  (* Non-vacuity: kmeans has a refutable region (parDist beyond k). *)
  check_bool "kmeans has symbolically refuted points" true
    (Hashtbl.find refuted ("kmeans", "paper") > 0);
  check_bool "oracle saw Refuted verdicts at test sizes" true
    (Hashtbl.fold (fun (_, table) n acc -> acc || (table = "test" && n > 0)) refuted false)

(* ------------------------------------------------------------------ *)
(* The compiled gate against the interpreted evaluator                 *)
(* ------------------------------------------------------------------ *)

(* [Symgate] compiles its systems once; [Predicate_oracle] keeps the
   evaluator that looked every parameter up by name and evaluated every
   clause in rationals. They must agree on the decision and the witness
   for every binding, whatever it binds. *)
let same_verdict ~what expected got =
  let show = function
    | Symbolic.Refuted { code; witness } -> Printf.sprintf "Refuted [%s] %s" code witness
    | Symbolic.Unknown why -> "Unknown: " ^ why
    | Symbolic.Legal -> "Legal"
  in
  if expected <> got then
    Alcotest.failf "%s: the compiled gate answered %s, the interpreted one %s" what (show got)
      (show expected)

let show_point p = String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) p)

(* Gate and system level, against the oracle. *)
let agrees d p =
  let what = Printf.sprintf "%s at [%s]" (where d) (show_point p) in
  let systems = Symgate.systems d.gate in
  let expected = Predicate_oracle.verdict systems p in
  same_verdict ~what expected (Symgate.verdict d.gate p);
  check_bool (what ^ ": refutes") (match expected with Symbolic.Refuted _ -> true | _ -> false)
    (Symgate.refutes d.gate p);
  List.iter
    (fun sys ->
      same_verdict ~what:(what ^ " (one system)") (Predicate_oracle.eval sys p)
        (Symbolic.Predicate.eval sys p))
    systems

let gate_sample d = Array.of_list (Space.sample d.space ~seed:oracle_seed ~max_points:oracle_points)

let test_compiled_gate_on_samples () =
  List.iter (fun d -> Array.iter (agrees d) (gate_sample d)) (Lazy.force derived)

let hostile_values =
  [| 0; 1; -1; -7; min_int; max_int; min_int + 1; max_int - 1; 1 lsl 62; -(1 lsl 62);
     Symbolic.Predicate.small_limit; Symbolic.Predicate.small_limit + 1;
     -Symbolic.Predicate.small_limit - 1 |]

(* A sampled point with up to five edits: a value replaced (by a hostile
   value or a small one), a name dropped, a name repeated in front (which
   shadows it) or at the back (shadowed), a name no space has, or the
   order rotated. *)
let edit p (kind, (at, v)) =
  let n = List.length p in
  if n = 0 then [ ("extra", v) ]
  else
    let name, _ = List.nth p (at mod n) in
    match kind with
    | 0 -> List.map (fun (m, x) -> if m = name then (m, v) else (m, x)) p
    | 1 -> List.filter (fun (m, _) -> m <> name) p
    | 2 -> (name, v) :: p
    | 3 -> p @ [ (name, v) ]
    | 4 -> p @ [ ("extra", v) ]
    | _ -> ( match p with x :: rest -> rest @ [ x ] | [] -> [])

let prop_compiled_gate_hostile =
  let gates = lazy (Array.of_list (List.map (fun d -> (d, gate_sample d)) (Lazy.force derived))) in
  let value = QCheck.Gen.(oneof [ oneofa hostile_values; int_range (-64) 256 ]) in
  let gen =
    QCheck.Gen.(
      triple (int_bound 13) nat
        (list_size (int_range 1 5) (pair (int_bound 5) (pair nat value))))
  in
  QCheck.Test.make ~count:3_000 ~name:"compiled gate = interpreted evaluator on hostile bindings"
    (QCheck.make
       ~print:(fun (g, k, edits) ->
         Printf.sprintf "gate %d, point %d, edits [%s]" g k
           (String.concat "; "
              (List.map (fun (kind, (at, v)) -> Printf.sprintf "%d@%d=%d" kind at v) edits)))
       gen)
    (fun (g, k, edits) ->
      let d, sample = (Lazy.force gates).(g) in
      let base = if Array.length sample = 0 then [] else sample.(k mod Array.length sample) in
      agrees d (List.fold_left edit base edits);
      true)

(* Two checks share the atom [9 <= p]: the first fires only when it is
   false, the second when it holds and [t] does not divide [n], so every
   binding that refutes must take the second check's code and witness
   from the atom decided once. [t | n] also meets a zero divisor, and a
   missing [t] or [n] under a [Neg] literal. *)
let test_shared_atom_second_check () =
  let open Symbolic in
  let shared = Le (Expr.of_int 9, Expr.var "p") in
  let t_divides = Divides (Expr.var "t", Expr.var "n") in
  let sys =
    {
      sy_skeleton = "shared";
      sy_params = [ "p"; "t"; "n" ];
      sy_pinned = [];
      sy_checks =
        [
          {
            ck_code = "L013";
            ck_site = "first";
            ck_refutes =
              [
                {
                  cl_desc = "p below 9";
                  cl_lits = [ Neg shared; Pos (Le (Expr.var "t", Expr.of_int (-1))) ];
                };
              ];
          };
          {
            ck_code = "L009";
            ck_site = "second";
            ck_refutes =
              [ { cl_desc = "t does not divide n"; cl_lits = [ Pos shared; Neg t_divides ] } ];
          };
        ];
      sy_probes = 2;
      sy_note = "";
    }
  in
  let gate = Predicate.compile ~params:[ "p"; "t"; "n" ] [ sys ] in
  let point = [ ("p", 12); ("t", 7); ("n", 96) ] in
  (match Predicate.decide gate point with
  | Predicate.Fires (ck, cl) ->
    Alcotest.(check string) "the second check fires" "second" ck.ck_site;
    Alcotest.(check string) "with its clause" "t does not divide n" cl.cl_desc
  | _ -> Alcotest.fail "p=12, t=7, n=96 must fire the second check");
  (match Predicate.eval sys point with
  | Refuted { code; witness } ->
    Alcotest.(check string) "its code" "L009" code;
    Alcotest.(check string) "its witness" "second: t does not divide n [9 <= p  &&  !(t | n)]"
      witness
  | _ -> Alcotest.fail "p=12, t=7, n=96 must be Refuted");
  let values = Array.to_list hostile_values @ [ 7; 9; 12; 32; 96; -96 ] in
  let with_ name values = List.map (fun v -> Some (name, v)) values @ [ None ] in
  List.iter
    (fun p ->
      List.iter
        (fun t ->
          List.iter
            (fun n ->
              let b = List.filter_map Fun.id [ p; t; n ] in
              List.iter
                (fun b ->
                  let what = Printf.sprintf "[%s]" (show_point b) in
                  same_verdict ~what (Predicate_oracle.eval sys b) (Predicate.eval sys b);
                  check_bool (what ^ ": refutes")
                    (match Predicate_oracle.eval sys b with Refuted _ -> true | _ -> false)
                    (Predicate.refutes gate b))
                [ b; List.rev b ])
            (with_ "n" [ 96; 0; 7; max_int ]))
        (with_ "t" values))
    (with_ "p" values)

(* ------------------------------------------------------------------ *)
(* Sweep integration: Sym_pruned, checkpoints, byte identity           *)
(* ------------------------------------------------------------------ *)

let kmeans_sweep ?(points = 120) ?(jobs = 1) ?(chunk = 16) ?(symbolic = true) ?checkpoint
    ?(resume = false) ev =
  let a = app "kmeans" in
  let cfg =
    Explore.Config.make ~seed:2016 ~max_points:points ~symbolic ~jobs ~chunk ?checkpoint ~resume
      ()
  in
  Explore.run cfg ev ~space:(space_of a) ~generate:(generate_of a)

let eval_points (r : Explore.result) = List.map (fun e -> e.Outcome.point) r.Explore.evaluations

let test_sym_pruned_checkpoint_roundtrip () =
  let ev = Eval.create (Lazy.force estimator) in
  let path = tmp "roundtrip.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let r1 = kmeans_sweep ~checkpoint:path ev in
  check_bool "gate prunes points before elaboration" true (r1.Explore.sym_pruned > 0);
  check_bool "checkpoint mentions sym_pruned entries" true
    (let s = read_file path in
     let needle = "\"kind\":\"sym_pruned\"" in
     let nlen = String.length needle in
     let rec find i =
       i + nlen <= String.length s && (String.sub s i nlen = needle || find (i + 1))
     in
     find 0);
  (* Resuming replays every entry (including Sym_pruned) from the file
     and recomputes nothing. *)
  let r2 = kmeans_sweep ~checkpoint:path ~resume:true ev in
  check_int "resume reuses every entry" r2.Explore.processed r2.Explore.resumed;
  check_int "resume keeps sym_pruned" r1.Explore.sym_pruned r2.Explore.sym_pruned;
  check_bool "resume reproduces the evaluations" true (eval_points r1 = eval_points r2);
  Sys.remove path

let test_gate_byte_identity_across_jobs_chunk () =
  let ev = Eval.create (Lazy.force estimator) in
  let files =
    List.map
      (fun (jobs, chunk) ->
        let path = tmp (Printf.sprintf "ident_j%d_c%d.jsonl" jobs chunk) in
        if Sys.file_exists path then Sys.remove path;
        let r = kmeans_sweep ~jobs ~chunk ~checkpoint:path ev in
        check_bool "parallel sweep still sym-prunes" true (r.Explore.sym_pruned > 0);
        path)
      [ (1, 16); (2, 16); (2, 7); (4, 3) ]
  in
  match List.map read_file files with
  | [] -> assert false
  | first :: rest ->
    List.iteri
      (fun i other ->
        check_bool
          (Printf.sprintf "checkpoint %d is byte-identical to the sequential one" (i + 1))
          true (String.equal first other))
      rest;
    List.iter Sys.remove files

let test_gate_reduces_elaborations () =
  let count = ref 0 in
  let a = app "kmeans" in
  let counted p =
    incr count;
    generate_of a p
  in
  (* Each run gets a fresh Eval: the comparison is of cold elaborations,
     and a shared Eval's point index would spare the second run every
     point the first one generated. *)
  let run ~symbolic =
    count := 0;
    let cfg = Explore.Config.make ~seed:2016 ~max_points:300 ~symbolic () in
    let r = Explore.run cfg (Eval.create (Lazy.force estimator)) ~space:(space_of a) ~generate:counted in
    (r, !count)
  in
  let r_on, gen_on = run ~symbolic:true in
  let r_off, gen_off = run ~symbolic:false in
  (* The gate's entire point: strictly fewer elaborations, identical
     survivors. Probe elaborations count against the gate, so this also
     checks that derivation amortizes at sweep scale. *)
  check_bool
    (Printf.sprintf "gate on generates less (on=%d off=%d)" gen_on gen_off)
    true (gen_on < gen_off);
  check_bool "gate on sym-prunes" true (r_on.Explore.sym_pruned > 0);
  check_int "gate off never sym-prunes" 0 r_off.Explore.sym_pruned;
  check_bool "same evaluated points either way" true (eval_points r_on = eval_points r_off);
  check_int "same total pruned either way"
    (r_off.Explore.lint_pruned + r_off.Explore.absint_pruned + r_off.Explore.dep_pruned)
    (r_on.Explore.lint_pruned + r_on.Explore.absint_pruned + r_on.Explore.dep_pruned
   + r_on.Explore.sym_pruned)

let test_gate_requires_both_passes () =
  (* With either analysis pass off the gate must stand down: pruning
     points the concrete pipeline would have kept changes results. *)
  let ev = Eval.create (Lazy.force estimator) in
  let a = app "kmeans" in
  let run cfg = Explore.run cfg ev ~space:(space_of a) ~generate:(generate_of a) in
  let no_absint =
    run (Explore.Config.make ~seed:2016 ~max_points:80 ~absint:false ~symbolic:true ())
  in
  check_int "no absint => no symbolic pruning" 0 no_absint.Explore.sym_pruned;
  let no_lint =
    run (Explore.Config.make ~seed:2016 ~max_points:80 ~lint:false ~symbolic:true ())
  in
  check_int "no lint => no symbolic pruning" 0 no_lint.Explore.sym_pruned

let () =
  Alcotest.run "symbolic"
    [
      ( "domain",
        [
          Alcotest.test_case "expression laws" `Quick test_expr_laws;
          Alcotest.test_case "fit recovers affine slots exactly" `Quick test_fit_recovers_affine;
          Alcotest.test_case "predicate semantics" `Quick test_predicate_semantics;
        ] );
      ( "derived",
        [
          Alcotest.test_case "constant literals folded" `Quick test_derivation_folds_constants;
          Alcotest.test_case "render_json parses" `Quick test_render_json_parses;
          Alcotest.test_case "analyze --symbolic --json parses" `Quick test_cli_json_parses;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "symbolic never contradicts concrete" `Quick
            test_differential_oracle;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "compiled gate = interpreted on sampled points" `Quick
            test_compiled_gate_on_samples;
          QCheck_alcotest.to_alcotest prop_compiled_gate_hostile;
          Alcotest.test_case "shared atom, second check fires" `Quick
            test_shared_atom_second_check;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "sym_pruned checkpoint roundtrip + resume" `Quick
            test_sym_pruned_checkpoint_roundtrip;
          Alcotest.test_case "byte identity across jobs x chunk" `Quick
            test_gate_byte_identity_across_jobs_chunk;
          Alcotest.test_case "gate reduces elaborations" `Quick test_gate_reduces_elaborations;
          Alcotest.test_case "gate requires both passes" `Quick test_gate_requires_both_passes;
        ] );
    ]
