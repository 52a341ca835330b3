(* Tests for the Dhdl_absint abstract-interpretation framework: the interval
   and affine domains, the fixpoint engine, bounds proofs (with concrete
   refutation witnesses), banking-scheme search (with concrete conflicting
   lane pairs), stage-liveness double-buffering facts, the L009-L011 lint
   passes they back, the DSE [absint_pruned] wiring, and the kernel
   oracle: the grid banking search against the exhaustive scan in
   test/oracle, and the engine oracle: the fixpoint engine against its
   old loop with a separate collection pass, with the widen law that
   makes them agree.

   The registry sweep at the end is the infer_banking cross-check: every
   sampled legal point of every benchmark space must either prove its
   banked accesses conflict-free or pinpoint the one known-conflicting
   configuration (kmeans with parDist wider than the cluster count). *)

module Ir = Dhdl_ir.Ir
module Dtype = Dhdl_ir.Dtype
module B = Dhdl_ir.Builder
module Diag = Dhdl_ir.Diag
module Interval = Dhdl_absint.Interval
module Affine = Dhdl_absint.Affine
module Liveness = Dhdl_absint.Liveness
module Absint = Dhdl_absint.Absint
module Lint = Dhdl_lint.Lint
module App = Dhdl_apps.App
module Registry = Dhdl_apps.Registry
module Space = Dhdl_dse.Space
module Explore = Dhdl_dse.Explore
module Eval = Dhdl_dse.Eval
module Estimator = Dhdl_model.Estimator
module Design_gen = Dhdl_model.Design_gen
module Op = Dhdl_ir.Op

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let has_error code diags =
  List.exists (fun g -> g.Diag.code = code && g.Diag.severity = Diag.Error) diags

let has_warning code diags =
  List.exists (fun g -> g.Diag.code = code && g.Diag.severity = Diag.Warning) diags

let message_of code diags =
  match List.find_opt (fun g -> g.Diag.code = code) diags with
  | Some g -> g.Diag.message
  | None -> Alcotest.failf "no %s diagnostic emitted" code

let mem_info (r : Absint.report) name =
  match List.find_opt (fun (m : Absint.mem_info) -> m.Absint.mi_mem.Ir.mem_name = name) r.Absint.r_mems with
  | Some mi -> mi
  | None -> Alcotest.failf "memory %s missing from report" name

(* ------------------------- domains --------------------------------- *)

let test_interval_ops () =
  let i05 = Interval.of_bounds 0 5 and i34 = Interval.of_bounds 3 4 in
  check_bool "within" true (Interval.within ~lo:0 ~hi:10 i05);
  check_bool "not within" false (Interval.within ~lo:0 ~hi:4 i05);
  check_bool "bottom vacuously within" true (Interval.within ~lo:0 ~hi:0 Interval.bottom);
  (match Interval.bounds (Interval.add i05 i34) with
  | Some (lo, hi) ->
    check_int "add lo" 3 lo;
    check_int "add hi" 9 hi
  | None -> Alcotest.fail "add collapsed to bottom");
  (match Interval.bounds (Interval.mul i05 (Interval.of_bounds (-2) (-2))) with
  | Some (lo, hi) ->
    check_int "mul lo" (-10) lo;
    check_int "mul hi" 0 hi
  | None -> Alcotest.fail "mul collapsed to bottom");
  (match Interval.bounds (Interval.join i05 (Interval.of_bounds 8 9)) with
  | Some (lo, hi) ->
    check_int "join lo" 0 lo;
    check_int "join hi" 9 hi
  | None -> Alcotest.fail "join collapsed to bottom");
  (* widening jumps a growing bound to infinity, so fixpoints terminate *)
  check_bool "widen kills growing hi" false
    (Interval.within ~lo:0 ~hi:1000 (Interval.widen i05 (Interval.of_bounds 0 6)));
  let c = { Ir.ctr_name = "i"; ctr_start = 2; ctr_stop = 11; ctr_step = 3 } in
  (match Interval.bounds (Interval.of_counter c) with
  | Some (lo, hi) ->
    check_int "counter lo" 2 lo;
    check_int "counter hi is last value, not stop" 8 hi
  | None -> Alcotest.fail "counter interval bottom");
  check_bool "empty counter is bottom" true
    (Interval.is_bottom (Interval.of_counter { c with Ir.ctr_stop = 2 }))

let test_affine_forms () =
  let c = { Ir.ctr_name = "i"; ctr_start = 0; ctr_stop = 8; ctr_step = 1 } in
  let i = Affine.of_counter c in
  let two_i_plus_3 = Affine.add (Affine.mul (Affine.of_const 2.0) i) (Affine.of_const 3.0) in
  (match Affine.exact two_i_plus_3 with
  | Some (c0, [ ("i", 2) ]) -> check_int "constant term" 3 c0
  | _ -> Alcotest.fail "2*i+3 not recognized as exact affine");
  (* i*i is not affine: the form degrades to a residue, never a wrong answer *)
  check_bool "i*i inexact" true (Affine.exact (Affine.mul i i) = None);
  check_bool "i*i still depends on i" true (Affine.depends_on_any [ "i" ] (Affine.mul i i));
  check_bool "constant independent of i" false (Affine.depends_on_any [ "i" ] (Affine.of_const 7.0));
  check_bool "top depends on everything" true (Affine.depends_on_any [ "zz" ] Affine.top)

(* ------------------------- fixtures -------------------------------- *)

(* One BRAM, one pipe storing xT[i] for i in [0, stop). *)
let linear_store_design ?(name = "lin") ?(par = 1) ~words ~stop () =
  let b = B.create name in
  let xt = B.bram b "xT" Dtype.float32 [ words ] in
  let body =
    B.pipe ~label:"fill" ~counters:[ ("i", 0, stop, 1) ] ~par (fun p ->
        B.store p xt [ B.iter "i" ] (B.const 1.0))
  in
  B.finish b ~top:(B.sequential_block ~label:"main" [ body ])

(* The law the engine's kept records rest on (Domain.S.widen): a value
   whose join leaves a cell unchanged leaves it unchanged under widening
   too. Each case joins 1-4 generated values into a cell and offers it
   one of them (the premise then holds) or, one case in three, a fresh
   value. *)
let widen_law (type a) (module D : Dhdl_absint.Domain.S with type t = a) (gen : a QCheck.Gen.t) =
  let print (xs, (_, fresh)) = String.concat ", " (List.map D.to_string (xs @ [ fresh ])) in
  QCheck.Test.make ~count:2_000
    ~name:(D.name ^ ": join a b = a implies widen a b = a")
    (QCheck.make ~print QCheck.Gen.(pair (list_size (1 -- 4) gen) (pair nat gen)))
    (fun (xs, (k, fresh)) ->
      let a = List.fold_left D.join D.bottom xs in
      let b = if k mod 3 = 0 then fresh else List.nth xs (k mod List.length xs) in
      (not (D.equal (D.join a b) a)) || D.equal (D.widen a b) a)

let interval_gen =
  let open QCheck.Gen in
  let bound = int_range (-20) 20 in
  frequency
    [
      (1, return Interval.bottom);
      (1, return Interval.top);
      (6, map2 (fun a b -> Interval.of_bounds (min a b) (max a b)) bound bound);
      (1, map (fun h -> Interval.make min_int h) bound);
      (1, map (fun l -> Interval.make l max_int) bound);
    ]

(* Exact forms over three iterators, and residues of them (a quotient
   keeps only its operands' dependences). *)
let affine_gen =
  let open QCheck.Gen in
  let iter n = Affine.of_counter { Ir.ctr_name = n; ctr_start = 0; ctr_stop = 8; ctr_step = 1 } in
  let leaf =
    frequency
      [
        (1, return Affine.bottom);
        (1, return Affine.top);
        (3, map (fun k -> Affine.of_const (float_of_int k)) (int_range (-5) 5));
        (3, map iter (oneofl [ "i"; "j"; "k" ]));
      ]
  in
  frequency
    [
      (2, leaf);
      ( 3,
        map3
          (fun op a b -> Affine.transfer op [ a; b ])
          (oneofl [ Op.Add; Op.Sub; Op.Mul; Op.Div ])
          leaf leaf );
    ]

let test_engine_register_fixpoint () =
  (* An accumulator register feeding itself forces iteration to a fixpoint:
     the engine must terminate via widening and still produce a report. *)
  let b = B.create "fix" in
  let acc = B.reg b "acc" Dtype.float32 in
  let body =
    B.pipe ~label:"inc" ~counters:[ ("i", 0, 8, 1) ] (fun p ->
        B.write_reg p acc (B.add p (B.read_reg p acc) (B.const 1.0)))
  in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ body ]) in
  let r = Absint.analyze d in
  check_bool "iterated at least twice" true (r.Absint.r_rounds >= 2);
  check_bool "terminated well before the cap" true (r.Absint.r_rounds < 50);
  check_bool "self-incrementing register is not an error" true (Absint.clean r)

(* ------------------------- bounds ---------------------------------- *)

let test_inbounds_proved () =
  let d = linear_store_design ~words:16 ~stop:16 () in
  let r = Absint.analyze d in
  let mi = mem_info r "xT" in
  List.iter
    (fun (a : Absint.access_info) ->
      check_bool "access proved in bounds" true (a.Absint.ai_bounds = Absint.Bounds_proved))
    mi.Absint.mi_accesses;
  check_int "no diagnostics" 0 (List.length (Absint.diags r));
  check_bool "clean" true (Absint.clean r)

let test_oob_store_witness () =
  (* i runs to 16 inclusive but xT has 16 words: refuted with the exact
     iteration vector that falls off the end. *)
  let d = linear_store_design ~words:16 ~stop:17 () in
  let r = Absint.analyze d in
  let mi = mem_info r "xT" in
  (match (List.hd mi.Absint.mi_accesses).Absint.ai_bounds with
  | Absint.Bounds_refuted w ->
    check_int "offending dimension" 0 w.Absint.w_dim;
    check_int "offending index value" 16 w.Absint.w_value;
    check_int "valid low" 0 w.Absint.w_lo;
    check_int "valid high" 15 w.Absint.w_hi;
    check_bool "witness iteration vector" true (w.Absint.w_iters = [ ("i", 16) ])
  | _ -> Alcotest.fail "out-of-bounds store not refuted");
  let ds = Absint.diags r in
  check_bool "L009 error emitted" true (has_error "L009" ds);
  let msg = message_of "L009" ds in
  check_bool "names the memory" true (contains ~needle:"out-of-bounds access on xT" msg);
  check_bool "cites the witness iteration" true (contains ~needle:"i=16" msg);
  check_bool "not clean" false (Absint.clean r)

let test_oob_address_expression () =
  (* The address is i+1, so the last in-range iteration i=15 overflows:
     the witness must name the iteration, not the index value. *)
  let b = B.create "expr" in
  let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
  let body =
    B.pipe ~label:"shift" ~counters:[ ("i", 0, 16, 1) ] (fun p ->
        let j = B.add p (B.iter "i") (B.const 1.0) in
        B.store p xt [ j ] (B.const 0.0))
  in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ body ]) in
  let r = Absint.analyze d in
  let mi = mem_info r "xT" in
  match (List.hd mi.Absint.mi_accesses).Absint.ai_bounds with
  | Absint.Bounds_refuted w ->
    check_int "index value 16" 16 w.Absint.w_value;
    check_bool "reached at i=15" true (w.Absint.w_iters = [ ("i", 15) ])
  | _ -> Alcotest.fail "i+1 overflow not refuted"

let test_tile_divisibility () =
  let b = B.create "tiles" in
  let src = B.offchip b "src" Dtype.float32 [ 10 ] in
  let dst = B.bram b "dst" Dtype.float32 [ 4 ] in
  let tl = B.tile_load ~src ~dst ~offsets:[ B.const 0.0 ] () in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ tl ]) in
  let r = Absint.analyze d in
  let ds = Absint.diags r in
  check_bool "L009 error" true (has_error "L009" ds);
  check_bool "cites the divisibility failure" true
    (contains ~needle:"does not divide" (message_of "L009" ds))

let test_tile_offset_overrun () =
  (* Offsets 0, 8, 16 over a 16-word extent with an 8-word tile: the last
     tile starts at 16 but the highest legal base is 8. *)
  let b = B.create "overrun" in
  let src = B.offchip b "src" Dtype.float32 [ 16 ] in
  let dst = B.bram b "dst" Dtype.float32 [ 8 ] in
  let top =
    B.metapipe ~label:"outer" ~counters:[ ("t", 0, 24, 8) ]
      [ B.tile_load ~src ~dst ~offsets:[ B.iter "t" ] () ]
  in
  let d = B.finish b ~top in
  let r = Absint.analyze d in
  let ds = Absint.diags r in
  check_bool "L009 error" true (has_error "L009" ds);
  check_bool "cites the tile offset" true (contains ~needle:"tile offset" (message_of "L009" ds))

let test_data_dependent_address_unknown () =
  (* An indirect access (address loaded from another BRAM) is beyond both
     domains: the analysis must answer "unknown", never a false refutation. *)
  let b = B.create "indirect" in
  let idx = B.bram b "idx" Dtype.int32 [ 16 ] in
  let data = B.bram b "data" Dtype.float32 [ 16 ] in
  let body =
    B.pipe ~label:"gather" ~counters:[ ("i", 0, 16, 1) ] (fun p ->
        let j = B.load p idx [ B.iter "i" ] in
        B.store p data [ j ] (B.const 1.0))
  in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ body ]) in
  let r = Absint.analyze d in
  let mi = mem_info r "data" in
  let st = List.find (fun (a : Absint.access_info) -> a.Absint.ai_write) mi.Absint.mi_accesses in
  (match st.Absint.ai_bounds with
  | Absint.Bounds_unknown _ -> ()
  | Absint.Bounds_proved -> Alcotest.fail "indirect address wrongly proved"
  | Absint.Bounds_refuted _ -> Alcotest.fail "indirect address wrongly refuted");
  check_bool "unknown is not an error" true (Absint.clean r)

(* ------------------------- banking --------------------------------- *)

let test_bank_conflict_linear () =
  let d = linear_store_design ~par:4 ~words:16 ~stop:16 () in
  let xt = List.find (fun m -> m.Ir.mem_name = "xT") d.Ir.d_mems in
  check_bool "infer_banking banked for the vector width" true (xt.Ir.mem_banks >= 4);
  check_bool "inferred banking proves out" true (Absint.clean (Absint.analyze d));
  (* Sabotage the banking: two banks cannot serve four adjacent lanes. *)
  xt.Ir.mem_banks <- 2;
  let r = Absint.analyze d in
  let mi = mem_info r "xT" in
  (match (List.hd mi.Absint.mi_accesses).Absint.ai_banks with
  | Absint.Bank_conflict k ->
    check_int "lane a" 0 k.Absint.k_lane_a;
    check_int "lane b" 2 k.Absint.k_lane_b;
    check_bool "distinct words on one bank" true (k.Absint.k_index_a <> k.Absint.k_index_b)
  | _ -> Alcotest.fail "under-banked vector access not refuted");
  let ds = Absint.diags r in
  check_bool "L010 error" true (has_error "L010" ds);
  check_bool "cites both lanes" true
    (contains ~needle:"lanes 0 and 2" (message_of "L010" ds))

let test_stride_two_needs_block_cyclic () =
  (* Addresses 2i hit only even words: cyclic(4) serves at most 2 distinct
     banks, but block-cyclic with block 2 restores full throughput. The
     solver must find that scheme, not report a conflict. *)
  let b = B.create "stride" in
  let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
  let body =
    B.pipe ~label:"even" ~counters:[ ("i", 0, 8, 1) ] ~par:4 (fun p ->
        let j = B.mul p (B.const 2.0) (B.iter "i") in
        B.store p xt [ j ] (B.const 0.0))
  in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ body ]) in
  let r = Absint.analyze d in
  let mi = mem_info r "xT" in
  check_bool "conflict-free" true (Absint.clean r);
  check_bool "found the block-cyclic scheme" true
    (mi.Absint.mi_scheme = Some "block-cyclic(4, block 2)")

let test_broadcast_read_and_write () =
  let mk write =
    let b = B.create "bcast" in
    let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
    let out = B.reg b "out" Dtype.float32 in
    let body =
      B.pipe ~label:"lanes" ~counters:[ ("i", 0, 16, 1) ] ~par:4 (fun p ->
          if write then B.store p xt [ B.const 0.0 ] (B.iter "i")
          else B.write_reg p out (B.load p xt [ B.const 0.0 ]))
    in
    Absint.analyze (B.finish b ~top:(B.sequential_block ~label:"main" [ body ]))
  in
  (* Four lanes reading one word is a broadcast: always servable. *)
  check_bool "broadcast read proved" true (Absint.clean (mk false));
  (* Four lanes writing one word is a structural hazard whatever the banks. *)
  let r = mk true in
  let ds = Absint.diags r in
  check_bool "write broadcast refuted" true (has_error "L010" ds);
  check_bool "same word cited for both lanes" true
    (contains ~needle:"[0] and [0]" (message_of "L010" ds))

let test_grid_access_blocked_scheme () =
  (* kmeans' centroid read: counters (dd, c), address [c; dd], eight lanes.
     No cyclic scheme serves it, but splitting banks across the two
     dimensions (4 x 2) does. *)
  let b = B.create "grid" in
  let ct = B.bram b "centT" Dtype.float32 [ 4; 8 ] in
  let out = B.reg b "out" Dtype.float32 in
  let body =
    B.pipe ~label:"dist" ~counters:[ ("dd", 0, 8, 1); ("c", 0, 4, 1) ] ~par:8 (fun p ->
        B.write_reg p out (B.load p ct [ B.iter "c"; B.iter "dd" ]))
  in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ body ]) in
  let r = Absint.analyze d in
  let mi = mem_info r "centT" in
  check_bool "grid access proved" true (Absint.clean r);
  (match mi.Absint.mi_scheme with
  | Some s -> check_bool "multidimensional scheme" true (contains ~needle:"dims(" s)
  | None -> Alcotest.fail "no banking scheme found for the grid access")

let test_stream_bank_conflict () =
  let b = B.create "stream" in
  let src = B.offchip b "src" Dtype.float32 [ 64 ] in
  let dst = B.bram b "dst" Dtype.float32 [ 16 ] in
  let tl = B.tile_load ~src ~dst ~offsets:[ B.const 0.0 ] ~par:4 () in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ tl ]) in
  check_bool "inferred banking serves the stream" true (Absint.clean (Absint.analyze d));
  let dstm = List.find (fun m -> m.Ir.mem_name = "dst") d.Ir.d_mems in
  dstm.Ir.mem_banks <- 2;
  let r = Absint.analyze d in
  check_bool "under-banked stream refuted" true (has_error "L010" (Absint.diags r))

(* kmeans' distance pipe writes distB[c] under par lanes that sweep the dd
   counter too: once parDist exceeds k, two lanes of one vector write the
   same word. The checker must find that concrete pair, and infer_banking's
   own default (parDist = 4 = k at test sizes) must stay conflict-free. *)
let kmeans_at ~par_dist =
  let app = Registry.find "kmeans" in
  let sizes = app.App.test_sizes in
  let params = ("parDist", par_dist) :: List.remove_assoc "parDist" (app.App.default_params sizes) in
  app.App.generate ~sizes ~params

let test_kmeans_wide_par_conflicts () =
  let r = Absint.analyze (kmeans_at ~par_dist:8) in
  let ds = Absint.diags r in
  check_bool "L010 error at parDist 8 > k 4" true (has_error "L010" ds);
  check_bool "the distance buffer is the culprit" true
    (List.exists (fun g -> g.Diag.code = "L010" && contains ~needle:"distB" g.Diag.message) ds);
  let s = Absint.summarize r in
  check_bool "conflict counted" true (s.Absint.s_banks_conflict > 0);
  check_int "bounds all still proved" 0 s.Absint.s_bounds_refuted;
  (* The default configuration proves out end to end. *)
  check_bool "parDist 4 clean" true (Absint.clean (Absint.analyze (kmeans_at ~par_dist:4)))

(* ------------------------- liveness -------------------------------- *)

let producer_consumer ~metapipe () =
  let b = B.create "mp" in
  let buf = B.bram b "buf" Dtype.float32 [ 8 ] in
  let out = B.bram b "out" Dtype.float32 [ 8 ] in
  let s1 =
    B.pipe ~label:"produce" ~counters:[ ("i", 0, 8, 1) ] (fun p ->
        B.store p buf [ B.iter "i" ] (B.const 1.0))
  in
  let s2 =
    B.pipe ~label:"consume" ~counters:[ ("i", 0, 8, 1) ] (fun p ->
        B.store p out [ B.iter "i" ] (B.load p buf [ B.iter "i" ]))
  in
  let top =
    if metapipe then B.metapipe ~label:"outer" ~counters:[ ("t", 0, 4, 1) ] [ s1; s2 ]
    else B.sequential_block ~label:"outer" [ s1; s2 ]
  in
  B.finish b ~top

let test_missing_double_buffer () =
  let d = producer_consumer ~metapipe:true () in
  let buf = List.find (fun m -> m.Ir.mem_name = "buf") d.Ir.d_mems in
  check_bool "inference double-buffered the crossing value" true buf.Ir.mem_double;
  check_bool "analysis agrees with inference" true (Absint.clean (Absint.analyze d));
  buf.Ir.mem_double <- false;
  let r = Absint.analyze d in
  let mi = mem_info r "buf" in
  check_bool "double buffering required" true mi.Absint.mi_double_required;
  (match mi.Absint.mi_crossing with
  | Some c ->
    check_int "written in stage 0" 0 (fst c.Liveness.cr_writer);
    check_bool "read by a later stage" true
      (match c.Liveness.cr_reader with Liveness.Stage (1, _) -> true | _ -> false)
  | None -> Alcotest.fail "no crossing recorded for a required double buffer");
  let ds = Lint.check ~validate:false d in
  check_bool "L002 backs the proof" true (has_error "L002" ds);
  check_bool "message names the hazard" true
    (contains ~needle:"crosses pipelined stages without double buffering" (message_of "L002" ds))

let test_spurious_double_buffer () =
  let d = producer_consumer ~metapipe:false () in
  let buf = List.find (fun m -> m.Ir.mem_name = "buf") d.Ir.d_mems in
  check_bool "sequential schedule needs no double buffer" false buf.Ir.mem_double;
  buf.Ir.mem_double <- true;
  let r = Absint.analyze d in
  check_bool "flagged spurious" true (mem_info r "buf").Absint.mi_spurious_double;
  let ds = Absint.diags r in
  check_bool "L011 warning, not error" true
    (has_warning "L011" ds && not (has_error "L011" ds));
  check_bool "message explains the cost" true
    (contains ~needle:"single buffering halves its BRAM" (message_of "L011" ds));
  check_bool "warnings keep the report clean" true (Absint.clean r);
  let s = Absint.summarize r in
  check_int "spurious counted" 1 s.Absint.s_double_spurious

(* ------------------------- registry -------------------------------- *)

let test_registry_apps_prove_out () =
  List.iter
    (fun (a : App.t) ->
      List.iter
        (fun sizes ->
          let d = a.App.generate ~sizes ~params:(a.App.default_params sizes) in
          let r = Absint.analyze d in
          let s = Absint.summarize r in
          check_bool (a.App.name ^ " clean") true (Absint.clean r);
          check_bool (a.App.name ^ " proves some bounds") true (s.Absint.s_bounds_proved > 0);
          check_int (a.App.name ^ " refuted bounds") 0 s.Absint.s_bounds_refuted;
          check_int (a.App.name ^ " bank conflicts") 0 s.Absint.s_banks_conflict;
          check_int (a.App.name ^ " missing double buffers") 0 s.Absint.s_double_missing;
          check_int (a.App.name ^ " spurious double buffers") 0 s.Absint.s_double_spurious)
        [ a.App.test_sizes; a.App.paper_sizes ])
    Registry.all

(* Satellite: cross-check Analysis.infer_banking against the affine checker
   over sampled legal points of every benchmark space. The inferred banking
   must prove out everywhere except kmeans points whose parDist exceeds k,
   where the checker must produce the conflict instead. *)
let test_registry_par_sweep () =
  List.iter
    (fun (a : App.t) ->
      let sizes = a.App.test_sizes in
      let k = Option.value (List.assoc_opt "k" sizes) ~default:max_int in
      let pts = Space.sample (a.App.space sizes) ~seed:42 ~max_points:12 in
      check_bool (a.App.name ^ " sampled points") true (pts <> []);
      List.iter
        (fun p ->
          let d = a.App.generate ~sizes ~params:p in
          let s = Absint.summarize (Absint.analyze d) in
          let label =
            Printf.sprintf "%s at %s" a.App.name
              (String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) p))
          in
          check_int (label ^ ": no refuted bounds") 0 s.Absint.s_bounds_refuted;
          check_int (label ^ ": no missing double buffers") 0 s.Absint.s_double_missing;
          let expect_conflict = a.App.name = "kmeans" && App.get p "parDist" 1 > k in
          check_bool
            (label ^ if expect_conflict then ": conflict expected" else ": conflict-free")
            expect_conflict (s.Absint.s_banks_conflict > 0))
        pts)
    Registry.all

(* ------------------------- DSE wiring ------------------------------ *)

let estimator = lazy (Estimator.create ~seed:7 ~train_samples:40 ~epochs:60 ())

let absint_space = Space.make ~name:"absint-toy" ~dims:[ ("oob", [ 0; 1 ]) ] ()

let absint_generate p =
  let oob = App.get p "oob" 0 = 1 in
  linear_store_design
    ~name:(if oob then "bad" else "good")
    ~words:16
    ~stop:(if oob then 17 else 16)
    ()

let run_absint_sweep config =
  Explore.run config (Eval.create (Lazy.force estimator)) ~space:absint_space
    ~generate:absint_generate

(* The symbolic gate (on by default) would refute the bad point before
   elaboration; these tests exercise the *concrete* classification
   machinery, so they run with the gate off. *)
let test_explore_absint_pruning () =
  let base =
    Explore.Config.(default |> with_seed 1 |> with_max_points 10 |> with_symbolic false)
  in
  let r = run_absint_sweep base in
  check_int "sampled both points" 2 r.Explore.sampled;
  check_int "proof refutation pruned the bad point" 1 r.Explore.absint_pruned;
  check_int "no heuristic pruning" 0 r.Explore.lint_pruned;
  check_int "good point estimated" 1 (List.length r.Explore.evaluations);
  (* Proof passes alone (lint off) find the same refutation. *)
  let r2 = run_absint_sweep (Explore.Config.with_lint false base) in
  check_int "absint alone still prunes" 1 r2.Explore.absint_pruned;
  (* Turning the proofs off estimates provably broken hardware. *)
  let r3 = run_absint_sweep (Explore.Config.with_absint false base) in
  check_int "no proof pruning when disabled" 0 r3.Explore.absint_pruned;
  check_int "both points estimated" 2 (List.length r3.Explore.evaluations)

let test_checkpoint_roundtrips_absint_pruned () =
  let path = Filename.temp_file "absint" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  let base =
    Explore.Config.(default |> with_seed 1 |> with_max_points 10 |> with_symbolic false)
  in
  let r = run_absint_sweep Explore.Config.(base |> with_checkpoint path) in
  check_int "pruned on first run" 1 r.Explore.absint_pruned;
  let r2 = run_absint_sweep Explore.Config.(base |> with_checkpoint path |> with_resume true) in
  check_int "every point resumed" 2 r2.Explore.resumed;
  check_int "absint_pruned survives the checkpoint" 1 r2.Explore.absint_pruned;
  check_int "evaluations survive too" 1 (List.length r2.Explore.evaluations)

(* ------------------------- report output --------------------------- *)

let test_render_json_shape () =
  let r = Absint.analyze (linear_store_design ~words:16 ~stop:17 ()) in
  let js = Absint.render_json r in
  check_bool "names the design" true (contains ~needle:"\"design\"" js);
  check_bool "has a mems array" true (contains ~needle:"\"mems\"" js);
  check_bool "refutation serialized" true (contains ~needle:"refuted" js);
  check_bool "balanced braces" true
    (String.fold_left (fun n c -> n + (if c = '{' then 1 else if c = '}' then -1 else 0)) 0 js = 0);
  let txt = Absint.render_text r in
  check_bool "text report names the memory" true (contains ~needle:"xT" txt)

(* ------------------------- kernel oracle --------------------------- *)

(* The registry designs both oracles below walk: paper and test sizes,
   200 seeded bindings each plus the defaults. *)
let registry = lazy (Kernel_oracle.registry_designs ~bindings:200)

(* The banking search against the per-vector hash tables it replaced
   (Kernel_oracle): every vectorized grid access of every registry design
   under every block-one candidate scheme of its memory. *)
let test_kernel_oracle_registry () =
  let seen = Kernel_oracle.seen () in
  List.iter
    (fun (label, d) ->
      match Kernel_oracle.banking_diffs seen d with
      | [] -> ()
      | m :: _ -> Alcotest.failf "%s: %s" label m)
    (Lazy.force registry)

(* ------------------------- engine oracle --------------------------- *)

(* The engine against the loop it replaced (Engine_oracle): under both
   domains, every access fact, cell and round count, over the registry
   designs and a seeded Design_gen corpus. *)
let engine_oracle designs =
  List.iter
    (fun (label, d) ->
      match Engine_oracle.diffs d with [] -> () | m :: _ -> Alcotest.failf "%s: %s" label m)
    designs

let test_engine_oracle_registry () = engine_oracle (Lazy.force registry)

let corpus =
  lazy
    (List.mapi
       (fun i d -> (Printf.sprintf "corpus design %d" i, d))
       (Design_gen.corpus ~seed:19 300))

let test_engine_oracle_corpus () = engine_oracle (Lazy.force corpus)

(* A register read one stage before the stage that writes it: the first
   round loads at the register's reset value, the second at every value
   the writer stores, so the records of the first round are not the
   facts. No registry or generated design has such a read (keeping the
   first round's records passes both sets above). *)
let test_engine_oracle_register_carried () =
  let b = B.create "carried" in
  let xt = B.bram b "xT" Dtype.float32 [ 16 ] in
  let out = B.bram b "out" Dtype.float32 [ 16 ] in
  let ptr = B.reg b "ptr" Dtype.float32 in
  let use =
    B.pipe ~label:"use" ~counters:[ ("j", 0, 1, 1) ] (fun p ->
        B.store p out [ B.iter "j" ] (B.load p xt [ B.read_reg p ptr ]))
  in
  let bump =
    B.pipe ~label:"bump" ~counters:[ ("i", 0, 8, 1) ] (fun p -> B.write_reg p ptr (B.iter "i"))
  in
  let d = B.finish b ~top:(B.sequential_block ~label:"main" [ use; bump ]) in
  engine_oracle [ ("carried", d) ];
  let r = Absint.IE.analyze d in
  check_int "converges in the second round" 2 r.Absint.IE.rounds;
  let load =
    List.find
      (fun (a : Absint.IE.access) -> a.Absint.IE.acc_mem.Ir.mem_name = "xT")
      r.Absint.IE.accesses
  in
  match load.Absint.IE.acc_addr with
  | Absint.IE.Word [ v ] ->
    Alcotest.(check string) "address at the converged round" "[0,7]" (Interval.to_string v)
  | _ -> Alcotest.fail "xT load is not a one-dimensional word access"

(* Runs stopped unconverged at the round cap, the one path that still
   records in a pass of its own. *)
let test_engine_oracle_capped () =
  List.iter
    (fun (label, d) ->
      match Engine_oracle.capped_diff d with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" label m)
    (Lazy.force corpus)

let () =
  Alcotest.run "absint"
    [
      ( "domains",
        [
          Alcotest.test_case "interval ops" `Quick test_interval_ops;
          Alcotest.test_case "affine forms" `Quick test_affine_forms;
          Alcotest.test_case "register fixpoint" `Quick test_engine_register_fixpoint;
          QCheck_alcotest.to_alcotest (widen_law (module Interval) interval_gen);
          QCheck_alcotest.to_alcotest (widen_law (module Affine) affine_gen);
        ] );
      ( "bounds",
        [
          Alcotest.test_case "in bounds proved" `Quick test_inbounds_proved;
          Alcotest.test_case "oob store witness" `Quick test_oob_store_witness;
          Alcotest.test_case "oob address expression" `Quick test_oob_address_expression;
          Alcotest.test_case "tile divisibility" `Quick test_tile_divisibility;
          Alcotest.test_case "tile offset overrun" `Quick test_tile_offset_overrun;
          Alcotest.test_case "data-dependent address unknown" `Quick
            test_data_dependent_address_unknown;
        ] );
      ( "banking",
        [
          Alcotest.test_case "linear conflict" `Quick test_bank_conflict_linear;
          Alcotest.test_case "stride two block-cyclic" `Quick test_stride_two_needs_block_cyclic;
          Alcotest.test_case "broadcast read and write" `Quick test_broadcast_read_and_write;
          Alcotest.test_case "grid blocked scheme" `Quick test_grid_access_blocked_scheme;
          Alcotest.test_case "stream conflict" `Quick test_stream_bank_conflict;
          Alcotest.test_case "kmeans wide par" `Quick test_kmeans_wide_par_conflicts;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "missing double buffer" `Quick test_missing_double_buffer;
          Alcotest.test_case "spurious double buffer" `Quick test_spurious_double_buffer;
        ] );
      ( "registry",
        [
          Alcotest.test_case "apps prove out" `Quick test_registry_apps_prove_out;
          Alcotest.test_case "banking sweep" `Quick test_registry_par_sweep;
        ] );
      ( "dse",
        [
          Alcotest.test_case "absint pruning" `Quick test_explore_absint_pruning;
          Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrips_absint_pruned;
        ] );
      ( "report",
        [ Alcotest.test_case "render json" `Quick test_render_json_shape ] );
      ( "kernel oracle",
        Alcotest.test_case "registry grids" `Quick test_kernel_oracle_registry
        :: List.map QCheck_alcotest.to_alcotest (Kernel_oracle.banking_props ~count:500) );
      ( "engine oracle",
        [
          Alcotest.test_case "registry designs" `Quick test_engine_oracle_registry;
          Alcotest.test_case "generated designs" `Quick test_engine_oracle_corpus;
          Alcotest.test_case "register read before its writer" `Quick
            test_engine_oracle_register_carried;
          Alcotest.test_case "round cap" `Quick test_engine_oracle_capped;
        ] );
    ]
