(* The individual lint passes. Each is a pure function from a design to a
   list of diagnostics; Lint.passes assembles them into the registry. *)

module Ir = Dhdl_ir.Ir
module Diag = Dhdl_ir.Diag
module Analysis = Dhdl_ir.Analysis
module Traverse = Dhdl_ir.Traverse
module Target = Dhdl_device.Target
module Area_model = Dhdl_model.Area_model
module Absint = Dhdl_absint.Absint
module Liveness = Dhdl_absint.Liveness
module Dependence = Dhdl_absint.Dependence

let fold_with_path f init (d : Ir.design) =
  let rec go path acc ctrl =
    let path = path @ [ Ir.ctrl_label ctrl ] in
    let acc = f path ctrl acc in
    List.fold_left (go path) acc (Traverse.children ctrl)
  in
  go [] init d.Ir.d_top

(* L001: concurrent stages of a Parallel run with no ordering between them,
   so any shared memory with at least one writer is a race candidate.
   Queues are the sanctioned cross-stage channel and are exempt. The
   dependence analysis settles each candidate: proved-disjoint accesses
   are dropped, proved overlaps carry a concrete witness index, and
   anything it cannot decide keeps the conservative error. *)
let race_pass (d : Ir.design) = Dependence.race_diags (Dependence.report_cached d)

(* L002: in a MetaPipe, consecutive outer iterations occupy adjacent stages
   simultaneously, so a buffer flowing between stages must be double
   buffered or stage N+1 reads data stage N is overwriting. The crossing
   facts come from the liveness analysis, which cites the exact writer and
   reader stages. *)
let metapipe_pass (d : Ir.design) =
  List.map
    (fun (c : Liveness.crossing) ->
      let m = c.Liveness.cr_mem in
      match c.Liveness.cr_reader with
      | Liveness.Combine ->
        Diag.makef ~path:c.Liveness.cr_loop ~mem:m.Ir.mem_name ~code:"L002" ~severity:Diag.Error
          "reduce source %s feeds the combine stage of a pipelined loop without double buffering"
          m.Ir.mem_name
      | Liveness.Stage _ ->
        Diag.makef ~path:c.Liveness.cr_loop ~mem:m.Ir.mem_name ~code:"L002" ~severity:Diag.Error
          "buffer %s crosses pipelined stages without double buffering" m.Ir.mem_name)
    (Liveness.missing d)

(* L003: an access vector wider than the memory's banking cannot be served
   in one cycle; the paper couples banking to the widest access precisely
   to rule this out. The access facts come from the abstract-interpretation
   report (one per static access, deduplicated per controller). *)
let banking_pass (d : Ir.design) =
  let r = Absint.report_cached d in
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun (mi : Absint.mem_info) ->
      let m = mi.Absint.mi_mem in
      let banks = max 1 m.Ir.mem_banks in
      List.filter_map
        (fun (a : Absint.access_info) ->
          let label = match List.rev a.Absint.ai_path with l :: _ -> l | [] -> "" in
          if
            m.Ir.mem_kind = Ir.Bram
            && a.Absint.ai_par > banks
            && not (Hashtbl.mem seen (m.Ir.mem_id, label))
          then begin
            Hashtbl.add seen (m.Ir.mem_id, label) ();
            Some
              (Diag.makef ~path:[ label ] ~mem:m.Ir.mem_name ~code:"L003" ~severity:Diag.Error
                 "access vector width %d exceeds the %d bank(s) of %s" a.Absint.ai_par banks
                 m.Ir.mem_name)
          end
          else None)
        mi.Absint.mi_accesses)
    r.Absint.r_mems

(* L004: dead memories waste BRAM and usually indicate a generator bug.
   Off-chip memories are the design's I/O surface and exempt; registers may
   legitimately hold the final result, so written-never-read only applies
   to BRAMs (queue protocol issues are L007's). *)
let dead_mem_pass (d : Ir.design) =
  let accs = Analysis.accesses d in
  List.filter_map
    (fun m ->
      let mine = List.filter (fun a -> Ir.mem_equal a.Analysis.acc_mem m) accs in
      let read = List.exists (fun a -> not a.Analysis.acc_write) mine in
      match m.Ir.mem_kind with
      | Ir.Offchip -> None
      | _ when mine = [] ->
        Some
          (Diag.makef ~mem:m.Ir.mem_name ~code:"L004" ~severity:Diag.Warning
             "memory %s is declared but never accessed" m.Ir.mem_name)
      | Ir.Bram when not read ->
        Some
          (Diag.makef ~mem:m.Ir.mem_name ~code:"L004" ~severity:Diag.Warning
             "buffer %s is written but never read" m.Ir.mem_name)
      | _ -> None)
    d.Ir.d_mems

(* L005: an Sop/Sload result nobody consumes is dead hardware. Sread_reg
   and Spop are exempt: a pop has the side effect of dequeuing. *)
let dead_value_pass (d : Ir.design) =
  fold_with_path
    (fun path ctrl diags ->
      match ctrl with
      | Ir.Pipe { body; reduce; _ } ->
        let used = Hashtbl.create 16 in
        let use = function Ir.Value v -> Hashtbl.replace used v () | Ir.Const _ | Ir.Iter _ -> () in
        List.iter
          (fun stmt ->
            match stmt with
            | Ir.Sop { args; _ } -> List.iter use args
            | Ir.Sload { addr; _ } -> List.iter use addr
            | Ir.Sstore { addr; data; _ } -> List.iter use (data :: addr)
            | Ir.Swrite_reg { data; _ } -> use data
            | Ir.Spush { data; _ } -> use data
            | Ir.Sread_reg _ | Ir.Spop _ -> ())
          body;
        (match reduce with Some r -> use r.Ir.sr_value | None -> ());
        let dead =
          List.filter_map
            (fun stmt ->
              match stmt with
              | Ir.Sop { dst; _ } when not (Hashtbl.mem used dst) ->
                Some
                  (Diag.makef ~path ~code:"L005" ~severity:Diag.Warning
                     "op result v%d is never consumed" dst)
              | Ir.Sload { dst; mem; _ } when not (Hashtbl.mem used dst) ->
                Some
                  (Diag.makef ~path ~mem:mem.Ir.mem_name ~code:"L005" ~severity:Diag.Warning
                     "value v%d loaded from %s is never consumed" dst mem.Ir.mem_name)
              | _ -> None)
            body
        in
        dead @ diags
      | Ir.Loop _ | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> diags)
    [] d

let mem_limit_words = 65_536

(* L006: device fit. The per-memory block count mirrors the area model's
   bram_blocks_estimate times the controller replication factor, so it is a
   lower bound on what the estimator will charge — a design flagged here can
   never fit, which makes error-level pruning in Explore.run sound. *)
let capacity_pass dev (d : Ir.design) =
  let total =
    List.fold_left
      (fun acc (m, factor) -> acc + (factor * Area_model.bram_blocks_estimate dev m))
      0 (Traverse.mem_replications d)
  in
  let big =
    List.filter_map
      (fun m ->
        if m.Ir.mem_kind <> Ir.Offchip && Ir.mem_words m > mem_limit_words then
          Some
            (Diag.makef ~mem:m.Ir.mem_name ~code:"L006" ~severity:Diag.Warning
               "on-chip memory %s holds %d words; consider tiling below %d" m.Ir.mem_name
               (Ir.mem_words m) mem_limit_words)
        else None)
      d.Ir.d_mems
  in
  let fit =
    if total > dev.Target.brams then
      [
        Diag.makef ~code:"L006" ~severity:Diag.Error
          "on-chip memories need at least %d BRAM blocks; %s has %d" total dev.Target.dev_name
          dev.Target.brams;
      ]
    else if total * 10 > dev.Target.brams * 8 then
      [
        Diag.makef ~code:"L006" ~severity:Diag.Info
          "on-chip memories use %d of %d BRAM blocks (over 80%%) before logic overheads" total
          dev.Target.brams;
      ]
    else []
  in
  fit @ big

(* L007: queue protocol. A popped-never-pushed queue provably returns only
   +infinity; a pushed-never-popped queue is write-only storage; a
   zero-capacity queue can hold nothing. *)
let queue_pass (d : Ir.design) =
  let pushes = Hashtbl.create 4 and pops = Hashtbl.create 4 in
  List.iter
    (fun ctrl ->
      match ctrl with
      | Ir.Pipe { body; _ } ->
        List.iter
          (fun stmt ->
            match stmt with
            | Ir.Spush { queue; _ } -> Hashtbl.replace pushes queue.Ir.mem_id ()
            | Ir.Spop { queue; _ } -> Hashtbl.replace pops queue.Ir.mem_id ()
            | Ir.Sop _ | Ir.Sload _ | Ir.Sstore _ | Ir.Sread_reg _ | Ir.Swrite_reg _ -> ())
          body
      | Ir.Loop _ | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> ())
    (Traverse.all_ctrls d);
  List.concat_map
    (fun m ->
      if m.Ir.mem_kind <> Ir.Queue then []
      else begin
        let pushed = Hashtbl.mem pushes m.Ir.mem_id in
        let popped = Hashtbl.mem pops m.Ir.mem_id in
        let zero =
          if Ir.mem_words m <= 0 then
            [
              Diag.makef ~mem:m.Ir.mem_name ~code:"L007" ~severity:Diag.Error
                "queue %s has zero capacity" m.Ir.mem_name;
            ]
          else []
        in
        let proto =
          if pushed && not popped then
            [
              Diag.makef ~mem:m.Ir.mem_name ~code:"L007" ~severity:Diag.Warning
                "queue %s is pushed but never popped" m.Ir.mem_name;
            ]
          else if popped && not pushed then
            [
              Diag.makef ~mem:m.Ir.mem_name ~code:"L007" ~severity:Diag.Error
                "queue %s is popped but never pushed (pops only ever return +inf)" m.Ir.mem_name;
            ]
          else []
        in
        zero @ proto
      end)
    d.Ir.d_mems

(* [Ir.counter_trip] clamps degenerate counters (non-positive step, empty
   range) to zero, so the product is already safe. *)
let safe_trip counters = List.fold_left (fun acc c -> acc * Ir.counter_trip c) 1 counters

(* L008: degenerate loops. Zero-trip loops synthesize dead control logic;
   par > trip leaves lanes permanently idle; a non-divisor par wastes lanes
   only in the final vector, worth an info note. *)
let loop_pass (d : Ir.design) =
  fold_with_path
    (fun path ctrl diags ->
      match ctrl with
      | Ir.Pipe { loop; _ } | Ir.Loop { loop; _ } ->
        if loop.Ir.lp_counters = [] then diags
        else begin
          let trip = safe_trip loop.Ir.lp_counters in
          let par = max 1 loop.Ir.lp_par in
          if trip = 0 then
            Diag.makef ~path ~code:"L008" ~severity:Diag.Warning
              "loop never executes (zero-trip counter chain)"
            :: diags
          else begin
            let over =
              if par > trip then
                [
                  Diag.makef ~path ~code:"L008" ~severity:Diag.Warning
                    "parallelization %d exceeds trip count %d; %d lane(s) are always idle" par
                    trip (par - trip);
                ]
              else if trip mod par <> 0 then
                [
                  Diag.makef ~path ~code:"L008" ~severity:Diag.Info
                    "trip count %d is not divisible by par %d; the final vector wastes %d lane(s)"
                    trip par (par - (trip mod par));
                ]
              else []
            in
            over @ diags
          end
        end
      | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> diags)
    [] d

(* L009: proven out-of-bounds accesses, with a concrete witness iteration
   vector from the abstract-interpretation bounds checker. *)
let oob_pass (d : Ir.design) = Absint.oob_diags (Absint.report_cached d)

(* L010: proven same-cycle bank conflicts: a concrete pair of vector lanes
   that hit the same bank under every candidate banking scheme. *)
let bank_conflict_pass (d : Ir.design) = Absint.conflict_diags (Absint.report_cached d)

(* L011: double buffers no stage crossing requires; single buffering them
   recovers half their BRAM. *)
let spurious_double_pass (d : Ir.design) = Absint.buffer_diags (Absint.report_cached d)

(* L012: the old syntactic recurrence heuristic would have charged a higher
   II than the dependence analysis proves — cycles previously left on the
   table. *)
let pessimistic_ii_pass (d : Ir.design) =
  Dependence.pessimistic_diags (Dependence.report_cached d)

(* L013: proven-illegal vectorization: two lanes of the same vector touch
   the same word with a write between them, with the concrete lane pair
   and iteration vectors as witness. *)
let unsafe_pipelining_pass (d : Ir.design) =
  Dependence.unsafe_diags (Dependence.report_cached d)
