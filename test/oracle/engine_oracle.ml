(* Differential oracle for the fixpoint engine.

   [Parent] is the engine as it was before it kept the records of its
   converged round, verbatim: rounds that record nothing until one
   changes no cell, then one more widening pass that records the access
   facts. [diffs] runs it and {!Dhdl_absint.Engine.Make} (as {!Absint}
   applies it) under the interval and the affine domain and compares the
   whole result: every access fact in order (path, memory, direction,
   par, address, counters, scope), every cell, and the round count;
   [capped_diff] does the same for runs the round cap stops. test_absint
   runs them over the registry designs and a seeded [Design_gen]
   corpus. *)

module Ir = Dhdl_ir.Ir
module Domain = Dhdl_absint.Domain
module Absint = Dhdl_absint.Absint
module Interval = Dhdl_absint.Interval
module Affine = Dhdl_absint.Affine

module Parent (D : Domain.S) = struct
  type addr_form =
    | Word of D.t list  (* explicit per-dimension address *)
    | Stream  (* element-wise sweep of the whole memory, flat stride 1 *)
    | Tile of { offsets : D.t list; tile : int list }
        (* off-chip tile transfer: abstract offsets and the tile shape *)

  type access = {
    acc_path : string list;  (* controller labels from the root *)
    acc_mem : Ir.mem;
    acc_write : bool;
    acc_par : int;  (* vector lanes issuing this access each cycle *)
    acc_addr : addr_form;
    acc_counters : Ir.counter list;  (* vectorized (owning-pipe) counters, outer->inner *)
    acc_scope : Ir.counter list;  (* every counter in scope, outer->inner *)
  }

  type result = {
    accesses : access list;  (* in traversal order *)
    cells : (int, D.t) Hashtbl.t;  (* mem_id -> final abstract content *)
    rounds : int;  (* interpretation rounds to reach the fixpoint *)
  }

  let cell_of result (m : Ir.mem) =
    match Hashtbl.find_opt result.cells m.Ir.mem_id with Some v -> v | None -> D.top

  let widen_round = 3
  let max_rounds = 50

  let analyze (d : Ir.design) =
    let cells = Hashtbl.create 16 in
    let init m =
      match m.Ir.mem_kind with Ir.Reg -> D.of_const 0.0 | Ir.Offchip | Ir.Bram | Ir.Queue -> D.top
    in
    List.iter (fun m -> Hashtbl.replace cells m.Ir.mem_id (init m)) d.Ir.d_mems;
    let cell (m : Ir.mem) =
      match Hashtbl.find_opt cells m.Ir.mem_id with
      | Some v -> v
      | None -> D.top (* undeclared memory: V003's problem, stay sound *)
    in
    let changed = ref false in
    let store_cell ~widen m v =
      let old = cell m in
      let v' = if widen then D.widen old v else D.join old v in
      if not (D.equal old v') then begin
        Hashtbl.replace cells m.Ir.mem_id v';
        changed := true
      end
    in
    let recorded = ref [] in
    let pass ~widen ~collect =
      let record a = if collect then recorded := a :: !recorded in
      (* [scope] accumulates counters root->here; iterator bindings are
         resolved innermost-last so shadowing matches lexical scope. *)
      let bind_env scope =
        let env = Hashtbl.create 16 in
        List.iter (fun c -> Hashtbl.replace env c.Ir.ctr_name (D.of_counter c)) scope;
        env
      in
      let rec go path scope ctrl =
        let path = path @ [ Ir.ctrl_label ctrl ] in
        match ctrl with
        | Ir.Pipe { loop; body; reduce } ->
          let scope = scope @ loop.Ir.lp_counters in
          let env = bind_env scope in
          let vals = Hashtbl.create 16 in
          let operand = function
            | Ir.Const f -> D.of_const f
            | Ir.Iter n -> (match Hashtbl.find_opt env n with Some v -> v | None -> D.top)
            | Ir.Value v -> (match Hashtbl.find_opt vals v with Some x -> x | None -> D.top)
          in
          List.iter
            (fun stmt ->
              match stmt with
              | Ir.Sop { dst; op; args; _ } ->
                Hashtbl.replace vals dst (D.transfer op (List.map operand args))
              | Ir.Sload { dst; mem; addr; _ } ->
                let a = List.map operand addr in
                record
                  {
                    acc_path = path;
                    acc_mem = mem;
                    acc_write = false;
                    acc_par = max 1 loop.Ir.lp_par;
                    acc_addr = Word a;
                    acc_counters = loop.Ir.lp_counters;
                    acc_scope = scope;
                  };
                Hashtbl.replace vals dst (D.load ~addr:a ~content:(cell mem))
              | Ir.Sstore { mem; addr; data } ->
                let a = List.map operand addr in
                record
                  {
                    acc_path = path;
                    acc_mem = mem;
                    acc_write = true;
                    acc_par = max 1 loop.Ir.lp_par;
                    acc_addr = Word a;
                    acc_counters = loop.Ir.lp_counters;
                    acc_scope = scope;
                  };
                store_cell ~widen mem (operand data)
              | Ir.Sread_reg { dst; reg } -> Hashtbl.replace vals dst (cell reg)
              | Ir.Swrite_reg { reg; data } -> store_cell ~widen reg (operand data)
              | Ir.Spush { queue; data } -> store_cell ~widen queue (operand data)
              | Ir.Spop { dst; _ } -> Hashtbl.replace vals dst D.pop)
            body;
          (match reduce with
          | None -> ()
          | Some r ->
            (* out = op(out, value), folded over every iteration. *)
            store_cell ~widen r.Ir.sr_out
              (D.transfer r.Ir.sr_op [ cell r.Ir.sr_out; operand r.Ir.sr_value ]))
        | Ir.Loop { loop; stages; reduce; _ } ->
          let scope = scope @ loop.Ir.lp_counters in
          List.iter (go path scope) stages;
          (match reduce with
          | None -> ()
          | Some r ->
            (* The implicit combine stage streams src into dst
               element-wise at the loop's parallelization. *)
            let par = max 1 loop.Ir.lp_par in
            let fact mem write =
              {
                acc_path = path;
                acc_mem = mem;
                acc_write = write;
                acc_par = par;
                acc_addr = Stream;
                acc_counters = [];
                acc_scope = scope;
              }
            in
            record (fact r.Ir.mr_src false);
            record (fact r.Ir.mr_dst true);
            store_cell ~widen r.Ir.mr_dst
              (D.transfer r.Ir.mr_op [ cell r.Ir.mr_dst; cell r.Ir.mr_src ]))
        | Ir.Parallel { stages; _ } -> List.iter (go path scope) stages
        | Ir.Tile_load { src; dst; offsets; tile; par; _ }
        | Ir.Tile_store { dst = src; src = dst; offsets; tile; par; _ } ->
          (* [src] is the off-chip side, [dst] the BRAM side, for both
             directions (the pattern above swaps Tile_store's fields). *)
          let write_onchip = match ctrl with Ir.Tile_load _ -> true | _ -> false in
          let env = bind_env scope in
          let operand = function
            | Ir.Const f -> D.of_const f
            | Ir.Iter n -> (match Hashtbl.find_opt env n with Some v -> v | None -> D.top)
            | Ir.Value _ -> D.top (* offsets cannot reference pipe values *)
          in
          let offs = List.map operand offsets in
          record
            {
              acc_path = path;
              acc_mem = src;
              acc_write = not write_onchip;
              acc_par = max 1 par;
              acc_addr = Tile { offsets = offs; tile };
              acc_counters = [];
              acc_scope = scope;
            };
          record
            {
              acc_path = path;
              acc_mem = dst;
              acc_write = write_onchip;
              acc_par = max 1 par;
              acc_addr = Stream;
              acc_counters = [];
              acc_scope = scope;
            };
          (* Transferred data has unknown shape either way. *)
          store_cell ~widen (if write_onchip then dst else src) D.top
      in
      go [] [] d.Ir.d_top
    in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !rounds < max_rounds do
      incr rounds;
      changed := false;
      pass ~widen:(!rounds >= widen_round) ~collect:false;
      continue_ := !changed
    done;
    (* Cells are stable; one more pass records the access facts. *)
    pass ~widen:true ~collect:true;
    { accesses = List.rev !recorded; cells; rounds = !rounds }
end

(* ------------------------------------------------------------------ *)
(* Comparing the two loops                                             *)
(* ------------------------------------------------------------------ *)

(* What both engines' results are made of, with the domain's values. *)
module type ENGINE = sig
  type v

  type addr_form = Word of v list | Stream | Tile of { offsets : v list; tile : int list }

  type access = {
    acc_path : string list;
    acc_mem : Ir.mem;
    acc_write : bool;
    acc_par : int;
    acc_addr : addr_form;
    acc_counters : Ir.counter list;
    acc_scope : Ir.counter list;
  }

  type result = { accesses : access list; cells : (int, v) Hashtbl.t; rounds : int }

  val analyze : Ir.design -> result
end

(* An address form of either engine, for comparing and printing. *)
type 'v addr = A_word of 'v list | A_stream | A_tile of 'v list * int list

module Compare
    (D : Domain.S)
    (P : ENGINE with type v := D.t)
    (E : ENGINE with type v := D.t) =
struct
  let of_parent = function
    | P.Word l -> A_word l
    | P.Stream -> A_stream
    | P.Tile { offsets; tile } -> A_tile (offsets, tile)

  let of_engine = function
    | E.Word l -> A_word l
    | E.Stream -> A_stream
    | E.Tile { offsets; tile } -> A_tile (offsets, tile)

  let values_equal a b = List.length a = List.length b && List.for_all2 D.equal a b

  let addr_equal a b =
    match (a, b) with
    | A_word x, A_word y -> values_equal x y
    | A_stream, A_stream -> true
    | A_tile (x, t), A_tile (y, u) -> values_equal x y && t = u
    | _ -> false

  let render = function
    | A_word l -> "word [" ^ String.concat "; " (List.map D.to_string l) ^ "]"
    | A_stream -> "stream"
    | A_tile (l, t) ->
      Printf.sprintf "tile [%s] of [%s]"
        (String.concat "; " (List.map D.to_string l))
        (String.concat "; " (List.map string_of_int t))

  let site path (m : Ir.mem) write =
    Printf.sprintf "%s %s @ %s" (if write then "store" else "load") m.Ir.mem_name
      (String.concat "/" path)

  (* The first difference, if any. *)
  let diff (d : Ir.design) =
    let p = P.analyze d and e = E.analyze d in
    let fail fmt = Printf.ksprintf (fun m -> Some (D.name ^ " engine: " ^ m)) fmt in
    let rec accesses i (ps : P.access list) (es : E.access list) =
      match (ps, es) with
      | [], [] -> None
      | [], _ :: _ | _ :: _, [] ->
        fail "%d access facts, parent loop %d" (List.length e.E.accesses)
          (List.length p.P.accesses)
      | a :: ps, b :: es ->
        let pa = of_parent a.P.acc_addr and ea = of_engine b.E.acc_addr in
        if
          a.P.acc_path <> b.E.acc_path
          || a.P.acc_mem.Ir.mem_id <> b.E.acc_mem.Ir.mem_id
          || a.P.acc_write <> b.E.acc_write
          || a.P.acc_par <> b.E.acc_par
          || a.P.acc_counters <> b.E.acc_counters
          || a.P.acc_scope <> b.E.acc_scope
        then
          fail "access %d: %s par %d, parent loop %s par %d" i
            (site b.E.acc_path b.E.acc_mem b.E.acc_write)
            b.E.acc_par
            (site a.P.acc_path a.P.acc_mem a.P.acc_write)
            a.P.acc_par
        else if not (addr_equal pa ea) then
          fail "access %d (%s): %s, parent loop %s" i
            (site b.E.acc_path b.E.acc_mem b.E.acc_write)
            (render ea) (render pa)
        else accesses (i + 1) ps es
    in
    let cells () =
      let ids tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
      if ids p.P.cells <> ids e.E.cells then fail "cell ids differ from the parent loop's"
      else
        List.find_map
          (fun id ->
            let x = Hashtbl.find p.P.cells id and y = Hashtbl.find e.E.cells id in
            if D.equal x y then None
            else fail "cell %d: %s, parent loop %s" id (D.to_string y) (D.to_string x))
          (ids p.P.cells)
    in
    if p.P.rounds <> e.E.rounds then fail "%d rounds, parent loop %d" e.E.rounds p.P.rounds
    else match accesses 0 p.P.accesses e.E.accesses with Some m -> Some m | None -> cells ()
end

module Interval_loops = Compare (Interval) (Parent (Interval)) (Absint.IE)
module Affine_loops = Compare (Affine) (Parent (Affine)) (Absint.AE)

(* Differences between the parent loop and the engine on [d], interval
   domain first. *)
let diffs d = List.filter_map (fun f -> f d) [ Interval_loops.diff; Affine_loops.diff ]

(* A domain that never converges: every store grows its cell, so any
   design that stores runs until [max_rounds] stops it, the one case in
   which the engine still records in a pass of its own. Not a lattice;
   the engine needs none of the laws to terminate at the cap. *)
module Unstable = struct
  type t = int

  let name = "unstable"
  let top = 0
  let bottom = 0
  let is_bottom _ = false
  let equal = Int.equal
  let join a b = max a b + 1
  let widen = join
  let of_const _ = 0
  let of_counter _ = 0
  let transfer _ args = List.fold_left max 0 args
  let load ~addr:_ ~content = content
  let pop = 0
  let to_string = string_of_int
end

module Capped_engine = Dhdl_absint.Engine.Make (Unstable)
module Capped_loops = Compare (Unstable) (Parent (Unstable)) (Capped_engine)

(* The same comparison for a run the round cap stops; a design that
   stores nothing converges, and says so. *)
let capped_diff d =
  match Capped_loops.diff d with
  | Some m -> Some m
  | None ->
    let r = (Capped_engine.analyze d).Capped_engine.rounds in
    if r < Capped_engine.max_rounds then Some (Printf.sprintf "converged in %d rounds" r)
    else None
