(* Loop-carried dependence analysis over the hierarchical DHDL graph.

   Two questions decide how aggressively a Pipe may be scheduled, and both
   reduce to dependence distances between memory accesses:

   - {b Initiation interval}: if iteration [x] stores a word that iteration
     [y > x] loads, the pipeline cannot issue [y] until the read-modify-
     write chain launched at [x] has retired. With the flattened distance
     [d = y - x], the proved initiation interval is [ceil(latency / d)]:
     distance-1 recurrences serialize on the full chain latency, proved-
     independent bodies issue every cycle (II = 1), and non-affine
     addresses fall back to the conservative distance-1 charge. Only
     true (RAW) dependences stall an in-order pipeline — writes retire in
     program order, so WAR and WAW never reorder — but all three kinds are
     computed and reported, and all three gate parallelization.

   - {b Pipelining/parallelization legality}: vectorizing by [par] issues
     [par] consecutive iterations in the same cycle. If two of those lanes
     touch the same word and one writes, the transformation is illegal; the
     checker enumerates the vectors and returns the concrete lane pair and
     iteration vectors as a witness.

   The per-Pipe analysis is body-local and needs no fixpoint: addresses
   are classified into an affine mini-domain over the pipe's own iteration
   indices, with loop-invariant values (outer iterators, registers the
   body never writes, loads at invariant addresses from memories the body
   never stores) tracked as symbolic keys — two accesses with the same key
   provably read the same runtime value, so equal keys cancel when two
   addresses are compared.

   Across [Parallel] stages the same machinery (via the {!Affine} fixpoint
   engine's access facts) proves shared-memory accesses disjoint, upgrades
   them to concrete overlap witnesses, or stays conservative; the L001
   race pass consumes these verdicts.

   This module is the single source of truth for initiation intervals:
   {!Dhdl_model.Cycle_model} and {!Dhdl_sim.Perf_sim} both call {!ii}, so
   the estimator and the simulator agree bit-for-bit by construction. *)

module Ir = Dhdl_ir.Ir
module Op = Dhdl_ir.Op
module Diag = Dhdl_ir.Diag
module Emit = Dhdl_util.Emit
module Analysis = Dhdl_ir.Analysis
module Traverse = Dhdl_ir.Traverse
module Primitives = Dhdl_device.Primitives
module Intmath = Dhdl_util.Intmath

module AE = Absint.AE

let delta_cap = 131072 (* max distance-vector box we enumerate *)
let grid_cap = 16384 (* max linearized nest / stage box we enumerate *)

(* ------------------------------------------------------------------ *)
(* The body-local affine domain                                        *)
(* ------------------------------------------------------------------ *)

(* Value of a body expression as a function of the owning pipe's iteration
   indices: [c0 + sum coef * idx(counter) + sum coef * sym], where [terms]
   range over the pipe's own counters (by position, outer->inner, in
   iteration-index space: index 0..trip-1, the counter's start and step
   already folded in) and [base] over loop-invariant symbolic keys. Keys
   are constructed so that equal keys denote equal runtime values. *)
type dform =
  | Aff of { c0 : int; terms : (int * int) list; base : (string * int) list }
  | Unk of string

(* Sorted association lists with duplicate keys merged and zeros dropped. *)
let combine l =
  let l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let rec go = function
    | (k1, c1) :: (k2, c2) :: rest when k1 = k2 -> go ((k1, c1 + c2) :: rest)
    | (_, 0) :: rest -> go rest
    | x :: rest -> x :: go rest
    | [] -> []
  in
  go l

let aff_const k = Aff { c0 = k; terms = []; base = [] }

let aff_add a b =
  match (a, b) with
  | Aff x, Aff y ->
    Aff { c0 = x.c0 + y.c0; terms = combine (x.terms @ y.terms); base = combine (x.base @ y.base) }
  | (Unk _ as u), _ | _, (Unk _ as u) -> u

let aff_scale k = function
  | Aff x ->
    Aff
      {
        c0 = k * x.c0;
        terms = combine (List.map (fun (p, c) -> (p, k * c)) x.terms);
        base = combine (List.map (fun (s, c) -> (s, k * c)) x.base);
      }
  | Unk _ as u -> u

let aff_neg f = aff_scale (-1) f
let invariant = function Aff { terms = []; _ } -> true | Aff _ | Unk _ -> false
let const_of = function Aff { c0; terms = []; base = [] } -> Some c0 | Aff _ | Unk _ -> None

let render_form names = function
  | Unk _ -> "?"
  | Aff { c0; terms; base } ->
    let parts =
      (if c0 <> 0 || (terms = [] && base = []) then [ string_of_int c0 ] else [])
      @ List.map
          (fun (p, c) ->
            if c = 1 then names.(p) else Printf.sprintf "%d*%s" c names.(p))
          terms
      @ List.map (fun (s, c) -> if c = 1 then s else Printf.sprintf "%d*%s" c s) base
    in
    String.concat "+" parts

(* ------------------------------------------------------------------ *)
(* Body classification                                                 *)
(* ------------------------------------------------------------------ *)

type body_access = {
  ba_stmt : int;  (* statement position in the body, for labeling *)
  ba_write : bool;
  ba_mem : Ir.mem;
  ba_forms : dform list;  (* per-dimension abstract address *)
}

(* One forward pass over the (SSA-like) body: classify every value and
   record every word access with its abstract address. *)
let body_accesses (loop : Ir.loop_info) body =
  let counters = Array.of_list loop.Ir.lp_counters in
  let names = Array.map (fun (c : Ir.counter) -> c.Ir.ctr_name) counters in
  let pos = Hashtbl.create 8 in
  (* innermost binding wins, matching the engine's scoping *)
  Array.iteri (fun i c -> Hashtbl.replace pos c.Ir.ctr_name i) counters;
  let stored = Hashtbl.create 4 in
  let written_regs = Hashtbl.create 4 in
  List.iter
    (fun stmt ->
      match stmt with
      | Ir.Sstore { mem; _ } -> Hashtbl.replace stored mem.Ir.mem_id ()
      | Ir.Swrite_reg { reg; _ } -> Hashtbl.replace written_regs reg.Ir.mem_id ()
      | Ir.Sop _ | Ir.Sload _ | Ir.Sread_reg _ | Ir.Spush _ | Ir.Spop _ -> ())
    body;
  let vals = Hashtbl.create 16 in
  let operand = function
    | Ir.Const f ->
      if Float.is_integer f && Float.abs f < 1e9 then aff_const (int_of_float f)
      else Unk "non-integer constant"
    | Ir.Iter nm -> (
      match Hashtbl.find_opt pos nm with
      | Some i ->
        let c = counters.(i) in
        Aff
          {
            c0 = c.Ir.ctr_start;
            terms = (if c.Ir.ctr_step = 0 then [] else [ (i, c.Ir.ctr_step) ]);
            base = [];
          }
      | None -> Aff { c0 = 0; terms = []; base = [ ("it:" ^ nm, 1) ] })
    | Ir.Value v -> (
      match Hashtbl.find_opt vals v with Some f -> f | None -> Unk "undefined value")
  in
  let accs = ref [] in
  List.iteri
    (fun i stmt ->
      match stmt with
      | Ir.Sop { dst; op; args; _ } ->
        let fs = List.map operand args in
        (* A deterministic op over loop-invariant operands is itself
           invariant: its rendered application is the symbolic key. *)
        let composite () =
          if List.exists (function Unk _ -> true | Aff _ -> false) fs then
            Unk (Printf.sprintf "result of %s is not analyzable" (Op.name op))
          else if List.for_all invariant fs then
            Aff
              {
                c0 = 0;
                terms = [];
                base =
                  [
                    ( Printf.sprintf "op:%s(%s)" (Op.name op)
                        (String.concat "," (List.map (render_form names) fs)),
                      1 );
                  ];
              }
          else Unk (Printf.sprintf "result of %s is not affine in the loop counters" (Op.name op))
        in
        let f =
          match (op, fs) with
          | Op.Add, [ a; b ] -> aff_add a b
          | Op.Sub, [ a; b ] -> aff_add a (aff_neg b)
          | Op.Neg, [ a ] -> aff_neg a
          | Op.Mul, [ a; b ] -> (
            match (const_of a, const_of b) with
            | Some k, _ -> aff_scale k b
            | _, Some k -> aff_scale k a
            | None, None -> composite ())
          (* integer affine combination of counters: floor is the identity *)
          | Op.Floor, [ (Aff { base = []; _ } as a) ] -> a
          | _ -> composite ()
        in
        Hashtbl.replace vals dst f
      | Ir.Sload { dst; mem; addr; _ } ->
        let fs = List.map operand addr in
        accs := { ba_stmt = i; ba_write = false; ba_mem = mem; ba_forms = fs } :: !accs;
        let f =
          if Hashtbl.mem stored mem.Ir.mem_id then
            Unk (Printf.sprintf "value loaded from %s, which the body also stores" mem.Ir.mem_name)
          else if List.for_all invariant fs then
            Aff
              {
                c0 = 0;
                terms = [];
                base =
                  [
                    ( Printf.sprintf "ld:%s[%s]" mem.Ir.mem_name
                        (String.concat ";" (List.map (render_form names) fs)),
                      1 );
                  ];
              }
          else
            Unk
              (Printf.sprintf "value loaded from %s at an iteration-dependent address"
                 mem.Ir.mem_name)
        in
        Hashtbl.replace vals dst f
      | Ir.Sstore { mem; addr; _ } ->
        let fs = List.map operand addr in
        accs := { ba_stmt = i; ba_write = true; ba_mem = mem; ba_forms = fs } :: !accs
      | Ir.Sread_reg { dst; reg } ->
        Hashtbl.replace vals dst
          (if Hashtbl.mem written_regs reg.Ir.mem_id then
             Unk (Printf.sprintf "register %s is written in the same body" reg.Ir.mem_name)
           else Aff { c0 = 0; terms = []; base = [ ("reg:" ^ reg.Ir.mem_name, 1) ] })
      | Ir.Spop { dst; _ } -> Hashtbl.replace vals dst (Unk "queue pop")
      | Ir.Swrite_reg _ | Ir.Spush _ -> ())
    body;
  (counters, List.rev !accs)

(* ------------------------------------------------------------------ *)
(* Distance solving                                                    *)
(* ------------------------------------------------------------------ *)

type kind = Raw | War | Waw

let kind_str = function Raw -> "RAW" | War -> "WAR" | Waw -> "WAW"

type witness = {
  wt_mem : string;
  wt_kind : kind;
  wt_src_iters : (string * int) list;  (* counter values at the earlier iteration *)
  wt_dst_iters : (string * int) list;  (* ... and at the later, dependent one *)
  wt_index : int list option;  (* concrete colliding word when fully affine *)
  wt_distance : int;  (* flattened iteration distance *)
}

type status =
  | Independent  (* proved: distinct iterations never touch the same word *)
  | Carried of { distance : int; witness : witness }
  | Unknown of string

(* Weight of counter i in the flattened iteration order: the product of
   the trips strictly inner to it. *)
let weights trips =
  let n = Array.length trips in
  let w = Array.make (max n 1) 1 in
  for i = n - 2 downto 0 do
    w.(i) <- w.(i + 1) * trips.(i + 1)
  done;
  w

type solve_result = Solved of (int * int array) option | Too_large

(* Minimal positive flattened distance [delta . w] over the distance box
   [prod [-(t_i - 1), t_i - 1]] subject to every per-dimension constraint
   [sum coefs_i * delta_i = rhs]; among equal distances the
   lexicographically first [delta] (counter 0 most significant, each
   ascending). Any in-box [delta] admits a concrete iteration pair
   (x, x + delta), so a solution is a real dependence.

   A depth-first search in that lexicographic order. With counters
   [0..i-1] fixed at partial distance [f], the rest add at most
   [reach.(i) = sum_{j>=i} (t_j - 1) * w_j] either way, so a subtree is
   skipped when [[f - reach, f + reach]] holds no positive value below the
   best so far (ties never replace, so equal is skipped too), or when some
   constraint's residual [rhs - partial] exceeds what its unfixed
   counters can still add, [sum_{j>=i} |c_j| (t_j - 1)]. Both tests only
   discard subtrees without a better solution, so the result is the
   exhaustive scan's. [delta_cap] still bounds the box.

   Neither test is evaluated value by value: at each level both are
   solved for [delta_i] in closed form. Positivity needs
   [f + delta_i * w_i + reach.(i+1) > 0], a lower bound; each
   constraint [k] needs [|res_k - c * delta_i| <= slack_k.(i+1)], an
   interval of [delta_i] by floor and ceiling division (its ends swap
   for a negative [c]; a zero [c] admits every [delta_i] or none). The
   search walks that interval ascending and keeps the per-value test
   against the best distance, whose bound only rises with [delta_i]. *)
let solve_delta ~trips constraints =
  let n = Array.length trips in
  (* no counters: the only distance is 0 *)
  if n = 0 || Array.exists (fun t -> t <= 0) trips then Solved None
  else begin
    let size = Array.fold_left (fun acc t -> acc * ((2 * t) - 1)) 1 trips in
    if size > delta_cap then Too_large
    else begin
      let w = weights trips in
      let tail f =
        let a = Array.make (n + 1) 0 in
        for i = n - 1 downto 0 do
          a.(i) <- a.(i + 1) + (f i * (trips.(i) - 1))
        done;
        a
      in
      let reach = tail (fun i -> w.(i)) in
      let cons = Array.of_list constraints in
      let coefs = Array.map fst cons in
      let slack = Array.map (fun c -> tail (fun i -> abs c.(i))) coefs in
      let residual = Array.map snd cons in
      let m = Array.length cons in
      let delta = Array.make n 0 in
      let best_flat = ref max_int and best = ref None in
      let rec go i flat =
        if i = n then begin
          (* the range test admitted only 0 < flat < best, and the slack
             test zero residuals *)
          best_flat := flat;
          best := Some (flat, Array.copy delta)
        end
        else begin
          let t = trips.(i) and wi = w.(i) and r = reach.(i + 1) in
          let lo = ref (max (-(t - 1)) (Intmath.floor_div (-(flat + r)) wi + 1)) in
          let hi = ref (t - 1) in
          for k = 0 to m - 1 do
            let c = coefs.(k).(i) and res = residual.(k) and sl = slack.(k).(i + 1) in
            if c = 0 then (if abs res > sl then hi := !lo - 1)
            else begin
              let a, b = if c > 0 then (res - sl, res + sl) else (res + sl, res - sl) in
              lo := max !lo (-Intmath.floor_div (-a) c);
              hi := min !hi (Intmath.floor_div b c)
            end
          done;
          let dj = ref !lo in
          (* flat values rise with dj: stop at the first subtree whose
             least positive value is no better *)
          while !dj <= !hi && max 1 (flat + (!dj * wi) - r) < !best_flat do
            let d = !dj in
            for k = 0 to m - 1 do
              residual.(k) <- residual.(k) - (coefs.(k).(i) * d)
            done;
            delta.(i) <- d;
            go (i + 1) (flat + (d * wi));
            for k = 0 to m - 1 do
              residual.(k) <- residual.(k) + (coefs.(k).(i) * d)
            done;
            incr dj
          done
        end
      in
      go 0 0;
      Solved !best
    end
  end

(* Per-dimension equality constraint between a source access at iteration
   x and a destination access at iteration x + delta. Equal invariant
   parts cancel; equal counter coefficients make the constraint a function
   of delta alone. *)
let dim_constraint nctr fa fb =
  match (fa, fb) with
  | Unk r, _ | _, Unk r -> Error r
  | Aff a, Aff b ->
    if a.base <> b.base then Error "loop-invariant address parts differ"
    else if a.terms <> b.terms then Error "address coefficients differ between the paired accesses"
    else begin
      let coefs = Array.make (max nctr 1) 0 in
      List.iter (fun (p, c) -> coefs.(p) <- c) a.terms;
      Ok (coefs, a.c0 - b.c0)
    end

let eval_dims dims x =
  List.map
    (fun f ->
      match f with
      | Aff { c0; terms; _ } ->
        List.fold_left (fun acc (p, c) -> acc + (c * x.(p))) c0 terms
      | Unk _ -> 0)
    dims

let iter_values counters x =
  Array.to_list
    (Array.mapi
       (fun i (c : Ir.counter) -> (c.Ir.ctr_name, c.Ir.ctr_start + (c.Ir.ctr_step * x.(i))))
       counters)

let pair_status ~counters ~trips ~kind src dst =
  if List.length src.ba_forms <> List.length dst.ba_forms then
    Unknown "address arity differs between the paired accesses"
  else begin
    let n = Array.length trips in
    let rec build acc fas fbs =
      match (fas, fbs) with
      | [], [] -> Ok (List.rev acc)
      | fa :: ra, fb :: rb -> (
        match dim_constraint n fa fb with Error r -> Error r | Ok c -> build (c :: acc) ra rb)
      | _ -> Error "address arity differs"
    in
    match build [] src.ba_forms dst.ba_forms with
    | Error r -> Unknown r
    | Ok constraints -> (
      match solve_delta ~trips constraints with
      | Too_large -> Unknown "iteration space too large to enumerate"
      | Solved None -> Independent
      | Solved (Some (flat, delta)) ->
        let x = Array.mapi (fun i _ -> max 0 (-delta.(i))) delta in
        let y = Array.mapi (fun i xi -> xi + delta.(i)) x in
        let index =
          if List.for_all (function Aff { base = []; _ } -> true | _ -> false) src.ba_forms
          then Some (eval_dims src.ba_forms x)
          else None
        in
        Carried
          {
            distance = flat;
            witness =
              {
                wt_mem = src.ba_mem.Ir.mem_name;
                wt_kind = kind;
                wt_src_iters = iter_values counters x;
                wt_dst_iters = iter_values counters y;
                wt_index = index;
                wt_distance = flat;
              };
          })
  end

(* Order two verdicts about the same unordered pair: a proved dependence
   beats an unknown beats a proved-independent direction. *)
let merge_sym s1 s2 =
  match (s1, s2) with
  | Carried a, Carried b -> if a.distance <= b.distance then s1 else s2
  | (Carried _ as c), _ | _, (Carried _ as c) -> c
  | (Unknown _ as u), _ | _, (Unknown _ as u) -> u
  | Independent, Independent -> Independent

(* ------------------------------------------------------------------ *)
(* Pairs of one Pipe body                                              *)
(* ------------------------------------------------------------------ *)

type pair = {
  p_mem : Ir.mem;
  p_kind : kind;
  p_src : int;  (* body statement index of the source access *)
  p_dst : int;
  p_status : status;
  p_src_affine : (int * (string * int) list) list option;
  p_dst_affine : (int * (string * int) list) list option;
      (* Per-dimension [(c0, [(counter, coef); ...])] in iteration-index
         space, exposed when both accesses are affine with identical
         invariant parts (which then cancel) — the differential oracle
         test replays these against enumerated concrete iterations. *)
}

(* Two accesses whose addresses compare exactly: same arity, every
   dimension affine, equal invariant parts (which then cancel). *)
let comparable a b =
  List.length a.ba_forms = List.length b.ba_forms
  && List.for_all2
       (fun fa fb -> match (fa, fb) with Aff x, Aff y -> x.base = y.base | _ -> false)
       a.ba_forms b.ba_forms

let exposed_dims (counters : Ir.counter array) src dst =
  if not (comparable src dst) then (None, None)
  else begin
    let expose forms =
      Some
        (List.map
           (function
             | Aff { c0; terms; _ } ->
               (c0, List.map (fun (p, c) -> (counters.(p).Ir.ctr_name, c)) terms)
             | Unk _ -> assert false)
           forms)
    in
    (expose src.ba_forms, expose dst.ba_forms)
  end

let mk_pair ~counters ~trips kind src dst =
  let src_affine, dst_affine = exposed_dims counters src dst in
  let status =
    match kind with
    | Raw | War -> pair_status ~counters ~trips ~kind src dst
    | Waw ->
      if src.ba_stmt = dst.ba_stmt then pair_status ~counters ~trips ~kind src dst
      else
        merge_sym
          (pair_status ~counters ~trips ~kind src dst)
          (pair_status ~counters ~trips ~kind dst src)
  in
  {
    p_mem = src.ba_mem;
    p_kind = kind;
    p_src = src.ba_stmt;
    p_dst = dst.ba_stmt;
    p_status = status;
    p_src_affine = src_affine;
    p_dst_affine = dst_affine;
  }

let group_by_mem accs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let l = try Hashtbl.find tbl a.ba_mem.Ir.mem_id with Not_found -> [] in
      Hashtbl.replace tbl a.ba_mem.Ir.mem_id (a :: l))
    accs;
  Hashtbl.fold (fun _ l acc -> List.rev l :: acc) tbl []

(* RAW pairs only: what the initiation interval needs. *)
let raw_pairs ~counters ~trips accs =
  List.concat_map
    (fun group ->
      let writes = List.filter (fun a -> a.ba_write) group in
      let reads = List.filter (fun a -> not a.ba_write) group in
      List.concat_map (fun w -> List.map (fun r -> mk_pair ~counters ~trips Raw w r) reads) writes)
    (group_by_mem accs)

(* All three kinds, for reporting and legality. *)
let all_pairs ~counters ~trips accs =
  List.concat_map
    (fun group ->
      let writes = List.filter (fun a -> a.ba_write) group in
      let reads = List.filter (fun a -> not a.ba_write) group in
      let raw =
        List.concat_map
          (fun w -> List.map (fun r -> mk_pair ~counters ~trips Raw w r) reads)
          writes
      in
      let war =
        List.concat_map
          (fun r -> List.map (fun w -> mk_pair ~counters ~trips War r w) writes)
          reads
      in
      let rec waw = function
        | [] -> []
        | w :: rest ->
          mk_pair ~counters ~trips Waw w w
          :: (List.map (fun w2 -> mk_pair ~counters ~trips Waw w w2) rest @ waw rest)
      in
      raw @ war @ waw writes)
    (group_by_mem accs)

(* ------------------------------------------------------------------ *)
(* Initiation interval                                                 *)
(* ------------------------------------------------------------------ *)

(* The read-modify-write chain occupies the pipeline for the operand
   fetch/writeback plus the slowest arithmetic stage. *)
let recurrence_latency body =
  2
  + List.fold_left
      (fun acc s ->
        match s with Ir.Sop { op; ty; _ } -> max acc (Primitives.latency op ty) | _ -> acc)
      1 body

let ii_of ~latency pairs =
  List.fold_left
    (fun acc p ->
      match (p.p_kind, p.p_status) with
      | Raw, Carried { distance; _ } -> max acc (Intmath.ceil_div latency distance)
      | Raw, Unknown _ -> max acc latency
      | _ -> acc)
    1 pairs

(* The proved initiation interval of a Pipe; 0 for every other controller
   (they issue no iterations themselves). The single II implementation
   behind both the cycle estimator and the performance simulator. *)
let ii = function
  | Ir.Pipe { loop; body; _ } ->
    let counters, accs = body_accesses loop body in
    let trips = Array.map Ir.counter_trip counters in
    ii_of ~latency:(recurrence_latency body) (raw_pairs ~counters ~trips accs)
  | Ir.Loop _ | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> 0

(* The pre-analysis syntactic rule (rotating-address updates pipeline at
   II = 1, every other read-modify-write charges the chain latency), kept
   only to flag pipes where it was pessimistic (L012). *)
let heuristic_ii (loop : Ir.loop_info) body =
  let innermost =
    match List.rev loop.Ir.lp_counters with c :: _ -> Some c.Ir.ctr_name | [] -> None
  in
  let rotating addr =
    match innermost with
    | None -> false
    | Some name -> List.exists (function Ir.Iter n -> n = name | _ -> false) addr
  in
  let stores =
    List.filter_map
      (function Ir.Sstore { mem; addr; _ } -> Some (mem.Ir.mem_id, rotating addr) | _ -> None)
      body
  in
  let unsafe_rmw =
    List.exists
      (function
        | Ir.Sload { mem; addr; _ } ->
          List.exists (fun (id, st_rot) -> id = mem.Ir.mem_id && not (st_rot && rotating addr)) stores
        | _ -> false)
      body
  in
  if unsafe_rmw then recurrence_latency body else 1

(* ------------------------------------------------------------------ *)
(* Vectorization legality                                              *)
(* ------------------------------------------------------------------ *)

type conflict = {
  lc_mem : string;
  lc_kind : kind;
  lc_lane_a : int;
  lc_lane_b : int;
  lc_iters_a : (string * int) list;
  lc_iters_b : (string * int) list;
  lc_index : int list;  (* shared word (loop-invariant offsets cancel) *)
}

(* Affine parts of an access's per-dimension addresses as a {!Word_ids}
   side: the pair's invariant parts are equal (callers pair only
   comparable accesses), so comparing these parts is exact. *)
let word_side nctr forms =
  let dims = Array.of_list forms in
  {
    Word_ids.base = Array.map (function Aff { c0; _ } -> c0 | Unk _ -> 0) dims;
    coeffs =
      Array.map
        (fun f ->
          let c = Array.make nctr 0 in
          (match f with
          | Aff { terms; _ } -> List.iter (fun (p, k) -> c.(p) <- k) terms
          | Unk _ -> ());
          c)
        dims;
  }

(* Window stamps, one set per domain and reused by every search on it:
   [stamp.(id)] is the last window whose source side touched word [id]
   and [first.(id)] the first lane in that window that did. Window numbers
   never repeat on a domain, and a window's stamps are written and read
   within one [window_collision] call, so no search sees another's. *)
type stamps = { mutable stamp : int array; mutable first : int array; mutable window : int }

let stamps_slot = Stdlib.Domain.DLS.new_key (fun () -> { stamp = [||]; first = [||]; window = 0 })

let stamps_for count =
  let st = Stdlib.Domain.DLS.get stamps_slot in
  if Array.length st.stamp < count then begin
    let size = max count (2 * Array.length st.stamp) in
    st.stamp <- Array.make size (-1);
    st.first <- Array.make size 0
  end;
  st

type lane_pair = {
  lp_src : body_access;
  lp_dst : body_access;
  lp_kind : kind;
  lp_words : Word_ids.t Lazy.t;
      (* the words of the memory's paired accesses in one id space,
         interned on first use and numbered as far as a search reads *)
  lp_src_side : int;  (* side indices into [lp_words] *)
  lp_dst_side : int;
}

(* The collision search of one Pipe: its comparable pairs in the
   checker's order (memories in [group_by_mem] order, each write against
   every access of its memory, itself included). *)
type lanes = {
  ln_counters : Ir.counter array;
  ln_trips : int array;
  ln_total : int;
  ln_pairs : lane_pair list;
}

let pipe_lanes ~counters ~trips accs =
  let nctr = Array.length trips in
  let total = Array.fold_left ( * ) 1 trips in
  let group_pairs group =
    let pairs =
      List.concat_map
        (fun w ->
          List.filter_map
            (fun other -> if comparable w other then Some (w, other) else None)
            group)
        (List.filter (fun a -> a.ba_write) group)
    in
    (* each paired access once *)
    let sides =
      List.rev
        (List.fold_left
           (fun acc (w, o) ->
             let add acc a = if List.memq a acc then acc else a :: acc in
             add (add acc w) o)
           [] pairs)
    in
    let side a = Option.get (List.find_index (( == ) a) sides) in
    let words = lazy (Word_ids.intern ~trips (List.map (fun a -> word_side nctr a.ba_forms) sides)) in
    List.map
      (fun (w, other) ->
        {
          lp_src = w;
          lp_dst = other;
          lp_kind =
            (if other.ba_write then Waw else if w.ba_stmt < other.ba_stmt then Raw else War);
          lp_words = words;
          lp_src_side = side w;
          lp_dst_side = side other;
        })
      pairs
  in
  {
    ln_counters = counters;
    ln_trips = trips;
    ln_total = total;
    ln_pairs = List.concat_map group_pairs (group_by_mem accs);
  }

(* The first window, and in it the first destination lane, whose word
   the window's source side first touched at a different lane: vector
   [v] issues the [par] consecutive flattened iterations from [v * par],
   and the search reads iterations [0, limit). Returns (that source lane,
   the destination lane, window start). *)
let window_collision st ~src ~dst ~limit ~par =
  let res = ref None and lo = ref 0 in
  while !res = None && !lo < limit do
    let hi = min limit (!lo + par) and win = st.window in
    st.window <- win + 1;
    for it = !lo to hi - 1 do
      let id = src.(it) in
      if st.stamp.(id) <> win then begin
        st.stamp.(id) <- win;
        st.first.(id) <- it - !lo
      end
    done;
    let it = ref !lo in
    while !res = None && !it < hi do
      let id = dst.(!it) in
      if st.stamp.(id) = win && st.first.(id) <> !it - !lo then
        res := Some (st.first.(id), !it - !lo, !lo);
      incr it
    done;
    lo := hi
  done;
  !res

(* Two distinct lanes of one vector touching the same word, one of them
   writing: a concrete scheduling violation, two lanes issued in the same
   cycle with a dependence between them. The first pair in checker order
   with such a collision gives the witness. Shared by [analyze_pipe] and
   the symbolic L013 par scan, which reuses each pair's words across
   pars.

   When source and destination have equal coefficients, whether two lanes
   touch the same word depends only on where they sit relative to their
   window's first lane, so one period of windows
   ({!Word_ids.window_limit}) decides the pair; other pairs read the
   whole grid. *)
let lane_conflict ln ~par =
  if ln.ln_total <= 1 || par <= 1 || ln.ln_total > grid_cap then None
  else
    let period = Word_ids.window_limit ~trips:ln.ln_trips ~par in
    List.find_map
      (fun lp ->
        let w = Lazy.force lp.lp_words in
        let limit =
          if (Word_ids.side w lp.lp_src_side).Word_ids.coeffs
             = (Word_ids.side w lp.lp_dst_side).Word_ids.coeffs
          then period
          else ln.ln_total
        in
        Word_ids.number w limit;
        match
          window_collision (stamps_for (Word_ids.count w)) ~src:(Word_ids.ids w lp.lp_src_side)
            ~dst:(Word_ids.ids w lp.lp_dst_side) ~limit ~par
        with
        | None -> None
        | Some (la, lb, lo) ->
          let xa = Word_ids.decompose ln.ln_trips (lo + la)
          and xb = Word_ids.decompose ln.ln_trips (lo + lb) in
          Some
            {
              lc_mem = lp.lp_src.ba_mem.Ir.mem_name;
              lc_kind = lp.lp_kind;
              lc_lane_a = la;
              lc_lane_b = lb;
              lc_iters_a = iter_values ln.ln_counters xa;
              lc_iters_b = iter_values ln.ln_counters xb;
              lc_index = eval_dims lp.lp_dst.ba_forms xb;
            })
      ln.ln_pairs

(* ------------------------------------------------------------------ *)
(* Per-pipe analysis                                                   *)
(* ------------------------------------------------------------------ *)

type pipe_dep = {
  pd_label : string;
  pd_path : string list;
  pd_par : int;
  pd_trip : int;
  pd_latency : int;
  pd_pairs : pair list;
  pd_ii : int;
  pd_heuristic_ii : int;
  pd_conflict : conflict option;
}

let analyze_pipe ~path (loop : Ir.loop_info) body =
  let counters, accs = body_accesses loop body in
  let trips = Array.map Ir.counter_trip counters in
  let pairs = all_pairs ~counters ~trips accs in
  let latency = recurrence_latency body in
  let par = max 1 loop.Ir.lp_par in
  let conflict = lane_conflict (pipe_lanes ~counters ~trips accs) ~par in
  {
    pd_label = loop.Ir.lp_label;
    pd_path = path;
    pd_par = par;
    pd_trip = Ir.loop_trip loop;
    pd_latency = latency;
    pd_pairs = pairs;
    pd_ii = ii_of ~latency pairs;
    pd_heuristic_ii = heuristic_ii loop body;
    pd_conflict = conflict;
  }

(* ------------------------------------------------------------------ *)
(* Cross-stage (Parallel) dependences                                  *)
(* ------------------------------------------------------------------ *)

type race_status =
  | Race_disjoint  (* proved: the stages touch disjoint words *)
  | Race_overlap of {
      ro_index : int list;
      ro_iters_a : (string * int) list;
      ro_iters_b : (string * int) list;
    }
  | Race_unknown of string

type race = {
  rc_path : string list;  (* path to the Parallel node *)
  rc_mem : Ir.mem;
  rc_stage_a : string;
  rc_stage_b : string;
  rc_kind : string;  (* "write-write" or "read-write" *)
  rc_status : race_status;
}

let has_prefix prefix path =
  let rec go p q =
    match (p, q) with [], _ -> true | _, [] -> false | a :: p, b :: q -> a = b && go p q
  in
  go prefix path

(* Counter names bound anywhere inside a stage subtree. *)
let stage_bound_names st =
  Traverse.fold_ctrl
    (fun acc c ->
      match c with
      | Ir.Pipe { loop; _ } | Ir.Loop { loop; _ } ->
        List.fold_left (fun a (cc : Ir.counter) -> cc.Ir.ctr_name :: a) acc loop.Ir.lp_counters
      | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> acc)
    [] st

(* name -> counter, innermost binding winning. *)
let scope_table scope =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (c : Ir.counter) -> Hashtbl.replace tbl c.Ir.ctr_name c) scope;
  tbl

(* One side of a cross-stage pair: the exact affine address of an access,
   split per dimension into constant + local terms (iterators bound inside
   the stage) and shared terms (outer iterators, equal in both stages at
   any instant the Parallel is active). *)
type side = {
  sd_dims : (int * (string * int) list * (string * int) list) list;
      (* (c0, local terms, shared terms), term coefficients in iterator-value space *)
  sd_scope : (string, Ir.counter) Hashtbl.t;
}

let side_of ~bound ~outer (acc : AE.access) =
  match acc.AE.acc_addr with
  | AE.Stream | AE.Tile _ -> Error "non-word access"
  | AE.Word avs ->
    let rec build acc_dims = function
      | [] -> Ok { sd_dims = List.rev acc_dims; sd_scope = scope_table acc.AE.acc_scope }
      | av :: rest -> (
        match Affine.exact av with
        | None -> Error "non-affine address"
        | Some (c0, terms) ->
          let classify nm =
            let b = List.mem nm bound and o = List.mem nm outer in
            if b && o then `Ambiguous else if b then `Local else if o then `Shared else `Ambiguous
          in
          let rec split locals shareds = function
            | [] -> Ok (List.sort compare locals, List.sort compare shareds)
            | (nm, c) :: ts -> (
              match classify nm with
              | `Ambiguous -> Error ("iterator " ^ nm ^ " is bound both inside and outside the stage")
              | `Local -> split ((nm, c) :: locals) shareds ts
              | `Shared -> split locals ((nm, c) :: shareds) ts)
          in
          match split [] [] terms with
          | Error r -> Error r
          | Ok (locals, shareds) -> build ((c0, locals, shareds) :: acc_dims) rest)
    in
    build [] avs

(* Enumerate the concrete index tuples one side can produce, as a map from
   tuple to the (local) iteration reaching it. Only called when neither
   side has shared terms, so the tuples are exact. *)
let side_tuples side =
  let used =
    List.sort_uniq compare (List.concat_map (fun (_, ls, _) -> List.map fst ls) side.sd_dims)
  in
  let ctrs =
    List.filter_map (fun nm -> Hashtbl.find_opt side.sd_scope nm) used
  in
  if List.length ctrs <> List.length used then None
  else begin
    let ctrs = Array.of_list ctrs in
    let trips = Array.map Ir.counter_trip ctrs in
    let total = Array.fold_left ( * ) 1 trips in
    if total > grid_cap || Array.exists (fun t -> t <= 0) trips then None
    else begin
      let tbl = Hashtbl.create (2 * total) in
      let n = Array.length ctrs in
      let x = Array.make n 0 in
      let rec go i =
        if i = n then begin
          let env = Hashtbl.create 8 in
          Array.iteri
            (fun j (c : Ir.counter) ->
              Hashtbl.replace env c.Ir.ctr_name (c.Ir.ctr_start + (c.Ir.ctr_step * x.(j))))
            ctrs;
          let tup =
            List.map
              (fun (c0, ls, _) ->
                List.fold_left
                  (fun acc (nm, coef) ->
                    acc + (coef * Option.value ~default:0 (Hashtbl.find_opt env nm)))
                  c0 ls)
              side.sd_dims
          in
          if not (Hashtbl.mem tbl tup) then
            Hashtbl.add tbl tup
              (Array.to_list
                 (Array.mapi
                    (fun j (c : Ir.counter) ->
                      (c.Ir.ctr_name, c.Ir.ctr_start + (c.Ir.ctr_step * x.(j))))
                    ctrs))
        end
        else
          for xi = 0 to trips.(i) - 1 do
            x.(i) <- xi;
            go (i + 1)
          done
      in
      go 0;
      Some tbl
    end
  end

(* Value range of the constant + local part of one dimension. *)
let local_range side (c0, locals, _) =
  List.fold_left
    (fun acc (nm, coef) ->
      match acc with
      | None -> None
      | Some (lo, hi) -> (
        match Hashtbl.find_opt side.sd_scope nm with
        | None -> None
        | Some c ->
          let trip = Ir.counter_trip c in
          if trip <= 0 then None
          else begin
            let v1 = c.Ir.ctr_start and v2 = c.Ir.ctr_start + ((trip - 1) * c.Ir.ctr_step) in
            let vlo = min v1 v2 and vhi = max v1 v2 in
            let e1 = coef * vlo and e2 = coef * vhi in
            Some (lo + min e1 e2, hi + max e1 e2)
          end))
    (Some (c0, c0)) locals

(* Verdict for one (write, other) access pair across two stages. *)
let cross_pair_status sa sb =
  if List.length sa.sd_dims <> List.length sb.sd_dims then
    Race_unknown "address arity differs"
  else begin
    let shared_mismatch =
      List.exists2 (fun (_, _, sha) (_, _, shb) -> sha <> shb) sa.sd_dims sb.sd_dims
    in
    if shared_mismatch then Race_unknown "addresses depend on different outer iterators"
    else begin
      let any_shared = List.exists (fun (_, _, sh) -> sh <> []) sa.sd_dims in
      if any_shared then begin
        (* Shared outer terms cancel dimension-wise: interval-disjoint
           local parts in any dimension prove the stages apart. *)
        let disjoint_dim =
          List.exists2
            (fun da db ->
              match (local_range sa da, local_range sb db) with
              | Some (lo_a, hi_a), Some (lo_b, hi_b) -> hi_a < lo_b || hi_b < lo_a
              | _ -> false)
            sa.sd_dims sb.sd_dims
        in
        if disjoint_dim then Race_disjoint
        else Race_unknown "accesses share outer iterators"
      end
      else begin
        match (side_tuples sa, side_tuples sb) with
        | Some ta, Some tb ->
          let hit = ref None in
          Hashtbl.iter
            (fun tup iters_b ->
              if !hit = None then
                match Hashtbl.find_opt ta tup with
                | Some iters_a -> hit := Some (tup, iters_a, iters_b)
                | None -> ())
            tb;
          (match !hit with
          | Some (tup, ia, ib) ->
            Race_overlap { ro_index = tup; ro_iters_a = ia; ro_iters_b = ib }
          | None -> Race_disjoint)
        | _ -> Race_unknown "iteration space too large to enumerate"
      end
    end
  end

(* Combine the pair verdicts for one (stage pair, memory) candidate. *)
let combine_statuses statuses =
  let overlap = List.find_opt (function Race_overlap _ -> true | _ -> false) statuses in
  match overlap with
  | Some o -> o
  | None ->
    if statuses <> [] && List.for_all (function Race_disjoint -> true | _ -> false) statuses
    then Race_disjoint
    else (
      match List.find_opt (function Race_unknown _ -> true | _ -> false) statuses with
      | Some u -> u
      | None -> Race_unknown "no analyzable accesses")

let parallel_races ~(ae : AE.result Lazy.t) ~path ~outer stages =
  let tagged =
    List.mapi
      (fun i st ->
        ( i,
          Ir.ctrl_label st,
          Analysis.written_mems st,
          Analysis.read_mems st,
          stage_bound_names st ))
      stages
  in
  let overlap a b = List.filter (fun m -> List.exists (Ir.mem_equal m) b) a in
  let dedup mems =
    let seen = Hashtbl.create 4 in
    List.filter
      (fun (m : Ir.mem) ->
        if Hashtbl.mem seen m.Ir.mem_id then false
        else begin
          Hashtbl.add seen m.Ir.mem_id ();
          true
        end)
      mems
  in
  let facts_for ~stage_label (m : Ir.mem) =
    List.filter
      (fun (a : AE.access) ->
        a.AE.acc_mem.Ir.mem_id = m.Ir.mem_id && has_prefix (path @ [ stage_label ]) a.AE.acc_path)
      (Lazy.force ae).AE.accesses
  in
  let status_for ~la ~ba ~lb ~bb ~kind (m : Ir.mem) =
    if m.Ir.mem_kind <> Ir.Bram then
      Race_unknown "shared memory is not a word-addressed buffer"
    else begin
      let fa = facts_for ~stage_label:la m and fb = facts_for ~stage_label:lb m in
      let writes l = List.filter (fun (a : AE.access) -> a.AE.acc_write) l in
      let reads l = List.filter (fun (a : AE.access) -> not a.AE.acc_write) l in
      let pairs =
        match kind with
        | `Ww -> List.concat_map (fun w -> List.map (fun w2 -> (w, w2)) (writes fb)) (writes fa)
        | `Rw ->
          List.concat_map (fun w -> List.map (fun r -> (w, r)) (reads fb)) (writes fa)
          @ List.concat_map (fun r -> List.map (fun w -> (r, w)) (writes fb)) (reads fa)
      in
      if pairs = [] then Race_unknown "no analyzable accesses"
      else
        combine_statuses
          (List.map
             (fun (a, b) ->
               match (side_of ~bound:ba ~outer a, side_of ~bound:bb ~outer b) with
               | Ok sa, Ok sb -> cross_pair_status sa sb
               | Error r, _ | _, Error r -> Race_unknown r)
             pairs)
    end
  in
  let races = ref [] in
  List.iter
    (fun (i, li, wi, ri, bi) ->
      List.iter
        (fun (j, lj, wj, rj, bj) ->
          if j > i then begin
            let ww = overlap wi wj in
            let rw =
              List.filter
                (fun m -> not (List.exists (Ir.mem_equal m) ww))
                (overlap wi rj @ overlap ri wj)
            in
            let emit kind_name kind m =
              if m.Ir.mem_kind <> Ir.Queue then
                races :=
                  {
                    rc_path = path;
                    rc_mem = m;
                    rc_stage_a = li;
                    rc_stage_b = lj;
                    rc_kind = kind_name;
                    rc_status = status_for ~la:li ~ba:bi ~lb:lj ~bb:bj ~kind m;
                  }
                  :: !races
            in
            List.iter (emit "write-write" `Ww) (dedup ww);
            List.iter (emit "read-write" `Rw) (dedup rw)
          end)
        tagged)
    tagged;
  List.rev !races

(* ------------------------------------------------------------------ *)
(* Whole-design analysis                                               *)
(* ------------------------------------------------------------------ *)

type report = {
  r_design : string;
  r_pipes : pipe_dep list;
  r_races : race list;
}

let analyze (d : Ir.design) : report =
  let ae = lazy (AE.analyze d) in
  let pipes = ref [] in
  let races = ref [] in
  let rec go path outer ctrl =
    let path = path @ [ Ir.ctrl_label ctrl ] in
    (match ctrl with
    | Ir.Pipe { loop; body; _ } -> pipes := analyze_pipe ~path loop body :: !pipes
    | Ir.Parallel { stages; _ } -> races := !races @ parallel_races ~ae ~path ~outer stages
    | Ir.Loop _ | Ir.Tile_load _ | Ir.Tile_store _ -> ());
    let outer =
      match ctrl with
      | Ir.Pipe { loop; _ } | Ir.Loop { loop; _ } ->
        outer @ List.map (fun (c : Ir.counter) -> c.Ir.ctr_name) loop.Ir.lp_counters
      | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> outer
    in
    List.iter (go path outer) (Traverse.children ctrl)
  in
  go [] [] d.Ir.d_top;
  { r_design = d.Ir.d_name; r_pipes = List.rev !pipes; r_races = !races }

(* One-slot cache so the lint passes (L001/L012/L013) and repeated DSE
   probes share a single analysis of the same design value. Domain-local,
   hence safe under the parallel DSE runner. *)
let dls_slot : (Ir.design * report) option ref Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> ref None)

let report_cached d =
  let slot = Stdlib.Domain.DLS.get dls_slot in
  match !slot with
  | Some (d0, r) when d0 == d -> r
  | _ ->
    let r = analyze d in
    slot := Some (d, r);
    r

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let iters_str = function
  | [] -> ""
  | ws ->
    Printf.sprintf " at (%s)"
      (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) ws))

let idx_str l = String.concat ";" (List.map string_of_int l)

(* L012: the syntactic heuristic would have charged a longer II than the
   proved one — cycles the old estimator left on the table. *)
let pessimistic_diags (r : report) =
  List.filter_map
    (fun p ->
      if p.pd_heuristic_ii > p.pd_ii then
        Some
          (Diag.makef ~path:p.pd_path ~code:"L012" ~severity:Diag.Warning
             "pessimistic II on %s: the syntactic recurrence heuristic charges II=%d but the dependence analysis proves II=%d"
             p.pd_label p.pd_heuristic_ii p.pd_ii)
      else None)
    r.r_pipes

(* L013: vectorization proved illegal, with the concrete lane pair. *)
let unsafe_diags (r : report) =
  List.filter_map
    (fun p ->
      match p.pd_conflict with
      | Some k ->
        Some
          (Diag.makef ~path:p.pd_path ~mem:k.lc_mem ~code:"L013" ~severity:Diag.Error
             "unsafe pipelining on %s: par=%d issues lanes %d%s and %d%s in the same cycle but both touch %s[%s] (%s dependence)"
             p.pd_label p.pd_par k.lc_lane_a (iters_str k.lc_iters_a) k.lc_lane_b
             (iters_str k.lc_iters_b) k.lc_mem (idx_str k.lc_index) (kind_str k.lc_kind))
      | None -> None)
    r.r_pipes

(* L001: cross-stage races, now with proved-disjoint pairs dropped and
   proved overlaps carrying a witness. *)
let race_diags (r : report) =
  List.filter_map
    (fun rc ->
      let base =
        Printf.sprintf "%s race on %s between concurrent stages %s and %s" rc.rc_kind
          rc.rc_mem.Ir.mem_name rc.rc_stage_a rc.rc_stage_b
      in
      match rc.rc_status with
      | Race_disjoint -> None
      | Race_overlap o ->
        Some
          (Diag.makef ~path:rc.rc_path ~mem:rc.rc_mem.Ir.mem_name ~code:"L001"
             ~severity:Diag.Error "%s: proved overlap on %s[%s]%s and%s" base
             rc.rc_mem.Ir.mem_name (idx_str o.ro_index) (iters_str o.ro_iters_a)
             (iters_str o.ro_iters_b))
      | Race_unknown _ ->
        Some
          (Diag.makef ~path:rc.rc_path ~mem:rc.rc_mem.Ir.mem_name ~code:"L001"
             ~severity:Diag.Error "%s" base))
    r.r_races

(* ------------------------------------------------------------------ *)
(* Summary and rendering                                               *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_pipes : int;
  s_pairs : int;
  s_independent : int;
  s_carried : int;
  s_unknown : int;
  s_refuted : int;  (* pipes whose vectorization is proved illegal *)
  s_pessimistic : int;  (* pipes where the heuristic overcharged II *)
  s_races_proved : int;
  s_races_disjoint : int;
  s_races_unknown : int;
}

let summarize (r : report) =
  let pairs = ref 0 and ind = ref 0 and car = ref 0 and unk = ref 0 in
  let refuted = ref 0 and pess = ref 0 in
  List.iter
    (fun p ->
      if p.pd_conflict <> None then incr refuted;
      if p.pd_heuristic_ii > p.pd_ii then incr pess;
      List.iter
        (fun pr ->
          incr pairs;
          match pr.p_status with
          | Independent -> incr ind
          | Carried _ -> incr car
          | Unknown _ -> incr unk)
        p.pd_pairs)
    r.r_pipes;
  let rp = ref 0 and rd = ref 0 and ru = ref 0 in
  List.iter
    (fun rc ->
      match rc.rc_status with
      | Race_overlap _ -> incr rp
      | Race_disjoint -> incr rd
      | Race_unknown _ -> incr ru)
    r.r_races;
  {
    s_pipes = List.length r.r_pipes;
    s_pairs = !pairs;
    s_independent = !ind;
    s_carried = !car;
    s_unknown = !unk;
    s_refuted = !refuted;
    s_pessimistic = !pess;
    s_races_proved = !rp;
    s_races_disjoint = !rd;
    s_races_unknown = !ru;
  }

(* No proven violation (unknown pairs are allowed; they are not errors). *)
let clean r =
  let s = summarize r in
  s.s_refuted = 0 && s.s_races_proved = 0

let status_str = function
  | Independent -> "independent"
  | Carried { distance; witness } ->
    Printf.sprintf "carried distance %d (%s%s ->%s)" distance
      (match witness.wt_index with Some idx -> Printf.sprintf "on [%s]" (idx_str idx) | None -> "")
      (iters_str witness.wt_src_iters) (iters_str witness.wt_dst_iters)
  | Unknown reason -> "unknown: " ^ reason

let render_text (r : report) =
  let b = Buffer.create 1024 in
  let s = summarize r in
  Buffer.add_string b (Printf.sprintf "design %s: dependence analysis\n" r.r_design);
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "pipe %s par=%d trip=%d: II=%d (heuristic %d, latency %d)%s\n"
           (String.concat "/" p.pd_path) p.pd_par p.pd_trip p.pd_ii p.pd_heuristic_ii p.pd_latency
           (match p.pd_conflict with
           | Some k ->
             Printf.sprintf " UNSAFE PIPELINING: lanes %d/%d on %s[%s] (%s)" k.lc_lane_a
               k.lc_lane_b k.lc_mem (idx_str k.lc_index) (kind_str k.lc_kind)
           | None -> ""));
      List.iter
        (fun pr ->
          Buffer.add_string b
            (Printf.sprintf "  %s s%d -> s%d on %s: %s\n" (kind_str pr.p_kind) pr.p_src pr.p_dst
               pr.p_mem.Ir.mem_name (status_str pr.p_status)))
        p.pd_pairs)
    r.r_pipes;
  List.iter
    (fun rc ->
      Buffer.add_string b
        (Printf.sprintf "parallel %s: %s race candidate on %s (%s vs %s): %s\n"
           (String.concat "/" rc.rc_path) rc.rc_kind rc.rc_mem.Ir.mem_name rc.rc_stage_a
           rc.rc_stage_b
           (match rc.rc_status with
           | Race_disjoint -> "proved disjoint"
           | Race_overlap o ->
             Printf.sprintf "PROVED OVERLAP on [%s]%s and%s" (idx_str o.ro_index)
               (iters_str o.ro_iters_a) (iters_str o.ro_iters_b)
           | Race_unknown reason -> "unknown: " ^ reason)))
    r.r_races;
  Buffer.add_string b
    (Printf.sprintf
       "summary: %d pipe(s); %d pair(s): %d independent / %d carried / %d unknown; %d unsafe vectorization(s); %d pessimistic II(s); races %d proved / %d disjoint / %d unknown\n"
       s.s_pipes s.s_pairs s.s_independent s.s_carried s.s_unknown s.s_refuted s.s_pessimistic
       s.s_races_proved s.s_races_disjoint s.s_races_unknown);
  Buffer.contents b

let render_json (r : report) =
  let b = Buffer.create 1024 in
  let str s = "\"" ^ Emit.json_escape s ^ "\"" in
  let iters ws =
    "{" ^ String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s:%d" (str n) v) ws) ^ "}"
  in
  (* JSON array elements; [idx_str]'s ';' is for the text reports only. *)
  let idx l = String.concat "," (List.map string_of_int l) in
  let s = summarize r in
  Buffer.add_string b (Printf.sprintf "{\"design\":%s,\"summary\":{" (str r.r_design));
  Buffer.add_string b
    (Printf.sprintf
       "\"pipes\":%d,\"pairs\":%d,\"independent\":%d,\"carried\":%d,\"unknown\":%d,\"unsafe_vectorizations\":%d,\"pessimistic_ii\":%d,\"races_proved\":%d,\"races_disjoint\":%d,\"races_unknown\":%d},"
       s.s_pipes s.s_pairs s.s_independent s.s_carried s.s_unknown s.s_refuted s.s_pessimistic
       s.s_races_proved s.s_races_disjoint s.s_races_unknown);
  Buffer.add_string b "\"pipes\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"label\":%s,\"path\":[%s],\"par\":%d,\"trip\":%d,\"ii\":%d,\"heuristic_ii\":%d,\"latency\":%d,\"pairs\":["
           (str p.pd_label)
           (String.concat "," (List.map str p.pd_path))
           p.pd_par p.pd_trip p.pd_ii p.pd_heuristic_ii p.pd_latency);
      List.iteri
        (fun j pr ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"mem\":%s,\"kind\":%s,\"src\":%d,\"dst\":%d,"
               (str pr.p_mem.Ir.mem_name)
               (str (kind_str pr.p_kind))
               pr.p_src pr.p_dst);
          (match pr.p_status with
          | Independent -> Buffer.add_string b "\"status\":\"independent\"}"
          | Carried { distance; witness } ->
            Buffer.add_string b
              (Printf.sprintf
                 "\"status\":\"carried\",\"distance\":%d,\"witness\":{\"src\":%s,\"dst\":%s%s}}"
                 distance (iters witness.wt_src_iters) (iters witness.wt_dst_iters)
                 (match witness.wt_index with
                 | Some ix -> Printf.sprintf ",\"index\":[%s]" (idx ix)
                 | None -> ""))
          | Unknown reason ->
            Buffer.add_string b
              (Printf.sprintf "\"status\":\"unknown\",\"reason\":%s}" (str reason))))
        p.pd_pairs;
      Buffer.add_string b "]";
      (match p.pd_conflict with
      | Some k ->
        Buffer.add_string b
          (Printf.sprintf
             ",\"conflict\":{\"mem\":%s,\"kind\":%s,\"lane_a\":%d,\"lane_b\":%d,\"iters_a\":%s,\"iters_b\":%s,\"index\":[%s]}"
             (str k.lc_mem)
             (str (kind_str k.lc_kind))
             k.lc_lane_a k.lc_lane_b (iters k.lc_iters_a) (iters k.lc_iters_b)
             (idx k.lc_index))
      | None -> ());
      Buffer.add_string b "}")
    r.r_pipes;
  Buffer.add_string b "],\"races\":[";
  List.iteri
    (fun i rc ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"path\":[%s],\"mem\":%s,\"kind\":%s,\"stage_a\":%s,\"stage_b\":%s,"
           (String.concat "," (List.map str rc.rc_path))
           (str rc.rc_mem.Ir.mem_name) (str rc.rc_kind) (str rc.rc_stage_a) (str rc.rc_stage_b));
      match rc.rc_status with
      | Race_disjoint -> Buffer.add_string b "\"status\":\"disjoint\"}"
      | Race_overlap o ->
        Buffer.add_string b
          (Printf.sprintf "\"status\":\"overlap\",\"index\":[%s],\"iters_a\":%s,\"iters_b\":%s}"
             (idx o.ro_index) (iters o.ro_iters_a) (iters o.ro_iters_b))
      | Race_unknown reason ->
        Buffer.add_string b (Printf.sprintf "\"status\":\"unknown\",\"reason\":%s}" (str reason)))
    r.r_races;
  Buffer.add_string b "]}";
  Buffer.contents b
