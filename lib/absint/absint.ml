(* Top of the abstract-interpretation subsystem: runs the fixpoint engine
   under the interval and affine domains, checks every recorded memory
   access, and packages the results as a per-memory report that the lint
   passes (L009/L010/L011), the DSE pruner and the [dhdl analyze] CLI all
   consume.

   Three checks per design:

   - {b Bounds}: every BRAM word access must stay inside the memory's
     dimensions, and every tile transfer must fit the off-chip extents
     (offsets in range, tile dividing the extent). Proofs come from the
     interval domain, or from exact affine forms evaluated over the
     iteration box (which also yields a concrete witness iteration vector
     on refutation).

   - {b Banking}: for each vectorized access, the parallel lanes must hit
     pairwise-distinct banks each cycle (reads of the same word broadcast).
     The checker searches a family of bankings — flat cyclic with an
     optional block factor, and per-dimension block-cyclic factorizations
     of the bank count (the paper's multidimensional banking) — for one
     scheme serving every access of the memory. Failure under the
     canonical flat cyclic scheme yields a concrete conflicting lane pair.

   - {b Buffering}: {!Liveness} crossings say exactly which memories must
     be double-buffered; memories buffered without a crossing are
     recoverable area.

   Lane analysis is per vector: outer-loop replication (Loop [lp_par])
   duplicates whole datapaths and is charged by the area model, not by the
   banking model (same assumption as {!Dhdl_ir.Analysis.infer_banking}). *)

module Ir = Dhdl_ir.Ir
module Diag = Dhdl_ir.Diag
module Emit = Dhdl_util.Emit
module Intmath = Dhdl_util.Intmath

module IE = Engine.Make (Interval)
module AE = Engine.Make (Affine)

(* ------------------------------------------------------------------ *)
(* Report types                                                        *)
(* ------------------------------------------------------------------ *)

type witness = {
  w_dim : int;  (* which address/offset/tile dimension *)
  w_value : int;  (* the offending index, offset or tile size *)
  w_lo : int;
  w_hi : int;  (* the valid range for that dimension *)
  w_iters : (string * int) list;  (* iteration vector reaching it *)
  w_desc : string;  (* rendered one-line description *)
}

type bounds_status = Bounds_proved | Bounds_refuted of witness | Bounds_unknown of string

type conflict = {
  k_lane_a : int;
  k_lane_b : int;
  k_index_a : int list;  (* per-dimension indices the two lanes address *)
  k_index_b : int list;
  k_bank : int;  (* the shared bank *)
}

type bank_status =
  | Bank_scalar  (* access is not vectorized; nothing to prove *)
  | Bank_proved of string  (* the banking scheme serving it *)
  | Bank_conflict of conflict
  | Bank_unknown of string

type access_kind = Word | Stream | Tile

type access_info = {
  ai_path : string list;
  ai_write : bool;
  ai_par : int;
  ai_kind : access_kind;
  ai_affine : Affine.t list;  (* per-dimension address (word) or offset (tile) *)
  ai_bounds : bounds_status;
  ai_banks : bank_status;
}

type mem_info = {
  mi_mem : Ir.mem;
  mi_accesses : access_info list;
  mi_scheme : string option;  (* banking scheme proving every access *)
  mi_double_required : bool;
  mi_crossing : Liveness.crossing option;  (* why double buffering is needed *)
  mi_spurious_double : bool;  (* buffered without a crossing: wasted area *)
}

type report = {
  r_design : string;
  r_mems : mem_info list;
  r_rounds : int;  (* fixpoint rounds (max of the two domains) *)
}

(* ------------------------------------------------------------------ *)
(* Bounds checking                                                     *)
(* ------------------------------------------------------------------ *)

let counter_values (c : Ir.counter) =
  let trip = Ir.counter_trip c in
  if trip <= 0 then None
  else Some (c.Ir.ctr_start, c.Ir.ctr_start + ((trip - 1) * c.Ir.ctr_step))

(* Iterator name -> value range, innermost binding winning (matches the
   engine's scoping). *)
let scope_ranges scope =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match counter_values c with Some r -> Hashtbl.replace tbl c.Ir.ctr_name r | None -> ())
    scope;
  tbl

(* Extreme of an exact affine form over the iteration box, with the
   assignment reaching it. None if some iterator's range is unavailable. *)
let affine_extreme ~ranges ~maximize (c0, terms) =
  List.fold_left
    (fun acc (n, coef) ->
      match acc with
      | None -> None
      | Some (v, asg) -> (
        match Hashtbl.find_opt ranges n with
        | None -> None
        | Some (lo, hi) ->
          let x = if coef > 0 = maximize then hi else lo in
          Some (v + (coef * x), (n, x) :: asg)))
    (Some (c0, [])) terms
  |> Option.map (fun (v, asg) -> (v, List.rev asg))

let iters_str = function
  | [] -> ""
  | ws ->
    Printf.sprintf " at (%s)"
      (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) ws))

(* One address dimension against [lo, hi]; [what] phrases the message. *)
let check_dim ~ranges ~what ~lo ~hi ~dim iv av =
  let refute value iters =
    let desc =
      Printf.sprintf "%s %d of dimension %d lies outside [%d..%d]%s" what value dim lo hi
        (iters_str iters)
    in
    Bounds_refuted
      { w_dim = dim; w_value = value; w_lo = lo; w_hi = hi; w_iters = iters; w_desc = desc }
  in
  if Interval.within ~lo ~hi iv then Bounds_proved
  else
    match Affine.exact av with
    | Some form -> (
      match
        (affine_extreme ~ranges ~maximize:true form, affine_extreme ~ranges ~maximize:false form)
      with
      | Some (mx, amx), Some (mn, amn) ->
        if mx > hi then refute mx amx
        else if mn < lo then refute mn amn
        else Bounds_proved
      | _ ->
        Bounds_unknown
          (Printf.sprintf "dimension %d: iterator range unavailable for affine form" dim))
    | None ->
      Bounds_unknown
        (Printf.sprintf "dimension %d: non-affine address with interval %s" dim
           (Interval.to_string iv))

let first_failure checks =
  match List.find_opt (function Bounds_refuted _ -> true | _ -> false) checks with
  | Some r -> r
  | None -> (
    match List.find_opt (function Bounds_unknown _ -> true | _ -> false) checks with
    | Some u -> u
    | None -> Bounds_proved)

(* Word access against the BRAM's dimensions. *)
let check_word_bounds ~ranges (m : Ir.mem) ivs avs =
  if m.Ir.mem_kind <> Ir.Bram then Bounds_proved
  else if List.length ivs <> List.length m.Ir.mem_dims then
    Bounds_unknown "address arity does not match the memory (V009)"
  else
    List.mapi
      (fun dim ((iv, av), n) -> check_dim ~ranges ~what:"index" ~lo:0 ~hi:(n - 1) ~dim iv av)
      (List.combine (List.combine ivs avs) m.Ir.mem_dims)
    |> first_failure

(* Tile transfer against the off-chip extents: the tile must divide the
   extent (the paper's divisor-tile rule, so tiles never overhang) and
   every offset must leave room for a full tile. *)
let check_tile_bounds ~ranges (m : Ir.mem) ~tile ivs avs =
  if List.length ivs <> List.length m.Ir.mem_dims || List.length tile <> List.length m.Ir.mem_dims
  then Bounds_unknown "offset/tile arity does not match the memory (V010)"
  else
    List.mapi
      (fun dim ((iv, av), (extent, t)) ->
        if t <= 0 || extent mod t <> 0 then
          Bounds_refuted
            {
              w_dim = dim;
              w_value = t;
              w_lo = 0;
              w_hi = extent;
              w_iters = [];
              w_desc =
                Printf.sprintf
                  "tile size %d does not divide the off-chip extent %d in dimension %d" t extent
                  dim;
            }
        else check_dim ~ranges ~what:"tile offset" ~lo:0 ~hi:(extent - t) ~dim iv av)
      (List.combine (List.combine ivs avs) (List.combine m.Ir.mem_dims tile))
    |> first_failure

(* ------------------------------------------------------------------ *)
(* Banking: lane patterns                                              *)
(* ------------------------------------------------------------------ *)

(* How the active lanes of one vectorized access spread over the memory,
   as a function of the lane id l. *)
type pattern =
  | P_broadcast  (* every lane addresses the same word *)
  | P_flat  (* element-wise stream: flat addresses base + l *)
  | P_linear of int array  (* per-dim index: base_d + delta_d * l *)
  | P_grid of { coeffs : int array array; trips : int array }
      (* per-dim index: base_d + sum_i coeffs.(d).(i) * x_i(l) with x the
         mixed-radix decomposition of the linearized iteration index *)

type vec = {
  v_write : bool;
  v_par : int;  (* lanes per vector (issue width) *)
  v_eff : int;  (* active lanes: min par (vector trip) *)
  v_pattern : pattern;
  v_base : int array;  (* per-dim index at the iteration-box origin *)
}

type classified = C_scalar | C_vec of vec | C_opaque of string

let grid_cap = 16384 (* max linearized nest size we enumerate *)

(* Classify one explicit word access of memory [m] issued at [par] lanes
   under the owning pipe's [counters] (outer->inner), with the abstract
   affine address [avs]. *)
let classify_word ~ranges (m : Ir.mem) ~counters ~par ~write avs =
  let cs = counters in
  let trips = Array.of_list (List.map Ir.counter_trip cs) in
  let n = Array.length trips in
  let total = Array.fold_left ( * ) 1 trips in
  let ndims = List.length m.Ir.mem_dims in
  if par <= 1 || total <= 1 then C_scalar
  else if List.length avs <> ndims then C_opaque "address arity does not match the memory"
  else begin
    let eff = min par total in
    let steps = Array.of_list (List.map (fun c -> c.Ir.ctr_step) cs) in
    let starts = Array.of_list (List.map (fun c -> c.Ir.ctr_start) cs) in
    (* name -> counter position; later (inner) bindings shadow earlier
       ones, matching the engine's environment *)
    let pos = Hashtbl.create 8 in
    List.iteri (fun i c -> Hashtbl.replace pos c.Ir.ctr_name i) cs;
    (* weight of counter i: product of the trips strictly inner to it *)
    let w = Array.make (max n 1) 1 in
    for i = n - 2 downto 0 do
      w.(i) <- w.(i + 1) * trips.(i + 1)
    done;
    (* counter i takes several values within one vector of [par] lanes iff
       its weight is not a multiple of par (and it runs more than once) *)
    let varying = Array.init n (fun i -> w.(i) mod par <> 0 && trips.(i) > 1) in
    let vnames = List.filteri (fun i _ -> varying.(i)) (List.map (fun c -> c.Ir.ctr_name) cs) in
    let coeffs = Array.make_matrix ndims (max n 1) 0 in
    let base = Array.make ndims 0 in
    let opaque = ref None in
    List.iteri
      (fun d av ->
        match Affine.exact av with
        | Some (c0, terms) ->
          base.(d) <- base.(d) + c0;
          List.iter
            (fun (nm, coef) ->
              match Hashtbl.find_opt pos nm with
              | Some i ->
                (* per-digit coefficient: the iterator advances by its step
                   for each increment of the mixed-radix digit *)
                coeffs.(d).(i) <- coeffs.(d).(i) + (coef * steps.(i));
                base.(d) <- base.(d) + (coef * starts.(i))
              | None -> (
                (* outer iterator: lane-invariant; fold its origin into the
                   base so witnesses are concrete *)
                match Hashtbl.find_opt ranges nm with
                | Some (lo, _) -> base.(d) <- base.(d) + (coef * lo)
                | None -> ()))
            terms
        | None ->
          (* Non-affine index: harmless for banking as long as it cannot
             vary across the lanes of one vector (e.g. kmeans' cluster
             register is fixed while the dimension counter vectorizes). *)
          if Affine.depends_on_any vnames av then
            opaque :=
              Some
                (Printf.sprintf "dimension %d: data-dependent address varies across vector lanes"
                   d))
      avs;
    match !opaque with
    | Some reason -> C_opaque reason
    | None ->
      if eff <= 1 then C_scalar
      else begin
        let lane_varying d =
          Array.exists Fun.id (Array.init n (fun i -> varying.(i) && coeffs.(d).(i) <> 0))
        in
        let any = List.exists lane_varying (List.init ndims Fun.id) in
        if not any then
          C_vec
            { v_write = write; v_par = par; v_eff = eff; v_pattern = P_broadcast; v_base = base }
        else begin
          let inner_only =
            Array.for_all Fun.id (Array.init n (fun i -> (not varying.(i)) || i = n - 1))
          in
          if inner_only && (total <= par || trips.(n - 1) mod par = 0) then
            (* contiguous window of the innermost counter: index is affine
               in the lane id *)
            C_vec
              {
                v_write = write;
                v_par = par;
                v_eff = eff;
                v_pattern = P_linear (Array.init ndims (fun d -> coeffs.(d).(n - 1)));
                v_base = base;
              }
          else if total <= grid_cap then
            C_vec
              {
                v_write = write;
                v_par = par;
                v_eff = eff;
                v_pattern = P_grid { coeffs; trips };
                v_base = base;
              }
          else C_opaque (Printf.sprintf "iteration nest too large to enumerate (%d points)" total)
        end
      end
  end

let classify_stream (m : Ir.mem) ~par ~write =
  let words = Intmath.prod m.Ir.mem_dims in
  if par <= 1 || words <= 1 then C_scalar
  else
    C_vec
      {
        v_write = write;
        v_par = par;
        v_eff = min par words;
        v_pattern = P_flat;
        v_base = Array.make (List.length m.Ir.mem_dims) 0;
      }

(* ------------------------------------------------------------------ *)
(* Banking: schemes                                                    *)
(* ------------------------------------------------------------------ *)

(* A banking scheme maps a word to a bank:
   - [Cyclic]: bank = (flat_address / block) mod banks;
   - [Blocked]: per-dimension factors with product [banks];
     bank tuple component d = (index_d / block_d) mod banks_d. *)
type scheme = Cyclic of { banks : int; block : int } | Blocked of (int * int) array

let scheme_to_string = function
  | Cyclic { banks; block } ->
    if block = 1 then Printf.sprintf "cyclic(%d)" banks
    else Printf.sprintf "block-cyclic(%d, block %d)" banks block
  | Blocked bs ->
    Printf.sprintf "dims(%s)"
      (String.concat " x "
         (Array.to_list
            (Array.map
               (fun (b, s) -> if s = 1 then string_of_int b else Printf.sprintf "%d/%d" b s)
               bs)))

let posmod a b = if b <= 0 then 0 else ((a mod b) + b) mod b

let strides_of dims =
  let n = Array.length dims in
  let s = Array.make (max n 1) 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * dims.(i + 1)
  done;
  s

let flat_of strides idx =
  let acc = ref 0 in
  for d = 0 to Array.length idx - 1 do
    acc := !acc + (idx.(d) * strides.(d))
  done;
  !acc

let decompose dims flat =
  let n = Array.length dims in
  let idx = Array.make n 0 in
  let r = ref flat in
  for d = n - 1 downto 0 do
    if dims.(d) > 0 then begin
      idx.(d) <- !r mod dims.(d);
      r := !r / dims.(d)
    end
  done;
  idx

(* Bank id of an absolute index tuple under a scheme (for display). *)
let bank_disp ~strides scheme idx =
  match scheme with
  | Cyclic { banks; block } -> posmod (flat_of strides idx / max 1 block) banks
  | Blocked bs ->
    let acc = ref 0 in
    for d = 0 to Array.length bs - 1 do
      let b, s = bs.(d) in
      acc := (!acc * b) + posmod (idx.(d) / max 1 s) b
    done;
    !acc

(* Number of distinct [bank_disp] values: bank factors are positive
   (the bank count and its divisors). *)
let bank_count = function
  | Cyclic { banks; _ } -> banks
  | Blocked bs -> Array.fold_left (fun acc (b, _) -> acc * b) 1 bs

(* Can a run of [p] flat-consecutive words always land on distinct bank
   tuples? Sufficient per-dimension criterion, last dimension first:
   either the whole run fits in the last dimension's banks (needs
   banks | dim so the run's phase never matters), or the run covers whole
   rows (needs a bank per column) and the row count recurses outward. *)
let rec flat_served rev_spec p =
  p <= 1
  ||
  match rev_spec with
  | [] -> false
  | (n, b, s) :: rest ->
    s = 1
    && ((p <= b && n mod b = 0) || (n > 0 && p mod n = 0 && b >= n && flat_served rest (p / n)))

type serve = Served | Unserved of conflict option

let mk_conflict la lb ia ib bank =
  Unserved
    (Some
       {
         k_lane_a = la;
         k_lane_b = lb;
         k_index_a = Array.to_list ia;
         k_index_b = Array.to_list ib;
         k_bank = bank;
       })

(* Search the vectors of a grid pattern for the first conflicting lane
   pair: same bank, and either a write or two different words. [bank]
   maps an index tuple into [0, banks). The index is stepped along the
   flattened iterations, each window keeps its lanes' indices, and
   [stamp.(k)] / [first.(k)] name the first lane of the window that took
   bank [k]. Returns (first lane, lane, their index tuples).

   Callers pass block-one schemes only, under which a bank collision and
   word equality survive shifting every lane by the same index vector;
   so one period of windows ({!Word_ids.window_limit}) holds the first
   conflict if any window has one. *)
let grid_search ~write ~par ~base ~coeffs ~trips ~banks ~bank =
  let n = Array.length trips and ndims = Array.length base in
  let total = Array.fold_left ( * ) 1 trips in
  let limit = Word_ids.window_limit ~trips ~par in
  let x = Array.make n 0 and idx = Array.copy base in
  let step i delta =
    for d = 0 to ndims - 1 do
      idx.(d) <- idx.(d) + (delta * coeffs.(d).(i))
    done
  in
  let lanes = Array.make (min par total * ndims) 0 in
  let lane_idx l = Array.sub lanes (l * ndims) ndims in
  let same_word l =
    let rec go d = d = ndims || (lanes.((l * ndims) + d) = idx.(d) && go (d + 1)) in
    go 0
  in
  let stamp = Array.make banks (-1) and first = Array.make banks 0 in
  let res = ref None and lo = ref 0 in
  while !res = None && !lo < limit do
    let hi = min limit (!lo + par) in
    let it = ref !lo in
    while !res = None && !it < hi do
      let l = !it - !lo and k = bank idx in
      Array.blit idx 0 lanes (l * ndims) ndims;
      if stamp.(k) <> !lo then begin
        stamp.(k) <- !lo;
        first.(k) <- l
      end
      else if write || not (same_word first.(k)) then
        res := Some (first.(k), l, lane_idx first.(k), Array.copy idx)
      (* else the same word, read: broadcast *);
      Word_ids.advance ~trips x step;
      incr it
    done;
    lo := hi
  done;
  !res

(* Does [scheme] serve the lanes of [v]? [Unserved (Some k)] is a proven
   conflict; [Unserved None] is a conservative failure. *)
let serves ~dims ~strides scheme (v : vec) : serve =
  let disp = bank_disp ~strides scheme in
  match v.v_pattern with
  | P_broadcast ->
    if not v.v_write then Served else mk_conflict 0 1 v.v_base v.v_base (disp v.v_base)
  | P_flat -> (
    match scheme with
    | Cyclic { banks; block } ->
      if block <> 1 then
        (* adjacent words share a bank: lanes 0 and 1 collide *)
        mk_conflict 0 1 (decompose dims 0) (decompose dims 1) (disp (decompose dims 0))
      else if banks >= v.v_eff then Served
      else mk_conflict 0 banks (decompose dims 0) (decompose dims banks) 0
    | Blocked bs ->
      let spec =
        List.rev (List.mapi (fun d n -> (n, fst bs.(d), snd bs.(d))) (Array.to_list dims))
      in
      if flat_served spec v.v_eff then Served
      else begin
        (* witness from the first run: absolute addresses, any block *)
        let words = Array.fold_left ( * ) 1 dims in
        let tbl = Hashtbl.create 32 in
        let res = ref None in
        let l = ref 0 in
        while !res = None && !l < min v.v_eff words do
          let idx = decompose dims !l in
          let k =
            Array.to_list
              (Array.mapi (fun d x -> posmod (x / max 1 (snd bs.(d))) (fst bs.(d))) idx)
          in
          (match Hashtbl.find_opt tbl k with
          | Some (l0, idx0) -> res := Some (mk_conflict l0 !l idx0 idx (disp idx0))
          | None -> Hashtbl.add tbl k (!l, idx));
          incr l
        done;
        match !res with Some c -> c | None -> Unserved None
      end)
  | P_linear deltas -> (
    match scheme with
    | Cyclic { banks; block } ->
      let c = flat_of strides deltas in
      if c = 0 then
        (* every lane addresses the same word *)
        if v.v_write then mk_conflict 0 1 v.v_base v.v_base (disp v.v_base) else Served
      else if c mod block <> 0 then Unserved None
      else begin
        let m = banks / Intmath.gcd (abs (c / block)) banks in
        if m >= v.v_eff then Served
        else
          let ib = Array.mapi (fun d x -> x + (m * deltas.(d))) v.v_base in
          mk_conflict 0 m v.v_base ib (disp v.v_base)
      end
    | Blocked bs ->
      let usable =
        Array.for_all Fun.id (Array.mapi (fun d (_, s) -> deltas.(d) mod s = 0) bs)
      in
      let period =
        Array.to_list
          (Array.mapi
             (fun d (b, s) ->
               let dl = deltas.(d) in
               if dl = 0 || dl mod s <> 0 then 1 else b / Intmath.gcd (abs (dl / s)) b)
             bs)
        |> List.fold_left Intmath.lcm 1
      in
      if period >= v.v_eff then Served
      else if usable then
        let ib = Array.mapi (fun d x -> x + (period * deltas.(d))) v.v_base in
        mk_conflict 0 period v.v_base ib (disp v.v_base)
      else Unserved None)
  | P_grid { coeffs; trips } ->
    (* With block = 1 the bank is linear in the index modulo the bank
       count, so which lanes of a vector collide does not depend on the
       base the outer iterators add. *)
    let blocks_one =
      match scheme with
      | Cyclic { block; _ } -> block = 1
      | Blocked bs -> Array.for_all (fun (_, s) -> s = 1) bs
    in
    if not blocks_one then Unserved None
    else (
      match
        grid_search ~write:v.v_write ~par:v.v_par ~base:v.v_base ~coeffs ~trips
          ~banks:(bank_count scheme) ~bank:disp
      with
      | None -> Served
      | Some (la, lb, ia, ib) -> mk_conflict la lb ia ib (disp ia))

(* Candidate schemes for a memory, cheapest first: flat cyclic, flat
   block-cyclic at the linear accesses' flat strides, then per-dimension
   factorizations of the bank count crossed with per-dimension blocks. *)
let candidates ~ndims ~strides ~banks vecs =
  let take n l = List.filteri (fun i _ -> i < n) l in
  let lin =
    List.filter_map (fun v -> match v.v_pattern with P_linear d -> Some d | _ -> None) vecs
  in
  let flat_blocks =
    List.map (fun d -> abs (flat_of strides d)) lin
    |> List.filter (fun c -> c > 1 && c <= 65536)
    |> List.sort_uniq compare |> take 4
  in
  let dim_blocks d =
    1
    :: (List.filter_map
          (fun ds ->
            let x = abs ds.(d) in
            if x > 1 && x <= 4096 then Some x else None)
          lin
       |> List.sort_uniq compare |> take 2)
  in
  let cyclics =
    Cyclic { banks; block = 1 } :: List.map (fun c -> Cyclic { banks; block = c }) flat_blocks
  in
  let rec factor k b =
    if k = 0 then if b = 1 then [ [] ] else []
    else
      List.concat_map
        (fun d -> List.map (fun rest -> d :: rest) (factor (k - 1) (b / d)))
        (Intmath.divisors b)
  in
  let rec cart = function
    | [] -> [ [] ]
    | xs :: rest ->
      let r = cart rest in
      List.concat_map (fun x -> List.map (fun t -> x :: t) r) xs
  in
  let blocked =
    if ndims = 0 || banks <= 0 then []
    else
      factor ndims banks
      |> List.concat_map (fun f ->
             cart (List.init ndims dim_blocks)
             |> List.map (fun ss -> Blocked (Array.of_list (List.map2 (fun b s -> (b, s)) f ss))))
  in
  take 256 (cyclics @ blocked)

(* Assign a bank status to every classified access of one memory: find one
   scheme serving all vectorized accesses, or fall back to the canonical
   cyclic scheme for per-access verdicts and witnesses. *)
let solve_mem (m : Ir.mem) entries =
  let dims = Array.of_list m.Ir.mem_dims in
  let strides = strides_of dims in
  let banks = max 1 m.Ir.mem_banks in
  let vecs = List.filter_map (function i, C_vec v -> Some (i, v) | _ -> None) entries in
  let rest =
    List.filter_map
      (function
        | i, C_scalar -> Some (i, Bank_scalar)
        | i, C_opaque r -> Some (i, Bank_unknown r)
        | _, C_vec _ -> None)
      entries
  in
  if vecs = [] then (None, rest)
  else begin
    let cands = candidates ~ndims:(Array.length dims) ~strides ~banks (List.map snd vecs) in
    let all_served s =
      List.for_all
        (fun (_, v) -> match serves ~dims ~strides s v with Served -> true | Unserved _ -> false)
        vecs
    in
    match List.find_opt all_served cands with
    | Some s ->
      let str = scheme_to_string s in
      (Some str, rest @ List.map (fun (i, _) -> (i, Bank_proved str)) vecs)
    | None ->
      let canon = Cyclic { banks; block = 1 } in
      let statuses =
        List.map
          (fun (i, v) ->
            match serves ~dims ~strides canon v with
            | Served -> (i, Bank_proved (scheme_to_string canon))
            | Unserved (Some k) -> (i, Bank_conflict k)
            | Unserved None -> (i, Bank_unknown "no conflict-free banking scheme found"))
          vecs
      in
      (None, rest @ statuses)
  end

(* ------------------------------------------------------------------ *)
(* Whole-design analysis                                               *)
(* ------------------------------------------------------------------ *)

(* The report, and the affine engine's access facts it was checked from
   in traversal order (the symbolic gate's probes read both). *)
let analyze_with_accesses (d : Ir.design) : report * AE.access array =
  let ie = IE.analyze d in
  let ae = AE.analyze d in
  let ia = Array.of_list ie.IE.accesses in
  let aa = Array.of_list ae.AE.accesses in
  assert (Array.length ia = Array.length aa);
  let n = Array.length ia in
  (* First pass: bounds and banking classification. *)
  let partial = Array.make n None in
  let by_mem : (int, (int * classified) list ref) Hashtbl.t = Hashtbl.create 16 in
  let classify_for i (m : Ir.mem) cls =
    let r =
      match Hashtbl.find_opt by_mem m.Ir.mem_id with
      | Some r -> r
      | None ->
        let r = ref [] in
        Hashtbl.add by_mem m.Ir.mem_id r;
        r
    in
    r := (i, cls) :: !r
  in
  for i = 0 to n - 1 do
    let iacc = ia.(i) and aacc = aa.(i) in
    let m = iacc.IE.acc_mem in
    let ranges = scope_ranges aacc.AE.acc_scope in
    let write = iacc.IE.acc_write in
    let par = iacc.IE.acc_par in
    let kind, afl, bounds, cls =
      match (iacc.IE.acc_addr, aacc.AE.acc_addr) with
      | IE.Word ivs, AE.Word avs ->
        let cls =
          if m.Ir.mem_kind = Ir.Bram then
            classify_word ~ranges m ~counters:aacc.AE.acc_counters ~par ~write avs
          else C_scalar
        in
        (Word, avs, check_word_bounds ~ranges m ivs avs, cls)
      | IE.Stream, AE.Stream ->
        let cls = if m.Ir.mem_kind = Ir.Bram then classify_stream m ~par ~write else C_scalar in
        (Stream, [], Bounds_proved, cls)
      | IE.Tile { offsets = ivs; tile }, AE.Tile { offsets = avs; _ } ->
        (Tile, avs, check_tile_bounds ~ranges m ~tile ivs avs, C_scalar)
      | _ -> assert false (* both engines walk the same graph *)
    in
    classify_for i m cls;
    partial.(i) <-
      Some
        {
          ai_path = iacc.IE.acc_path;
          ai_write = write;
          ai_par = par;
          ai_kind = kind;
          ai_affine = afl;
          ai_bounds = bounds;
          ai_banks = Bank_scalar;
        }
  done;
  (* Second pass: per-memory banking proofs. *)
  let schemes = Hashtbl.create 16 in
  let statuses = Hashtbl.create 16 in
  List.iter
    (fun (m : Ir.mem) ->
      match Hashtbl.find_opt by_mem m.Ir.mem_id with
      | None -> ()
      | Some entries ->
        let scheme, sts = solve_mem m (List.rev !entries) in
        Hashtbl.replace schemes m.Ir.mem_id scheme;
        List.iter (fun (i, st) -> Hashtbl.replace statuses i st) sts)
    d.Ir.d_mems;
  let infos =
    Array.mapi
      (fun i p ->
        let p = Option.get p in
        match Hashtbl.find_opt statuses i with Some st -> { p with ai_banks = st } | None -> p)
      partial
  in
  (* Liveness facts. *)
  let required = Liveness.required d in
  let spurious_ids = List.map (fun (m : Ir.mem) -> m.Ir.mem_id) (Liveness.spurious d) in
  let mems =
    List.map
      (fun (m : Ir.mem) ->
        let accs = ref [] in
        for i = n - 1 downto 0 do
          if ia.(i).IE.acc_mem.Ir.mem_id = m.Ir.mem_id then accs := infos.(i) :: !accs
        done;
        {
          mi_mem = m;
          mi_accesses = !accs;
          mi_scheme = Option.join (Hashtbl.find_opt schemes m.Ir.mem_id);
          mi_double_required = Hashtbl.mem required m.Ir.mem_id;
          mi_crossing = Hashtbl.find_opt required m.Ir.mem_id;
          mi_spurious_double = List.mem m.Ir.mem_id spurious_ids;
        })
      d.Ir.d_mems
  in
  ({ r_design = d.Ir.d_name; r_mems = mems; r_rounds = max ie.IE.rounds ae.AE.rounds }, aa)

let analyze d = fst (analyze_with_accesses d)

(* One-slot per-domain cache so the three lint passes (and repeated DSE
   pruning probes) share a single analysis of the same design value.
   Domain-local, hence safe under the parallel DSE runner. *)
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
(* Summaries and diagnostics                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_accesses : int;
  s_bounds_proved : int;
  s_bounds_refuted : int;
  s_bounds_unknown : int;
  s_banks_proved : int;  (* proved or trivially scalar *)
  s_banks_conflict : int;
  s_banks_unknown : int;
  s_double_required : int;
  s_double_missing : int;
  s_double_spurious : int;
}

let summarize (r : report) =
  let acc = ref 0
  and bp = ref 0
  and br = ref 0
  and bu = ref 0
  and kp = ref 0
  and kc = ref 0
  and ku = ref 0
  and dr = ref 0
  and dm = ref 0
  and ds = ref 0 in
  List.iter
    (fun mi ->
      if mi.mi_double_required then begin
        incr dr;
        if not mi.mi_mem.Ir.mem_double then incr dm
      end;
      if mi.mi_spurious_double then incr ds;
      List.iter
        (fun a ->
          incr acc;
          (match a.ai_bounds with
          | Bounds_proved -> incr bp
          | Bounds_refuted _ -> incr br
          | Bounds_unknown _ -> incr bu);
          match a.ai_banks with
          | Bank_scalar | Bank_proved _ -> incr kp
          | Bank_conflict _ -> incr kc
          | Bank_unknown _ -> incr ku)
        mi.mi_accesses)
    r.r_mems;
  {
    s_accesses = !acc;
    s_bounds_proved = !bp;
    s_bounds_refuted = !br;
    s_bounds_unknown = !bu;
    s_banks_proved = !kp;
    s_banks_conflict = !kc;
    s_banks_unknown = !ku;
    s_double_required = !dr;
    s_double_missing = !dm;
    s_double_spurious = !ds;
  }

(* No proven violation (unknowns are allowed; they are not errors). *)
let clean r =
  let s = summarize r in
  s.s_bounds_refuted = 0 && s.s_banks_conflict = 0

let idx_str l = String.concat ";" (List.map string_of_int l)

(* L009: proven out-of-bounds accesses. *)
let oob_diags (r : report) =
  List.concat_map
    (fun mi ->
      List.filter_map
        (fun a ->
          match a.ai_bounds with
          | Bounds_refuted w ->
            Some
              (Diag.makef ~path:a.ai_path ~mem:mi.mi_mem.Ir.mem_name ~code:"L009"
                 ~severity:Diag.Error "out-of-bounds access on %s: %s" mi.mi_mem.Ir.mem_name
                 w.w_desc)
          | Bounds_proved | Bounds_unknown _ -> None)
        mi.mi_accesses)
    r.r_mems

(* L010: proven same-cycle bank conflicts. *)
let conflict_diags (r : report) =
  List.concat_map
    (fun mi ->
      List.filter_map
        (fun a ->
          match a.ai_banks with
          | Bank_conflict k ->
            Some
              (Diag.makef ~path:a.ai_path ~mem:mi.mi_mem.Ir.mem_name ~code:"L010"
                 ~severity:Diag.Error
                 "bank conflict on %s: lanes %d and %d both hit bank %d of %d (indices [%s] and [%s])"
                 mi.mi_mem.Ir.mem_name k.k_lane_a k.k_lane_b k.k_bank
                 (max 1 mi.mi_mem.Ir.mem_banks) (idx_str k.k_index_a) (idx_str k.k_index_b))
          | Bank_scalar | Bank_proved _ | Bank_unknown _ -> None)
        mi.mi_accesses)
    r.r_mems

(* L011: double buffers no stage crossing requires. *)
let buffer_diags (r : report) =
  List.filter_map
    (fun mi ->
      if mi.mi_spurious_double then
        Some
          (Diag.makef ~mem:mi.mi_mem.Ir.mem_name ~code:"L011" ~severity:Diag.Warning
             "buffer %s is double-buffered but no value crosses a pipelined stage boundary; single buffering halves its BRAM"
             mi.mi_mem.Ir.mem_name)
      else None)
    r.r_mems

let diags r = List.sort Diag.compare (oob_diags r @ conflict_diags r @ buffer_diags r)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let kind_str = function
  | Ir.Offchip -> "offchip"
  | Ir.Bram -> "bram"
  | Ir.Reg -> "reg"
  | Ir.Queue -> "queue"

let access_kind_str = function Word -> "word" | Stream -> "stream" | Tile -> "tile"

let bounds_str = function
  | Bounds_proved -> "in bounds"
  | Bounds_refuted w -> "OUT OF BOUNDS: " ^ w.w_desc
  | Bounds_unknown r -> "bounds unknown: " ^ r

let banks_str = function
  | Bank_scalar -> "scalar"
  | Bank_proved s -> "banks ok: " ^ s
  | Bank_conflict k ->
    Printf.sprintf "BANK CONFLICT: lanes %d/%d on bank %d ([%s] vs [%s])" k.k_lane_a k.k_lane_b
      k.k_bank (idx_str k.k_index_a) (idx_str k.k_index_b)
  | Bank_unknown r -> "banks unknown: " ^ r

let render_text (r : report) =
  let b = Buffer.create 1024 in
  let s = summarize r in
  Buffer.add_string b
    (Printf.sprintf "design %s: abstract interpretation converged in %d round(s)\n" r.r_design
       r.r_rounds);
  List.iter
    (fun mi ->
      let m = mi.mi_mem in
      Buffer.add_string b
        (Printf.sprintf "%s %s[%s] banks=%d%s%s%s\n" (kind_str m.Ir.mem_kind) m.Ir.mem_name
           (String.concat "x" (List.map string_of_int m.Ir.mem_dims))
           m.Ir.mem_banks
           (if m.Ir.mem_double then " double" else "")
           (match mi.mi_scheme with Some sc -> " scheme=" ^ sc | None -> "")
           (if mi.mi_double_required && not m.Ir.mem_double then " MISSING DOUBLE BUFFER"
            else if mi.mi_spurious_double then " spurious double buffer"
            else ""));
      List.iter
        (fun a ->
          Buffer.add_string b
            (Printf.sprintf "  %s %s @ %s par=%d%s: %s; %s\n"
               (if a.ai_write then "store" else "load")
               (access_kind_str a.ai_kind)
               (String.concat "/" a.ai_path) a.ai_par
               (match a.ai_affine with
               | [] -> ""
               | l -> " [" ^ String.concat " | " (List.map Affine.to_string l) ^ "]")
               (bounds_str a.ai_bounds) (banks_str a.ai_banks)))
        mi.mi_accesses)
    r.r_mems;
  Buffer.add_string b
    (Printf.sprintf
       "summary: %d access(es); bounds %d proved / %d refuted / %d unknown; banking %d ok / %d conflicts / %d unknown; double buffers %d required / %d missing / %d spurious\n"
       s.s_accesses s.s_bounds_proved s.s_bounds_refuted s.s_bounds_unknown s.s_banks_proved
       s.s_banks_conflict s.s_banks_unknown s.s_double_required s.s_double_missing
       s.s_double_spurious);
  Buffer.contents b

let render_json (r : report) =
  let b = Buffer.create 1024 in
  let str s = "\"" ^ Emit.json_escape s ^ "\"" in
  (* JSON array elements; [idx_str]'s ';' is for the text reports only. *)
  let idx l = String.concat "," (List.map string_of_int l) in
  let s = summarize r in
  Buffer.add_string b
    (Printf.sprintf "{\"design\":%s,\"rounds\":%d,\"summary\":{" (str r.r_design) r.r_rounds);
  Buffer.add_string b
    (Printf.sprintf
       "\"accesses\":%d,\"bounds_proved\":%d,\"bounds_refuted\":%d,\"bounds_unknown\":%d,\"banks_ok\":%d,\"bank_conflicts\":%d,\"banks_unknown\":%d,\"double_required\":%d,\"double_missing\":%d,\"double_spurious\":%d},"
       s.s_accesses s.s_bounds_proved s.s_bounds_refuted s.s_bounds_unknown s.s_banks_proved
       s.s_banks_conflict s.s_banks_unknown s.s_double_required s.s_double_missing
       s.s_double_spurious);
  Buffer.add_string b "\"mems\":[";
  List.iteri
    (fun i mi ->
      if i > 0 then Buffer.add_char b ',';
      let m = mi.mi_mem in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"kind\":%s,\"dims\":[%s],\"banks\":%d,\"double\":%b,\"double_required\":%b,\"spurious_double\":%b,"
           (str m.Ir.mem_name) (str (kind_str m.Ir.mem_kind))
           (String.concat "," (List.map string_of_int m.Ir.mem_dims))
           m.Ir.mem_banks m.Ir.mem_double mi.mi_double_required mi.mi_spurious_double);
      (match mi.mi_scheme with
      | Some sc -> Buffer.add_string b (Printf.sprintf "\"scheme\":%s," (str sc))
      | None -> ());
      Buffer.add_string b "\"accesses\":[";
      List.iteri
        (fun j a ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{\"path\":[%s],\"write\":%b,\"kind\":%s,\"par\":%d,\"address\":[%s],"
               (String.concat "," (List.map str a.ai_path))
               a.ai_write
               (str (access_kind_str a.ai_kind))
               a.ai_par
               (String.concat "," (List.map (fun av -> str (Affine.to_string av)) a.ai_affine)));
          (match a.ai_bounds with
          | Bounds_proved -> Buffer.add_string b "\"bounds\":{\"status\":\"proved\"},"
          | Bounds_refuted w ->
            Buffer.add_string b
              (Printf.sprintf
                 "\"bounds\":{\"status\":\"refuted\",\"dim\":%d,\"value\":%d,\"range\":[%d,%d],\"iters\":{%s},\"detail\":%s},"
                 w.w_dim w.w_value w.w_lo w.w_hi
                 (String.concat ","
                    (List.map (fun (nm, v) -> Printf.sprintf "%s:%d" (str nm) v) w.w_iters))
                 (str w.w_desc))
          | Bounds_unknown reason ->
            Buffer.add_string b
              (Printf.sprintf "\"bounds\":{\"status\":\"unknown\",\"reason\":%s}," (str reason)));
          match a.ai_banks with
          | Bank_scalar -> Buffer.add_string b "\"banking\":{\"status\":\"scalar\"}}"
          | Bank_proved sc ->
            Buffer.add_string b
              (Printf.sprintf "\"banking\":{\"status\":\"proved\",\"scheme\":%s}}" (str sc))
          | Bank_conflict k ->
            Buffer.add_string b
              (Printf.sprintf
                 "\"banking\":{\"status\":\"conflict\",\"lane_a\":%d,\"lane_b\":%d,\"index_a\":[%s],\"index_b\":[%s],\"bank\":%d}}"
                 k.k_lane_a k.k_lane_b (idx k.k_index_a) (idx k.k_index_b) k.k_bank)
          | Bank_unknown reason ->
            Buffer.add_string b
              (Printf.sprintf "\"banking\":{\"status\":\"unknown\",\"reason\":%s}}" (str reason)))
        mi.mi_accesses;
      Buffer.add_string b "]}")
    r.r_mems;
  Buffer.add_string b "]}";
  Buffer.contents b
