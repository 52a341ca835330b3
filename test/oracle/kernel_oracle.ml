(* Differential oracle for the analysis kernels.

   [Brute_dep] and [Brute_bank] are the exhaustive enumerations the
   kernels replaced, kept verbatim: the distance scan over the whole box,
   and the lane-collision searches that build a fresh hash table per
   vector. The checks below run both sides and compare full results —
   distance and witness delta, lane pair, iteration vectors, index and
   bank — over the registry apps' designs and over generated systems
   (QCheck, with shrinking). test_deps and test_absint run them with a
   short budget; `bench kernel-oracle` runs the same properties long. *)

module Ir = Dhdl_ir.Ir
module Traverse = Dhdl_ir.Traverse
module Dependence = Dhdl_absint.Dependence
module Absint = Dhdl_absint.Absint
module Word_ids = Dhdl_absint.Word_ids

(* ------------------------------------------------------------------ *)
(* The exhaustive kernels                                              *)
(* ------------------------------------------------------------------ *)

module Brute_dep = struct
  open Dependence

  (* Minimal positive flattened distance [delta . w] over the distance box
     [prod [-(t_i - 1), t_i - 1]] subject to every per-dimension constraint
     [sum coefs_i * delta_i = rhs]. Any in-box [delta] admits a concrete
     iteration pair (x, x + delta), so a solution is a real dependence. *)
  let solve_delta ~trips constraints =
    let n = Array.length trips in
    if Array.exists (fun t -> t <= 0) trips then Solved None
    else begin
      let size = Array.fold_left (fun acc t -> acc * ((2 * t) - 1)) 1 trips in
      if size > delta_cap then Too_large
      else begin
        let w = weights trips in
        let delta = Array.make n 0 in
        let best = ref None in
        let rec go i =
          if i = n then begin
            let flat = ref 0 in
            Array.iteri (fun j dj -> flat := !flat + (dj * w.(j))) delta;
            if
              !flat > 0
              && List.for_all
                   (fun (coefs, rhs) ->
                     let s = ref 0 in
                     Array.iteri (fun j dj -> s := !s + (coefs.(j) * dj)) delta;
                     !s = rhs)
                   constraints
            then
              match !best with
              | Some (f0, _) when f0 <= !flat -> ()
              | _ -> best := Some (!flat, Array.copy delta)
          end
          else
            for dj = -(trips.(i) - 1) to trips.(i) - 1 do
              delta.(i) <- dj;
              go (i + 1)
            done
        in
        go 0;
        Solved !best
      end
    end

  (* Search one access pair for two distinct lanes of one vector touching
     the same word. Vector [v] issues the [par] consecutive flattened
     iterations starting at [v * par]; the pair's invariant address parts
     are equal (checked by the caller), so comparing the affine parts is
     exact. A hit is a concrete scheduling violation: two lanes issued in
     the same cycle with a dependence between them. *)
  let pair_conflict ~counters ~trips ~par src dst =
    let total = Array.fold_left ( * ) 1 trips in
    if total <= 1 || par <= 1 || total > grid_cap then None
    else begin
      let nvec = (total + par - 1) / par in
      let res = ref None in
      let v = ref 0 in
      while !res = None && !v < nvec do
        let tbl = Hashtbl.create 16 in
        let l = ref 0 in
        while !l < par && (!v * par) + !l < total do
          let x = Word_ids.decompose trips ((!v * par) + !l) in
          let idx = eval_dims src.ba_forms x in
          if not (Hashtbl.mem tbl idx) then Hashtbl.add tbl idx (!l, x);
          incr l
        done;
        let l' = ref 0 in
        while !res = None && !l' < par && (!v * par) + !l' < total do
          let x' = Word_ids.decompose trips ((!v * par) + !l') in
          let idx' = eval_dims dst.ba_forms x' in
          (match Hashtbl.find_opt tbl idx' with
          | Some (l0, x0) when l0 <> !l' ->
            res :=
              Some
                ( l0,
                  !l',
                  iter_values counters x0,
                  iter_values counters x',
                  idx' )
          | _ -> ());
          incr l'
        done;
        incr v
      done;
      !res
    end
end

module Brute_bank = struct
  open Absint

  (* Translation-invariant bank key of an index tuple, valid for comparing
     lanes of one vector (which share the unknown base): requires block = 1
     so the floor is linear in the index. *)
  let bank_key ~strides scheme idx =
    match scheme with
    | Cyclic { banks; _ } -> [ posmod (flat_of strides idx) banks ]
    | Blocked bs -> Array.to_list (Array.mapi (fun d x -> posmod x (fst bs.(d))) idx)

  (* Enumerate the vectors of a grid pattern under a block = 1 scheme and
     return the first conflicting lane pair (same bank key, and either a
     write or two different words). *)
  let grid_search ~write ~par ~base ~coeffs ~trips ~key =
    let n = Array.length trips in
    let ndims = Array.length base in
    let total = Array.fold_left ( * ) 1 trips in
    let w = Array.make (max n 1) 1 in
    for i = n - 2 downto 0 do
      w.(i) <- w.(i + 1) * trips.(i + 1)
    done;
    let index_of l =
      Array.init ndims (fun d ->
          let acc = ref base.(d) in
          for i = 0 to n - 1 do
            acc := !acc + (coeffs.(d).(i) * (l / w.(i) mod trips.(i)))
          done;
          !acc)
    in
    let nvec = (total + par - 1) / par in
    let res = ref None in
    let v = ref 0 in
    while !res = None && !v < nvec do
      let tbl = Hashtbl.create 32 in
      let l = ref 0 in
      while !res = None && !l < par && (!v * par) + !l < total do
        let idx = index_of ((!v * par) + !l) in
        let k = key idx in
        (match Hashtbl.find_opt tbl k with
        | Some (l0, idx0) when write || idx0 <> idx -> res := Some (l0, !l, idx0, idx)
        | Some _ -> () (* same word, read: broadcast *)
        | None -> Hashtbl.add tbl k (!l, idx));
        incr l
      done;
      incr v
    done;
    !res
end

(* ------------------------------------------------------------------ *)
(* One comparison per kernel                                           *)
(* ------------------------------------------------------------------ *)

let show_ints a = "[" ^ String.concat ";" (List.map string_of_int (Array.to_list a)) ^ "]"

let show_solve = function
  | Dependence.Too_large -> "too large"
  | Dependence.Solved None -> "none"
  | Dependence.Solved (Some (flat, delta)) ->
    Printf.sprintf "flat %d delta %s" flat (show_ints delta)

(* [None] when the two agree, else both results. *)
let solve_diff ~trips constraints =
  let fresh = Dependence.solve_delta ~trips constraints in
  let brute = Brute_dep.solve_delta ~trips constraints in
  if fresh = brute then None
  else Some (Printf.sprintf "solve_delta: %s, brute force %s" (show_solve fresh) (show_solve brute))

let show_iters ws = String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) ws)

let show_lanes = function
  | None -> "none"
  | Some (la, lb, ia, ib, idx) ->
    Printf.sprintf "lanes %d/%d at (%s)/(%s) on %s" la lb (show_iters ia) (show_iters ib)
      (show_ints (Array.of_list idx))

(* One lane pair of a Pipe's search at [par]: the shared search restricted
   to that pair against the per-vector hash tables. *)
let lane_diff (ln : Dependence.lanes) (lp : Dependence.lane_pair) ~par =
  let fresh =
    Option.map
      (fun (c : Dependence.conflict) ->
        ( c.Dependence.lc_lane_a,
          c.Dependence.lc_lane_b,
          c.Dependence.lc_iters_a,
          c.Dependence.lc_iters_b,
          c.Dependence.lc_index ))
      (Dependence.lane_conflict { ln with Dependence.ln_pairs = [ lp ] } ~par)
  in
  let brute =
    Brute_dep.pair_conflict ~counters:ln.Dependence.ln_counters ~trips:ln.Dependence.ln_trips ~par
      lp.Dependence.lp_src lp.Dependence.lp_dst
  in
  if fresh = brute then None
  else
    Some
      (Printf.sprintf "par %d, s%d -> s%d: lane search %s, brute force %s" par
         lp.Dependence.lp_src.Dependence.ba_stmt lp.Dependence.lp_dst.Dependence.ba_stmt
         (show_lanes fresh) (show_lanes brute))

(* The pars of the symbolic scan, in its order: [top] down to 2. *)
let scan_pars top = List.init (max 0 (top - 1)) (fun i -> top - i)

(* Every pair at every par, pars outermost, so the shared stamp arrays
   are exercised across pairs and pars. *)
let lanes_diffs ~pars (ln : Dependence.lanes) =
  List.concat_map
    (fun par -> List.filter_map (fun lp -> lane_diff ln lp ~par) ln.Dependence.ln_pairs)
    pars

let grid_diff ~write ~par ~base ~coeffs ~trips ~strides scheme =
  let bank = Absint.bank_disp ~strides scheme in
  let fresh =
    Absint.grid_search ~write ~par ~base ~coeffs ~trips ~banks:(Absint.bank_count scheme) ~bank
  in
  let brute =
    Brute_bank.grid_search ~write ~par ~base ~coeffs ~trips
      ~key:(Brute_bank.bank_key ~strides scheme)
  in
  let with_bank = Option.map (fun (la, lb, ia, ib) -> (la, lb, ia, ib, bank ia, bank ib)) in
  if with_bank fresh = with_bank brute then None
  else
    let show = function
      | None -> "none"
      | Some (la, lb, ia, ib, ka, kb) ->
        Printf.sprintf "lanes %d/%d on %s/%s banks %d/%d" la lb (show_ints ia) (show_ints ib) ka kb
    in
    Some
      (Printf.sprintf "grid_search par %d under %s: %s, brute force %s" par
         (Absint.scheme_to_string scheme) (show (with_bank fresh)) (show (with_bank brute)))

(* ------------------------------------------------------------------ *)
(* Designs                                                             *)
(* ------------------------------------------------------------------ *)

(* The registry apps at paper and test sizes: [bindings] seeded points
   per size plus the defaults, labelled for failure messages. *)
let registry_designs ~bindings =
  let module App = Dhdl_apps.App in
  List.concat_map
    (fun (a : App.t) ->
      List.concat_map
        (fun (tag, sizes) ->
          let points =
            a.App.default_params sizes
            :: Dhdl_dse.Space.sample (a.App.space sizes)
                 ~seed:(1500 + Hashtbl.hash (a.App.name, tag))
                 ~max_points:bindings
          in
          List.filter_map
            (fun p ->
              match a.App.generate ~sizes ~params:p with
              | d ->
                let binding =
                  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p)
                in
                Some (Printf.sprintf "%s %s %s" a.App.name tag binding, d)
              | exception _ -> None)
            points)
        [ ("paper", a.App.paper_sizes); ("test", a.App.test_sizes) ])
    Dhdl_apps.Registry.all

(* Work already compared, so a sweep over many bindings checks each
   distinct system, pipe body and vectorized access once. *)
type seen = {
  solves : (int array * (int array * int) list, unit) Hashtbl.t;
  pipes : (Ir.counter array * Dependence.dform list list * int list, unit) Hashtbl.t;
  grids :
    ( bool * int * int array * int array array * int array * int array * Absint.scheme,
      unit )
    Hashtbl.t;
}

let seen () = { solves = Hashtbl.create 64; pipes = Hashtbl.create 64; grids = Hashtbl.create 64 }

let first_time tbl key =
  if Hashtbl.mem tbl key then false
  else begin
    Hashtbl.add tbl key ();
    true
  end

let pipes (d : Ir.design) =
  List.filter_map
    (function Ir.Pipe { loop; body; _ } -> Some (loop, body) | _ -> None)
    (Traverse.all_ctrls d)

(* The symbolic scan's pars 2-96, or a sample of them that keeps the
   pipe's own par: a short test budget. *)
let all_pars (_ : Ir.loop_info) = scan_pars 96
let some_pars (loop : Ir.loop_info) =
  List.sort_uniq compare (loop.Ir.lp_par :: [ 2; 3; 4; 6; 8; 16; 32; 64; 96 ])

(* Dependence kernels over one design: every ordered access pair of every
   Pipe through [solve_delta] (whenever its constraints build), and every
   comparable lane pair at [pars loop]. *)
let dependence_diffs ~pars seen (d : Ir.design) =
  List.concat_map
    (fun ((loop : Ir.loop_info), body) ->
      let counters, accs = Dependence.body_accesses loop body in
      let trips = Array.map Ir.counter_trip counters in
      let n = Array.length trips in
      let solves =
        List.concat_map
          (fun (a : Dependence.body_access) ->
            List.filter_map
              (fun (b : Dependence.body_access) ->
                let rec build acc fas fbs =
                  match (fas, fbs) with
                  | [], [] -> Some (List.rev acc)
                  | fa :: ra, fb :: rb -> (
                    match Dependence.dim_constraint n fa fb with
                    | Ok c -> build (c :: acc) ra rb
                    | Error _ -> None)
                  | _ -> None
                in
                if a.Dependence.ba_mem.Ir.mem_id <> b.Dependence.ba_mem.Ir.mem_id then None
                else
                  match build [] a.Dependence.ba_forms b.Dependence.ba_forms with
                  | Some cs when first_time seen.solves (trips, cs) ->
                    Option.map
                      (fun m -> Printf.sprintf "pipe %s: %s" loop.Ir.lp_label m)
                      (solve_diff ~trips cs)
                  | _ -> None)
              accs)
          accs
      in
      let key =
        ( counters,
          List.map (fun (a : Dependence.body_access) -> a.Dependence.ba_forms) accs,
          List.map (fun (a : Dependence.body_access) -> if a.Dependence.ba_write then 1 else 0) accs
        )
      in
      let lanes =
        if first_time seen.pipes key then
          List.map
            (fun m -> Printf.sprintf "pipe %s: %s" loop.Ir.lp_label m)
            (lanes_diffs ~pars:(pars loop) (Dependence.pipe_lanes ~counters ~trips accs))
        else []
      in
      solves @ lanes)
    (pipes d)

(* Banking kernel over one design: every vectorized grid access of every
   BRAM against every block-one candidate scheme of its memory. *)
let banking_diffs seen (d : Ir.design) =
  let ae = Absint.AE.analyze d in
  let by_mem = Hashtbl.create 8 in
  List.iter
    (fun (a : Absint.AE.access) ->
      let m = a.Absint.AE.acc_mem in
      match a.Absint.AE.acc_addr with
      | Absint.AE.Word avs when m.Ir.mem_kind = Ir.Bram -> (
        match
          Absint.classify_word
            ~ranges:(Absint.scope_ranges a.Absint.AE.acc_scope)
            m ~counters:a.Absint.AE.acc_counters ~par:a.Absint.AE.acc_par
            ~write:a.Absint.AE.acc_write avs
        with
        | Absint.C_vec v ->
          let l = Option.value ~default:[] (Hashtbl.find_opt by_mem m.Ir.mem_id) in
          Hashtbl.replace by_mem m.Ir.mem_id ((m, v) :: l)
        | Absint.C_scalar | Absint.C_opaque _ -> ())
      | _ -> ())
    ae.Absint.AE.accesses;
  Hashtbl.fold
    (fun _ entries acc ->
      let m = fst (List.hd entries) in
      let vecs = List.rev_map snd entries in
      let dims = Array.of_list m.Ir.mem_dims in
      let strides = Absint.strides_of dims in
      let cands =
        Absint.candidates ~ndims:(Array.length dims) ~strides ~banks:(max 1 m.Ir.mem_banks) vecs
      in
      let block_one = function
        | Absint.Cyclic { block; _ } -> block = 1
        | Absint.Blocked bs -> Array.for_all (fun (_, s) -> s = 1) bs
      in
      List.concat_map
        (fun (v : Absint.vec) ->
          match v.Absint.v_pattern with
          | Absint.P_grid { coeffs; trips } ->
            List.filter_map
              (fun s ->
                if
                  block_one s
                  && first_time seen.grids
                       (v.Absint.v_write, v.Absint.v_par, v.Absint.v_base, coeffs, trips, dims, s)
                then
                  Option.map
                    (fun msg -> Printf.sprintf "%s: %s" m.Ir.mem_name msg)
                    (grid_diff ~write:v.Absint.v_write ~par:v.Absint.v_par ~base:v.Absint.v_base
                       ~coeffs ~trips ~strides s)
                else None)
              cands
          | _ -> [])
        vecs
      @ acc)
    by_mem []

(* ------------------------------------------------------------------ *)
(* Generated systems                                                   *)
(* ------------------------------------------------------------------ *)

open QCheck

let small = int_range (-3) 3
let trips_arb hi = list_of_size Gen.(1 -- 3) (int_range 1 hi)
let pad n l = Array.init n (fun i -> match List.nth_opt l i with Some c -> c | None -> 0)

(* Distance systems over 1-3 counters, trips 1-12, coefficients -3..3.
   Small right-hand sides keep solutions plentiful and ties (equal flat
   distances from distinct deltas) common. *)
let system_arb =
  pair (trips_arb 12)
    (list_of_size Gen.(0 -- 3) (pair (list_of_size (Gen.return 3) small) (int_range (-6) 6)))

let prop_solve_delta ~count =
  Test.make ~name:"solve_delta = exhaustive scan" ~count system_arb (fun (trips, cons) ->
      let trips = Array.of_list trips in
      let n = Array.length trips in
      let cons = List.map (fun (cs, rhs) -> (pad (max n 1) cs, rhs)) cons in
      match solve_diff ~trips cons with None -> true | Some m -> Test.fail_report m)

(* Distance boxes the generator above never reaches: one counter of up
   to 65,536 trips or two of up to 181, so the box stays within
   [delta_cap]; coefficients -12..12, 0 among them; right-hand sides up
   to ±5,000. A right-hand side is drawn, or planted: the constraint's
   value at a fixed in-box delta (entries up to ±400, so it stays within
   ±4,800), which keeps systems of two or three constraints solvable. *)
let wide_system_arb =
  let con =
    triple (list_of_size (Gen.return 2) (int_range (-12) 12)) bool (int_range (-5000) 5000)
  in
  triple
    (oneof
       [
         list_of_size (Gen.return 1) (int_range 1 65_536);
         list_of_size (Gen.return 2) (int_range 1 181);
       ])
    (list_of_size (Gen.return 2) (int_range (-400) 400))
    (list_of_size Gen.(0 -- 3) con)

let prop_solve_delta_wide ~count =
  Test.make ~name:"wide boxes: solve_delta = exhaustive scan" ~count wide_system_arb
    (fun (trips, plant, cons) ->
      let trips = Array.of_list trips in
      let n = Array.length trips in
      let plant =
        Array.mapi (fun i p -> max (1 - trips.(i)) (min (trips.(i) - 1) p)) (pad n plant)
      in
      let cons =
        List.map
          (fun (cs, planted, rhs) ->
            let cs = pad (max n 1) cs in
            let at_plant = ref 0 in
            Array.iteri (fun i p -> at_plant := !at_plant + (cs.(i) * p)) plant;
            (cs, if planted then !at_plant else rhs))
          cons
      in
      match solve_diff ~trips cons with None -> true | Some m -> Test.fail_report m)

let counters_of trips =
  Array.mapi
    (fun i t ->
      { Ir.ctr_name = Printf.sprintf "c%d" i; ctr_start = i; ctr_stop = i + (2 * t); ctr_step = 2 })
    trips

let test_mem =
  {
    Ir.mem_id = 0;
    mem_name = "m";
    mem_kind = Ir.Bram;
    mem_ty = Dhdl_ir.Dtype.float32;
    mem_dims = [ 64 ];
    mem_banks = 1;
    mem_double = false;
  }

(* One affine dimension: c0 and per-counter coefficients (the term list
   keeps the analysis' invariant: sorted, no zero coefficients). *)
let dform n (c0, cs) =
  let terms = List.mapi (fun i c -> (i, c)) (Array.to_list (pad n cs)) in
  Dependence.Aff { c0; terms = List.filter (fun (_, c) -> c <> 0) terms; base = [] }

let dim_arb = pair small (list_of_size (Gen.return 3) small)

(* The lane search over [accs] (the first one a write) against the
   per-vector hash tables at every par of [pars], in that order. *)
let lane_case ~trips ~pars accs =
  let accs =
    List.mapi
      (fun i (write, forms) ->
        { Dependence.ba_stmt = i; ba_write = i = 0 || write; ba_mem = test_mem; ba_forms = forms })
      accs
  in
  let ln = Dependence.pipe_lanes ~counters:(counters_of trips) ~trips accs in
  match lanes_diffs ~pars ln with [] -> true | m :: _ -> Test.fail_report m

(* A Pipe body of up to three accesses on one memory (the first a write),
   all with the same arity, trips 1-8 over 1-3 counters. *)
let body_arb =
  let access = pair bool (list_of_size (Gen.return 2) dim_arb) in
  pair (trips_arb 8) (pair (int_range 1 2) (list_of_size Gen.(1 -- 3) access))

let prop_lane_conflict ~count =
  Test.make ~name:"lane_conflict = per-vector hash tables" ~count body_arb
    (fun (trips, (arity, accs)) ->
      let trips = Array.of_list trips in
      let n = Array.length trips in
      let accs =
        List.map
          (fun (write, dims) ->
            (write, List.map (dform n) (List.filteri (fun d _ -> d < arity) dims)))
          accs
      in
      lane_case ~trips ~pars:(scan_pars (min 40 (Array.fold_left ( * ) 1 trips + 1))) accs)

(* Grids whose windows repeat: 2-3 counters of 1-48 trips, the largest
   halved until the grid holds at most 4,096 iterations, at pars 2-96.
   One period of windows is then often far shorter than the grid. *)
let wide_trips_arb = list_of_size Gen.(2 -- 3) (int_range 1 48)
let par_arb = int_range 2 96

let wide_trips trips =
  let t = Array.of_list (List.map (fun x -> max 1 (min 48 x)) trips) in
  while Array.fold_left ( * ) 1 t > 4096 do
    let i = ref 0 in
    Array.iteri (fun j x -> if x > t.(!i) then i := j) t;
    t.(!i) <- t.(!i) / 2
  done;
  t

(* Bodies of up to four accesses over a wide grid. Each access either
   takes the body's shared per-dimension coefficients with a base of its
   own, or coefficients of its own, so its pairs mix equal coefficients
   (one period of windows decides them) with unequal ones (the whole grid
   does). Bases reach -12..12 so collisions can first occur late. *)
let wide_body_arb =
  let dim = pair (int_range (-12) 12) (list_of_size (Gen.return 3) small) in
  let access = triple bool bool (list_of_size (Gen.return 2) dim) in
  quad wide_trips_arb
    (pair (int_range 1 2) (list_of_size (Gen.return 2) (list_of_size (Gen.return 3) small)))
    (list_of_size Gen.(1 -- 4) access)
    (list_of_size Gen.(1 -- 3) par_arb)

let wide_lane_case (trips, (arity, shared), accs, pars) =
  let trips = wide_trips trips in
  let n = Array.length trips in
  let accs =
    List.map
      (fun (write, use_shared, dims) ->
        ( write,
          List.filteri (fun d _ -> d < arity) dims
          |> List.mapi (fun d (c0, own) ->
                 let common = Option.value ~default:[] (List.nth_opt shared d) in
                 dform n (c0, if use_shared then common else own)) ))
      accs
  in
  lane_case ~trips ~pars:(List.map (max 2) pars) accs

let prop_lane_conflict_wide ~count =
  Test.make ~name:"wide grids: lane_conflict = per-vector hash tables" ~count wide_body_arb
    wide_lane_case

(* One grid banking search: [dims] are (base, coefficients, extent) per
   dimension, and the scheme is cyclic over twice the first factor or
   blocked by the factors, block one either way. *)
let grid_case ~trips (dims, (write, par), (cyclic, factors)) =
  (* shrinking steps integers toward 0 and drops list elements whatever
     the generator's range, so re-impose the ranges here *)
  let n = Array.length trips in
  let base = Array.of_list (List.map (fun (b, _, _) -> b) dims) in
  let coeffs = Array.of_list (List.map (fun (_, cs, _) -> pad n cs) dims) in
  let extents = Array.of_list (List.map (fun (_, _, e) -> max 1 e) dims) in
  let strides = Absint.strides_of extents in
  let ndims = Array.length base in
  let factors = Array.map (max 1) (pad 2 factors) in
  let par = max 2 par in
  let scheme =
    if cyclic then Absint.Cyclic { banks = factors.(0) * 2; block = 1 }
    else Absint.Blocked (Array.init ndims (fun d -> (factors.(d), 1)))
  in
  match grid_diff ~write ~par ~base ~coeffs ~trips ~strides scheme with
  | None -> true
  | Some m -> Test.fail_report m

(* Grid banking searches: trips 1-8 over 1-3 counters, 1-2 dimensions,
   a cyclic or per-dimension block-one scheme. *)
let grid_arb =
  quad (trips_arb 8)
    (list_of_size Gen.(1 -- 2) (triple small (list_of_size (Gen.return 3) small) (int_range 1 16)))
    (pair bool (int_range 2 40))
    (pair bool (list_of_size (Gen.return 2) (int_range 1 4)))

let prop_grid_search ~count =
  Test.make ~name:"grid_search = per-vector hash tables" ~count grid_arb
    (fun (trips, dims, lanes, scheme) -> grid_case ~trips:(Array.of_list trips) (dims, lanes, scheme))

(* The same over wide grids at pars 2-96, with up to 32 cyclic banks or
   16 per dimension, so wide vectors can still be conflict-free. *)
let wide_grid_arb =
  quad wide_trips_arb
    (list_of_size Gen.(1 -- 2) (triple small (list_of_size (Gen.return 3) small) (int_range 1 64)))
    (pair bool par_arb)
    (pair bool (list_of_size (Gen.return 2) (int_range 1 16)))

let wide_grid_case (trips, dims, lanes, scheme) =
  grid_case ~trips:(wide_trips trips) (dims, lanes, scheme)

let prop_grid_search_wide ~count =
  Test.make ~name:"wide grids: grid_search = per-vector hash tables" ~count wide_grid_arb
    wide_grid_case

(* Word ids against a table of whole tuples: same tuple, same id, and
   different tuples, different ids. Large coefficients, large bases and
   mixed arities push the numbering onto its hashed path; small ones keep
   it positional. *)
let coef_arb = oneof [ small; int_range (-1_000_000) 1_000_000 ]

let side_arb = list_of_size Gen.(0 -- 3) (pair coef_arb (list_of_size (Gen.return 3) coef_arb))

let sides_of ~trips sides =
  let n = Array.length trips in
  List.map
    (fun dims ->
      {
        Word_ids.base = Array.of_list (List.map fst dims);
        coeffs = Array.of_list (List.map (fun (_, cs) -> pad n cs) dims);
      })
    sides

(* Does [k -> v] agree with what [tbl] already maps [k] to? Records it
   otherwise. *)
let agree tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some v' -> v = v'
  | None ->
    Hashtbl.add tbl k v;
    true

let prop_word_ids ~count =
  Test.make ~name:"word ids number tuples injectively" ~count
    (pair (trips_arb 10) (list_of_size Gen.(1 -- 3) side_arb))
    (fun (trips, sides) ->
      let trips = Array.of_list trips in
      let sides = sides_of ~trips sides in
      let w = Word_ids.intern ~trips sides in
      let total = Array.fold_left ( * ) 1 trips in
      Word_ids.number w total;
      let by_tuple = Hashtbl.create 64 and by_id = Hashtbl.create 64 in
      List.for_all
        (fun i ->
          let s = Word_ids.side w i and ids = Word_ids.ids w i in
          List.for_all
            (fun it ->
              let x = Word_ids.decompose trips it in
              let tuple =
                Array.to_list
                  (Array.mapi
                     (fun d b ->
                       let v = ref b in
                       Array.iteri (fun i xi -> v := !v + (s.Word_ids.coeffs.(d).(i) * xi)) x;
                       !v)
                     s.Word_ids.base)
              in
              let id = ids.(it) in
              id >= 0 && id < Word_ids.count w && agree by_tuple tuple id && agree by_id id tuple)
            (List.init total Fun.id))
        (List.init (List.length sides) Fun.id))

(* A numbering grown in steps to a prefix (as the symbolic scan grows it
   across pars) against one numbered whole: on the prefix, both say the
   same iterations of the same sides touch the same word. Steps are
   thousandths of the grid. *)
let prop_word_ids_prefix ~count =
  Test.make ~name:"word ids: a prefix agrees with the whole grid" ~count
    (triple (trips_arb 10) (list_of_size Gen.(1 -- 3) side_arb)
       (list_of_size Gen.(1 -- 3) (int_range 0 1000)))
    (fun (trips, sides, steps) ->
      let trips = Array.of_list trips in
      let sides = sides_of ~trips sides in
      let total = Array.fold_left ( * ) 1 trips in
      let steps = List.map (fun s -> s * (total + 1) / 1001) steps in
      let whole = Word_ids.intern ~trips sides and prefix = Word_ids.intern ~trips sides in
      Word_ids.number whole total;
      List.iter (Word_ids.number prefix) steps;
      let n = List.fold_left max 0 steps in
      let to_prefix = Hashtbl.create 64 and to_whole = Hashtbl.create 64 in
      List.for_all
        (fun i ->
          let a = Word_ids.ids whole i and b = Word_ids.ids prefix i in
          List.for_all
            (fun it ->
              b.(it) >= 0
              && b.(it) < Word_ids.count prefix
              && agree to_prefix a.(it) b.(it)
              && agree to_whole b.(it) a.(it))
            (List.init n Fun.id))
        (List.init (List.length sides) Fun.id))

let dependence_props ~count =
  [
    prop_solve_delta ~count;
    prop_lane_conflict ~count;
    prop_lane_conflict_wide ~count;
    prop_word_ids ~count;
    prop_word_ids_prefix ~count;
  ]

let banking_props ~count = [ prop_grid_search ~count; prop_grid_search_wide ~count ]
