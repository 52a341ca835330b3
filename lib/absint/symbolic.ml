(* Parametric abstract interpretation: symbolic refutation predicates.

   The concrete passes (Absint bounds/banking, Dependence pipelining)
   prove or refute one *elaborated* design at a time, so a cold sweep
   pays generate+analyze for every sampled point even though every point
   of one app shares a graph skeleton and differs only in the numbers a
   binding pins. This module lifts the checks' failure modes to the
   *parameter vector* once per skeleton:

   - values are affine expressions with exact rational coefficients over
     the named design parameters ({!Expr});
   - each check the concrete passes perform becomes a {!check}: a list of
     refutation clauses, conjunctions of linear inequalities /
     divisibility atoms whose truth implies the concrete pass refutes
     with the same diagnostic code;
   - {!Predicate} compiles the systems once and then decides a fresh
     binding in well under a microsecond, without elaborating the
     design: [Refuted] points skip generation entirely, and every other
     point is [Unknown] and takes the full pipeline.

   The gate refutes; it never proves a point legal. Each refutation
   clause reproduces the concrete checker's own decision, so it is
   exact, whereas a legality claim would also have to vouch for the
   checks with no closed form (banking's scheme search, parameter-shaped
   loop nests) and could rest only on the probe set.

   Derivation is empirical-but-validated rather than re-implemented: a
   handful of *probe* designs (concrete points of the same skeleton) are
   elaborated and run through the very same {!Engine}/{!Absint}/
   {!Dependence} code the per-point pipeline uses, numeric slots (counter
   bounds, address constants, memory extents, par factors, tile sizes)
   are fitted as exact affine functions of the parameters by rational
   Gaussian elimination validated against every probe, and the closed
   forms of the checks' failure modes are rebuilt over those
   expressions. Anything that does not fit the affine model —
   data-dependent addresses, banking's scheme search,
   parameter-dependent loop nests — is never guessed at: refutation
   clauses are only emitted where the concrete checker's decision is
   reproduced exactly, and a demotion pass strikes any clause a probe
   contradicts. Soundness is pinned end-to-end by the differential
   oracle in test/test_symbolic.ml. *)

module Ir = Dhdl_ir.Ir
module Traverse = Dhdl_ir.Traverse
module Emit = Dhdl_util.Emit

module AE = Absint.AE

(* ------------------------------------------------------------------ *)
(* Exact rationals.  Coefficients stay tiny (design parameters are small
   ints and pivots are normalized), so native ints never overflow. *)

module Q = struct
  type t = { num : int; den : int }  (* den > 0, reduced *)

  let rec gcd a b = if b = 0 then a else gcd b (a mod b)

  let make num den =
    if den = 0 then invalid_arg "Q.make: zero denominator";
    let s = if den < 0 then -1 else 1 in
    let num = s * num and den = s * den in
    let g = max 1 (abs (gcd num den)) in
    { num = num / g; den = den / g }

  let zero = { num = 0; den = 1 }
  let one = { num = 1; den = 1 }
  let of_int n = { num = n; den = 1 }
  let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
  let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
  let mul a b = make (a.num * b.num) (a.den * b.den)
  let div a b = if b.num = 0 then invalid_arg "Q.div: by zero" else make (a.num * b.den) (a.den * b.num)
  let is_zero a = a.num = 0
  let equal a b = a.num = b.num && a.den = b.den
  let leq a b = a.num * b.den <= b.num * a.den
  let to_int a = if a.den = 1 then Some a.num else None

  let to_string a =
    if a.den = 1 then string_of_int a.num else Printf.sprintf "%d/%d" a.num a.den
end

(* ------------------------------------------------------------------ *)
(* Affine expressions over named design parameters.                     *)

module Expr = struct
  type t = { c0 : Q.t; terms : (string * Q.t) list }  (* terms sorted, no zeros *)

  let norm terms =
    List.sort (fun (a, _) (b, _) -> String.compare a b) terms
    |> List.filter (fun (_, c) -> not (Q.is_zero c))

  let const q = { c0 = q; terms = [] }
  let of_int n = const (Q.of_int n)
  let zero = of_int 0
  let one = of_int 1
  let var name = { c0 = Q.zero; terms = [ (name, Q.one) ] }

  let map2 f a b =
    let rec go xs ys =
      match (xs, ys) with
      | [], [] -> []
      | (n, c) :: xs', [] -> (n, f c Q.zero) :: go xs' []
      | [], (n, c) :: ys' -> (n, f Q.zero c) :: go [] ys'
      | (n1, c1) :: xs', (n2, c2) :: ys' ->
        let k = String.compare n1 n2 in
        if k = 0 then (n1, f c1 c2) :: go xs' ys'
        else if k < 0 then (n1, f c1 Q.zero) :: go xs' ys
        else (n2, f Q.zero c2) :: go xs ys'
    in
    norm (go a b)

  let add a b = { c0 = Q.add a.c0 b.c0; terms = map2 Q.add a.terms b.terms }
  let sub a b = { c0 = Q.sub a.c0 b.c0; terms = map2 Q.sub a.terms b.terms }

  let scale q e =
    if Q.is_zero q then zero
    else { c0 = Q.mul q e.c0; terms = norm (List.map (fun (n, c) -> (n, Q.mul q c)) e.terms) }

  let equal a b =
    Q.equal a.c0 b.c0
    && List.length a.terms = List.length b.terms
    && List.for_all2 (fun (n1, c1) (n2, c2) -> String.equal n1 n2 && Q.equal c1 c2) a.terms b.terms

  let eval e bindings =
    let rec go acc = function
      | [] -> Some acc
      | (n, c) :: rest -> (
        match List.assoc_opt n bindings with
        | None -> None
        | Some v -> go (Q.add acc (Q.mul c (Q.of_int v))) rest)
    in
    go e.c0 e.terms

  let eval_int e bindings = Option.bind (eval e bindings) Q.to_int

  let to_string e =
    let term (n, c) =
      if Q.equal c Q.one then n
      else if Q.equal c (Q.of_int (-1)) then "-" ^ n
      else Q.to_string c ^ "*" ^ n
    in
    match (e.terms, Q.is_zero e.c0) with
    | [], _ -> Q.to_string e.c0
    | ts, true -> String.concat " + " (List.map term ts)
    | ts, false -> String.concat " + " (List.map term ts) ^ " + " ^ Q.to_string e.c0
end

(* ------------------------------------------------------------------ *)
(* Atoms, literals, clauses, checks.                                    *)

type atom =
  | Le of Expr.t * Expr.t  (* lhs <= rhs over the integers *)
  | Divides of Expr.t * Expr.t  (* lhs | rhs; false when lhs = 0 *)

type literal = Pos of atom | Neg of atom

type clause = {
  cl_desc : string;  (* what the clause witnesses, for diagnostics *)
  cl_lits : literal list;  (* conjunction *)
}

type check = {
  ck_code : string;  (* the diagnostic code it mirrors: L009/L013 *)
  ck_site : string;  (* where in the design, human-readable *)
  ck_refutes : clause list;
      (* any clause true ==> the concrete pass emits an error with
         [ck_code]; each clause reproduces one concrete failure mode *)
}

type system = {
  sy_skeleton : string;  (* Design_key skeleton hash of the family *)
  sy_params : string list;  (* parameters that vary across the probes *)
  sy_pinned : (string * int) list;
      (* parameters constant across every probe: routing guards — a
         binding that disagrees is outside this family, hence Unknown *)
  sy_checks : check list;
  sy_probes : int;  (* probe designs the derivation was fitted against *)
  sy_note : string;  (* why derivation yielded no checks; "" when it ran *)
}

type verdict =
  | Legal
      (** Never constructed: the gate refutes only (see the header). The
          constructor stays because the benchmark's replay of the sweep
          pipeline (perfbench/replay.ml) still matches on it; it goes
          with that replay. *)
  | Refuted of { code : string; witness : string }
  | Unknown of string

let atom_to_string = function
  | Le (a, b) -> Expr.to_string a ^ " <= " ^ Expr.to_string b
  | Divides (a, b) -> Expr.to_string a ^ " | " ^ Expr.to_string b

let literal_to_string = function
  | Pos a -> atom_to_string a
  | Neg a -> "!(" ^ atom_to_string a ^ ")"

let conj_to_string = function
  | [] -> "true"
  | lits -> String.concat "  &&  " (List.map literal_to_string lits)

(* ------------------------------------------------------------------ *)
(* The per-point evaluator.                                             *)

(* Systems are compiled once, when they are derived: parameter names
   become positions in a frame built once per binding, and every distinct
   atom gets an index, so one binding decides each atom at most once
   however many clauses share it. An atom is decided in native integers
   (both sides scaled to integer coefficients) when every bound value is
   within [small_limit] and the atom's coefficients keep that exact; any
   other binding is decided in exact rationals, operation for operation as
   [Expr.eval] computes them. The two agree wherever the rationals do not
   overflow, and the fallback reproduces them where they do. *)
module Predicate = struct
  let small_limit = 1 lsl 30

  (* One side of an atom: the source expression's coefficients for the
     rational path, its term positions, and [scale] times it in integers
     ([k0], [ks]) for the integer path. *)
  type side = { c0 : Q.t; qs : Q.t array; pos : int array; k0 : int; ks : int array }

  (* [fast]: with every value within [small_limit], neither the integer
     path nor [Expr.eval]'s rationals can overflow, so the integer path
     answers. Both sides share [scale]. *)
  type catom = { le : bool; lhs : side; rhs : side; scale : int; fast : bool }

  type csystem = {
    sys : system;
    pinned : int array;  (* position, value, position, value, ... *)
    checks : (check * (clause * int array) array) array;
        (* each clause's literals as [atom lsl 1], [lor 1] when negated *)
  }

  type t = {
    names : string array;  (* the space's parameters first, in order *)
    in_order : int;  (* how many leading [names] a point in space order binds *)
    atoms : catom array;
    index : (atom, int) Hashtbl.t;
    systems : csystem array;
  }

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let compile_atom position atom =
    let le, a, b = match atom with Le (a, b) -> (true, a, b) | Divides (a, b) -> (false, a, b) in
    let coefficients (e : Expr.t) = e.Expr.c0 :: List.map snd e.Expr.terms in
    let qs = coefficients a @ coefficients b in
    (* At |value| <= small_limit a side's value is within [bound] (S), and
       every denominator divides [p] (P). [Expr.eval]'s accumulator then
       stays within 2 S P^2, [Q.leq]'s products within S P^2, and the
       scaled integers within S P. *)
    let magnitude (q : Q.t) = Float.abs (float_of_int q.Q.num) /. float_of_int q.Q.den in
    let bound (e : Expr.t) =
      List.fold_left
        (fun acc (_, q) -> acc +. (magnitude q *. float_of_int small_limit))
        (magnitude e.Expr.c0) e.Expr.terms
    in
    let p = List.fold_left (fun acc (q : Q.t) -> acc *. float_of_int q.Q.den) 1.0 qs in
    let fast = 2.0 *. Float.max (bound a) (bound b) *. p *. p < 0x1p60 in
    let lcm l (q : Q.t) = l / gcd l q.Q.den * q.Q.den in
    let scale = if fast then List.fold_left lcm 1 qs else 1 in
    let scaled (q : Q.t) = q.Q.num * (scale / q.Q.den) in
    let side (e : Expr.t) =
      {
        c0 = e.Expr.c0;
        qs = Array.of_list (List.map snd e.Expr.terms);
        pos = Array.of_list (List.map (fun (n, _) -> position n) e.Expr.terms);
        k0 = scaled e.Expr.c0;
        ks = Array.of_list (List.map (fun (_, q) -> scaled q) e.Expr.terms);
      }
    in
    { le; lhs = side a; rhs = side b; scale; fast }

  let compile ~params systems =
    let names = ref [] in
    let positions = Hashtbl.create 16 in
    let position n =
      match Hashtbl.find_opt positions n with
      | Some k -> k
      | None ->
        let k = Hashtbl.length positions in
        Hashtbl.add positions n k;
        names := n :: !names;
        k
    in
    List.iter (fun n -> ignore (position n)) params;
    let in_order = Hashtbl.length positions in
    let index = Hashtbl.create 16 in
    let atoms = ref [] in
    let atom_index a =
      match Hashtbl.find_opt index a with
      | Some k -> k
      | None ->
        let k = Hashtbl.length index in
        Hashtbl.add index a k;
        atoms := compile_atom position a :: !atoms;
        k
    in
    let literal = function Pos a -> atom_index a lsl 1 | Neg a -> (atom_index a lsl 1) lor 1 in
    let clause cl = (cl, Array.of_list (List.map literal cl.cl_lits)) in
    let csystem sys =
      {
        sys;
        pinned = Array.of_list (List.concat_map (fun (n, v) -> [ position n; v ]) sys.sy_pinned);
        checks =
          Array.of_list
            (List.map (fun ck -> (ck, Array.of_list (List.map clause ck.ck_refutes))) sys.sy_checks);
      }
    in
    let systems = Array.of_list (List.map csystem systems) in
    {
      names = Array.of_list (List.rev !names);
      in_order;
      atoms = Array.of_list (List.rev !atoms);
      index;
      systems;
    }

  (* One binding over a compiled [t]: each position's value and whether
     the binding has it (the first occurrence of a repeated name, as
     [List.assoc_opt] reads it), and each atom's decision once made:
     '\000' not yet, '\001' true, '\002' false, '\003' undecided. The
     helpers below are top-level recursive functions rather than local
     loops so that deciding a point allocates only the frame. *)
  type frame = { values : int array; present : Bytes.t; mutable small : bool; memo : Bytes.t }

  let set fr k v =
    fr.values.(k) <- v;
    Bytes.unsafe_set fr.present k '\001';
    if v > small_limit || v < -small_limit then fr.small <- false

  (* A sampled point binds the space's parameters in order. *)
  let rec ordered t fr k = function
    | [] -> k = t.in_order
    | (name, v) :: rest ->
      k < t.in_order
      && String.equal name t.names.(k)
      && begin
           set fr k v;
           ordered t fr (k + 1) rest
         end

  let frame t binding =
    let n = Array.length t.names in
    let fr =
      { values = Array.make n 0; present = Bytes.make n '\000'; small = true;
        memo = Bytes.make (Array.length t.atoms) '\000' }
    in
    if not (ordered t fr 0 binding) then begin
      Bytes.fill fr.present 0 n '\000';
      fr.small <- true;
      Array.iteri
        (fun k name -> match List.assoc_opt name binding with Some v -> set fr k v | None -> ())
        t.names
    end;
    fr

  let has fr p = Bytes.unsafe_get fr.present p <> '\000'

  let rec all_present fr pos k = k = Array.length pos || (has fr pos.(k) && all_present fr pos (k + 1))

  let present fr s = all_present fr s.pos 0

  (* The integer path: [scale] times the side's value. *)
  let scaled fr s =
    let acc = ref s.k0 in
    for k = 0 to Array.length s.pos - 1 do
      acc := !acc + (s.ks.(k) * fr.values.(s.pos.(k)))
    done;
    !acc

  (* The rational path, as [Expr.eval] computes it. *)
  let rec exact fr s acc k =
    if k = Array.length s.pos then Some acc
    else if not (has fr s.pos.(k)) then None
    else exact fr s (Q.add acc (Q.mul s.qs.(k) (Q.of_int fr.values.(s.pos.(k))))) (k + 1)

  let exact_int fr s = Option.bind (exact fr s s.c0 0) Q.to_int

  let yes = '\001'
  let no = '\002'
  let undecided = '\003'
  let of_bool b = if b then yes else no

  (* [lhs <= rhs]; [lhs | rhs], false when [lhs] is 0. An atom over a
     missing parameter, or a divisibility side that is not an integer, is
     undecided — except that a zero divisor decides [Divides] alone. *)
  let decide_atom a fr =
    if a.fast && fr.small then
      if a.le then
        if present fr a.lhs && present fr a.rhs then of_bool (scaled fr a.lhs <= scaled fr a.rhs)
        else undecided
      else if not (present fr a.lhs) then undecided
      else
        let d = scaled fr a.lhs in
        if d mod a.scale <> 0 then undecided
        else if d = 0 then no
        else if not (present fr a.rhs) then undecided
        else
          let e = scaled fr a.rhs in
          if e mod a.scale <> 0 then undecided else of_bool ((e / a.scale) mod (d / a.scale) = 0)
    else if a.le then
      match (exact fr a.lhs a.lhs.c0 0, exact fr a.rhs a.rhs.c0 0) with
      | Some x, Some y -> of_bool (Q.leq x y)
      | _ -> undecided
    else
      match (exact_int fr a.lhs, exact_int fr a.rhs) with
      | Some 0, _ -> no
      | Some dv, Some ev -> of_bool (ev mod dv = 0)
      | _ -> undecided

  let atom t fr k =
    match Bytes.unsafe_get fr.memo k with
    | '\000' ->
      let d = decide_atom t.atoms.(k) fr in
      Bytes.unsafe_set fr.memo k d;
      d
    | d -> d

  let rec fires t fr lits k =
    k = Array.length lits
    || (atom t fr (lits.(k) lsr 1) = (if lits.(k) land 1 = 0 then yes else no)
       && fires t fr lits (k + 1))

  let rec applies fr pinned k =
    k = Array.length pinned
    || (has fr pinned.(k) && fr.values.(pinned.(k)) = pinned.(k + 1) && applies fr pinned (k + 2))

  (* What a compiled [t] says of one binding: no system's pinned
     parameters match it, several do, or the one that does has no clause
     that fires, or the first clause that fires (checks, then clauses, in
     order). *)
  type outcome =
    | Uncovered
    | Contested
    | Quiet of system
    | Fires of check * clause

  (* The first clause that fires from clause [j] of check [i] on. *)
  let rec first_firing t fr cs i j =
    if i = Array.length cs.checks then Quiet cs.sys
    else
      let ck, clauses = cs.checks.(i) in
      if j = Array.length clauses then first_firing t fr cs (i + 1) 0
      else
        let cl, lits = clauses.(j) in
        if fires t fr lits 0 then Fires (ck, cl) else first_firing t fr cs i (j + 1)

  (* [found] is the one system so far whose pinned parameters match, or -1. *)
  let rec route t fr found i =
    if i = Array.length t.systems then
      if found < 0 then Uncovered else first_firing t fr t.systems.(found) 0 0
    else if applies fr t.systems.(i).pinned 0 then
      if found < 0 then route t fr i (i + 1) else Contested
    else route t fr found (i + 1)

  let decide t binding = route t (frame t binding) (-1) 0

  let refutes t binding = match decide t binding with Fires _ -> true | _ -> false

  let unknown_quiet sys =
    Unknown (if sys.sy_note = "" then "no refutation clause fires" else sys.sy_note)

  let refuted ck cl =
    let witness = Printf.sprintf "%s: %s [%s]" ck.ck_site cl.cl_desc (conj_to_string cl.cl_lits) in
    Refuted { code = ck.ck_code; witness }

  (* A literal of [t]'s systems over a frame of [t]: [None] when its atom
     is undecided. *)
  let literal t fr l =
    let a, holds = match l with Pos a -> (a, yes) | Neg a -> (a, no) in
    match atom t fr (Hashtbl.find t.index a) with
    | d when d = undecided -> None
    | d -> Some (d = holds)

  let conj_holds t fr lits = List.for_all (fun l -> literal t fr l = Some true) lits

  (* Decide one binding against one system: the first refutation clause
     that evaluates to true wins (the concrete pass provably errors with
     that code); otherwise the binding is [Unknown]. Atoms that cannot be
     evaluated (missing parameter, non-integral divisor) make their clause
     not fire — toward [Unknown], never toward an unsound verdict. *)
  let eval sys bindings =
    match decide (compile ~params:[] [ sys ]) bindings with
    | Uncovered | Contested -> Unknown "binding disagrees with the family's pinned parameters"
    | Quiet sys -> unknown_quiet sys
    | Fires (ck, cl) -> refuted ck cl
end

(* ------------------------------------------------------------------ *)
(* Fitting: exact affine regression over the probe set.                 *)

(* Solve the (usually overdetermined) system [c0 + sum coef_i * p_i = v]
   for each observation by Gauss-Jordan elimination over Q; free
   unknowns go to zero and the candidate is validated against *every*
   observation, so a successful fit is exact on the whole probe set —
   never a least-squares approximation. *)
let fit ~params (obs : ((string * int) list * int) list) : Expr.t option =
  match obs with
  | [] -> None
  | _ ->
    let params = Array.of_list params in
    let k = Array.length params in
    let n = k + 1 in
    let rows =
      Array.of_list
        (List.filter_map
           (fun (b, v) ->
             let arr = Array.make (n + 1) Q.zero in
             arr.(0) <- Q.one;
             arr.(n) <- Q.of_int v;
             let ok = ref true in
             Array.iteri
               (fun i p ->
                 match List.assoc_opt p b with
                 | Some pv -> arr.(i + 1) <- Q.of_int pv
                 | None -> ok := false)
               params;
             if !ok then Some arr else None)
           obs)
    in
    let m = Array.length rows in
    if m = 0 then None
    else begin
      let piv = Array.make n (-1) in
      let row = ref 0 in
      for col = 0 to n - 1 do
        if !row < m then begin
          let p = ref (-1) in
          for r = !row to m - 1 do
            if !p = -1 && not (Q.is_zero rows.(r).(col)) then p := r
          done;
          if !p >= 0 then begin
            let tmp = rows.(!row) in
            rows.(!row) <- rows.(!p);
            rows.(!p) <- tmp;
            let inv = rows.(!row).(col) in
            for c = col to n do
              rows.(!row).(c) <- Q.div rows.(!row).(c) inv
            done;
            for r = 0 to m - 1 do
              if r <> !row && not (Q.is_zero rows.(r).(col)) then begin
                let f = rows.(r).(col) in
                for c = col to n do
                  rows.(r).(c) <- Q.sub rows.(r).(c) (Q.mul f rows.(!row).(c))
                done
              end
            done;
            piv.(col) <- !row;
            incr row
          end
        end
      done;
      let sol = Array.init n (fun c -> match piv.(c) with -1 -> Q.zero | r -> rows.(r).(n)) in
      let expr =
        {
          Expr.c0 = sol.(0);
          terms =
            Array.to_list (Array.mapi (fun i p -> (p, sol.(i + 1))) params)
            |> List.filter (fun (_, c) -> not (Q.is_zero c))
            |> List.sort (fun (a, _) (b, _) -> String.compare a b);
        }
      in
      if
        List.for_all
          (fun (b, v) ->
            match Expr.eval expr b with Some q -> Q.equal q (Q.of_int v) | None -> false)
          obs
      then Some expr
      else None
    end

(* ------------------------------------------------------------------ *)
(* Probe elaboration.                                                   *)

type probe = {
  pb_bindings : (string * int) list;
  pb_accs : AE.access array;  (* affine-engine access facts, traversal order *)
  pb_pipes : (string list * Ir.loop_info * Ir.stmt list) list;
  pb_l009 : bool;  (* concrete bounds refutation present *)
  pb_l013 : bool;  (* concrete pipelining refutation present *)
}

let collect_pipes (d : Ir.design) =
  let out = ref [] in
  let rec go path ctrl =
    let path = path @ [ Ir.ctrl_label ctrl ] in
    (match ctrl with
    | Ir.Pipe { loop; body; _ } -> out := (path, loop, body) :: !out
    | Ir.Loop _ | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> ());
    List.iter (go path) (Traverse.children ctrl)
  in
  go [] d.Ir.d_top;
  List.rev !out

let elaborate_probe (bindings, design) =
  let ar, accs = Absint.analyze_with_accesses design in
  let asum = Absint.summarize ar in
  let dr = Dependence.analyze design in
  let dsum = Dependence.summarize dr in
  {
    pb_bindings = bindings;
    pb_accs = accs;
    pb_pipes = collect_pipes design;
    pb_l009 = asum.Absint.s_bounds_refuted > 0;
    pb_l013 = dsum.Dependence.s_refuted > 0;
  }

(* ------------------------------------------------------------------ *)
(* Derivation.                                                          *)

(* Space.par_candidates caps par factors at 64, so scanning the par axis
   a little past that decides every binding a space can produce while
   bounding derivation cost on large iteration grids. *)
let par_scan_cap = 96

let degenerate ~skeleton ~params ~probes note =
  {
    sy_skeleton = skeleton;
    sy_params = params;
    sy_pinned = [];
    sy_checks = [];
    sy_probes = probes;
    sy_note = note;
  }

exception Give_up of string

let site_of_access (a : AE.access) =
  Printf.sprintf "%s %s @ %s"
    (if a.AE.acc_write then "store" else "load")
    a.AE.acc_mem.Ir.mem_name
    (String.concat "/" a.AE.acc_path)

(* Innermost binding wins, matching the engine's counter scoping. *)
let scope_counter scope name =
  List.fold_left
    (fun acc (c : Ir.counter) -> if String.equal c.Ir.ctr_name name then Some c else acc)
    None scope

(* --- L009, word accesses -------------------------------------------- *)

(* One BRAM word access, one dimension. The concrete checker refutes via
   the affine extreme over the box of in-scope counter ranges (which is
   reachable: counters are independent and step through every value), so
   with the form's counter coefficients constant across probes and each
   used counter a unit-step range with fitted start/stop, the min/max
   index are themselves affine in the parameters:

     max = c0 + sum_{coef>0} coef*(stop-1) + sum_{coef<0} coef*start
     min = c0 + sum_{coef>0} coef*start  + sum_{coef<0} coef*(stop-1)

   Refuted: the margin provably overruns AND every used counter provably
   iterates (start+1 <= stop), making the extreme reachable — the
   concrete checker reports an empty range unknown, not refuted. *)
let derive_word_dim ~varying ~probes ~acc_idx ~dim =
  let forms =
    List.map
      (fun pb ->
        match pb.pb_accs.(acc_idx).AE.acc_addr with
        | AE.Word fs -> Affine.exact (List.nth fs dim)
        | _ -> None)
      probes
  in
  match forms with
  | Some (_, terms0) :: _ when List.for_all (function Some (_, t) -> t = terms0 | None -> false) forms
    ->
    let c0s = List.map (function Some (c0, _) -> c0 | None -> assert false) forms in
    let obs_of vals = List.map2 (fun pb v -> (pb.pb_bindings, v)) probes vals in
    let counters_of pb name = scope_counter pb.pb_accs.(acc_idx).AE.acc_scope name in
    let fit_slot vals =
      match fit ~params:varying (obs_of vals) with
      | Some e -> e
      | None -> raise (Give_up "slot not affine in the parameters")
    in
    (try
       let c0_e = fit_slot c0s in
       let n_e =
         fit_slot
           (List.map (fun pb -> List.nth pb.pb_accs.(acc_idx).AE.acc_mem.Ir.mem_dims dim) probes)
       in
       let ranges =
         List.map
           (fun (name, coef) ->
             let cs =
               List.map
                 (fun pb ->
                   match counters_of pb name with
                   | Some c when c.Ir.ctr_step = 1 -> c
                   | Some _ -> raise (Give_up "non-unit counter step")
                   | None -> raise (Give_up "counter not in scope"))
                 probes
             in
             let start_e = fit_slot (List.map (fun (c : Ir.counter) -> c.Ir.ctr_start) cs) in
             let stop_e = fit_slot (List.map (fun (c : Ir.counter) -> c.Ir.ctr_stop) cs) in
             (coef, start_e, stop_e))
           terms0
       in
       let hi_sum, lo_sum =
         List.fold_left
           (fun (hi, lo) (coef, start_e, stop_e) ->
             let q = Q.of_int coef in
             let stop1 = Expr.sub stop_e Expr.one in
             if coef > 0 then
               (Expr.add hi (Expr.scale q stop1), Expr.add lo (Expr.scale q start_e))
             else (Expr.add hi (Expr.scale q start_e), Expr.add lo (Expr.scale q stop1)))
           (c0_e, c0_e) ranges
       in
       let margin_hi = Expr.sub (Expr.sub n_e Expr.one) hi_sum in
       let margin_lo = lo_sum in
       let guards =
         List.map
           (fun (_, start_e, stop_e) -> Pos (Le (Expr.add start_e Expr.one, stop_e)))
           ranges
       in
       [
         {
           cl_desc = Printf.sprintf "max index exceeds extent in dim %d" dim;
           cl_lits = guards @ [ Pos (Le (margin_hi, Expr.of_int (-1))) ];
         };
         {
           cl_desc = Printf.sprintf "min index below zero in dim %d" dim;
           cl_lits = guards @ [ Pos (Le (margin_lo, Expr.of_int (-1))) ];
         };
       ]
     with Give_up _ -> [])
  | _ -> []

let derive_word_check ~varying ~probes acc_idx =
  let a0 = (List.hd probes).pb_accs.(acc_idx) in
  match a0.AE.acc_addr with
  | AE.Word forms when a0.AE.acc_mem.Ir.mem_kind = Ir.Bram ->
    Some
      {
        ck_code = "L009";
        ck_site = site_of_access a0;
        ck_refutes =
          List.concat
            (List.mapi (fun dim _ -> derive_word_dim ~varying ~probes ~acc_idx ~dim) forms);
      }
  | _ -> None

(* --- L009, tile transfers ------------------------------------------- *)

(* The off-chip side of a tile transfer. The concrete checker tests, per
   dimension and in this order: (1) tile size positive, (2) tile divides
   the off-chip extent, (3) every offset within [0, extent - tile]. (1)
   and (2) are direct atoms over the fitted tile/extent expressions —
   and because the concrete checker tests them *before* the offsets,
   their refutation clauses are sound unconditionally. *)
let derive_tile_dim ~varying ~probes ~acc_idx ~dim =
  let obs_of vals = List.map2 (fun pb v -> (pb.pb_bindings, v)) probes vals in
  let tile_vals =
    List.map
      (fun pb ->
        match pb.pb_accs.(acc_idx).AE.acc_addr with
        | AE.Tile { tile; _ } -> List.nth tile dim
        | _ -> raise (Give_up "addr shape drift"))
      probes
  in
  let extent_vals =
    List.map (fun pb -> List.nth pb.pb_accs.(acc_idx).AE.acc_mem.Ir.mem_dims dim) probes
  in
  match (fit ~params:varying (obs_of tile_vals), fit ~params:varying (obs_of extent_vals)) with
  | Some t_e, Some ext_e ->
    [
      {
        cl_desc = Printf.sprintf "tile size non-positive in dim %d" dim;
        cl_lits = [ Pos (Le (t_e, Expr.zero)) ];
      };
      {
        cl_desc = Printf.sprintf "tile size does not divide the off-chip extent in dim %d" dim;
        cl_lits = [ Pos (Le (Expr.one, t_e)); Neg (Divides (t_e, ext_e)) ];
      };
    ]
  | _ -> []

let derive_tile_check ~varying ~probes acc_idx =
  let a0 = (List.hd probes).pb_accs.(acc_idx) in
  match a0.AE.acc_addr with
  | AE.Tile { tile; _ } when a0.AE.acc_mem.Ir.mem_kind = Ir.Offchip ->
    Some
      {
        ck_code = "L009";
        ck_site = site_of_access a0;
        ck_refutes =
          List.concat
            (List.mapi
               (fun dim _ ->
                 try derive_tile_dim ~varying ~probes ~acc_idx ~dim with Give_up _ -> [])
               tile);
      }
  | _ -> None

(* --- L013, pipelined vectorization ---------------------------------- *)

let dform_equal (a : Dependence.dform) (b : Dependence.dform) =
  match (a, b) with
  | ( Dependence.Aff { c0 = xc; terms = xt; base = xb },
      Dependence.Aff { c0 = yc; terms = yt; base = yb } ) -> xc = yc && xt = yt && xb = yb
  | Dependence.Unk _, Dependence.Unk _ -> true
  | _ -> false

let body_acc_equal (a : Dependence.body_access) (b : Dependence.body_access) =
  a.Dependence.ba_stmt = b.Dependence.ba_stmt
  && a.Dependence.ba_write = b.Dependence.ba_write
  && String.equal a.Dependence.ba_mem.Ir.mem_name b.Dependence.ba_mem.Ir.mem_name
  && List.length a.Dependence.ba_forms = List.length b.Dependence.ba_forms
  && List.for_all2 dform_equal a.Dependence.ba_forms b.Dependence.ba_forms

(* One Pipe. With the counter nest constant across probes (the common
   case: pipes iterate problem-sized grids; parameters set par) and the
   body's abstract addresses probe-invariant, the only free coordinate is
   the par factor itself. Scan it: every par in [2, cap] is decided by
   the concrete checker's own collision search, and conflicting runs
   become interval refutation clauses. A run that reaches the full
   iteration count extends to infinity — at par >= trip the window
   covers every iteration, so the verdict is par-independent from there
   up. *)
let derive_pipe_check ~varying ~probes pipe_idx =
  let datum pb =
    let _, loop, body = List.nth pb.pb_pipes pipe_idx in
    let counters, accs = Dependence.body_accesses loop body in
    (loop, counters, accs)
  in
  let loop0, counters0, accs0 = datum (List.hd probes) in
  let constant =
    List.for_all
      (fun pb ->
        let _, counters, accs = datum pb in
        counters = counters0
        && List.length accs = List.length accs0
        && List.for_all2 body_acc_equal accs accs0)
      probes
  in
  let has_write = List.exists (fun a -> a.Dependence.ba_write) accs0 in
  if not (constant && has_write) then None
  else begin
    let trips = Array.map Ir.counter_trip counters0 in
    let total = Array.fold_left ( * ) 1 trips in
    if total <= 1 || total > Dependence.grid_cap then
      (* The concrete checker declines these grids for every par; there
         is nothing to refute and nothing it would ever error on. *)
      None
    else
      let pars =
        List.map
          (fun pb ->
            let _, l, _ = List.nth pb.pb_pipes pipe_idx in
            max 1 l.Ir.lp_par)
          probes
      in
      let obs = List.map2 (fun pb v -> (pb.pb_bindings, v)) probes pars in
      match fit ~params:varying obs with
      | None -> None
      | Some p_e ->
        (* [Dependence.lane_conflict] is the concrete checker's own
           search, so the scan cannot drift from what it predicts; its
           pairs intern their words once for the whole scan. *)
        let lanes = Dependence.pipe_lanes ~counters:counters0 ~trips accs0 in
        let cap = min total par_scan_cap in
        let bad = ref [] in
        for p = cap downto 2 do
          if Dependence.lane_conflict lanes ~par:p <> None then bad := p :: !bad
        done;
        let site =
          Printf.sprintf "pipe %s (grid %d iterations)" loop0.Ir.lp_label total
        in
        let rec runs = function
          | [] -> []
          | p :: rest ->
            let rec extend hi = function
              | q :: qs when q = hi + 1 -> extend q qs
              | qs -> (hi, qs)
            in
            let hi, rest = extend p rest in
            (p, hi) :: runs rest
        in
        let refutes =
          List.map
            (fun (lo, hi) ->
              if hi = total then
                {
                  cl_desc =
                    Printf.sprintf "par >= %d issues conflicting lanes in the same cycle" lo;
                  cl_lits = [ Pos (Le (Expr.of_int lo, p_e)) ];
                }
              else
                {
                  cl_desc =
                    Printf.sprintf "par in [%d, %d] issues conflicting lanes in the same cycle"
                      lo hi;
                  cl_lits =
                    [ Pos (Le (Expr.of_int lo, p_e)); Pos (Le (p_e, Expr.of_int hi)) ];
                })
            (runs !bad)
        in
        Some { ck_code = "L013"; ck_site = site; ck_refutes = refutes }
  end

(* --- assembling the system ------------------------------------------ *)

let shape_consistent probes =
  let p0 = List.hd probes in
  let n = Array.length p0.pb_accs in
  let np = List.length p0.pb_pipes in
  List.for_all
    (fun pb ->
      Array.length pb.pb_accs = n
      && List.length pb.pb_pipes = np
      && Array.for_all2
           (fun (a : AE.access) (b : AE.access) ->
             String.equal a.AE.acc_mem.Ir.mem_name b.AE.acc_mem.Ir.mem_name
             && a.AE.acc_write = b.AE.acc_write
             &&
             match (a.AE.acc_addr, b.AE.acc_addr) with
             | AE.Word x, AE.Word y -> List.length x = List.length y
             | AE.Stream, AE.Stream -> true
             | AE.Tile { tile = xt; _ }, AE.Tile { tile = yt; _ } ->
               List.length xt = List.length yt
             | _ -> false)
           p0.pb_accs pb.pb_accs)
    probes

let concrete_has pb = function
  | "L009" -> pb.pb_l009
  | "L013" -> pb.pb_l013
  | _ -> false

(* Constant folding. A literal decided over the empty binding is one no
   binding can change: a clause holding one decided false never fires and
   goes, a literal decided true adds nothing to its clause and goes. No
   binding's verdict, nor the clause that refutes it, changes; gated
   points evaluate, and readers see, only the atoms a binding can move. *)
let fold_clause ~decided cl =
  if List.exists (fun l -> decided l = Some false) cl.cl_lits then None
  else Some { cl with cl_lits = List.filter (fun l -> decided l = None) cl.cl_lits }

let derive_exn ~skeleton ~params ~probes:raw_probes =
  let probes = List.map elaborate_probe raw_probes in
  let nprobes = List.length probes in
  if not (shape_consistent probes) then
    degenerate ~skeleton ~params ~probes:nprobes
      "probe designs disagree on access shape despite a shared skeleton"
  else begin
    let value_sets =
      List.map
        (fun p ->
          let vs =
            List.sort_uniq compare
              (List.filter_map (fun pb -> List.assoc_opt p pb.pb_bindings) probes)
          in
          (p, vs))
        params
    in
    let pinned =
      List.filter_map (fun (p, vs) -> match vs with [ v ] -> Some (p, v) | _ -> None) value_sets
    in
    let varying = List.filter (fun p -> not (List.mem_assoc p pinned)) params in
    let p0 = List.hd probes in
    let naccs = Array.length p0.pb_accs in
    let npipes = List.length p0.pb_pipes in
    let word_checks =
      List.filter_map (fun i -> derive_word_check ~varying ~probes i) (List.init naccs Fun.id)
    in
    let tile_checks =
      List.filter_map (fun i -> derive_tile_check ~varying ~probes i) (List.init naccs Fun.id)
    in
    let pipe_checks =
      List.filter_map (fun i -> derive_pipe_check ~varying ~probes i) (List.init npipes Fun.id)
    in
    (* Demotion: strike every refutation clause some probe contradicts
       (the clause fired but the concrete pass reported no such error).
       A strike means a fitted slot lied outside its validation set; the
       surviving clauses remain sound because each fired-and-confirmed
       or never-fired clause is exactly the concrete checker's own
       decision. *)
    let candidates = word_checks @ tile_checks @ pipe_checks in
    let compiled =
      Predicate.compile ~params
        [ { (degenerate ~skeleton ~params ~probes:nprobes "") with sy_checks = candidates } ]
    in
    let frames = List.map (fun pb -> (pb, Predicate.frame compiled pb.pb_bindings)) probes in
    let confirmed ck cl =
      List.for_all
        (fun (pb, fr) ->
          (not (Predicate.conj_holds compiled fr cl.cl_lits)) || concrete_has pb ck.ck_code)
        frames
    in
    let decided = Predicate.literal compiled (Predicate.frame compiled []) in
    let checks =
      List.filter_map
        (fun ck ->
          let kept = List.filter (confirmed ck) ck.ck_refutes in
          match List.filter_map (fold_clause ~decided) kept with
          | [] -> None
          | refutes -> Some { ck with ck_refutes = refutes })
        candidates
    in
    {
      sy_skeleton = skeleton;
      sy_params = varying;
      sy_pinned = pinned;
      sy_checks = checks;
      sy_probes = nprobes;
      sy_note = "";
    }
  end

let derive ~skeleton ~params ~probes =
  match probes with
  | [] -> degenerate ~skeleton ~params ~probes:0 "no probe designs survived generation"
  | _ -> (
    try derive_exn ~skeleton ~params ~probes
    with e ->
      degenerate ~skeleton ~params ~probes:(List.length probes)
        ("derivation failed: " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Rendering.                                                           *)

let short_hash s = if String.length s > 12 then String.sub s 0 12 else s

let render_text sys =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "symbolic system %s: %d probe(s), params [%s]%s\n" (short_hash sys.sy_skeleton)
       sys.sy_probes
       (String.concat ", " sys.sy_params)
       (match sys.sy_pinned with
       | [] -> ""
       | ps ->
         ", pinned "
         ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) ps)));
  if sys.sy_note <> "" then Buffer.add_string b (Printf.sprintf "  note: %s\n" sys.sy_note);
  List.iter
    (fun ck ->
      Buffer.add_string b (Printf.sprintf "  [%s] %s\n" ck.ck_code ck.ck_site);
      List.iter
        (fun cl ->
          Buffer.add_string b
            (Printf.sprintf "    refuted iff %s  -- %s\n" (conj_to_string cl.cl_lits) cl.cl_desc))
        ck.ck_refutes)
    sys.sy_checks;
  Buffer.contents b

let render_json sys =
  let str s = "\"" ^ Emit.json_escape s ^ "\"" in
  let clause cl =
    Printf.sprintf "{\"desc\":%s,\"when\":%s}" (str cl.cl_desc) (str (conj_to_string cl.cl_lits))
  in
  let check ck =
    Printf.sprintf "{\"code\":%s,\"site\":%s,\"refutes\":[%s]}" (str ck.ck_code) (str ck.ck_site)
      (String.concat "," (List.map clause ck.ck_refutes))
  in
  Printf.sprintf "{\"skeleton\":%s,\"probes\":%d,\"params\":[%s],\"pinned\":{%s},\"checks\":[%s]}"
    (str sys.sy_skeleton) sys.sy_probes
    (String.concat "," (List.map str sys.sy_params))
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (str k) v) sys.sy_pinned))
    (String.concat "," (List.map check sys.sy_checks))
