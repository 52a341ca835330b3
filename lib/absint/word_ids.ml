(* Word ids for the index tuples affine accesses touch over an iteration
   grid.

   {!Dependence}'s pipelining check compares the words of two accesses
   between the lanes of every vector, and the symbolic L013 scan repeats
   that search at every par factor. Numbering each tuple once per access
   pair turns every later comparison into an int compare and lets the
   search key flat stamp arrays by word.

   [intern] sets a numbering up and [number t n] gives the flattened
   iterations [0, n) of every side an id in [0, count t): equal tuples get
   equal ids and distinct tuples distinct ids, across every iteration
   numbered so far. A search reads only the prefix it needs
   ([window_limit]), and the prefix grows on demand when a later search
   needs more. Two numberings keep that contract:

   - {b positional}, when every side has the same arity and the box of
     index values the sides can reach (per dimension, the union of their
     ranges over the whole grid) holds at most [4 * sides * grid] tuples:
     the id is the tuple's mixed-radix position in that box, stepped along
     the walk by a constant per counter, with no table at all;
   - {b hashed} otherwise: tuples (arity included) are interned in an
     open-addressing table, ids in order of first appearance.

   Registry designs always take the positional numbering; the hashed one
   keeps sparse or hostile address maps exact at a bounded table size. *)

module Intmath = Dhdl_util.Intmath

type side = { base : int array; coeffs : int array array }
(* One access: per dimension d, [base.(d) + sum_i coeffs.(d).(i) * x_i]
   at grid point [x], counters outer->inner. *)

(* ------------------------------------------------------------------ *)
(* The iteration grid                                                  *)
(* ------------------------------------------------------------------ *)

(* Advance the grid point [x] to the next flattened iteration (last
   counter fastest), calling [step i delta] for every counter that moves
   by [delta]. *)
let advance ~trips x step =
  let i = ref (Array.length trips - 1) and carry = ref true in
  while !carry && !i >= 0 do
    let xi = x.(!i) + 1 in
    if xi = trips.(!i) then begin
      x.(!i) <- 0;
      step !i (-(xi - 1));
      decr i
    end
    else begin
      x.(!i) <- xi;
      step !i 1;
      carry := false
    end
  done

(* The grid point of flattened iteration [flat]. *)
let decompose trips flat =
  let n = Array.length trips in
  let x = Array.make n 0 in
  let r = ref flat in
  for i = n - 1 downto 0 do
    if trips.(i) > 0 then begin
      x.(i) <- !r mod trips.(i);
      r := !r / trips.(i)
    end
  done;
  x

(* How many flattened iterations a lane search at [par] must read: the
   first [P] windows, [P * par] iterations, or the whole grid if that is
   less. Window [k] issues iterations [k * par, k * par + par). With [w_i]
   the weight of counter [i] (the product of the trips inner to it), a
   form [sum_i c_i * x_i] equals [sum_i g_i * floor(t / w_i)] for
   constants [g_i], so lane [l]'s value relative to lane 0 of window [k]
   depends only on the residues [k * par mod w_i]. A counter whose weight
   [par] divides never steps inside a window, and a counter with one trip
   never steps at all; each other counter's residue repeats every
   [w_i / gcd(w_i, par)] windows. So window [k] repeats window [k mod P]'s
   relative pattern, with [P] the lcm of those periods, and a search whose
   verdict is a function of relative patterns finds its first hit below
   [P] (a partial last window is a prefix of an earlier full one with the
   same phase). The searches this serves are: banking under a block-one
   scheme, and word collisions between two sides with equal [coeffs]. *)
let window_limit ~trips ~par =
  let total = max 0 (Array.fold_left ( * ) 1 trips) and par = max 1 par in
  let windows = Intmath.ceil_div total par in
  (* [p] only grows; once it covers every window the limit is [total] *)
  let rec period i w p =
    if i < 0 || p >= windows then p
    else
      let p =
        if trips.(i) > 1 && w mod par <> 0 then Intmath.lcm p (w / Intmath.gcd w par) else p
      in
      period (i - 1) (w * trips.(i)) p
  in
  let p = period (Array.length trips - 1) 1 1 in
  if p >= windows then total else p * par

(* ------------------------------------------------------------------ *)
(* Numberings                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-dimension union range of the sides over the grid, when it is small
   enough to number positionally. Float bounds guard the int arithmetic:
   every partial sum of a side's form lies inside its range, and ranges
   under 2^52 in magnitude cannot overflow. *)
let box ~trips ~limit sides =
  match sides with
  | [] -> None
  | s0 :: _ ->
    let ndims = Array.length s0.base in
    if List.exists (fun s -> Array.length s.base <> ndims) sides then None
    else begin
      let lo = Array.make ndims infinity and hi = Array.make ndims neg_infinity in
      List.iter
        (fun s ->
          for d = 0 to ndims - 1 do
            let l = ref (float s.base.(d)) and h = ref (float s.base.(d)) in
            Array.iteri
              (fun i t ->
                let c = float s.coeffs.(d).(i) *. float (t - 1) in
                if c > 0. then h := !h +. c else l := !l +. c)
              trips;
            lo.(d) <- Float.min lo.(d) !l;
            hi.(d) <- Float.max hi.(d) !h
          done)
        sides;
      let safe = Array.for_all (fun v -> Float.abs v < 0x1p52) in
      let size = ref 1. in
      Array.iteri (fun d l -> size := !size *. (hi.(d) -. l +. 1.)) lo;
      if safe lo && safe hi && !size <= float limit then
        Some (Array.map int_of_float lo, Array.map2 (fun l h -> int_of_float (h -. l) + 1) lo hi)
      else None
    end

(* A numbering's walk writes the ids of iterations [from, upto) of one
   side into [ids]. *)
type walk = side -> int array -> from:int -> upto:int -> unit

let positional ~trips ~lo ~span : walk * int =
  let n = Array.length trips and ndims = Array.length lo in
  let radix = Array.make ndims 1 in
  for d = ndims - 2 downto 0 do
    radix.(d) <- radix.(d + 1) * span.(d + 1)
  done;
  let walk { base; coeffs } ids ~from ~upto =
    let g = Array.make n 0 and code = ref 0 in
    for d = 0 to ndims - 1 do
      code := !code + ((base.(d) - lo.(d)) * radix.(d));
      for i = 0 to n - 1 do
        g.(i) <- g.(i) + (coeffs.(d).(i) * radix.(d))
      done
    done;
    let x = decompose trips from in
    Array.iteri (fun i xi -> code := !code + (xi * g.(i))) x;
    let step i delta = code := !code + (delta * g.(i)) in
    for it = from to upto - 1 do
      ids.(it) <- !code;
      advance ~trips x step
    done
  in
  (walk, if ndims = 0 then 1 else radix.(0) * span.(0))

(* The table is sized for every tuple of the whole grid, so it never
   grows while the numbered prefix does. *)
let hashed ~trips ~total sides : walk * int ref =
  let stride = 1 + List.fold_left (fun m s -> max m (Array.length s.base)) 0 sides in
  let cap = total * List.length sides in
  let size = ref 16 in
  while !size < 2 * cap do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let slots = Array.make !size (-1) in
  let store = Array.make (max 1 (cap * stride)) 0 in
  let count = ref 0 in
  let tuple = Array.make stride 0 in
  let same id =
    let o = id * stride in
    let rec go d = d = stride || (store.(o + d) = tuple.(d) && go (d + 1)) in
    go 0
  in
  let rec probe s =
    let id = slots.(s) in
    if id < 0 then begin
      let id = !count in
      Array.blit tuple 0 store (id * stride) stride;
      slots.(s) <- id;
      incr count;
      id
    end
    else if same id then id
    else probe ((s + 1) land mask)
  in
  let walk { base; coeffs } ids ~from ~upto =
    let ndims = Array.length base in
    let x = decompose trips from in
    Array.fill tuple 0 stride 0;
    tuple.(0) <- ndims;
    for d = 0 to ndims - 1 do
      let v = ref base.(d) in
      Array.iteri (fun i xi -> v := !v + (coeffs.(d).(i) * xi)) x;
      tuple.(d + 1) <- !v
    done;
    let step i delta =
      for d = 0 to ndims - 1 do
        tuple.(d + 1) <- tuple.(d + 1) + (delta * coeffs.(d).(i))
      done
    in
    for it = from to upto - 1 do
      let h = ref ndims in
      for d = 1 to ndims do
        h := (!h lxor tuple.(d)) * 0x9E3779B97F4A7C1
      done;
      ids.(it) <- probe ((!h lxor (!h lsr 29)) land mask);
      advance ~trips x step
    done
  in
  (walk, count)

(* ------------------------------------------------------------------ *)
(* Interned sides                                                      *)
(* ------------------------------------------------------------------ *)

type t = {
  total : int;
  uniq : side array;  (* the distinct sides: a side equal to an earlier one touches the same words *)
  slot : int array;  (* per interned side, its index in [uniq] *)
  walk : walk;
  count : int ref;  (* ids lie in [0, !count) *)
  mutable ids : int array array;  (* per distinct side, the id at each numbered iteration *)
  mutable numbered : int;  (* iterations [0, numbered) carry ids *)
}

let intern ~trips sides =
  let total = max 0 (Array.fold_left ( * ) 1 trips) in
  let uniq = List.fold_left (fun acc s -> if List.mem s acc then acc else s :: acc) [] sides in
  let uniq = Array.of_list (List.rev uniq) in
  let index s =
    let rec go u = if uniq.(u) = s then u else go (u + 1) in
    go 0
  in
  let walk, count =
    match box ~trips ~limit:(4 * total * List.length sides) sides with
    | Some (lo, span) ->
      let walk, count = positional ~trips ~lo ~span in
      (walk, ref count)
    | None -> hashed ~trips ~total (Array.to_list uniq)
  in
  {
    total;
    uniq;
    slot = Array.of_list (List.map index sides);
    walk;
    count;
    ids = Array.map (fun _ -> [||]) uniq;
    numbered = 0;
  }

(* Number iterations [0, min n total) of every side. The id arrays grow
   geometrically, so a prefix extended many times is allocated O(log)
   times and walked once. *)
let number t n =
  let n = min n t.total in
  if n > t.numbered then begin
    let have = if Array.length t.ids = 0 then n else Array.length t.ids.(0) in
    if n > have then begin
      let size = min t.total (max n (2 * have)) in
      t.ids <-
        Array.map
          (fun a ->
            let b = Array.make size 0 in
            Array.blit a 0 b 0 t.numbered;
            b)
          t.ids
    end;
    Array.iteri (fun u s -> t.walk s t.ids.(u) ~from:t.numbered ~upto:n) t.uniq;
    t.numbered <- n
  end

let side t i = t.uniq.(t.slot.(i))

(* Side [i]'s ids, valid over the iterations numbered so far. *)
let ids t i = t.ids.(t.slot.(i))
let count t = !(t.count)
