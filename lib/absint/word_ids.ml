(* Word ids for the index tuples affine accesses touch over an iteration
   grid.

   {!Dependence}'s pipelining check compares the words of two accesses
   between the lanes of every vector, and the symbolic L013 scan repeats
   that search at every par factor. Numbering each tuple once per access
   pair turns every later comparison into an int compare and lets the
   search key flat stamp arrays by word.

   [intern] gives every flattened iteration of every side an id in
   [0, count): equal tuples get equal ids and distinct tuples distinct
   ids. Two numberings keep that contract:

   - {b positional}, when every side has the same arity and the box of
     index values the sides can reach (per dimension, the union of their
     ranges) holds at most [4 * sides * grid] tuples: the id is the
     tuple's mixed-radix position in that box, stepped along the walk by
     a constant per counter, with no table at all;
   - {b hashed} otherwise: tuples (arity included) are interned in an
     open-addressing table, ids in order of first appearance.

   Registry designs always take the positional numbering; the hashed one
   keeps sparse or hostile address maps exact at a bounded table size. *)

type side = { base : int array; coeffs : int array array }
(* One access: per dimension d, [base.(d) + sum_i coeffs.(d).(i) * x_i]
   at grid point [x], counters outer->inner. *)

type t = {
  ids : int array array;  (* per side, the word id at each flattened iteration *)
  count : int;  (* ids lie in [0, count) *)
}

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

let positional ~trips ~total ~lo ~span =
  let n = Array.length trips and ndims = Array.length lo in
  let radix = Array.make ndims 1 in
  for d = ndims - 2 downto 0 do
    radix.(d) <- radix.(d + 1) * span.(d + 1)
  done;
  let x = Array.make n 0 in
  let walk { base; coeffs } =
    let g = Array.make n 0 and code = ref 0 in
    for d = 0 to ndims - 1 do
      code := !code + ((base.(d) - lo.(d)) * radix.(d));
      for i = 0 to n - 1 do
        g.(i) <- g.(i) + (coeffs.(d).(i) * radix.(d))
      done
    done;
    let ids = Array.make total 0 in
    let step i delta = code := !code + (delta * g.(i)) in
    Array.fill x 0 n 0;
    for it = 0 to total - 1 do
      ids.(it) <- !code;
      advance ~trips x step
    done;
    ids
  in
  (walk, if ndims = 0 then 1 else radix.(0) * span.(0))

let hashed ~trips ~total sides =
  let n = Array.length trips in
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
  let x = Array.make n 0 in
  let walk { base; coeffs } =
    let ndims = Array.length base in
    let ids = Array.make total 0 in
    Array.fill x 0 n 0;
    Array.fill tuple 0 stride 0;
    tuple.(0) <- ndims;
    Array.blit base 0 tuple 1 ndims;
    let step i delta =
      for d = 0 to ndims - 1 do
        tuple.(d + 1) <- tuple.(d + 1) + (delta * coeffs.(d).(i))
      done
    in
    for it = 0 to total - 1 do
      let h = ref ndims in
      for d = 1 to ndims do
        h := (!h lxor tuple.(d)) * 0x9E3779B97F4A7C1
      done;
      ids.(it) <- probe ((!h lxor (!h lsr 29)) land mask);
      advance ~trips x step
    done;
    ids
  in
  (walk, count)

let intern ~trips sides =
  let total = max 0 (Array.fold_left ( * ) 1 trips) in
  let walk, count =
    match box ~trips ~limit:(4 * total * List.length sides) sides with
    | Some (lo, span) ->
      let walk, count = positional ~trips ~total ~lo ~span in
      (walk, ref count)
    | None -> hashed ~trips ~total sides
  in
  (* a side equal to an earlier one touches the same words *)
  let rec go seen = function
    | [] -> []
    | s :: rest ->
      let ids = match List.assoc_opt s seen with Some ids -> ids | None -> walk s in
      ids :: go ((s, ids) :: seen) rest
  in
  let ids = Array.of_list (go [] sides) in
  { ids; count = !count }
