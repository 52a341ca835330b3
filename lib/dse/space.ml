module Intmath = Dhdl_util.Intmath
module Rng = Dhdl_util.Rng
module Emit = Dhdl_util.Emit

type point = (string * int) list

(* A family is rendered once, when its space is made: the length-prefixed
   name and sizes, so [point_key] only appends the point. *)
type family = string

type t = {
  sp_name : string;
  sp_dims : (string * int list) list;
  sp_legal : point -> bool;
  sp_family : family option;
}

(* [len:s], so adjacent fields can never run together. *)
let add_field b s =
  Emit.add_int b (String.length s);
  Buffer.add_char b ':';
  Buffer.add_string b s

let add_binding b (n, v) =
  add_field b n;
  Buffer.add_char b '=';
  Emit.add_int b v;
  Buffer.add_char b ','

let family_of ~name sizes =
  let b = Buffer.create 64 in
  add_field b name;
  List.iter (add_binding b) sizes;
  Buffer.add_char b '/';
  Buffer.contents b

let make ~name ~dims ?(legal = fun _ -> true) ?sizes () =
  assert (dims <> []);
  List.iter (fun (n, vs) -> if vs = [] then invalid_arg ("Space.make: empty domain " ^ n)) dims;
  {
    sp_name = name;
    sp_dims = dims;
    sp_legal = legal;
    sp_family = Option.map (family_of ~name) sizes;
  }

let name t = t.sp_name
let dims t = t.sp_dims
let legal t = t.sp_legal
let family t = t.sp_family

let point_key family point =
  let b = Buffer.create (String.length family + 64) in
  Buffer.add_string b family;
  List.iter (add_binding b) point;
  Buffer.contents b

let raw_size t = List.fold_left (fun acc (_, vs) -> acc * List.length vs) 1 t.sp_dims

let enumerate t =
  let rec go dims acc =
    match dims with
    | [] -> [ List.rev acc ]
    | (n, vs) :: rest -> List.concat_map (fun v -> go rest ((n, v) :: acc)) vs
  in
  List.filter t.sp_legal (go t.sp_dims [])

(* Mixed-radix decoding of a flat index into a point, the last dimension
   varying fastest. The names and candidate arrays are built once per
   decoder, so a draw costs one division per dimension. *)
let decoder t =
  let names = Array.of_list (List.map fst t.sp_dims) in
  let values = Array.of_list (List.map (fun (_, vs) -> Array.of_list vs) t.sp_dims) in
  fun idx ->
    let rec go j i acc =
      if j < 0 then acc
      else
        let vs = values.(j) in
        let k = Array.length vs in
        go (j - 1) (i / k) ((names.(j), vs.(i mod k)) :: acc)
    in
    go (Array.length names - 1) idx []

let sample t ~seed ~max_points =
  let total = raw_size t in
  if total <= max_points * 2 then begin
    let all = enumerate t in
    if List.length all <= max_points then all
    else Dhdl_util.Rng.sample (Rng.create seed) all max_points
  end
  else begin
    let rng = Rng.create seed in
    let point_at = decoder t in
    let seen = Hashtbl.create (max_points * 2) in
    let out = ref [] in
    let count = ref 0 in
    (* Cap the draw attempts so heavily-illegal spaces still terminate. *)
    let attempts = ref 0 in
    let max_attempts = max_points * 50 in
    while !count < max_points && !attempts < max_attempts do
      incr attempts;
      let idx = Rng.int rng total in
      if not (Hashtbl.mem seen idx) then begin
        Hashtbl.replace seen idx ();
        let p = point_at idx in
        if t.sp_legal p then begin
          out := p :: !out;
          incr count
        end
      end
    done;
    List.rev !out
  end

let mem_limit_words = 65_536

let divisors_for extent = Intmath.divisors extent

let par_candidates extent = List.filter (fun d -> d <= 64) (Intmath.divisors extent)
