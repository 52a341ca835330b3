(* [Space.sample] before it decoded draws from arrays built once per
   call: [point_at] reversed the dimensions and walked them with
   [List.length] and [List.nth] for every draw. Kept verbatim, reading
   the space through its accessors; test_dse pins [Space.sample] and
   [Space.decoder] to it. *)

module Space = Dhdl_dse.Space
module Rng = Dhdl_util.Rng

let point_at t idx =
  (* Mixed-radix decoding of a flat index into a point. *)
  let _, point =
    List.fold_left
      (fun (i, acc) (n, vs) ->
        let k = List.length vs in
        (i / k, (n, List.nth vs (i mod k)) :: acc))
      (idx, []) (List.rev (Space.dims t))
  in
  point

let sample t ~seed ~max_points =
  let total = Space.raw_size t in
  if total <= max_points * 2 then begin
    let all = Space.enumerate t in
    if List.length all <= max_points then all
    else Dhdl_util.Rng.sample (Rng.create seed) all max_points
  end
  else begin
    let rng = Rng.create seed in
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
        let p = point_at t idx in
        if Space.legal t p then begin
          out := p :: !out;
          incr count
        end
      end
    done;
    List.rev !out
  end
