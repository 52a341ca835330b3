let children = function
  | Ir.Pipe _ | Ir.Tile_load _ | Ir.Tile_store _ -> []
  | Ir.Loop { stages; _ } -> stages
  | Ir.Parallel { stages; _ } -> stages

let rec iter_ctrl f ctrl =
  f ctrl;
  List.iter (iter_ctrl f) (children ctrl)

let rec fold_ctrl f acc ctrl =
  let acc = f acc ctrl in
  List.fold_left (fold_ctrl f) acc (children ctrl)

let all_ctrls (d : Ir.design) = List.rev (fold_ctrl (fun acc c -> c :: acc) [] d.d_top)

let ctrls_with_replication (d : Ir.design) =
  let rec walk factor acc ctrl =
    let acc = (ctrl, factor) :: acc in
    let child_factor =
      match ctrl with Ir.Loop { loop; _ } -> factor * max 1 loop.Ir.lp_par | _ -> factor
    in
    List.fold_left (walk child_factor) acc (children ctrl)
  in
  List.rev (walk 1 [] d.d_top)

(* Every memory one controller itself references (loads, stores, tile
   endpoints, reductions), passed to [f] once per reference. *)
let iter_touched f = function
  | Ir.Pipe { body; reduce; _ } ->
    List.iter
      (function
        | Ir.Sload { mem; _ } | Ir.Sstore { mem; _ } -> f mem
        | Ir.Sread_reg { reg; _ } | Ir.Swrite_reg { reg; _ } -> f reg
        | Ir.Spush { queue; _ } | Ir.Spop { queue; _ } -> f queue
        | Ir.Sop _ -> ())
      body;
    Option.iter (fun r -> f r.Ir.sr_out) reduce
  | Ir.Loop { reduce; _ } ->
    Option.iter
      (fun r ->
        f r.Ir.mr_src;
        f r.Ir.mr_dst)
      reduce
  | Ir.Parallel _ -> ()
  | Ir.Tile_load { src; dst; _ } | Ir.Tile_store { src; dst; _ } ->
    f src;
    f dst

(* [f ctrl factor] for every controller, pre-order, with the factor
   [ctrls_with_replication] pairs it with. *)
let iter_replicated f (d : Ir.design) =
  let rec walk factor ctrl =
    f ctrl factor;
    let child_factor =
      match ctrl with Ir.Loop { loop; _ } -> factor * max 1 loop.Ir.lp_par | _ -> factor
    in
    List.iter (walk child_factor) (children ctrl)
  in
  walk 1 d.d_top

let mem_replication d m =
  let r = ref 1 in
  iter_replicated
    (fun ctrl factor -> iter_touched (fun m' -> if Ir.mem_equal m m' && factor > !r then r := factor) ctrl)
    d;
  !r

(* A design has a handful of memories, so a touched memory finds its
   slot by a scan, cheaper than hashing its id. *)
let mem_replications (d : Ir.design) =
  let mems = Array.of_list d.d_mems in
  let factors = Array.make (Array.length mems) 1 in
  iter_replicated
    (fun ctrl factor ->
      iter_touched
        (fun m ->
          Array.iteri
            (fun i m' -> if Ir.mem_equal m m' && factors.(i) < factor then factors.(i) <- factor)
            mems)
        ctrl)
    d;
  Array.to_list (Array.mapi (fun i m -> (m, factors.(i))) mems)

let pipes d = List.filter (function Ir.Pipe _ -> true | _ -> false) (all_ctrls d)

let tile_transfers d =
  List.filter (function Ir.Tile_load _ | Ir.Tile_store _ -> true | _ -> false) (all_ctrls d)

let rec depth ctrl =
  match children ctrl with
  | [] -> 1
  | kids -> 1 + List.fold_left (fun acc k -> max acc (depth k)) 0 kids

let count pred d = List.length (List.filter pred (all_ctrls d))

let body_stmts = function Ir.Pipe { body; _ } -> body | _ -> []

let stmt_count d =
  List.fold_left (fun acc c -> acc + List.length (body_stmts c)) 0 (all_ctrls d)

let ctrl_counters = function
  | Ir.Pipe { loop; _ } | Ir.Loop { loop; _ } -> loop.Ir.lp_counters
  | Ir.Parallel _ | Ir.Tile_load _ | Ir.Tile_store _ -> []

let iterators_in_scope (d : Ir.design) target =
  (* Search the tree for the target, accumulating counters along the path. *)
  let rec search bound ctrl =
    let bound = bound @ List.map (fun c -> c.Ir.ctr_name) (ctrl_counters ctrl) in
    if ctrl == target then Some bound
    else
      List.fold_left
        (fun acc kid -> match acc with Some _ -> acc | None -> search bound kid)
        None (children ctrl)
  in
  match search [] d.d_top with Some names -> names | None -> raise Not_found
