(* The pre-elaboration legality gate.

   [derive] elaborates a small fixed-seed sample of a space's points,
   groups the designs by [Design_key] skeleton (one app space can contain
   several skeletons when meta-flags switch the generated graph shape)
   and hands each group to [Symbolic.derive] as its probe set. The
   result is a list of per-skeleton constraint systems, compiled once
   ({!Symbolic.Predicate.compile}) over the space's parameter order;
   [refutes] routes a fresh binding to the unique system whose pinned
   parameters it satisfies and evaluates the predicate — well under a
   microsecond, no generation — and [verdict] also says why, for callers
   that print it. [Eval.gate] memoizes [derive] by the space's family,
   compiled form included.

   Routing is sound because a system's pinned parameters are exactly the
   ones constant across its probes: registry app generators branch on
   structure only via such flag parameters, so a binding that matches
   one group's pinned set elaborates to that group's skeleton. A binding
   matching zero or several groups (possible when the probe sample
   missed a flag combination) gets [Unknown] and the full pipeline. *)

module Symbolic = Dhdl_absint.Symbolic
module Design_key = Dhdl_model.Design_key

module Predicate = Symbolic.Predicate

type t = { g_systems : Symbolic.system list; g_compiled : Predicate.t }

let probe_seed = 0x5eed

(* The fixed-seed sample [derive] elaborates, in order. It depends on the
   space alone, which lets [Eval.gate] key its memo by family. *)
let probe_sample space = Space.sample space ~seed:probe_seed ~max_points:48

(* A probe whose generator raises is dropped. *)
let derive ~space ~generate () =
  let params = List.map fst (Space.dims space) in
  let groups : (string, (Space.point * Dhdl_ir.Ir.design) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let order = ref [] in
  List.iter
    (fun point ->
      match generate point with
      | exception _ -> ()
      | design -> (
        let sk = Design_key.skeleton (Design_key.of_design design) in
        match Hashtbl.find_opt groups sk with
        | Some l -> l := (point, design) :: !l
        | None ->
          Hashtbl.add groups sk (ref [ (point, design) ]);
          order := sk :: !order))
    (probe_sample space);
  let systems =
    List.rev_map
      (fun sk -> Symbolic.derive ~skeleton:sk ~params ~probes:(List.rev !(Hashtbl.find groups sk)))
      !order
  in
  { g_systems = systems; g_compiled = Predicate.compile ~params systems }

let systems t = t.g_systems

let refutes t (point : Space.point) = Predicate.refutes t.g_compiled point

let verdict t (point : Space.point) =
  match Predicate.decide t.g_compiled point with
  | Predicate.Uncovered -> Symbolic.Unknown "no derived system covers this binding"
  | Predicate.Contested -> Symbolic.Unknown "several derived systems claim this binding"
  | Predicate.Quiet sys -> Predicate.unknown_quiet sys
  | Predicate.Fires (ck, cl) -> Predicate.refuted ck cl
