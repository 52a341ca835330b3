(* The pre-elaboration legality gate.

   [derive] is [probes] then [of_probes]. [probes] elaborates a small
   fixed-seed sample of a space's points and keys each design; [of_probes]
   groups them by [Design_key] skeleton (one app space can contain
   several skeletons when meta-flags switch the generated graph shape)
   and hands each group to [Symbolic.derive] as its probe set. The
   result is a list of per-skeleton constraint systems, compiled once
   ({!Symbolic.Predicate.compile}) over the space's parameter order;
   [refutes] routes a fresh binding to the unique system whose pinned
   parameters it satisfies and evaluates the predicate — well under a
   microsecond, no generation — and [verdict] also says why, for callers
   that print it. The split lets [Eval.gate] key a memo by the probes'
   content and skip [of_probes], the expensive half, when it has seen
   them before; the memo keeps the compiled form with the systems.

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

(* One generated probe. Derivation reads only the point and the design;
   the key rides along for grouping and for [Eval.gate]'s memo key. *)
type probe = { point : Space.point; design : Dhdl_ir.Ir.design; key : Design_key.t }

let probe_seed = 0x5eed

(* The fixed-seed sample [probes] elaborates, in order. *)
let probe_sample ?(probe_points = 48) space =
  Space.sample space ~seed:probe_seed ~max_points:probe_points

let probes ?probe_points ~space ~generate () =
  List.filter_map
    (fun point ->
      match generate point with
      | design -> Some { point; design; key = Design_key.of_design design }
      | exception _ -> None)
    (probe_sample ?probe_points space)

let of_probes ~params probes =
  let groups : (string, probe list ref) Hashtbl.t = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun probe ->
      let sk = probe.key.Design_key.skeleton in
      match Hashtbl.find_opt groups sk with
      | Some l -> l := probe :: !l
      | None ->
        Hashtbl.add groups sk (ref [ probe ]);
        order := sk :: !order)
    probes;
  let systems =
    List.rev_map
      (fun sk ->
        let probes = List.rev_map (fun p -> (p.point, p.design)) !(Hashtbl.find groups sk) in
        Symbolic.derive ~skeleton:sk ~params ~probes)
      !order
  in
  { g_systems = systems; g_compiled = Predicate.compile ~params systems }

let derive ?probe_points ~space ~generate () =
  of_probes ~params:(List.map fst (Space.dims space)) (probes ?probe_points ~space ~generate ())

let systems t = t.g_systems

let refutes t (point : Space.point) = Predicate.refutes t.g_compiled point

let verdict t (point : Space.point) =
  match Predicate.decide t.g_compiled point with
  | Predicate.Uncovered -> Symbolic.Unknown "no derived system covers this binding"
  | Predicate.Contested -> Symbolic.Unknown "several derived systems claim this binding"
  | Predicate.Quiet sys -> Predicate.unknown_quiet sys
  | Predicate.Fires (ck, cl) -> Predicate.refuted ck cl
