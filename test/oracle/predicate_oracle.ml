(* The symbolic gate's per-point evaluator before systems were compiled,
   kept verbatim: each clause evaluated on its own, in exact rationals,
   with every parameter looked up by name. test_symbolic pins the compiled
   evaluator ([Symbolic.Predicate], [Symgate.refutes] and
   [Symgate.verdict]) to it, decision and witness, including on hostile
   bindings where its rationals overflow. *)

open Dhdl_absint.Symbolic

let atom_holds bindings = function
  | Le (a, b) -> (
    match (Expr.eval a bindings, Expr.eval b bindings) with
    | Some x, Some y -> Some (Q.leq x y)
    | _ -> None)
  | Divides (d, e) -> (
    match (Expr.eval_int d bindings, Expr.eval_int e bindings) with
    | Some 0, _ -> Some false
    | Some dv, Some ev -> Some (ev mod dv = 0)
    | _ -> None)

let literal_holds bindings = function
  | Pos a -> atom_holds bindings a
  | Neg a -> Option.map not (atom_holds bindings a)

let conj_holds bindings lits =
  List.for_all (fun l -> literal_holds bindings l = Some true) lits

let applies sys bindings =
  List.for_all (fun (k, v) -> List.assoc_opt k bindings = Some v) sys.sy_pinned

(* Decide one binding: the first refutation clause that evaluates to
   true wins (the concrete pass provably errors with that code);
   otherwise the binding is [Unknown]. Atoms that cannot be evaluated
   (missing parameter, non-integral divisor) make their clause not
   fire — toward [Unknown], never toward an unsound verdict. *)
let eval sys bindings =
  if not (applies sys bindings) then
    Unknown "binding disagrees with the family's pinned parameters"
  else
    let rec first = function
      | [] -> Unknown (if sys.sy_note = "" then "no refutation clause fires" else sys.sy_note)
      | ck :: rest -> (
        match List.find_opt (fun cl -> conj_holds bindings cl.cl_lits) ck.ck_refutes with
        | Some cl ->
          Refuted
            {
              code = ck.ck_code;
              witness =
                Printf.sprintf "%s: %s [%s]" ck.ck_site cl.cl_desc (conj_to_string cl.cl_lits);
            }
        | None -> first rest)
    in
    first sys.sy_checks

(* [Symgate.verdict] before compilation: route to the one system whose
   pinned parameters the binding satisfies, then [eval]. *)
let verdict systems point =
  match List.filter (fun sys -> applies sys point) systems with
  | [ sys ] -> eval sys point
  | [] -> Unknown "no derived system covers this binding"
  | _ :: _ :: _ -> Unknown "several derived systems claim this binding"
