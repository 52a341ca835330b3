module Ir = Dhdl_ir.Ir
module Diagnostic = Dhdl_ir.Diag
module Emit = Dhdl_util.Emit
module Analysis = Dhdl_ir.Analysis
module Target = Dhdl_device.Target

type pass = {
  code : string;
  title : string;
  doc : string;
  run : Ir.design -> Diagnostic.t list;
}

let passes ?(dev = Target.stratix_v) () =
  [
    {
      code = "L001";
      title = "parallel-race";
      doc = "write-write or read-write race between concurrent Parallel stages";
      run = Passes.race_pass;
    };
    {
      code = "L002";
      title = "metapipe-hazard";
      doc = "buffer crosses pipelined stages without double buffering";
      run = Passes.metapipe_pass;
    };
    {
      code = "L003";
      title = "banking-mismatch";
      doc = "access vector wider than the memory's banking";
      run = Passes.banking_pass;
    };
    {
      code = "L004";
      title = "dead-memory";
      doc = "memory never accessed, or buffer written but never read";
      run = Passes.dead_mem_pass;
    };
    {
      code = "L005";
      title = "dead-value";
      doc = "op or load result never consumed";
      run = Passes.dead_value_pass;
    };
    {
      code = "L006";
      title = "device-fit";
      doc = "on-chip memory demand exceeds (or crowds) the target device";
      run = Passes.capacity_pass dev;
    };
    {
      code = "L007";
      title = "queue-protocol";
      doc = "push without pop, pop without push, zero-capacity queue";
      run = Passes.queue_pass;
    };
    {
      code = "L008";
      title = "degenerate-loop";
      doc = "zero-trip loop, par > trip, or non-divisor par";
      run = Passes.loop_pass;
    };
    {
      code = "L009";
      title = "out-of-bounds";
      doc = "proven out-of-bounds access with a witness iteration vector";
      run = Passes.oob_pass;
    };
    {
      code = "L010";
      title = "bank-conflict";
      doc = "proven same-cycle bank conflict with a concrete lane pair";
      run = Passes.bank_conflict_pass;
    };
    {
      code = "L011";
      title = "spurious-double-buffer";
      doc = "double buffer no pipelined stage crossing requires";
      run = Passes.spurious_double_pass;
    };
    {
      code = "L012";
      title = "pessimistic-ii";
      doc = "syntactic heuristic charges a higher II than dependence analysis proves";
      run = Passes.pessimistic_ii_pass;
    };
    {
      code = "L013";
      title = "unsafe-pipelining";
      doc = "proven-illegal vectorization with a concrete same-cycle lane conflict";
      run = Passes.unsafe_pipelining_pass;
    };
  ]

let proof_codes = [ "L009"; "L010"; "L011"; "L012"; "L013" ]

let heuristic_codes =
  List.filter_map
    (fun p -> if List.mem p.code proof_codes then None else Some p.code)
    (passes ())

let check ?dev ?(validate = true) ?only d =
  let ps = passes ?dev () in
  let ps =
    match only with None -> ps | Some codes -> List.filter (fun p -> List.mem p.code codes) ps
  in
  let base = if validate then Analysis.validate_diags d else [] in
  let lint = List.concat_map (fun p -> p.run d) ps in
  List.sort_uniq Diagnostic.compare (base @ lint)

let errors diags = List.filter (fun g -> g.Diagnostic.severity = Diagnostic.Error) diags
let has_errors diags = errors diags <> []

let summary diags =
  Printf.sprintf "%d error(s), %d warning(s), %d info(s)"
    (Diagnostic.count Diagnostic.Error diags)
    (Diagnostic.count Diagnostic.Warning diags)
    (Diagnostic.count Diagnostic.Info diags)

let render_text ~design diags =
  match diags with
  | [] -> Printf.sprintf "%s: clean" design.Ir.d_name
  | _ ->
    String.concat "\n"
      (Printf.sprintf "%s: %s" design.Ir.d_name (summary diags)
      :: List.map Diagnostic.to_string diags)

let render_json ~design diags =
  Printf.sprintf
    "{\"design\": \"%s\", \"errors\": %d, \"warnings\": %d, \"infos\": %d, \"diagnostics\": [%s]}"
    (Emit.json_escape design.Ir.d_name)
    (Diagnostic.count Diagnostic.Error diags)
    (Diagnostic.count Diagnostic.Warning diags)
    (Diagnostic.count Diagnostic.Info diags)
    (String.concat ", " (List.map Diagnostic.to_json diags))

let exit_code ?(fail_on = Diagnostic.Error) diags =
  match Diagnostic.max_severity diags with
  | None -> 0
  | Some s ->
    if Diagnostic.severity_rank s > Diagnostic.severity_rank fail_on then 0
    else if s = Diagnostic.Error then 2
    else 1
