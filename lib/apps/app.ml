type sizes = (string * int) list
type params = (string * int) list

type t = {
  name : string;
  description : string;
  paper_sizes : sizes;
  test_sizes : sizes;
  default_params : sizes -> params;
  space : sizes -> Dhdl_dse.Space.t;
  generate : sizes:sizes -> params:params -> Dhdl_ir.Ir.design;
  cpu_workload : sizes -> Dhdl_cpu.Cost_model.workload;
}

let size sizes name =
  match List.assoc_opt name sizes with
  | Some v -> v
  | None -> failwith (Printf.sprintf "missing dataset dimension %S" name)

let get params name default =
  match List.assoc_opt name params with Some v -> v | None -> default

let generate_default t sizes = t.generate ~sizes ~params:(t.default_params sizes)

let resolve t sizes overrides =
  let merged =
    List.map
      (fun (k, v) -> (k, match List.assoc_opt k overrides with Some v' -> v' | None -> v))
      (t.default_params sizes)
  in
  merged @ List.filter (fun (k, _) -> not (List.mem_assoc k merged)) overrides

(* Largest divisor of [n] that is <= [cap] and divisible by [par]; used by
   default design points so they are legal at any dataset size. Scanning
   down from [min cap n], the first divisor [par] divides wins and the
   first divisor of all is the fallback, so no divisor list is built:
   dotproduct's 187,200,000 takes 49 steps. *)
let divisor_tile ~n ~cap ~par =
  let rec scan d fallback =
    if d < 1 then if fallback > 0 then fallback else n
    else if n mod d <> 0 then scan (d - 1) fallback
    else if d mod par = 0 then d
    else scan (d - 1) (if fallback > 0 then fallback else d)
  in
  scan (min cap n) 0
