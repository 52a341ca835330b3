(* Order statistics for latency figures. Percentiles are nearest-rank and
   given in per-mille (990 = p99) so rank arithmetic stays in integers. *)

(* 1-based rank of the per-mille percentile [pm] among [n] samples: the
   smallest rank with at least pm/1000 of the samples at or below it. *)
let rank ~n pm =
  if n <= 0 then invalid_arg "Pstats.rank: no samples";
  if pm <= 0 || pm > 1000 then invalid_arg "Pstats.rank: per-mille outside (0, 1000]";
  max 1 (min n (((pm * n) + 999) / 1000))

(* Samples strictly above the percentile's rank. *)
let beyond ~n pm = n - rank ~n pm

(* [percentile sorted pm] — [sorted] must be in ascending order. *)
let percentile sorted pm = sorted.(rank ~n:(Array.length sorted) pm - 1)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* The highest of p99.9, p99, p95, p90 and p50 whose rank leaves at least
   ten of [n] samples above it, or [None] when none does. *)
let highest_with_tail n =
  if n <= 0 then None else List.find_opt (fun pm -> beyond ~n pm >= 10) [ 999; 990; 950; 900; 500 ]

(* The middle sample, or the mean of the two middle ones. *)
let median xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  if xs = [] then invalid_arg "Pstats.mean: no samples";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
