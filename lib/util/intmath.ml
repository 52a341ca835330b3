let ceil_div a b =
  assert (b > 0);
  (a + b - 1) / b

(* [/] truncates toward zero; step the quotient down when the exact
   quotient is negative and not whole. *)
let floor_div a b =
  assert (b <> 0);
  let q = a / b in
  if a mod b <> 0 && (a < 0) <> (b < 0) then q - 1 else q

let round_up a m = ceil_div a m * m

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b

let divisors n =
  assert (n > 0);
  let rec collect d low high =
    if d * d > n then List.rev_append low high
    else if n mod d = 0 then
      let q = n / d in
      if q = d then collect (d + 1) (d :: low) high
      else collect (d + 1) (d :: low) (q :: high)
    else collect (d + 1) low high
  in
  collect 1 [] []

let divisors_up_to n cap = List.filter (fun d -> d <= cap) (divisors n)

let pow2_up_to bound =
  let rec go p acc = if p > bound then List.rev acc else go (p * 2) (p :: acc) in
  if bound < 1 then [] else go 1 []

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  assert (n >= 1);
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let ilog2_ceil n =
  assert (n >= 1);
  let rec go p k = if p >= n then k else go (p * 2) (k + 1) in
  go 1 0

let clamp ~lo ~hi x = max lo (min hi x)

let prod = List.fold_left ( * ) 1
