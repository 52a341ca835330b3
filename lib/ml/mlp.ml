module Rng = Dhdl_util.Rng

type activation = Sigmoid | Tanh | Linear

type layer = {
  weights : float array array; (* [out][in] *)
  biases : float array;
  act : activation;
}

type t = { layers : layer array }

(* [apply_act] and [act_deriv] are inlined so that the kernel's floats
   stay unboxed: called, each would box its argument and result. *)
let[@inline] apply_act act x =
  match act with
  | Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | Tanh -> tanh x
  | Linear -> x

(* Derivative expressed in terms of the activation output. *)
let[@inline] act_deriv act y =
  match act with
  | Sigmoid -> y *. (1.0 -. y)
  | Tanh -> 1.0 -. (y *. y)
  | Linear -> 1.0

let create ?rng ~layer_sizes ?(hidden = Sigmoid) () =
  let rng = match rng with Some r -> r | None -> Rng.create 42 in
  let sizes = Array.of_list layer_sizes in
  assert (Array.length sizes >= 2);
  let nlayers = Array.length sizes - 1 in
  let make_layer i =
    let n_in = sizes.(i) and n_out = sizes.(i + 1) in
    let scale = 1.0 /. sqrt (float_of_int n_in) in
    {
      weights =
        Array.init n_out (fun _ -> Array.init n_in (fun _ -> Rng.float_in rng (-.scale) scale));
      biases = Array.init n_out (fun _ -> Rng.float_in rng (-0.1) 0.1);
      act = (if i = nlayers - 1 then Linear else hidden);
    }
  in
  { layers = Array.init nlayers make_layer }

let inputs t = Array.length t.layers.(0).weights.(0)
let outputs t = Array.length t.layers.(Array.length t.layers - 1).biases

(* Arrays shaped like each layer's units, and like its weights. *)
let per_unit t v = Array.map (fun l -> Array.make (Array.length l.biases) v) t.layers
let per_weight t v =
  Array.map (fun l -> Array.map (fun row -> Array.make (Array.length row) v) l.weights) t.layers

(* ---- the kernel --------------------------------------------------- *)

(* The kernel's inner loops index without bounds checks, which took half
   its time: a network's layer widths chain by construction, and
   [predict] and [check] admit only inputs of the network's width and
   targets of at least its output count. *)
external ( .!() ) : float array -> int -> float = "%array_unsafe_get"
external ( .!()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"

(* The buffers of one call, allocated once so that no epoch allocates:
   [acts.(l)] holds layer [l]'s outputs for the current sample,
   [deltas.(l)] its error terms, [gw]/[gb] the gradient sums, and
   [sse.(0)] the error summed over the samples run since it was reset
   (a float array cell, so adding to it boxes nothing). *)
type work = {
  acts : float array array;
  deltas : float array array;
  gw : float array array array;
  gb : float array array;
  sse : float array;
}

let work t =
  {
    acts = per_unit t 0.0;
    deltas = per_unit t 0.0;
    gw = per_weight t 0.0;
    gb = per_unit t 0.0;
    sse = [| 0.0 |];
  }

(* Forward pass of [x] into [acts]. *)
let forward acts t x =
  for l = 0 to Array.length t.layers - 1 do
    let layer = t.layers.(l) in
    let input = if l = 0 then x else acts.(l - 1) in
    let out = acts.(l) in
    for o = 0 to Array.length layer.weights - 1 do
      let row = layer.weights.(o) in
      let acc = ref layer.biases.!(o) in
      for i = 0 to Array.length row - 1 do
        acc := !acc +. (row.!(i) *. input.!(i))
      done;
      out.!(o) <- apply_act layer.act !acc
    done
  done

(* The one kernel: run the sample [(x, target)] forward, add its error
   to [w.sse.(0)] and, with [backprop], backpropagate it and add its
   gradients to [w.gw]/[w.gb]. A sample's error sums its outputs'
   halved squared errors in index order from 0.0 before it joins the
   total, and [** 2.0] stays: glibc's [pow] is not guaranteed to round
   like [d *. d]. *)
let run_sample w t ~backprop x target =
  forward w.acts t x;
  let last = Array.length t.layers - 1 in
  let out = w.acts.(last) in
  let e = ref 0.0 in
  for i = 0 to Array.length out - 1 do
    e := !e +. (((out.!(i) -. target.!(i)) ** 2.0) /. 2.0)
  done;
  w.sse.(0) <- w.sse.(0) +. !e;
  if backprop then begin
    let d = w.deltas.(last) and out_act = t.layers.(last).act in
    for i = 0 to Array.length out - 1 do
      d.!(i) <- (out.!(i) -. target.!(i)) *. act_deriv out_act out.!(i)
    done;
    for l = last downto 0 do
      let layer = t.layers.(l) in
      let a_in = if l = 0 then x else w.acts.(l - 1) in
      let d = w.deltas.(l) and gw = w.gw.(l) and gb = w.gb.(l) in
      for o = 0 to Array.length d - 1 do
        let dv = d.!(o) in
        gb.!(o) <- gb.!(o) +. dv;
        let grow = gw.(o) in
        for i = 0 to Array.length a_in - 1 do
          grow.!(i) <- grow.!(i) +. (dv *. a_in.!(i))
        done
      done;
      if l > 0 then begin
        let prev_act = t.layers.(l - 1).act and nd = w.deltas.(l - 1) in
        for i = 0 to Array.length a_in - 1 do
          let acc = ref 0.0 in
          for o = 0 to Array.length d - 1 do
            acc := !acc +. (d.!(o) *. layer.weights.(o).!(i))
          done;
          nd.!(i) <- !acc *. act_deriv prev_act a_in.!(i)
        done
      end
    done
  end

(* Every sample through the kernel in list order, from a zero error sum. *)
let run_all w t ~backprop xs targets =
  w.sse.(0) <- 0.0;
  for s = 0 to Array.length xs - 1 do
    run_sample w t ~backprop xs.(s) targets.(s)
  done

let check t samples =
  List.iter
    (fun (x, target) ->
      if Array.length x <> inputs t || Array.length target < outputs t then
        invalid_arg "Mlp: a sample's shape does not match the network")
    samples

let split t samples =
  check t samples;
  (Array.of_list (List.map fst samples), Array.of_list (List.map snd samples))

(* ---- public API ---------------------------------------------------- *)

let predict t input =
  if Array.length input <> inputs t then
    invalid_arg "Mlp.predict: the input width does not match the network";
  let acts = per_unit t 0.0 in
  forward acts t input;
  acts.(Array.length acts - 1)

let predict1 t input =
  let out = predict t input in
  assert (Array.length out = 1);
  out.(0)

let mse t samples =
  match samples with
  | [] -> 0.0
  | _ ->
    let w = work t and xs, targets = split t samples in
    run_all w t ~backprop:false xs targets;
    w.sse.(0) /. float_of_int (Array.length xs)

(* iRPROP-: per-parameter adaptive steps, sign-based updates. *)
let eta_plus = 1.2
let eta_minus = 0.5
let step_max = 50.0
let step_min = 1e-8

(* One iRPROP- update of the parameters [p] from their gradient sums
   [g], which it resets to zero for the next epoch. [prev] and [steps]
   carry each parameter's last gradient and step. The clamps are
   [Stdlib.min]/[max] written out for floats. *)
let rprop_step p g prev steps =
  for i = 0 to Array.length p - 1 do
    let grad = g.(i) and step = steps.(i) in
    let sign = grad *. prev.(i) in
    if sign > 0.0 then begin
      let s = step *. eta_plus in
      let s = if s <= step_max then s else step_max in
      p.(i) <- p.(i) +. (if grad > 0.0 then -.s else s);
      prev.(i) <- grad;
      steps.(i) <- s
    end
    else if sign < 0.0 then begin
      (* Overshoot: shrink the step and skip the update this epoch. *)
      let s = step *. eta_minus in
      prev.(i) <- 0.0;
      steps.(i) <- (if s >= step_min then s else step_min)
    end
    else begin
      p.(i) <- p.(i) +. (if grad > 0.0 then -.step else if grad < 0.0 then step else 0.0);
      prev.(i) <- grad
    end;
    g.(i) <- 0.0
  done

(* Epoch [k]'s pass computes its gradients and, in the same forward
   passes, the error of the weights after [k] updates: that is the error
   the stopping test reads, so it needs no second pass. Epoch 0 has no
   update behind it and is not tested. After the last update one
   forward-only pass reads the returned error. *)
let train_rprop ?(epochs = 400) ?(target_mse = 1e-6) t samples =
  assert (samples <> []);
  let w = work t and xs, targets = split t samples in
  let n = float_of_int (Array.length xs) in
  let steps = per_weight t 0.1 and bsteps = per_unit t 0.1 in
  let prev_gw = per_weight t 0.0 and prev_gb = per_unit t 0.0 in
  let rec epoch k =
    let backprop = k < epochs in
    run_all w t ~backprop xs targets;
    let e = w.sse.(0) /. n in
    if (not backprop) || (k > 0 && e <= target_mse) then e
    else begin
      for l = 0 to Array.length t.layers - 1 do
        let layer = t.layers.(l) in
        for o = 0 to Array.length layer.weights - 1 do
          rprop_step layer.weights.(o) w.gw.(l).(o) prev_gw.(l).(o) steps.(l).(o)
        done;
        rprop_step layer.biases w.gb.(l) prev_gb.(l) bsteps.(l)
      done;
      epoch (k + 1)
    end
  in
  epoch 0

let train_sgd ?(epochs = 200) ?(rate = 0.05) ?rng t samples =
  assert (samples <> []);
  let rng = match rng with Some r -> r | None -> Rng.create 7 in
  check t samples;
  let arr = Array.of_list samples in
  let w = work t in
  let sgd_step p g =
    for i = 0 to Array.length p - 1 do
      p.(i) <- p.(i) -. (rate *. g.(i));
      g.(i) <- 0.0
    done
  in
  for _ = 1 to epochs do
    Rng.shuffle rng arr;
    Array.iter
      (fun (x, target) ->
        run_sample w t ~backprop:true x target;
        for l = 0 to Array.length t.layers - 1 do
          let layer = t.layers.(l) in
          for o = 0 to Array.length layer.weights - 1 do
            sgd_step layer.weights.(o) w.gw.(l).(o)
          done;
          sgd_step layer.biases w.gb.(l)
        done)
      arr
  done;
  mse t samples
