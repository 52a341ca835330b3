(* The multilayer perceptron's trainers before they shared one
   allocation-free kernel, kept verbatim: an allocating forward and
   backward pass per sample, a tuple per parameter update, and a second
   forward pass per epoch to read the error. test_ml pins Dhdl_ml.Mlp to
   it bit for bit (networks compared marshalled, errors by their bits). *)

module Rng = Dhdl_util.Rng

type activation = Sigmoid | Tanh | Linear

type layer = {
  weights : float array array; (* [out][in] *)
  biases : float array;
  act : activation;
}

type t = { layers : layer array }

let apply_act act x =
  match act with
  | Sigmoid -> 1.0 /. (1.0 +. exp (-.x))
  | Tanh -> tanh x
  | Linear -> x

(* Derivative expressed in terms of the activation output. *)
let act_deriv act y =
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

let layer_forward layer input =
  Array.mapi
    (fun o row ->
      let acc = ref layer.biases.(o) in
      for i = 0 to Array.length row - 1 do
        acc := !acc +. (row.(i) *. input.(i))
      done;
      apply_act layer.act !acc)
    layer.weights

let predict t input =
  assert (Array.length input = inputs t);
  Array.fold_left (fun acc layer -> layer_forward layer acc) input t.layers

let predict1 t input =
  let out = predict t input in
  assert (Array.length out = 1);
  out.(0)

let mse t samples =
  match samples with
  | [] -> 0.0
  | _ ->
    let total =
      List.fold_left
        (fun acc (x, target) ->
          let y = predict t x in
          let e = ref 0.0 in
          Array.iteri (fun i yi -> e := !e +. (((yi -. target.(i)) ** 2.0) /. 2.0)) y;
          acc +. !e)
        0.0 samples
    in
    total /. float_of_int (List.length samples)

(* Forward pass remembering every layer's activations, then standard
   backpropagation. Gradients are accumulated into [gw]/[gb]. *)
let accumulate_gradients t (input, target) gw gb =
  let nlayers = Array.length t.layers in
  let acts = Array.make (nlayers + 1) input in
  for l = 0 to nlayers - 1 do
    acts.(l + 1) <- layer_forward t.layers.(l) acts.(l)
  done;
  let out = acts.(nlayers) in
  let delta = ref (Array.mapi (fun i y -> (y -. target.(i)) *. act_deriv t.layers.(nlayers - 1).act y) out) in
  for l = nlayers - 1 downto 0 do
    let layer = t.layers.(l) in
    let a_in = acts.(l) in
    let d = !delta in
    Array.iteri
      (fun o dv ->
        gb.(l).(o) <- gb.(l).(o) +. dv;
        let wrow = gw.(l).(o) in
        Array.iteri (fun i ai -> wrow.(i) <- wrow.(i) +. (dv *. ai)) a_in)
      d;
    if l > 0 then begin
      let prev = t.layers.(l - 1) in
      let n_in = Array.length a_in in
      let nd =
        Array.init n_in (fun i ->
            let acc = ref 0.0 in
            Array.iteri (fun o dv -> acc := !acc +. (dv *. layer.weights.(o).(i))) d;
            !acc *. act_deriv prev.act a_in.(i))
      in
      delta := nd
    end
  done

let zero_grads t =
  let gw =
    Array.map (fun l -> Array.map (fun row -> Array.make (Array.length row) 0.0) l.weights) t.layers
  in
  let gb = Array.map (fun l -> Array.make (Array.length l.biases) 0.0) t.layers in
  (gw, gb)

(* iRPROP-: per-parameter adaptive steps, sign-based updates. *)
type rprop_state = { steps : float array array array; bsteps : float array array; mutable prev_gw : float array array array; mutable prev_gb : float array array }

let rprop_init t =
  let init = 0.1 in
  {
    steps = Array.map (fun l -> Array.map (fun row -> Array.make (Array.length row) init) l.weights) t.layers;
    bsteps = Array.map (fun l -> Array.make (Array.length l.biases) init) t.layers;
    prev_gw = (let gw, _ = zero_grads t in gw);
    prev_gb = (let _, gb = zero_grads t in gb);
  }

let eta_plus = 1.2
let eta_minus = 0.5
let step_max = 50.0
let step_min = 1e-8

let rprop_update_param value grad prev_grad step =
  let sign = grad *. prev_grad in
  if sign > 0.0 then begin
    let s = min (step *. eta_plus) step_max in
    let dv = if grad > 0.0 then -.s else s in
    (value +. dv, grad, s)
  end
  else if sign < 0.0 then
    (* Overshoot: shrink the step and skip the update this epoch. *)
    (value, 0.0, max (step *. eta_minus) step_min)
  else begin
    let dv = if grad > 0.0 then -.step else if grad < 0.0 then step else 0.0 in
    (value +. dv, grad, step)
  end

let train_rprop ?(epochs = 400) ?(target_mse = 1e-6) t samples =
  assert (samples <> []);
  let st = rprop_init t in
  let rec epoch k =
    if k >= epochs then mse t samples
    else begin
      let gw, gb = zero_grads t in
      List.iter (fun s -> accumulate_gradients t s gw gb) samples;
      Array.iteri
        (fun l layer ->
          Array.iteri
            (fun o row ->
              Array.iteri
                (fun i w ->
                  let v, pg, s = rprop_update_param w gw.(l).(o).(i) st.prev_gw.(l).(o).(i) st.steps.(l).(o).(i) in
                  row.(i) <- v;
                  st.prev_gw.(l).(o).(i) <- pg;
                  st.steps.(l).(o).(i) <- s)
                row;
              let v, pg, s = rprop_update_param layer.biases.(o) gb.(l).(o) st.prev_gb.(l).(o) st.bsteps.(l).(o) in
              layer.biases.(o) <- v;
              st.prev_gb.(l).(o) <- pg;
              st.bsteps.(l).(o) <- s)
            layer.weights)
        t.layers;
      let e = mse t samples in
      if e <= target_mse then e else epoch (k + 1)
    end
  in
  epoch 0

let train_sgd ?(epochs = 200) ?(rate = 0.05) ?rng t samples =
  assert (samples <> []);
  let rng = match rng with Some r -> r | None -> Rng.create 7 in
  let arr = Array.of_list samples in
  for _ = 1 to epochs do
    Rng.shuffle rng arr;
    Array.iter
      (fun s ->
        let gw, gb = zero_grads t in
        accumulate_gradients t s gw gb;
        Array.iteri
          (fun l layer ->
            Array.iteri
              (fun o row ->
                Array.iteri (fun i w -> row.(i) <- w -. (rate *. gw.(l).(o).(i))) row;
                layer.biases.(o) <- layer.biases.(o) -. (rate *. gb.(l).(o)))
              layer.weights)
          t.layers)
      arr
  done;
  mse t samples
