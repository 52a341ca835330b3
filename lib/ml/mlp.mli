(** Small fully connected feed-forward neural network.

    The paper (Section IV.B) models place-and-route effects with three-layer
    networks — eleven inputs, six hidden nodes, one output — trained with the
    Encog library. This module provides the same model class: dense layers,
    sigmoid hidden activations, linear output, trained with resilient
    backpropagation (RPROP, Encog's default trainer). *)

type t

type activation = Sigmoid | Tanh | Linear

val create : ?rng:Dhdl_util.Rng.t -> layer_sizes:int list -> ?hidden:activation -> unit -> t
(** [create ~layer_sizes:[inputs; hidden1; ...; outputs] ()] builds a network
    with small random initial weights. At least two sizes are required. *)

val inputs : t -> int
val outputs : t -> int

val predict : t -> float array -> float array
(** Forward pass. Raises [Invalid_argument] unless the input length is
    [inputs t]. *)

val predict1 : t -> float array -> float
(** Forward pass of a single-output network. *)

(** The functions below take samples as [(inputs, targets)] pairs and
    raise [Invalid_argument] when a sample's input width differs from
    [inputs t] or it has fewer targets than [outputs t]. *)

val mse : t -> (float array * float array) list -> float
(** Mean squared error over a sample set: each sample's halved squared
    errors summed over its outputs, summed over the samples in list
    order, divided by their count. *)

val train_rprop : ?epochs:int -> ?target_mse:float -> t -> (float array * float array) list -> float
(** Batch iRPROP- training. Mutates the network and returns its error
    after the last update applied, as {!mse} reads it. Training stops
    after [epochs] updates (400), or as soon as an update leaves the error
    at or below [target_mse] (1e-6). Each epoch runs every sample forward
    and backward once, and its forward passes also give the error of the
    previous update; one forward-only pass follows the last update. The
    epoch loop allocates nothing. *)

val train_sgd :
  ?epochs:int -> ?rate:float -> ?rng:Dhdl_util.Rng.t -> t -> (float array * float array) list -> float
(** Stochastic gradient descent alternative (used in ablation tests);
    returns {!mse} after the last epoch. *)
