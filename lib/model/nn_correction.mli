(** Design-level neural-network corrections for place-and-route effects.

    Section IV.B.2: "We model LUT routing usage, register duplication, and
    unavailable LUTs using a set of small artificial neural networks...
    Each network has three fully connected layers with eleven input nodes,
    six hidden layer nodes, and a single output node. One network is trained
    for each factor on a common set of 200 design samples... Duplicated
    block RAMs are estimated as a linear function of the number of routing
    LUTs... Like the template models, these neural networks are application
    independent and only need to be trained once for a given target device
    and toolchain." *)

module Target = Dhdl_device.Target

type t

type corrections = {
  routing_luts : int;
  duplicated_regs : int;
  unavailable_luts : int;
  duplicated_brams : int;
}

val train :
  ?seed:int ->
  ?samples:int ->
  ?epochs:int ->
  Characterization.t ->
  Target.t ->
  t
(** Generate the training corpus with {!Design_gen}, synthesize every sample
    with the simulated toolchain, and train the three 11-6-1 networks (on
    effect-to-LUT ratios, min-max normalized inputs) plus the BRAM
    duplication linear model. Defaults: 200 samples, 400 RPROP epochs.
    Raises [Invalid_argument] when [samples] is below 1. *)

val correct : t -> Area_model.raw -> corrections
(** Predict the four P&R corrections for a design's raw estimate. *)

val training_mse : t -> float * float * float
(** Final training MSE of (routing, duplicated-regs, unavailable) networks. *)

val samples_used : t -> int
