(** The hybrid estimator: the paper's complete estimation flow.

    Combines the fitted template models ({!Characterization}), the raw
    analytical pass ({!Area_model}), the neural-network place-and-route
    corrections ({!Nn_correction}) and LUT-packing arithmetic into final
    post-P&R-comparable area numbers, plus the closed-form cycle model.

    Build one with {!create} (characterizes and trains once — the
    "only once per device and toolchain" setup cost), then call
    {!estimate} per design point; each call is a few graph walks and some
    arithmetic, which is what makes design space exploration feasible. *)

module Target = Dhdl_device.Target

type t

type area = {
  alms : int;
  luts : int;
  regs : int;
  dsps : int;
  brams : int;
  routing_luts : int;
  unavailable_luts : int;
  duplicated_regs : int;
  duplicated_brams : int;
}

type estimate = {
  area : area;
  cycles : float;
  seconds : float;
  raw : Area_model.raw;  (** The pre-correction analytical pass. *)
}

val create :
  ?dev:Target.t -> ?board:Target.board -> ?seed:int -> ?train_samples:int -> ?epochs:int -> unit -> t
(** Characterize templates and train the correction networks. *)

val of_parts : ?dev:Target.t -> ?board:Target.board -> Characterization.t -> Nn_correction.t -> t

val estimate : t -> Dhdl_ir.Ir.design -> estimate
(** Estimate one design point. Degrades gracefully: when the NN correction
    yields an insane area (negative corrections or a negative assembled
    count), the point falls back to the raw analytical model (zero
    corrections) instead of poisoning the caller, and the
    [estimator.nn_fallback] {!Dhdl_obs.Obs} counter is bumped. The
    {!Dhdl_util.Faults} site [estimator.nn_correction] forces the poisoned
    path for testing. *)

val estimate_area : t -> Dhdl_ir.Ir.design -> area
val estimate_cycles : t -> Dhdl_ir.Ir.design -> float

val estimate_area_uncorrected : t -> Dhdl_ir.Ir.design -> area
(** Raw template counts assembled without the neural-network P&R
    corrections — the ablation baseline showing what the hybrid scheme
    buys (routing, duplication and packing-loss effects are simply
    missing). *)

val estimate_uncorrected : t -> Dhdl_ir.Ir.design -> estimate
(** {!estimate_area_uncorrected} and the cycle model as one estimate: the
    cheap fallback a degraded served estimate answers with. *)

val fits : t -> area -> bool
(** Whether the estimated design fits the target device. *)

val utilization : t -> area -> float * float * float
(** (ALM, DSP, BRAM) percentages of the device. *)

val device : t -> Target.t
val board : t -> Target.board
val characterization : t -> Characterization.t
val corrections : t -> Nn_correction.t

val timed_estimate : t -> Dhdl_ir.Ir.design -> estimate * float
(** The estimate plus the wall-clock seconds it took — the quantity Table IV
    compares against high-level synthesis. *)

val save : t -> string -> unit
(** Persist a trained estimator (characterization + networks) so the
    once-per-toolchain setup cost is paid once per machine, not per run.
    Uses OCaml marshalling; the file is only valid for the same build. *)

val load : string -> t option
(** Reload a saved estimator; [None] when the file is missing or from a
    different build. *)
