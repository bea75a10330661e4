(** Differential fuzzing of the optimized curve kernels against the frozen
    {!Rta_curve.Reference} baselines ([rta fuzz --kernels]).

    Where {!Fuzz} compares the whole analysis against a discrete-event
    simulation, this module compares the {e kernels} pairwise on random
    curves: {!Rta_curve.Minplus.convolve} (general, convex and concave
    operand shapes), {!Rta_curve.Minplus.prefix_min} (both infimum modes),
    the array-builder {!Rta_curve.Pl.of_step}, and cursor evaluation
    against direct evaluation.  Curves are generated segment-wise so
    plateaus, one-tick segments and negative slopes are ordinary members
    of the distribution, not special cases.

    Because normal forms are canonical, any disagreement is a real bug in
    one of the two implementations.  Mismatching inputs are greedily shrunk
    (dropping knots and jumps, zeroing tails) before reporting; a case is
    reproduced by re-running with the same [seed] and a [count] that covers
    its [index]. *)

type mismatch = {
  seed : int;
  index : int;  (** the trial was generated from [Rng.make (seed + index)] *)
  check : string;  (** e.g. ["convolve-convex"], ["prefix-min-left"] *)
  detail : string;  (** shrunk inputs and both implementations' outputs *)
  file : string option;  (** where the mismatch was written *)
}

type outcome = {
  tested : int;
  passed : int;  (** trials with no mismatch on any check *)
  mismatches : mismatch list;
  elapsed_s : float;
}

val run :
  ?out_dir:string -> ?budget_s:float -> seed:int -> count:int -> unit -> outcome
(** Run up to [count] trials (each exercising every check once), stopping
    early when [budget_s] wall-clock seconds have elapsed.  With [out_dir]
    (created if missing), every mismatch is written as
    [out_dir/kernel-mismatch-<seed>-<index>-<check>.txt]. *)

val render : mismatch -> string
(** The report text written for a mismatch. *)
