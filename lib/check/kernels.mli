(** Differential fuzzing of the optimized curve kernels against the frozen
    {!Reference} baselines ([rta fuzz --kernels]).

    Where {!Fuzz} compares the whole analysis against a discrete-event
    simulation, this module compares the {e kernels} pairwise on random
    curves: the pointwise {!Rta_curve.Pl.add}, [sub] and [max2], cursor
    evaluation against direct evaluation, the checked inverse handle
    {!Rta_curve.Pl.Inverse} against the dense scan [Dense.inverse_geq]
    (and its rejection of a falling curve), the pairwise
    {!Rta_curve.Step.sum} against a left fold of [Step.add], and the exact
    SPP path of {!Rta_core.Local}, which consumes idle intervals
    ({!Rta_curve.Idle}), against Theorem 3's formula
    ({!Reference.spp_exact}) on random release sets ranked on one
    processor: every resident's departures and service curve, and the
    static-priority bound sweeps {!Rta_curve.Minplus.sp_lower} and
    [sp_upper] against Theorems 5-6 composed on the reference kernels
    ({!Reference.sp_bounds}), with the higher-priority service drawn as 0
    to 6 member curves that [sp_upper] reads merged and the formula
    takes summed, the utilization walk
    {!Rta_curve.Minplus.utilization} against the prefix-minimum transform
    ({!Reference.utilization}), the departure read
    {!Rta_curve.Minplus.departures} against Theorem 2's chain
    ({!Reference.departures}), one FCFS processor's per-jump bounds
    against the per-instance construction ({!Reference.fcfs}), and Eq.
    12's walk {!Rta_curve.Step.max_lag} against the per-instance read
    ({!Reference.max_lag}) at counts up to past both curves' final
    values.  Curves are
    generated segment-wise so plateaus, one-tick segments and negative
    slopes are ordinary members of the distribution, not special cases.

    Because normal forms are canonical, any disagreement is a real bug in
    one of the two implementations.  Mismatching inputs are greedily shrunk
    (dropping knots, jumps, sum terms, residents and releases, zeroing
    tails, lowering execution times and blocking) before reporting;
    a case is reproduced by re-running with the same [seed] and a [count]
    that covers its [index].  Each check draws its inputs from its own
    stream, seeded from [seed + index] and the check's name, so adding or
    removing a check changes no other check's inputs: results at one seed
    compare across versions. *)

type mismatch = {
  seed : int;
  index : int;
      (** the trial: its checks drew from streams seeded from
          [seed + index] and their names *)
  check : string;
      (** e.g. ["pointwise"], ["cursor-pl"], ["inverse-geq"],
          ["step-sum"], ["spp-idle"], ["sp-sweep"], ["utilization"],
          ["departures"], ["fcfs-departures"], ["max-lag"] *)
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
