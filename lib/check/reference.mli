(** Frozen baseline curve kernels — the executable specification the
    optimized kernels are differential-tested against — and the paper's
    formulas composed on them.

    Each kernel here is the original, asymptotically naive implementation
    of a hot-path kernel that {!Rta_curve.Minplus} and {!Rta_curve.Pl} have
    since replaced with faster equivalents, or of a computation the
    analysis now does otherwise: {!prefix_min} and {!transform} are the
    paper's min-plus transform, which no analysis path builds any more;
    {!spp_exact} and {!sp_bounds} the Theorem 3 and Theorems 5-6
    computations that {!Rta_curve.Idle} and the {!Rta_curve.Minplus}
    sweeps replaced; {!utilization}, {!departures} and {!fcfs} the chains
    the busy-period walk, the inverse-read departures and the per-jump
    FCFS bounds replaced.  The property tests (test/curve, test/core) and
    the [rta fuzz --kernels] mode check [Pl.equal] between the optimized
    and reference results on randomized and adversarial curves.

    Two whole-system analyses run on these kernels and {!Rta_core.Local}:
    {!as_printed}, Theorems 5-6 exactly as the paper prints them, for the
    ablation (figure T-2b), and {!jacobi}, the textbook Section 6 sweep.

    This module must stay semantically identical to the seed
    implementations.  Performance work belongs in {!Rta_curve.Minplus} and
    {!Rta_curve.Pl}. *)

module Step := Rta_curve.Step
module Pl := Rta_curve.Pl

type mode = [ `Left | `Right ]

val add : Pl.t -> Pl.t -> Pl.t
val sub : Pl.t -> Pl.t -> Pl.t
(** One binary search per merged knot time; same semantics as {!Pl.add} and
    {!Pl.sub}. *)

val min2 : Pl.t -> Pl.t -> Pl.t
val max2 : Pl.t -> Pl.t -> Pl.t
(** Merged knot times plus the straddling pair of every crossing, each
    evaluated by binary search and sorted through a list: the pointwise
    minimum and maximum on the grid, the latter with the semantics of
    {!Pl.max2}.  [min2] serves the {!sp_bounds} oracle. *)

val prefix_min : mode:mode -> avail:Pl.t -> work:Step.t -> Pl.t
(** [prefix_min ~mode ~avail ~work] is
    [m(t) = min over integer 0 <= s <= t of (work*(s) - avail(s))], where
    [work*] is the left limit ([`Left]) or the value ([`Right]) of [work]
    (the two infimum conventions of {!Rta_curve.Minplus}): a list-buffer
    scan over the merged event grid with per-event binary-search
    evaluation. *)

val transform : mode:mode -> avail:Pl.t -> work:Step.t -> Pl.t
(** [transform ~mode ~avail ~work] is [avail + prefix_min ~mode ~avail ~work]:
    the paper's [min over s <= t of (A(t) - A(s) + c(s))].  When [avail] is
    non-decreasing the result is non-decreasing and non-negative. *)

val transform_blocked :
  mode:mode -> avail:Pl.t -> work:Step.t -> blocking:int -> Pl.t
(** Theorem 5's variant: 0 on [0, blocking], and
    [avail(t) + m(t - blocking)] beyond, where [m] is {!prefix_min}.
    @raise Invalid_argument if [blocking < 0]. *)

val spp_exact : horizon:int -> (int * Step.t) list -> (Pl.t * Step.t) list
(** The oracle for the exact SPP path: Theorem 3's formula evaluated on
    this module's kernels, for one processor's residents given highest
    rank first as [(tau, arrivals)].  Each resident gets its service
    [S = A + min over s <= t of (c(s-) - A(s))], where [A] is [t] minus
    the summed service of the residents above it, and its departures
    [min (floor (S / tau)) arr] on [S] truncated at [horizon]
    (Theorem 2).  {!Rta_core.Local} computes the same curves by consuming
    idle intervals ({!Rta_curve.Idle}). *)

val sp_bounds :
  blocking:int ->
  hp_work_hi:Step.t ->
  hp_svc_lo:Pl.t ->
  level_work:Step.t ->
  work_hi:Step.t ->
  Pl.t * Pl.t
(** The oracle for the static-priority bound sweeps: Theorems 5-6 composed
    from this module's kernels, as {!Rta_core.Local} computed them before
    {!Rta_curve.Minplus.sp_lower} and {!Rta_curve.Minplus.sp_upper}
    replaced the chain.  With [b = blocking], [C = hp_work_hi],
    [P = hp_svc_lo] and [W = level_work], the lower bound is
    [t - b - C(t) + m(max 0 (t - b))] with [m] the [`Left] prefix minimum
    of [W] against the identity, and the upper bound
    [min (t - P(t), V(t))] with [V] the [`Right] {!transform} of [work_hi]
    against the identity;
    each is cut at 0 and monotonized ({!Rta_curve.Pl.prefix_max}). *)

val utilization : mode:mode -> Step.t -> Pl.t
(** The oracle for {!Rta_curve.Minplus.utilization}: Theorem 7's
    [U = transform ~mode ~avail:identity ~work:w]. *)

val departures :
  horizon:int -> tau:int -> service:Pl.t -> arrivals:Step.t -> Step.t
(** The oracle for {!Rta_curve.Minplus.departures}: the chain the
    analysis ran before it, [Step.min2 (Pl.to_step_floor_div ~cap
    (Pl.truncate_at service horizon) tau) arrivals] with the cap at the
    arrivals' final value. *)

val fcfs :
  exact:bool ->
  horizon:int ->
  (int * Step.t * Step.t) list ->
  (Step.t * Step.t * bool) list
(** The oracle for one FCFS processor ({!Rta_core.Local.fcfs} and its
    residents' steps): for residents [(tau, arr_lo, arr_hi)], each one's
    [(dep_lo, dep_hi, exact)] by the per-instance construction of
    Theorems 7-9 the analysis ran before it read one departure per
    arrival jump.  The workloads are folded with [Step.add], exactness
    ([exact] and every bracket one curve and no release tie) is checked
    on a sorted list of every release, and each instance of [arr_lo]
    departs by the time the [`Left] utilization of the lower workload
    reaches the upper workload arrived with it (within the horizon), each
    instance of [arr_hi] no earlier than the [`Right] utilization of the
    upper workload reaches the lower workload before it plus [tau], nor
    before its arrival plus [tau] (with exact inputs the lower
    utilization serves both), both capped by their arrivals. *)

(** {1 Whole-system analyses} *)

val as_printed :
  release_horizon:int -> horizon:int -> Rta_model.System.t -> Rta_core.Engine.t
(** Theorems 5-6 exactly as printed in the paper (Eqs. 16-19), chained
    along the dependency order ({!Rta_core.Deps.compute}) like
    {!Rta_core.Engine.run}: stage 0 reads the release trace in
    [[0, release_horizon]], a later stage its predecessor's departure
    bounds.  A resident with blocking [b] ({!Rta_model.System.max_blocking})
    under the higher-priority residents' summed {e lower} service bounds
    [P] (Eq. 17) gets the lower service bound
    [transform_blocked `Left (t - b - P(t), 0 before b) work_lo b] and the
    upper one [transform `Right (t - P(t)) work_hi], each cut at 0 and
    monotonized, and Theorem 2's {!departures}; no entry is exact.  The
    lower bound is unsound (EXPERIMENTS.md, T-2b): it is the ablation's
    subject, not an analysis.
    @raise Invalid_argument unless every processor is SPNP and the
    dependency order is acyclic. *)


type sweep = {
  per_job : Rta_model.Verdict.t array;
      (** end-to-end bound per job: [X] at its last stage, [Unbounded] for
          every job when the sweep did not settle *)
  per_stage : Rta_model.Verdict.t array array;
      (** [X] per subjob: the completion bound relative to the job's
          release *)
  iterations : int;  (** rounds run, the last one observing stability *)
}

val jacobi :
  ?max_iterations:int ->
  ?release_horizon:int ->
  horizon:int ->
  Rta_model.System.t ->
  sweep
(** The paper's Section 6 iteration as a textbook Jacobi sweep over the
    whole system, every subjob an unknown whatever its dependencies:
    each round recomputes every subjob on {!Rta_core.Local}'s step from
    the previous round's [X] only, with no dirty set and no cache across
    rounds, for at most [max_iterations] (default 64) rounds.  It is the
    reference the loops of {!Rta_core.Fixpoint} are checked against, and
    on acyclic systems the price of breaking every chain (figure T-2d). *)
