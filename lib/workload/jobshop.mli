(** The paper's job-shop workload generator (Section 5).

    A shop is a sequence of stages with a fixed number of processors per
    stage (Figure 2).  Every job traverses the stages in order, executing on
    one uniformly chosen processor per stage.  Release times, execution
    times, deadlines and priorities follow Section 5.2:

    - {b periods}: [rho_k = 1/x_k] time units with [x_k] uniform in
      [(x_min, 1)] (the paper draws from (0, 1); the configurable lower cut
      keeps the tick-quantized horizon bounded — see DESIGN.md);
    - {b releases}: Eq. 25 (periodic, zero offset) or Eq. 27 (the bursty
      aperiodic pattern);
    - {b execution times}: Eq. 26/28 — weights [w_kj] uniform in (0, 1),
      scaled per processor so the processor's load matches the target
      utilization.  [`Exact_utilization] (default) normalizes so each
      processor's utilization is exactly the target
      ([tau = U * w * rho / sum of w]); [`As_printed] follows the formula
      literally ([tau = U * w * rho / sum of w * rho]), whose realized
      utilization is systematically below the target — EXPERIMENTS.md
      quantifies the difference;
    - {b deadlines}: a multiple of the period (periodic experiments,
      Fig. 3) or offset + exponential (aperiodic experiments, Fig. 4 —
      the offset/scale split lets mean and variance vary independently
      across the figure's panels);
    - {b priorities}: Eq. 24 relative-deadline-monotonic sub-deadlines. *)

type arrival_kind = Periodic_eq25 | Bursty_eq27

type deadline_model =
  | Multiple_of_period of float  (** Fig. 3: [D = m * rho], [m >= 1] *)
  | Shifted_exponential of { offset : float; scale : float }
      (** Fig. 4: [D = offset + Exp(scale)] time units; mean
          [offset + scale], standard deviation [scale]. *)

type config = {
  stages : int;
  procs_per_stage : int;
  jobs : int;
  utilization : float;  (** target per-processor load, in (0, 1) *)
  arrival : arrival_kind;
  deadline : deadline_model;
  sched : Rta_model.Sched.t;  (** same policy on every processor *)
  x_min : float;  (** lower cut for [x_k]; default 0.1 via {!default} *)
  eq26 : [ `Exact_utilization | `As_printed ];
}

val default :
  stages:int ->
  jobs:int ->
  utilization:float ->
  arrival:arrival_kind ->
  deadline:deadline_model ->
  sched:Rta_model.Sched.t ->
  config
(** Two processors per stage (Figure 2's shape), [x_min = 0.1],
    [`Exact_utilization]. *)

val generate : config -> rng:Rng.t -> Rta_model.System.t
(** A random job set drawn from the configuration.  Deterministic in the
    rng state. *)
