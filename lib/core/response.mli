(** End-to-end response times and schedulability verdicts.

    Theorem 1 computes the exact worst-case end-to-end response time from
    the exact departure function of the last subjob; Theorem 4 bounds it by
    the sum of per-stage bounds.  A third estimator, [`Direct], applies the
    Theorem 1 formula to the {e lower-bounded} departure function of the
    last stage — sound for the same reason Theorem 4 is, and never looser
    than the per-stage sum; the ablation benchmark quantifies the gap. *)

type verdict = Verdict.t =
  | Bounded of int  (** worst-case end-to-end response time, in ticks *)
  | Unbounded
      (** some instance could not be shown to depart within the analysis
          horizon (the job set is rejected) *)

type estimator = [ `Exact | `Direct | `Sum ]
(** [`Exact] — Theorem 1; requires {!Engine.is_exact}.
    [`Direct] — Theorem 1's formula on departure lower bounds.
    [`Sum] — Theorem 4 as printed. *)

val instance_count : Engine.t -> job:int -> int
(** Number of instances released within the release horizon. *)

val end_to_end : Engine.t -> estimator:estimator -> job:int -> verdict
(** Worst-case end-to-end response of a job per the chosen estimator.
    @raise Invalid_argument if [`Exact] is requested on a non-exact
    analysis. *)

val stage_bounds : Engine.t -> job:int -> verdict list
(** Theorem 4's per-stage local response bounds [d_kj] (Eq. 12). *)

val per_instance : Engine.t -> job:int -> (int * verdict) list
(** Worst-case end-to-end response of every released instance
    ([(m, bound)], [m >= 1]): Theorem 1's inner expression
    [f_dep,last^{-1}(m) - f_arr,first^{-1}(m)] on the departure lower
    bounds.  Exact per-instance responses in the exact regime; sound
    per-instance bounds otherwise. *)

val completion_jitter : Engine.t -> job:int -> verdict
(** Bound on the end-to-end {e completion jitter}: the largest spread
    between an instance's earliest possible completion ([dep_hi]) and its
    guaranteed completion ([dep_lo]), over all released instances.  Zero in
    the exact regime; what a downstream consumer outside the system (e.g.
    an actuator) must tolerate otherwise. *)

val job_ok : Engine.t -> estimator:estimator -> job:int -> bool
(** Whether the job's verdict is bounded and within its deadline. *)

val schedulable : Engine.t -> estimator:estimator -> bool
(** Conjunction of {!job_ok} over all jobs: the admission test. *)

val pp_verdict : Format.formatter -> verdict -> unit
