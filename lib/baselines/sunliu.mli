(** The SPP/S&L baseline: Sun & Liu's iterative end-to-end bound for
    distributed systems under the Direct Synchronization protocol
    (references [1, 2] of the paper), for {e periodic} jobs on preemptive
    static-priority processors.

    Each subjob is modelled as a periodic task with release jitter inherited
    from upstream: stage [j]'s releases fall within a window of width
    [J_kj = C_k(j-1) - best_k(j-1)] after the nominal release, where
    [C_k(j-1)] is the worst-case and [best_k(j-1) = sum of tau] the
    best-case completion of the prefix.  Local responses are computed with
    the jitter-aware busy-period recurrence ({!Busy_period}) and the jitters
    are iterated to a global fixed point, exactly the structure of Sun &
    Liu's algorithm.  The end-to-end bound is the sum of local responses.

    {!Holistic} is the same machinery with the cruder jitter
    [J = C_k(j-1)] of the original holistic analysis that Sun & Liu
    improved upon — kept for the ablation table. *)

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

type result = {
  per_job : verdict array;  (** end-to-end response bound per job *)
  iterations : int;  (** global fixed-point iterations performed *)
}

val analyze :
  ?jitter_model:[ `Sun_liu | `Holistic ] ->
  ?max_iterations:int ->
  Rta_model.System.t ->
  (result, string) Stdlib.result
(** Fails with [Error] if any job's arrival pattern is not [Periodic] or
    any processor is not SPP (the method's applicability conditions, as in
    the paper's evaluation).  Offsets are ignored: the analysis is
    offset-oblivious (critical-instant based), hence valid for any
    phasing. *)

val schedulable : result -> Rta_model.System.t -> bool
