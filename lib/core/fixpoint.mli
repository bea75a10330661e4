(** Fixed-point analysis for systems with cyclic dependencies — the
    extension sketched in the paper's conclusion (Section 6).

    When chains revisit processors ("physical loops") or priority structures
    interlock across processors ("logical loops"), the arrival function of a
    subjob can transitively depend on its own departure function and
    {!Engine} cannot order the computation.  Following the paper's proposal,
    the analysis makes a per-subjob bound an unknown vector [X] and iterates
    [X <- F(X)] from below.  [X_kj] bounds the {e completion} of stage [j]
    of job [k] relative to the job's release (cumulative over stages
    [0..j], not a per-stage latency):

    - given [X], subjob [T_kj]'s arrival function is bracketed from the
      job's release trace alone: instances reach stage [j] no earlier than
      release + (sum of upstream execution times) and no later than
      release + [X_k(j-1)];
    - with every subjob's arrival bracketed, the per-processor step
      ({!Local}, Theorems 3-9) gives departure bounds, with no chain
      propagation — cycles are broken;
    - [X'_kj = max_m (dep_lo^{-1}(m) - r_k(m))], where [r_k(m)] is the
      release instant of the job's [m]-th instance (Eq. 12 measured from
      the release, not from [arr_hi^{-1}]).

    [F] is monotone (forced by joining with the previous iterate), so the
    iteration either stabilizes — a sound fixed point — or some bound
    exceeds the horizon and the job set is rejected.

    Each round re-evaluates only the subjobs whose inputs changed in the
    previous round: a subjob reads the [X] components of its chain
    predecessor, of the chain predecessors of its higher-priority
    co-residents (SPP/SPNP), and of the chain predecessors of all
    co-residents (FCFS — the summed workload of Theorem 7).  Every [X]
    component carries a version stamp, and a subjob is re-evaluated
    exactly when its cached bounds are stale under those stamps.
    Recomputing a subjob with unchanged inputs reproduces its value, so the
    iterates, the verdicts and the iteration count are those of the
    textbook full Jacobi sweep; the differential tests in [test/core]
    assert it.

    The module accepts acyclic systems too, which makes it directly
    comparable to {!Engine} (the ablation benchmark measures the price of
    breaking cycles). *)

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

type result = {
  per_job : verdict array;
      (** end-to-end bound per job: [X] at its last stage, [Unbounded] for
          every job when the iteration did not converge *)
  per_stage : verdict array array;
      (** [X] per subjob: the completion bound relative to the job's
          release *)
  iterations : int;
}

val unbounded_sentinel : int -> int
(** [unbounded_sentinel horizon]: the value an [X] component takes when no
    bound exists within the horizon (above any reachable completion
    offset, so joins keep it absorbing); it maps to [Unbounded]. *)

val analyze :
  ?cancel:Cancel.t ->
  ?release_horizon:int ->
  horizon:int ->
  Rta_model.System.t ->
  result
(** The iteration stops after at most 64 rounds; a system still moving
    then yields [Unbounded] for every job.  [cancel] (default {!Cancel.never}) is polled at every
    iteration and every recomputed subjob; when it fires the iteration
    unwinds with {!Cancel.Cancelled}. *)
