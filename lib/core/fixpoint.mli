(** Fixed-point analysis for cyclic dependencies — the extension sketched
    in the paper's conclusion (Section 6).

    When chains revisit processors ("physical loops") or priority structures
    interlock across processors ("logical loops"), the arrival function of a
    subjob can transitively depend on its own departure function, and no
    order computes it ({!Deps}).  Following the paper's proposal, the
    analysis makes a per-subjob bound an unknown [X] and iterates
    [X <- F(X)] from below, over the members of one cyclic component of
    the dependency graph ({!Deps.Loop}) at a time: {!Engine} runs {!loop}
    on each, so [X] exists only for component members.  [X_kj] bounds the
    {e completion} of stage [j] of job [k] relative to the job's release
    (cumulative over stages [0..j], not a per-stage latency):

    - given [X], member [T_kj]'s arrival function is bracketed by its
      boundary: at stage 0 the job's release trace; after a member, from
      the release trace alone, no earlier than release + (sum of upstream
      execution times) and no later than release + [X_k(j-1)]; after a
      subjob outside the component, that subjob's final departure bounds,
      which the caller hands in;
    - with every member's arrival bracketed, the per-processor step
      ({!Local}, Theorems 3-9) gives departure bounds, with no chain
      propagation inside the component — its cycles are broken;
    - [X'_kj = max_m (dep_lo^{-1}(m) - r_k(m))], where [r_k(m)] is the
      release instant of the job's [m]-th instance (Eq. 12 measured from
      the release, not from [arr_hi^{-1}]).

    [F] is monotone (forced by joining with the previous iterate), so the
    iteration either stabilizes — a sound fixed point — or some bound
    exceeds the horizon and the component's downstream jobs are rejected.

    {b Boundaries.}  A member's step reads, besides the brackets above:

    - on a static-priority processor, the aggregate of every resident
      ranked above it.  A component's residents on one processor are
      consecutive in rank ({!Deps}), so the residents above its topmost
      member all come before the component: their aggregate ([above]) is
      fixed, and each lower member's is the next-higher member's plus that
      member, recomputed as the members move;
    - on an FCFS processor, the summed workload of every resident.  Its
      join point is in the component ({!Deps}), so every resident is a
      member or comes after the component, with a chain predecessor that
      is a member (bracketed from [X] as above) or comes before it (its
      final bounds).

    Those boundaries are final bounds of earlier components, so at a
    fixed point every bracket the iteration builds is as sound as it is
    when the whole system iterates as one component ({!analyze}).

    Each round re-evaluates only the members whose inputs changed in the
    previous round: a member reads the [X] components of its chain
    predecessor, of the chain predecessors of its higher-priority
    co-residents (SPP/SPNP), and of the chain predecessors of all
    co-residents (FCFS — the summed workload of Theorem 7).  Every [X]
    component carries a version stamp, and a member is re-evaluated
    exactly when its cached bounds are stale under those stamps.
    Recomputing a member with unchanged inputs reproduces its value, so the
    iterates, the verdicts and the iteration count are those of the
    textbook full Jacobi sweep; the differential tests in [test/core]
    assert it. *)

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

type loop = {
  rounds : int;  (** rounds run, the last one observing stability *)
  settled : bool;
      (** [X] stopped moving within 64 rounds; otherwise the members have
          no bound *)
  final : Rta_model.System.subjob_id -> Local.input * Local.output;
      (** a member's arrival bracket and bounds in the last round, when
          settled: those of the fixed point *)
}

val loop :
  ?cancel:Cancel.t ->
  ?fault:Local.fault ->
  ?variant:Local.variant ->
  release_horizon:int ->
  horizon:int ->
  input:(Rta_model.System.subjob_id -> Local.input) ->
  above:(int -> Local.hp) ->
  Rta_model.System.t ->
  Rta_model.System.subjob_id list ->
  loop
(** [loop ~input ~above system members] iterates [X] over one cyclic
    component's members, starting from the earliest completions.  [input
    id] is the final arrival bracket of a member or FCFS co-resident [id]
    past stage 0 whose chain predecessor is outside the component; [above
    p] is the aggregate of the residents ranked above the component's
    members on static-priority processor [p].  [cancel], [fault] and
    [variant] as for {!Engine.run}. *)

val analyze :
  ?cancel:Cancel.t ->
  ?release_horizon:int ->
  horizon:int ->
  Rta_model.System.t ->
  result
(** The whole system iterated as one component, every subjob a member
    whatever its dependencies: acyclic systems too, which makes it
    directly comparable to {!Engine} (the ablation benchmark measures the
    price of breaking every chain).  The iteration stops after at most 64
    rounds; a system still moving then yields [Unbounded] for every job.
    [cancel] (default {!Cancel.never}) is polled at every iteration and
    every recomputed subjob; when it fires the iteration unwinds with
    {!Cancel.Cancelled}. *)
