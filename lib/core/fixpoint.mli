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
      the release, not from [arr_hi^{-1}]), read by
      {!Rta_curve.Step.max_lag} from the release trace to [dep_lo]: one
      walk over both curves' jumps.

    [X] only grows: each member's new value is joined with its previous
    one, so the iteration either stops moving or some bound reaches the
    horizon and the component's downstream jobs are rejected.

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
    fixed point every bracket the iteration builds is sound.

    {b Sweep order.}  Each round is a symmetric Gauss-Seidel sweep by
    processor: the members are taken one processor at a time, in
    ascending processor order on odd rounds and descending order on even
    rounds, and a member's new [X] is written in place as soon as it
    rises, so every later member of the same round reads it.  Chains run
    both ways through the processors of a loop, and each direction gets
    a sweep that follows it.  Within a processor the members keep
    {!Rta_model.System.subjobs_on}'s order and share one FCFS context and
    one chain of rank-ordered higher-priority aggregates, rebuilt within
    the round only when a member's rise moves what they read.

    {b Stopping.}  The iteration stops after a whole round in which no
    member rose.  In that round every member's bounds were computed from
    the final [X] (or, unchanged inputs, are still valid for it) and lie
    at or below it: the stopping point is an [X] with [F(X) <= X] for
    every member.  The brackets built from such an [X] are
    self-consistent: assuming every member completes within its [X], the
    per-processor steps bound every member's completion within its [X]
    again.  That is the premise the Section 6 soundness argument needs,
    and it holds whatever order the sweep took to reach that [X].  The
    order changes how fast [X] settles.  Where it
    settles is not a theorem, since [F] need not be monotone, but it is
    tested: wherever the textbook Jacobi sweep (every round reading only
    the previous round's [X]) settles on a component fed the same
    boundaries, this loop settles on the same brackets and bounds, on
    every cyclic fuzz system of seeds 0-9999 and on the 16-job
    chain-swapped shops under each scheduler (the [jacobi] parity tests
    in [test/core]).

    {b Dirty set.}  A round recomputes only the members whose inputs
    moved since [X] last took in their bounds: a member reads the [X]
    components of its chain predecessor, of the chain predecessors of its
    higher-priority co-residents (SPP/SPNP), and of the chain
    predecessors of all co-residents (FCFS: the summed workload of
    Theorem 7).  Every [X] component carries a version stamp, and a
    member is recomputed at its turn exactly when its read list holds a
    stamp newer than the one its bounds were taken in under.
    Recomputing a member with unchanged inputs reproduces its bounds, so
    the iterates, the verdicts and the round count are those of the same
    sweep recomputing every member each round (the [parity] tests in
    [test/core]). *)

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
  release:(int -> Rta_curve.Step.t) ->
  horizon:int ->
  input:(Rta_model.System.subjob_id -> Local.input) ->
  above:(int -> Local.hp) ->
  Rta_model.System.t ->
  Rta_model.System.subjob_id list ->
  loop
(** [loop ~release ~input ~above system members] iterates [X] over one
    cyclic component's members, starting from the earliest completions.
    [release j] is job [j]'s release trace, the counting function of its
    instances' releases; the loop reads it, and never builds one.  [input
    id] is the final arrival bracket of a member or FCFS co-resident [id]
    past stage 0 whose chain predecessor is outside the component; [above
    p] is the aggregate of the residents ranked above the component's
    members on static-priority processor [p].  [cancel] as for
    {!Engine.run}. *)
