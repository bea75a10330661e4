(** The paper's response-time analysis engine (Sections 4.1-4.2), the one
    driver for every system.

    Walks the components of the dependency graph in dependency order
    ({!Deps.components}) and computes, for every subjob, bounds on its
    arrival, service and departure functions:

    - a subjob on no dependency cycle gets one per-processor step
      ({!Local}): the first stage's arrivals are the exact release trace,
      every later stage inherits its predecessor's departure bounds
      (Theorem 1 / Lemma 2's chain), and the step turns the arrival
      bracket into service and departure bounds;
    - a cyclic component (the paper's Section 6 loops) runs the
      {!Fixpoint.loop} iteration over its members only.  Its boundary is
      final: stage 0 reads the release trace, a member after a subjob
      outside the component reads that subjob's final departure bounds, a
      member after a member reads the bracket
      [[release + X_pred, release + best-case prefix]] of the iteration,
      and a static-priority member reads the final aggregate of the
      residents ranked above the component.  Subjobs after the component
      read its members' final entries like any other, and an FCFS
      processor it shares is analysed, for its residents outside the
      component, with a context rebuilt from those final brackets.

    So the acyclic parts of a cyclic system keep their exact or
    chain-propagated bounds.  In a system with a loop, every inherited
    upper arrival bracket is also capped by the earliest possible
    arrivals, release + the execution times of the stages before, which
    is what the iteration's brackets assume: an upper service bound read
    on the tick grid can claim a departure a tick before it is possible,
    and a loop reading that looser boundary can settle above the
    textbook iteration over the whole system.  Acyclic systems keep the
    plain chain. *)

type entry = {
  id : Rta_model.System.subjob_id;
  tau : int;  (** execution time of this subjob *)
  arr_lo : Rta_curve.Step.t;  (** lower bound on the arrival function *)
  arr_hi : Rta_curve.Step.t;  (** upper bound on the arrival function *)
  svc_lo : Rta_curve.Pl.t Lazy.t;  (** lower service curve (Thm 3/5/8) *)
  svc_hi : Rta_curve.Pl.t Lazy.t;
      (** upper service curve (Thm 3/6/9).  The service curves are what
          {!Local.output} holds: no verdict reads them, so the exact SPP
          and FCFS paths, whose departures do not go through them, build
          them only when forced ({!check_entry}, the fuzz oracle, tests).
          The static-priority [svc_lo] is always built, and [svc_hi] with
          [dep_hi]. *)
  dep_lo : Rta_curve.Step.t;
      (** lower bound on the departure function, always built: the
          verdicts read it *)
  dep_hi : Rta_curve.Step.t Lazy.t;
      (** upper bound on the departure function, built when first forced
          ({!Local.output}).  The run forces it where the next stage's
          upper arrival bracket needs it, so a job's last stage leaves
          it unbuilt (save FCFS with exact tie-free inputs, whose
          exactness test compares the two bounds);
          {!Response.completion_jitter}, {!check_entry}, {!entry_csv},
          the fuzz oracle and the tests force it on demand.  Force it
          from the domain that ran the analysis: a [Lazy.t] forced from
          two domains at once raises.  The service front ends never
          keep a [t], only its verdicts. *)
  exact : bool;
      (** true when [arr_lo = arr_hi] and [dep_lo = dep_hi] describe the
          true functions exactly (see {!Local.output}) *)
}

type loop = {
  members : Rta_model.System.subjob_id list;
      (** one cyclic component's subjobs ({!Deps.Loop}) *)
  rounds : int;  (** rounds of the Section 6 iteration it ran *)
  settled : bool;
      (** whether it reached its fixed point within 64 rounds.  An
          unsettled loop's members have no bound: their entries are
          stepped from brackets with [X] at
          {!Fixpoint.unbounded_sentinel}, which are sound without any fixed
          point (no guaranteed arrival within the horizon, the earliest
          arrivals as the upper bracket), and every job downstream of them
          is [Unbounded] *)
}

type t = {
  system : Rta_model.System.t;
  horizon : int;
  release_horizon : int;
  entries : entry array array;  (** indexed by job, then step *)
  loops : loop list;
      (** the cyclic components, in dependency order ([[]] when acyclic);
          their members' entries come from the Section 6 iteration *)
}

val run :
  ?cancel:Cancel.t ->
  ?release_horizon:int ->
  horizon:int ->
  Rta_model.System.t ->
  (t, [ `Cyclic of Rta_model.System.subjob_id list ]) result
(** Analyze the system over [0, horizon].  The answer is always [Ok]: a
    loop still moving after 64 rounds leaves only its own members and the
    subjobs downstream of them without a bound ({!loop}), not the whole
    system.  The [Error] case stays in the type for callers that match on
    it.  First-stage releases are taken
    in [0, release_horizon] (default [horizon]); analyzing with
    [release_horizon < horizon] leaves slack for in-flight instances to
    depart, avoiding spurious [Unbounded] verdicts at the horizon edge.

    [cancel] (default {!Cancel.never}) is polled before every subjob, every
    round and recomputed member of an iteration, and every few hundred FCFS
    instances; when it fires the walk unwinds with
    {!Cancel.Cancelled} and no partial result escapes.  The service front
    ends use it to enforce per-request deadlines mid-flight. *)

val entry : t -> Rta_model.System.subjob_id -> entry

val check_entry : t -> entry -> string list
(** Structural invariants of a computed entry, one message per violation
    (empty = all hold): every curve satisfies its representation invariant
    ([Step.invariant], [Pl.invariant]), service curves are non-decreasing and
    non-negative, upper bounds dominate lower bounds within the horizon,
    and [exact] entries have coinciding bounds satisfying Theorem 2's
    [dep = floor (S / tau)].  The fuzz oracle ({!Rta_check}) runs this on
    every entry of every generated system. *)

val entry_csv : t -> Rta_model.System.subjob_id -> string
(** The entry's four counting functions (arrival and departure bounds) as
    CSV over their merged change points: [t, arr_lo, arr_hi, dep_lo,
    dep_hi].  For plotting an analysis externally. *)

val is_exact : t -> bool
(** Whether every entry is exact (the SPP/Exact regime: all processors SPP
    and the dependency order acyclic; no entry of a cyclic component is
    exact). *)
