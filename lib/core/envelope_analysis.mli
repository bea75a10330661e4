(** Horizon-free response-time bounds from arrival envelopes — the network
    calculus reading of the paper's technique (its references [20, 21]).

    The trace-based engine ({!Engine}) answers "what happens to {e these}
    releases"; this module answers "what happens to {e any} releases
    conforming to an envelope", with no analysis horizon: sources are
    specified by {!Rta_curve.Envelope} curves and the bounds hold for every
    conforming trace, periodic or not.

    Scope: {!response_bound} answers for one processor; {!system_bounds}
    chains it through any acyclic {!Rta_model.System.t}, one subjob at a
    time, at each subjob's own per-stage priority.  On a processor, each
    source's leftover service curve is

    - SPP:  [beta(d) = (d - b - sum_hp alpha_hp(d) * tau_hp)+] with [b = 0];
    - SPNP: the same with [b] the largest lower-priority execution time
      (Eq. 15);
    - FCFS: the same construction with {e every other} source as an
      interferer and no blocking — conservative, because FCFS can never be
      overtaken by arrivals later than one's own, while the leftover curve
      charges them.

    The response bound is the horizontal deviation between the source's own
    workload envelope and its leftover service curve, both evaluated over
    the level busy window (whose length is a fixed point of the total
    interfering demand).  Standard network calculus results (Cruz; Le
    Boudec & Thiran) give soundness; the tests validate the bounds against
    both the trace engine and the simulator on periodic instantiations. *)

type source = {
  name : string;
  envelope : Rta_curve.Envelope.t;  (** release envelope *)
  tau : int;  (** execution time per instance, ticks *)
  prio : int;  (** static priority (ignored under FCFS) *)
}

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

val response_bound :
  sched:Rta_model.Sched.t -> sources:source list -> int -> verdict
(** Worst-case response time of the [i]-th source (0-based) on a single
    processor shared by all [sources] under the given policy.  [Unbounded]
    when the demand's long-run rate is not dominated by the leftover
    service rate.

    The internal curves are materialized out to a window covering several
    "hyperperiods" of the envelopes; staircase envelopes keep their exact
    closed form through {!Rta_curve.Envelope.worst_arrival_function}. *)

val all_bounds :
  sched:Rta_model.Sched.t -> sources:source list -> verdict array

(** {1 Whole systems}

    Envelope propagation along every job's chain, the Cruz /
    network-calculus composition of the paper's per-stage bounds.  Subjobs
    are processed in dependency order ({!Deps}); each stage's arrival
    envelope is the predecessor's envelope widened by its response jitter:
    after a stage with bound [R] and execution [tau], releases can bunch by
    up to [R - tau], so the next stage sees [Envelope.widen ~jitter:(R -
    tau)].  Each stage's bound is {!response_bound} against its
    co-residents at their own priorities on that processor.  The result
    shape matches {!Rta_model.System.t}: [per_stage.(j)] has one cell per
    step of job [j] (rows are ragged), [end_to_end.(j)] is the Theorem 4
    sum.  Cost is polynomial in the envelope descriptions — no trace horizon
    is ever materialized beyond the busy windows.  Used by [rta envelope]
    and as the service layer's degraded-mode answer when an exact analysis
    is cancelled ({!Cancel.Cancelled}). *)

type result = {
  end_to_end : verdict array;  (** per job: the Theorem 4 sum of its stages *)
  per_stage : verdict array array;  (** [per_stage.(j).(k)]: job j, step k *)
}

val system_bounds : release_horizon:int -> Rta_model.System.t -> result option
(** Bounds for the releases within [release_horizon]: the bursty, sporadic
    and trace envelopes ({!Rta_model.Arrival.envelope}) are built from those
    releases, so a caller standing in for an analysis passes that
    analysis's resolved release horizon.  [None] when the system's
    dependencies are cyclic ({!Deps.Cyclic}) — envelope propagation needs
    an order.  A stage whose bound diverges poisons its own chain's
    downstream stages ([Unbounded]) but not other chains. *)
