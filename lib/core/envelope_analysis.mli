(** Horizon-free response-time bounds from arrival envelopes — the network
    calculus reading of the paper's technique (its references [20, 21]).

    The trace-based engine ({!Engine}) answers "what happens to {e these}
    releases"; this module answers "what happens to {e any} releases
    conforming to an envelope", with no analysis horizon: sources are
    specified by {!Rta_curve.Envelope} curves and the bounds hold for every
    conforming trace, periodic or not.

    Scope: one processor (the multi-stage case is served by feeding
    {!Rta_curve.Envelope.worst_trace} to the engine).  For each source the
    leftover service curve is

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

type verdict = Verdict.t = Bounded of int | Unbounded

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

val schedulable :
  sched:Rta_model.Sched.t -> deadlines:int list -> sources:source list -> bool
(** Every source's bound within its deadline. *)

(** {1 Pipelines}

    Sources crossing a sequence of processors, one per stage, every source
    visiting the stages in order (the Figure 2 shop with one processor per
    stage).  Envelopes propagate by widening: after a stage with response
    bound [R] and execution [tau], releases can bunch by up to [R - tau],
    so the next stage sees [Envelope.widen ~jitter:(R - tau)].  The
    end-to-end bound is the sum of per-stage bounds (the Theorem 4
    composition, envelope-style). *)

type pipeline_source = {
  p_name : string;
  p_envelope : Rta_curve.Envelope.t;  (** releases of the first stage *)
  taus : int array;  (** execution time per stage; same length for all *)
  p_prio : int;  (** priority on every stage *)
}

type pipeline_result = {
  end_to_end : verdict array;  (** per source *)
  per_stage : verdict array array;  (** [per_stage.(i).(k)]: source i, stage k *)
}

val pipeline_bounds :
  scheds:Rta_model.Sched.t array -> sources:pipeline_source list -> pipeline_result
(** @raise Invalid_argument if the [taus] lengths disagree with [scheds]. *)

(** {1 Whole systems}

    The degraded-mode fallback of the service layer: when an exact analysis
    is cancelled mid-flight ({!Cancel.Cancelled}), the server still owes the
    client a sound answer, fast.  [system_bounds] is {!pipeline_bounds}
    generalized to any acyclic {!Rta_model.System.t}: subjobs are processed
    in dependency order ({!Deps}), each stage's arrival envelope is the
    predecessor's envelope widened by the predecessor's response jitter, and
    each stage's bound is {!response_bound} against its co-residents.  The
    result shape matches {!Rta_model.System.t}: [per_stage.(j)] has one cell
    per step of job [j] (rows are ragged), [end_to_end.(j)] is the Theorem 4
    sum.  Cost is polynomial in the envelope descriptions — no trace horizon
    is ever materialized beyond the busy windows. *)

val system_bounds : Rta_model.System.t -> pipeline_result option
(** [None] when the system's dependencies are cyclic ({!Deps.Cyclic}) —
    envelope propagation needs an order; callers fall back to reporting the
    timeout undegraded.  A stage whose bound diverges poisons its own
    chain's downstream stages ([Unbounded]) but not other chains. *)
