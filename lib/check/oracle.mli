(** The differential oracle: analysis bounds versus simulated ground truth.

    Runs {!Rta_core.Engine.run} and {!Rta_sim.Sim.run} on the same system
    with the same horizons and checks, for every subjob:

    - structural invariants of the computed entry
      ({!Rta_core.Engine.check_entry}: curve representation invariants,
      monotone service, dominance within the horizon, Theorem 2's
      [dep = floor (S / tau)] on exact entries);
    - the simulated arrival and departure counts lie within
      [[arr_lo, arr_hi]] and [[dep_lo, dep_hi]] at every event time up to
      the horizon;
    - the simulated service function lies within [[svc_lo, svc_hi]] — the
      upper check is skipped on exact FCFS entries, whose coinciding
      "service" curves are [tau * departures], deliberately below the true
      cumulative service mid-execution;
    - [exact] entries reproduce the simulated departure trace exactly;
    - every per-instance response bound ({!Rta_core.Response.per_instance})
      dominates the instance's simulated response, and a bounded instance
      whose claimed completion falls inside the horizon did complete.

    All comparisons are pointwise over the merged event times of the curves
    involved, which is exhaustive: step functions are constant and
    piecewise-linear curves linear between consecutive merged knots. *)

type violation = {
  id : Rta_model.System.subjob_id option;
      (** the offending subjob; [None] for whole-analysis violations *)
  kind : string;
      (** ["invariant"], ["arr_lo"], ["arr_hi"], ["dep_lo"], ["dep_hi"],
          ["svc_lo"], ["svc_hi"], ["exact"] or ["response"] *)
  detail : string;
}

type verdict =
  | Passed
  | Skipped of string
      (** the engine could not analyze the system (cyclic dependencies);
          nothing to compare *)
  | Failed of violation list

val check :
  ?fault:Rta_core.Local.fault ->
  ?release_horizon:int ->
  horizon:int ->
  Rta_model.System.t ->
  verdict
(** [fault] (default [`None]) is planted in the engine run under test: the
    oracle's self-test. *)

val pp_violation : Format.formatter -> violation -> unit
