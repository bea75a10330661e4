(** The paper's response-time analysis engine (Sections 4.1-4.2) for
    systems whose subjobs can be ordered.

    Walks the subjobs in dependency order ({!Deps}) and computes, for every
    subjob, bounds on its arrival, service and departure functions: the
    first stage's arrivals are the exact release trace, every later stage
    inherits its predecessor's departure bounds (Theorem 1 / Lemma 2's
    chain), and the per-processor step ({!Local}) turns each arrival
    bracket into service and departure bounds. *)

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
          The static-priority bounds are always built. *)
  dep_lo : Rta_curve.Step.t;  (** lower bound on the departure function *)
  dep_hi : Rta_curve.Step.t;  (** upper bound on the departure function *)
  exact : bool;
      (** true when [arr_lo = arr_hi] and [dep_lo = dep_hi] describe the
          true functions exactly (see {!Local.output}) *)
}

type t = {
  system : Rta_model.System.t;
  horizon : int;
  release_horizon : int;
  entries : entry array array;  (** indexed by job, then step *)
}

val run :
  ?cancel:Cancel.t ->
  ?fault:Local.fault ->
  ?variant:Local.variant ->
  ?release_horizon:int ->
  horizon:int ->
  Rta_model.System.t ->
  (t, [ `Cyclic of Rta_model.System.subjob_id list ]) result
(** Analyze the system over [0, horizon].  First-stage releases are taken
    in [0, release_horizon] (default [horizon]); analyzing with
    [release_horizon < horizon] leaves slack for in-flight instances to
    depart, avoiding spurious [Unbounded] verdicts at the horizon edge.

    [cancel] (default {!Cancel.never}) is polled before every subjob and
    every few thousand FCFS instances; when it fires the walk unwinds with
    {!Cancel.Cancelled} and no partial result escapes.  The service front
    ends use it to enforce per-request deadlines mid-flight.

    [fault] (default [`None]) plants a known-unsound bug for the fuzz
    oracle's self-test; only {!Rta_check} passes anything else.

    [variant] (default [`Sound]) selects the SPP/SPNP approximate bound
    construction ({!Local.variant}).  The SPP exact path and FCFS are
    unaffected by it. *)

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
    and the dependency order acyclic). *)
