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
  svc_lo : Rta_curve.Pl.t;  (** lower service curve (Thm 3/5/8) *)
  svc_hi : Rta_curve.Pl.t;  (** upper service curve (Thm 3/6/9) *)
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
  ?extra_blocking:(Rta_model.System.subjob_id -> int) ->
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
    unaffected by it.

    [extra_blocking] models contention for shared resources other than the
    processors — the second open problem of the paper's Section 6 — as a
    per-subjob bound on the time lower-priority work can hold a resource
    the subjob needs (e.g. the longest outside critical section under a
    priority-ceiling protocol).  A non-zero value forces the bound path
    even on SPP processors (blocking makes the Theorem 3 service function
    inexact) and adds to Eq. 15's blocking under SPNP.  Default: no
    resource blocking. *)

val entry : t -> Rta_model.System.subjob_id -> entry

val check_entry : t -> entry -> string list
(** Structural invariants of a computed entry, one message per violation
    (empty = all hold): every curve satisfies its representation invariant
    ({!Rta_curve.CURVE}), service curves are non-decreasing and
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
