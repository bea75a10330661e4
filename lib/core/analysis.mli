(** One-call front end over the analysis machinery.

    Runs {!Engine.run} once, on every system, and labels and reads its
    answer by what the system is:

    - all processors SPP with acyclic dependencies: the exact analysis
      (Theorem 1-3) — [method_used = `Exact];
    - acyclic with approximations somewhere (SPNP/FCFS processors, or mixed):
      bound propagation (Theorems 4-9) — [`Approximate], with the chosen
      end-to-end estimator;
    - cyclic dependencies: the Section 6 fixed point over each cycle, and
      bound propagation elsewhere — [`Fixpoint], read with [`Direct]
      whatever the estimator (Theorem 1's shape on the final departure
      bounds, at most [X] at the last stage). *)

type config = {
  estimator : [ `Direct | `Sum ];
      (** end-to-end composition in the approximate regime; the exact
          regime ignores it *)
  release_horizon : int option;  (** ticks; derived from the periods if absent *)
  horizon : int option;  (** ticks; derived if absent *)
}
(** Everything a front end can ask of an analysis, in one record.  The
    CLI, the batch service and the fuzz harness all build a [config] in
    exactly one place each and thread it through unchanged; cache keys
    ([Rta_service.Key]) hash the record canonically. *)

val default : config
(** [`Direct] estimator, derived horizons. *)

val config :
  ?estimator:[ `Direct | `Sum ] -> ?release_horizon:int -> ?horizon:int -> unit -> config
(** {!default} with the given fields overridden. *)

val resolve_horizons : config -> Rta_model.System.t -> int * int
(** [(release_horizon, horizon)] as {!run} will use them: explicit fields
    win; otherwise [release_horizon] comes from
    {!Rta_model.System.suggested_horizons}, capped at half an explicit
    [horizon] (at least 1) so that releases keep a window to drain in, and
    [horizon] defaults to
    [max suggested (2 * release_horizon)].  So [release_horizon <= horizon]
    unless both fields are explicit and contradict each other, which the
    front ends reject as invalid input ({!Engine.run} raises on it).  Both
    results are always positive: doublings saturate at [max_int] instead of wrapping and
    non-positive explicit fields are clamped to 1, so degenerate systems
    (huge periods, near-[max_int] traces) cannot produce a negative or
    zero horizon downstream. *)

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

type report = {
  method_used : [ `Exact | `Approximate | `Fixpoint ];
  per_job : verdict array;  (** worst-case end-to-end response per job *)
  schedulable : bool;  (** all jobs bounded within their deadlines *)
  release_horizon : int;  (** as resolved for this analysis *)
  horizon : int;
}

val run : ?cancel:Cancel.t -> ?config:config -> Rta_model.System.t -> report
(** Analyze with the given configuration (default {!default}).  [cancel]
    (default {!Cancel.never}) is threaded into {!Engine.run}; when it fires
    mid-flight the call raises
    {!Cancel.Cancelled} and service front ends degrade to
    {!Envelope_analysis} bounds. *)

val run_engine :
  ?cancel:Cancel.t -> ?config:config -> Rta_model.System.t -> report * Engine.t
(** {!run}, also returning the engine run it read the report off: a front
    end that prints more than the report ([rta analyze --explain],
    [--dump-curves]) reads it from the same run. *)

val pp_report : Rta_model.System.t -> Format.formatter -> report -> unit
