(** Admission-probability estimation (Section 5.1).

    The paper's metric: generate N random job sets from a configuration and
    report the fraction each analysis method admits (all deadlines provably
    met).  Each method analyses the {e same} randomly drawn parameters
    (periods, weights, assignments, deadlines) running under its own
    scheduling policy, exactly as in the paper's comparison. *)

type method_ =
  | Spp_exact  (** Section 4.1 exact analysis, SPP processors *)
  | Spp_sl  (** Sun & Liu's bound ({!Rta_baselines.Sunliu}), SPP *)
  | Spnp_app  (** Theorem 4-6 bounds, SPNP processors *)
  | Fcfs_app  (** Theorem 4 + 7-9 bounds, FCFS processors *)
  | Spp_app
      (** extension: the approximate bounds applied to SPP — isolates the
          value of exactness from the value of preemption *)

val method_name : method_ -> string

val admits :
  ?estimator:[ `Direct | `Sum ] -> method_ -> Rta_model.System.t -> bool
(** Whether the method admits the job set (horizons from
    {!Rta_model.System.suggested_horizons}).  [estimator] (default
    [`Sum], the paper's Theorem 4) applies to the approximate methods. *)

type point = {
  utilization : float;
  admitted : (method_ * float) list;  (** admission probability per method *)
}

val sweep :
  ?estimator:[ `Direct | `Sum ] ->
  ?domains:int ->
  methods:method_ list ->
  config_of:(utilization:float -> sched:Rta_model.Sched.t -> Rta_workload.Jobshop.config) ->
  utilizations:float list ->
  sets:int ->
  seed:int ->
  unit ->
  point list
(** For every utilization, draw [sets] job sets (deterministically from
    [seed]) and measure each method's admission probability.  Set [i] uses
    the same random parameters for every method.

    Job sets are independent and seed-addressed, so they are evaluated in
    parallel on [domains] workers of {!Rta_service.Backend} (default:
    {!Rta_service.Backend.default_jobs}); the result is bit-identical for
    any worker count. *)

val to_table : point list -> header:string list -> string list list * string list
(** Rows and header for {!Tabular.render}: one row per utilization, one
    column per method. *)
