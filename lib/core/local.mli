(** The per-processor step of the paper's analysis (Sections 4.1-4.2): one
    resident subjob's arrival bracket in, its service and departure bounds
    out.

    - on an SPP processor whose inputs are exact, Theorem 3 gives the
      {e exact} service function and hence exact departures (Theorem 2);
    - on an SPP/SPNP processor with bounded inputs, Theorems 5-6 (with
      blocking Eq. 15; blocking 0 for SPP) give lower/upper service bounds,
      and Lemmas 1-2 turn them into departure bounds;
    - on an FCFS processor, Theorems 7-9 bound departures through the
      utilization function of the processor's summed workload.

    {!Engine} composes this step along the chains in dependency order
    (Theorems 1 and 4); {!Fixpoint} iterates it over arrival brackets
    derived from response variables (Section 6).  Neither re-derives any of
    it.

    Conventions beyond the paper's text (all documented choices err on the
    sound side; see DESIGN.md section 4):

    - minima over real time are evaluated with left limits at workload
      discontinuities ([`Left] mode) for exact/lower quantities and with the
      right-continuous values ([`Right] mode) for upper quantities;
    - departure lower bounds are capped by the arrival lower bound (an
      instance not guaranteed to have arrived cannot be guaranteed to have
      departed), and departure upper bounds by the arrival upper bound;
    - service bounds are monotonized with the running maximum, which is
      sound because true service functions are non-decreasing;
    - FCFS bounds are built per instance: the i-th departure is guaranteed
      by the time the (lower-bounded) utilization reaches the upper-bounded
      workload arrived up to the latest possible arrival of instance i, and
      can occur no earlier than the time the upper-bounded utilization
      reaches the lower-bounded workload that must precede the earliest
      possible arrival of instance i plus one execution time (Theorem 9's
      [+ tau]). *)

type fault =
  [ `None
  | `Fcfs_drop_tau
    (** drop Theorem 9's [+ tau] (the instance's own demand) from the FCFS
        guaranteed-departure target: dep_lo claims departures one execution
        time too early *) ]
(** A known-unsound bug the fuzz harness plants to prove its oracle can
    catch one.  Only {!Engine.run}'s [?fault] reaches it. *)

type variant = [ `Sound | `As_printed ]
(** The SPP/SPNP bound construction: [`Sound] uses the level-k busy-window
    formulation proved in local.ml; [`As_printed] reproduces the paper's
    Eqs. 16-19 literally, whose lower bound is demonstrably unsound (see
    EXPERIMENTS.md) — retained only for the ablation study. *)

type input = private {
  tau : int;  (** execution time of the resident *)
  arr_lo : Rta_curve.Step.t;  (** lower bound on the arrival function *)
  arr_hi : Rta_curve.Step.t;  (** upper bound on the arrival function *)
  work_lo : Rta_curve.Step.t;  (** [tau * arr_lo] *)
  work_hi : Rta_curve.Step.t;  (** [tau * arr_hi] *)
  exact : bool;  (** the bracket is the true arrival function *)
}

val input :
  tau:int -> arr_lo:Rta_curve.Step.t -> arr_hi:Rta_curve.Step.t -> exact:bool -> input
(** A resident's arrival bracket, with its workload bracket scaled once. *)

type output = {
  svc_lo : Rta_curve.Pl.t Lazy.t;  (** lower service curve (Thm 3/5/8) *)
  svc_hi : Rta_curve.Pl.t Lazy.t;  (** upper service curve (Thm 3/6/9) *)
  dep_lo : Rta_curve.Step.t;  (** lower bound on the departure function *)
  dep_hi : Rta_curve.Step.t;  (** upper bound on the departure function *)
  exact : bool;
      (** the bounds coincide with the true functions: SPP with exact
          inputs, or FCFS with exact tie-free inputs (an extension beyond
          the paper; ties are what made the paper deem exact FCFS
          infeasible) *)
}
(** FCFS service curves are synthesized from the departure bounds and only
    built when forced; the static-priority ones are always computed. *)

type fcfs
(** One FCFS processor's context: the summed workload brackets [G_lo] and
    [G_hi] of Theorem 7 over all residents, and whether the exact FCFS
    construction applies.  Built once per processor and shared by its
    residents. *)

val fcfs : exact:bool -> input list -> fcfs
(** The context of a processor with these residents.  With [exact] the
    FCFS analysis is exact when every resident's bracket is a single
    function and no two releases on the processor tie; [exact:false] never
    claims exactness. *)

type policy =
  | Static of {
      preemptive : bool;  (** SPP; [false] for SPNP *)
      blocking : int;
          (** Eq. 15 blocking plus any resource blocking; a non-zero value
              forces the bound path even under SPP *)
      hp : (input * output) list;  (** higher-priority co-residents *)
    }
  | Fcfs of fcfs

module type S = sig
  val step :
    ?cancel:Cancel.t ->
    ?fault:fault ->
    ?variant:variant ->
    horizon:int ->
    policy ->
    input ->
    output
  (** One resident's bounds over [0, horizon].  The SPP exact path
      (Theorem 3) is taken when the policy is preemptive without blocking
      and the input and every higher-priority output are exact.  [cancel]
      (default {!Cancel.never}) is polled every few hundred FCFS instances;
      [fault] (default [`None]) and [variant] (default [`Sound]) as
      above. *)
end

module Make (K : Rta_curve.KERNELS) : S
(** The step on the given curve kernels.  The analysis runs on the
    optimized ones (below); the test support runs a textbook fixed point
    on {!Rta_curve.Reference} to check the two end to end. *)

include S
