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
    (Theorems 1 and 4); {!Fixpoint} iterates it over the members of a
    dependency cycle, on arrival brackets derived from response variables
    (Section 6).  Neither re-derives any of
    it: both take a subjob's scheduling policy from {!policy}.

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

type handoff =
  | Sums  (** nothing to reuse: {!push} sums the resident in lazily *)
  | Idle of Rta_curve.Idle.t
      (** an exact SPP resident: the idle time it leaves to lower ranks *)
  | Level of Rta_curve.Step.t
      (** a bounded static-priority resident: its level-k lower workload,
          the higher-priority [work_lo] sum plus its own, which is the
          next rank's higher-priority [work_lo] sum *)
(** What a static-priority resident's step has already computed of the
    next rank's aggregate, for {!push} to take instead of recomputing. *)

type output = {
  svc_lo : Rta_curve.Pl.t Lazy.t;  (** lower service curve (Thm 3/5/8) *)
  svc_hi : Rta_curve.Pl.t Lazy.t;  (** upper service curve (Thm 3/6/9) *)
  dep_lo : Rta_curve.Step.t;  (** lower bound on the departure function *)
  dep_hi : Rta_curve.Step.t Lazy.t;
      (** upper bound on the departure function, built when forced *)
  exact : bool;
      (** the bounds coincide with the true functions: SPP with exact
          inputs, or FCFS with exact tie-free inputs (an extension beyond
          the paper; ties are what made the paper deem exact FCFS
          infeasible) *)
  handoff : handoff;  (** [Sums] on FCFS processors *)
}
(** What is built when.  [dep_lo] always: the verdicts (Theorems 1 and
    4) and the Section 6 iteration read it.  Everything only the upper
    bracket needs is built when [dep_hi] or [svc_hi] is first forced:
    the static-priority upper sweep ({!Rta_curve.Minplus.sp_upper}) with
    the resident's own [`Right] utilization and its upper departure
    walk, or on FCFS the processor's upper utilization handle (shared by
    its residents, built once) and the resident's upper per-jump search.
    The one reader of [dep_hi] on the analysis path is the next stage's
    upper arrival bracket ({!Engine}), so a job's last stage never builds
    it; {!Response.completion_jitter}, {!Engine.check_entry},
    {!Engine.entry_csv}, the fuzz oracle and the tests force it too.  The
    one exception is FCFS with exact tie-free inputs, where [exact]
    compares the two departure bounds and so forces [dep_hi] at once.
    FCFS service curves are synthesized from the departure bounds, and
    exact SPP ones from the idle time taken; both are built only when
    forced, which no verdict does ({!Engine.entry}).  The static-priority
    [svc_lo] is always computed.

    A [Lazy.t] must not be forced from two domains at once: an output,
    and the {!Engine.t} holding it, belongs to the domain that computed
    it (the service front ends keep only verdicts). *)

type fcfs
(** One FCFS processor's context: the summed workload brackets [G_lo] and
    [G_hi] of Theorem 7 over all residents, the utilization functions
    [U_lo] and [U_hi] walked from them ({!Rta_curve.Minplus.utilization},
    truncated at the horizon) as checked inverse handles
    ({!Rta_curve.Pl.Inverse}), and whether the exact FCFS construction
    applies.  Built once per processor ({!val:fcfs}) and shared by its
    residents; [U_hi] is built when the first resident's [dep_hi] is
    forced (at once under exact tie-free inputs, where it is [U_lo]).

    Cost for a processor with I released instances: the workloads are
    summed in pairwise rounds, O(I log I); the release-tie check compares
    jump counts, the summed lower workload having one jump per distinct
    release time, O(I); the two utilization walks are O(I), one step per
    workload jump; and each resident reads one departure per arrival
    jump and bound off the handles with an O(log I) search, the
    instances of a jump sharing their arrival time and hence their
    departure.  So the processor costs O(I log I) in all. *)

type hp
(** The running aggregate of a static-priority resident's higher-priority
    set: the sums of its members' [work_lo] and [work_hi], the members'
    [svc_lo] curves themselves, and, while every member is an exact SPP
    resident, the idle time they leave ({!Rta_curve.Idle}).  Theorems 3
    and 5-6 read the set only through these, so a processor's residents
    taken in rank order ({!Rta_model.System.by_priority}) extend one
    aggregate by one member each ({!push}) instead of re-summing the set
    per resident.  The workload sums are built lazily, when a bound first
    needs them, on exact canonical integer curves: the order of the pushes
    cannot change a bound.  The service curves are never summed: they are
    a persistent list, each rank's sharing the next-higher rank's as its
    tail, which the upper bound reads as one sum through a merged forward
    reader ({!Rta_curve.Pl.Merged}).  While the idle map is valid, the
    list is the one curve [t - idle time in [0, t]] read off it.

    Cost on an SPP processor with N residents and I instances: an exact
    resident consumes its instances' idle time from the map, one
    O(log I) search per instance and per interval it uses up, so exact
    SPP costs O(I log I) per processor where summing the services above
    each resident cost O(N I).

    A bounded resident (SPNP, or SPP with bracketed inputs)
    takes its Theorem 5-6 bounds from two single-pass sweeps
    ({!Rta_curve.Minplus.sp_lower}, {!Rta_curve.Minplus.sp_upper}): the
    lower one walks the jumps of the higher-priority [work_hi] sum and of
    its level-k workload once, O(1) each; the upper one reads the sum of
    the higher-priority [svc_lo] curves only in the windows where its own
    upper workload is above the bound so far, through one merged reader
    that moves a member's cursor only past that member's knots, and its
    own utilization is one walk over its jumps
    ({!Rta_curve.Minplus.utilization}).  Its two departure bounds read
    each instance's departure off the service curves with one forward
    reader each ({!Rta_curve.Minplus.departures}), O(knots + instances).
    Its level-k workload is summed once and handed to the next rank
    ({!handoff}), and its service curve is consed onto the members' list
    when pushed, so a processor of bounded residents costs O(N I), with a
    small constant: no curve of O(I) knots is built besides the bounds
    and the two workload sums.

    Rank-order invariant: a static-priority resident depends on every
    resident above it ({!Deps}, through the next-higher one), so the
    dependency order of the components computes an SPP/SPNP processor's
    residents highest priority first, and a cyclic component's residents
    there are consecutive in rank.  {!Engine} relies on this to keep a
    single aggregate per processor, pushing each resident after computing
    it and a settled loop's members in rank order; the loop's iteration
    ({!Fixpoint}) starts from the aggregate of the residents above its
    topmost member and caches each member's aggregate, as its next-higher
    member's plus that member. *)

val empty : hp
(** The aggregate of the empty set: the highest-priority resident's. *)

val hp_work_lo : hp -> Rta_curve.Step.t
val hp_work_hi : hp -> Rta_curve.Step.t
val hp_svc_lo : hp -> Rta_curve.Pl.t
(** The aggregate's sums (forcing them; the [svc_lo] sum is built here,
    with {!Rta_curve.Pl.sum}), for tests and inspection. *)

type policy =
  | Static of {
      preemptive : bool;  (** SPP; [false] for SPNP *)
      blocking : int;
          (** Eq. 15 blocking; a non-zero value forces the bound path
              even when preemptive *)
      hp : hp;  (** the higher-priority co-residents, aggregated *)
    }
  | Fcfs of fcfs

val policy :
  Rta_model.System.t ->
  Rta_model.System.subjob_id ->
  hp:(unit -> hp) ->
  fcfs:(unit -> fcfs) ->
  policy
(** The policy of a subjob's processor: SPP is preemptive with blocking 0,
    SPNP non-preemptive with Eq. 15's blocking
    ({!Rta_model.System.max_blocking}), both over the higher-priority
    aggregate [hp ()]; FCFS is the processor's context [fcfs ()].  Each
    argument is called only under its own scheduler. *)

val push : hp -> input -> output -> hp
(** [push hp i o] is the aggregate of [hp]'s set plus one resident with
    bracket [i] and bounds [o]: pushing a resident after computing it
    yields the aggregate of the next lower rank.  No workload is summed
    until a bound forces it, and no service curve is added at all. *)

val fcfs : ?cancel:Cancel.t -> exact:bool -> horizon:int -> input list -> fcfs
(** The context of a processor with these residents, over [0, horizon].
    With [exact] the FCFS analysis is exact when every resident's
    bracket is a single function and no two releases on the processor
    tie; [exact:false] never claims exactness.  [cancel] (default
    {!Cancel.never}) is polled after each utilization walk. *)

val fcfs_exact : fcfs -> bool
(** Whether the context applies the exact construction: it was built
    with [exact], every resident's bracket is one curve, every jump of
    one rises by 1 and no two residents share a release time.  For tests
    and inspection. *)

val step :
  ?cancel:Cancel.t ->
  horizon:int ->
  policy ->
  input ->
  output
(** One resident's bounds over [0, horizon].  The SPP exact path
    (Theorem 3) is taken when the policy is preemptive without blocking,
    the input is exact and the aggregate still holds an idle map (every
    higher-priority output came from this path).  Its service equals
    Theorem 3's formula at every integer time, provided the bracket
    counts no instance at time 0 before it ([Step.init_value] is 0, as
    for every bracket the analysis builds); instances counted there are
    served from time 0.  [cancel]
    (default {!Cancel.never}) is polled every few hundred FCFS instances,
    also while a later force builds [dep_hi], so force it within the
    same deadline.  An FCFS policy's context must have been built with
    the same [horizon]. *)
