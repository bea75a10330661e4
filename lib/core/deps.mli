(** Computation order for the per-subjob service functions.

    A subjob's service function is computable once the following are known
    (Theorems 3, 5-9):

    - the arrival function of the subjob itself, i.e. the departure function
      of its chain predecessor;
    - on SPP/SPNP processors: the service functions of every
      higher-priority subjob sharing the processor, recorded as a
      dependency on the next-higher one, which waits for the rest;
    - on FCFS processors: the arrival functions of {e all} subjobs sharing
      the processor (the total workload [G] of Theorem 7), i.e. the
      departures of all their predecessors, recorded through one join
      point per processor, so O(N) edges for N residents.

    This module builds that dependency relation and splits it into its
    strongly connected components (Tarjan's algorithm), listed in
    dependency order.  Chains that revisit processors or priority
    structures that interlock across processors make some components
    cyclic: the paper's "physical/logical loops" (Section 6), which
    {!Engine} breaks with the {!Fixpoint} iteration over their members
    only.

    Three facts about the relation keep that iteration local (each follows
    from the edges above):

    - a cyclic component's residents on one static-priority processor are
      consecutive in rank: a resident ranked between two members depends
      on the upper one and is depended on by the lower one, so it lies on
      their cycle;
    - an FCFS resident in a cyclic component has its processor's join
      point in the same component (it depends on the join point, which
      depends on its way back to it), so every other resident of that
      processor comes after the component or in it;
    - a chain's members in a cyclic component are consecutive steps: a
      step between two members depends on the earlier one and is
      depended on by the later one. *)

type component =
  | Single of Rta_model.System.subjob_id
      (** a subjob on no dependency cycle: one local step *)
  | Loop of Rta_model.System.subjob_id list
      (** the subjobs of one cyclic component, sorted; its FCFS join
          points are left out *)

val components : Rta_model.System.t -> component list
(** Every subjob in exactly one component; each component comes after
    every component it depends on. *)

type order =
  | Acyclic of Rta_model.System.subjob_id list
      (** All subjobs in a valid evaluation order: the {!Single}
          components of {!components}, in its order. *)
  | Cyclic of Rta_model.System.subjob_id list
      (** The subjobs on some dependency cycle (the members of the
          {!Loop} components), sorted. *)

val compute : Rta_model.System.t -> order
