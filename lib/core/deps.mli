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

    This module builds that dependency relation and topologically sorts it.
    Chains that revisit processors or priority structures that interlock
    across processors can make it cyclic — the paper's "physical/logical
    loops" (Section 6) — in which case the fixed-point fallback
    ({!Fixpoint}) must be used instead. *)

type order =
  | Acyclic of Rta_model.System.subjob_id list
      (** All subjobs in a valid evaluation order. *)
  | Cyclic of Rta_model.System.subjob_id list
      (** The subjobs involved in (or downstream of) some dependency
          cycle. *)

val compute : Rta_model.System.t -> order
