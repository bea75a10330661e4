(** The distributed system model of Section 3.

    A system is a set of processors, each running one scheduler, and a set
    of independent jobs.  A job is a chain of subjobs executed on successive
    processors; completion of a subjob releases the next one immediately
    (Direct Synchronization).  Each job has an end-to-end deadline and a
    release pattern for its first subjob. *)

type step = { proc : int; exec : int; prio : int }
(** One subjob: processor index, execution time in ticks ([>= 1]), and
    static priority on that processor (smaller value = higher priority;
    ignored on FCFS processors). *)

type job = {
  name : string;
  arrival : Arrival.pattern;
  deadline : int;  (** end-to-end, in ticks *)
  steps : step array;  (** the chain [T_k1 ... T_k,nk]; non-empty *)
}

type t = private { schedulers : Sched.t array; jobs : job array }
(** [schedulers.(p)] is the policy of processor [p]. *)

type subjob_id = { job : int; step : int }
(** Index of subjob [T_{job+1, step+1}] (0-based here, 1-based in the
    paper). *)

val make : schedulers:Sched.t array -> jobs:job array -> (t, string) result
(** Validates: non-empty chains, positive execution times, processor
    indices in range, valid arrival patterns, positive deadlines, and
    distinct priorities among the subjobs sharing an SPP/SPNP processor. *)

val make_exn : schedulers:Sched.t array -> jobs:job array -> t
(** @raise Invalid_argument on the same conditions. *)

val processor_count : t -> int
val job_count : t -> int
val subjob_count : t -> int

val job : t -> int -> job
val step : t -> subjob_id -> step
val scheduler_of : t -> int -> Sched.t

val subjobs_on : t -> int -> subjob_id list
(** All subjobs assigned to a processor, in (job, step) order. *)

val by_priority : t -> int -> subjob_id list
(** A processor's residents in rank order, highest priority (smallest
    [prio]) first; equal priorities (FCFS processors) keep {!subjobs_on}'s
    order.  On an SPP/SPNP processor each resident's higher-priority set
    is exactly the residents listed before it. *)

val higher_priority_on : t -> subjob_id -> subjob_id list
(** Subjobs sharing this subjob's processor with strictly higher priority
    (smaller [prio]).  Meaningful for SPP/SPNP processors. *)

val max_blocking : t -> subjob_id -> int
(** Eq. 15: the largest execution time among lower-priority subjobs on this
    subjob's processor (0 if none). *)

val utilization : t -> proc:int -> float option
(** Asymptotic utilization [sum tau / period] of a processor; [None] if any
    subjob on it has a [Trace] arrival (no asymptotic rate). *)

val max_utilization : t -> float option
(** Largest per-processor utilization; [None] if any is unavailable. *)

val total_exec : job -> int
(** Sum of the chain's execution times (the job's end-to-end demand). *)

val suggested_horizons : t -> int * int
(** [(release_horizon, horizon)] matched to the system's periods: releases
    cover ten of the longest period (at least ten time units when no
    pattern has a period), with equal slack for in-flight instances to
    drain.  The single source of the defaulting rule used by
    [Rta_core.Analysis], the CLI and the batch service. *)

val pp : Format.formatter -> t -> unit
