(** The worker pool: every parallel fan-out in the project ({!Batch},
    {!Server}, [Rta_experiments.Admission.sweep]) runs through it. *)

val name : string
(** ["domains"]: workers are OCaml 5 domains. *)

val default_jobs : unit -> int
(** A sensible worker count for this machine: the runtime's recommended
    domain count. *)

val run : jobs:int -> (unit -> unit) array -> unit
(** [run ~jobs tasks] executes every task exactly once.  Workers pull
    tasks in array order from a shared index, so with [jobs = 1]
    execution order is exactly array order; with more workers tasks are
    {e dispatched} in array order but may complete out of order.  Tasks
    are expected to handle their own exceptions; if one leaks, the
    remaining tasks still run and the first exception is re-raised after
    all workers finish. *)
