(** Cooperative cancellation for long-running analyses.

    A token is a cheap deadline test the engine and the fixed-point solver
    poll at natural checkpoints (per subjob, per iteration, every few
    thousand FCFS instances).  When the token fires, the analysis
    raises {!Cancelled} and unwinds; callers catch it and degrade (the
    batch/serve front ends fall back to {!Envelope_analysis} bounds).

    Polling keeps the hot loops signal-free and domain-safe: nothing is
    interrupted asynchronously, so the engine's internal state can never
    be observed half-built.  The flip side is granularity — a single
    min-plus kernel call between checkpoints runs to completion — so
    checkpoints are placed where the per-unit work is bounded. *)

type t

exception Cancelled
(** Raised by {!check} (and therefore by any analysis entry point that
    received a token) when the token has fired.  Never raised by
    {!never}. *)

val never : t
(** The default token: never fires, and {!check} on it is one branch. *)

val of_deadline : float -> t
(** [of_deadline t] fires once {!Rta_obs.now} exceeds [t] (absolute
    wall-clock seconds).  The deadline is evaluated at every {!check}. *)

val check : t -> unit
(** @raise Cancelled if the token has fired. *)
