(** Frozen baseline curve kernels — the executable specification the
    optimized kernels are differential-tested against.

    Each function here is the original, asymptotically naive implementation
    of a hot-path kernel that {!Minplus} and {!Pl} have since replaced with
    faster equivalents.  The property tests (test/curve) and the
    [rta fuzz --kernels] mode check [Pl.equal] between the optimized and
    reference results on randomized and adversarial curves; the bench
    harness times both sides and gates CI on the speedup ratio.  The module
    satisfies {!Rta_curve.KERNELS}, so a whole analysis can run on it
    ({!Rta_core.Local.Make}).

    This module must stay semantically identical to the seed
    implementations.  Performance work belongs in {!Minplus}/{!Pl}. *)

type mode = [ `Left | `Right ]

val add : Pl.t -> Pl.t -> Pl.t
val sub : Pl.t -> Pl.t -> Pl.t
(** One binary search per merged knot time; same semantics as {!Pl.add} and
    {!Pl.sub}. *)

val min2 : Pl.t -> Pl.t -> Pl.t
val max2 : Pl.t -> Pl.t -> Pl.t
(** Merged knot times plus the straddling pair of every crossing, each
    evaluated by binary search and sorted through a list; same semantics as
    {!Pl.min2} and {!Pl.max2}. *)

val prefix_min : mode:mode -> avail:Pl.t -> work:Step.t -> Pl.t
(** List-buffer prefix-minimum scan with per-event binary-search evaluation;
    same semantics as {!Minplus.prefix_min}. *)

val convolve : Pl.t -> Pl.t -> Pl.t
(** Left-deep fold of {!min2} over {!add}-shifted candidates, O((n + m)²)
    knot insertions; same semantics as {!Minplus.convolve} (without its
    value-magnitude guard). *)

val of_step : Step.t -> Pl.t
(** List-buffer conversion; same semantics as {!Pl.of_step}. *)

val event_times : Pl.t -> Step.t -> int array
(** Merged event grid used by {!prefix_min}; identical to
    {!Minplus.event_times}. *)
