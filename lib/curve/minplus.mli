(** The min-plus prefix transform at the heart of the paper's analysis.

    Theorems 3, 5, 6 and 7 all compute expressions of the shape

    {[ F(t) = min over 0 <= s <= t of ( A(t) - A(s) + c(s) ) ]}

    for an availability function [A] (piecewise linear) and a workload
    function [c] (a step function).  Writing
    [m(t) = min over s <= t of (c(s) - A(s))] this is [F = A + m], and [m]
    is computable with one scan over the merged event points of [A] and [c].
    The analysis evaluates Theorem 3's exact SPP service by consuming idle
    intervals instead ({!Idle}); the formula is kept as the oracle that
    checks that path, on the frozen reference scan.

    The minimum over {e real} [s] matters at the discontinuities of [c]: the
    infimum approaches the left limit [c(s-)].  The [mode] argument selects
    which convention is used:

    - [`Left]: candidates are [c(s-) - A(s)] — the mathematically exact
      evaluation of the paper's infimum, required for the {e exact} SPP
      service function (Theorem 3), for {e lower} service bounds (Theorem 5)
      and for the utilization function (Theorem 7).
    - [`Right]: candidates are [c(s) - A(s)] — the literal right-continuous
      reading, which yields a (weakly larger) value; used for {e upper}
      service bounds (Theorem 6, Theorem 9) where rounding up is the sound
      direction.

    All results are grid-exact (see {!Pl}). *)

type mode = [ `Left | `Right ]

val prefix_min : mode:mode -> avail:Pl.t -> work:Step.t -> Pl.t
(** [prefix_min ~mode ~avail ~work] is
    [m(t) = min over integer 0 <= s <= t of (work*(s) - avail(s))] where
    [work*] is the left limit or the value of [work] per [mode]. *)

val transform : mode:mode -> avail:Pl.t -> work:Step.t -> Pl.t
(** [transform ~mode ~avail ~work] is [avail + prefix_min ~mode ~avail ~work]:
    the paper's [min (A(t) - A(s) + c(s))].  When [avail] is non-decreasing
    the result is non-decreasing and non-negative. *)

val transform_blocked :
  mode:mode -> avail:Pl.t -> work:Step.t -> blocking:int -> Pl.t
(** Theorem 5's variant: 0 on [0, blocking], and
    [avail(t) + m(t - blocking)] beyond, where [m] is the prefix minimum
    above.  [blocking >= 0]. *)

val horizontal_deviation : upper:Pl.t -> lower:Pl.t -> int option
(** [sup over t of min { d >= 0 | lower(t + d) >= upper(t) }]: the delay
    bound — how long until the service curve catches up with the demand, in
    the worst case.  [None] when some demand is never caught up with (or
    the deviation is unbounded).

    Both curves must be non-decreasing, and [lower]'s slopes must not
    exceed 1 — true of every service curve of a unit-rate processor, which
    is what the operator exists for.  (Faster segments would make the
    catch-up time non-affine between the candidate points the
    implementation enumerates.)
    @raise Invalid_argument if the requirements are violated. *)
