(** The min-plus expressions at the heart of the paper's analysis.

    Theorems 3, 5, 6 and 7 all compute expressions of the shape

    {[ F(t) = min over 0 <= s <= t of ( A(t) - A(s) + c(s) ) ]}

    for an availability function [A] (piecewise linear) and a workload
    function [c] (a step function).  Writing
    [m(t) = min over s <= t of (c(s) - A(s))] this is [F = A + m], the
    prefix-minimum transform.  The analysis never builds [m]: it evaluates
    Theorem 3's exact SPP service by consuming idle intervals ({!Idle}),
    Theorem 7's utilization, whose availability is the identity, by a
    busy-period walk ({!utilization}), and Theorems 5-6 by two sweeps
    ({!sp_lower}, {!sp_upper}).  The transform itself is kept as the
    oracle that checks them, on the reference scan
    ([Rta_check.Reference.prefix_min]).

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

val utilization : mode:mode -> Step.t -> Pl.t
(** [utilization ~mode w] is Theorem 7's utilization function
    [U(t) = t + min over s <= t of (w*(s) - s)], the transform against
    the identity, as one busy-period walk
    over the jumps of [w], O(1) each: [U] rises one per tick while the
    unit-rate server has work and stays flat at [w*]'s level when it
    idles, so a jump of size J at effect time e (its time, plus one in
    [`Left] mode) extends the busy stretch to [max busy_end (e - 1) + J].
    The result has at most two knots per busy stretch and a flat tail.
    Counted when {!Rta_obs.enabled}: [minplus.utilization.calls]. *)

val departures :
  horizon:int -> tau:int -> service:Pl.t -> arrivals:Step.t -> Step.t
(** Theorem 2's conversion with the arrival cap: the departure counting
    function [fun t -> min (floor (S(min t horizon) / tau)) (arrivals t)]
    for a non-decreasing service curve [S = service] with [S(0) >= 0] and
    [tau >= 1].  Instance k departs at [max (S^-1 (k tau)) (arrivals^-1 k)]
    if [S] reaches [k tau] by the horizon, and never otherwise; targets
    rise with k, so one forward reader ({!Pl.Inverse.seek}) walks [S]
    once: O(knots + instances).  Counted when {!Rta_obs.enabled}:
    [minplus.departures.calls], and the reader's [pl.inverse.seeks] (one
    per instance placed or refused) and [pl.inverse.steps].
    @raise Invalid_argument if [service] decreases somewhere or
    [tau < 1]. *)

val sp_lower : blocking:int -> hp_work:Step.t -> level_work:Step.t -> Pl.t
(** Theorem 5's static-priority service lower bound (the level-k busy-window
    form proved in [Rta_core.Local]), monotonized: with [b = blocking],
    [C = hp_work] (the higher-priority upper workload) and
    [W = level_work] (the level-k lower workload, own plus higher
    priority), it is

    {[ fun t -> max (0, max over s <= t of L(s)) ]}

    where [L(t) = t - b - C(t) + m (max 0 (t - b))], with [m] the
    [`Left] prefix minimum of [W] against the identity.
    One walk over the jumps of [C] and [W], O(1) each, builds it without
    any intermediate curve.  [blocking >= 0].  Counted when
    {!Rta_obs.enabled}: [sp.lo.events], the jumps walked. *)

val sp_upper : hp_service:Pl.t list -> own_work:Step.t -> own_util:Pl.t -> Pl.t
(** Theorem 6's static-priority service upper bound, monotonized: with
    [P] the sum of the curves [hp_service] (the higher-priority residents'
    lower service curves; [P = 0] for none), [c = own_work] and
    [V = own_util], it is

    {[ fun t -> max (0, max over s <= t of min (s - P(s), V(s))) ]}

    [V] must be the resident's utilization [utilization ~mode:`Right c],
    or any curve below
    [c]: the bound can rise only where [c] is above it, so the walk reads
    [P] and [V] only in those windows.  [P] is never built: one
    {!Pl.Merged} reader crosses its members' knots, moving at each read
    only the members with a knot since the previous one, by one galloping
    search each.
    Counted when {!Rta_obs.enabled}: [sp.hi.windows], the jumps of [c]
    sought once the bound had caught up with [c]; [sp.hi.reads], the
    spans between knots of [P]'s members and [V] read inside windows;
    and the reader's [pl.merged.crossings]. *)

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
