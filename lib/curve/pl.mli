(** Piecewise-linear integer {e grid functions} on [0, +inf).

    A value of type {!t} represents a function from integer times (ticks) to
    integers, stored compactly as a polyline: integer knots, an integer slope
    on every segment, and a fixed tail slope after the last knot.  The
    represented function is the polyline {e restricted to integer times};
    fractional times are never observed, which lets pointwise operations
    (max with 0, splicing, minimum) stay exact by inserting a pair of knots
    one tick apart where a real-valued kink would fall between ticks.

    These model the paper's {e service} functions (Definition 4), the
    availability functions [A] (Theorem 3) and [B] (Theorems 5-6), and the
    utilization function [U] (Theorem 7).  All arithmetic is exact. *)

type t

(** {1 Construction} *)

val const : int -> t
val zero : t
val identity : t
(** [fun t -> t]. *)

val linear : slope:int -> offset:int -> t
(** [fun t -> offset + slope * t]. *)

val of_knots : tail:int -> (int * int) list -> t
(** [of_knots ~tail knots] builds the polyline through the [(time, value)]
    knots with slope [tail] afterwards.  Knot times must be strictly
    increasing and start at 0, and every segment slope must be an integer.
    @raise Invalid_argument otherwise. *)

val of_step : Step.t -> t
(** [of_step f] agrees with the step function [f] at every integer time:
    constant between jumps, ramping over the single tick before each jump. *)

module Builder : sig
  (** Preallocated knot buffer for building polylines in one forward pass.

      The hot-path kernels ({!Minplus.utilization}, {!of_step}) accumulate
      output knots here instead of consing a list and re-validating through
      {!of_knots}: pushes are amortized O(1) on a preallocated array, a push
      at the current last time overwrites its value (the dedup the kernels
      rely on at interval boundaries), and {!to_pl} normalizes directly from
      the backing arrays. *)

  type builder

  val create : int -> builder
  (** [create capacity] preallocates for [capacity] knots; the buffer grows
      by doubling if the estimate is exceeded. *)

  val push : builder -> int -> int -> unit
  (** [push b x y] appends the knot [(x, y)].  Times must be non-decreasing
      across pushes; pushing at the last time again replaces its value.
      @raise Invalid_argument if [x] precedes the last pushed time. *)

  val length : builder -> int

  val to_pl : tail:int -> builder -> t
  (** Normal-form polyline from the pushed knots (first must be at time 0,
      segment slopes must be integral — enforced by the normal-form
      invariant check).
      @raise Invalid_argument on an empty buffer or invalid knots. *)
end

(** {1 Observation} *)

val eval : t -> int -> int
(** [eval f t] is [f(t)], for [t >= 0]. *)

module Cursor : sig
  (** Amortized-O(1) sequential evaluation for non-decreasing query times.

      Event sweeps (the static-priority bound sweeps, the fuzz oracle's
      merged-grid walk) evaluate curves at sorted times; a cursor walks the segment
      index forward instead of binary-searching from scratch on every
      query, galloping over skipped knots, so a query that skips k knots
      reads O(log k) of them.  All queries on one cursor must use
      non-decreasing times. *)

  type pl := t
  type t

  val make : pl -> t

  val eval : t -> int -> int
  (** Same value as {!Pl.eval} at the same time.
      @raise Invalid_argument on a negative time or a time earlier than a
      previous query on this cursor. *)

  val slope : t -> int -> int
  (** Slope of the segment containing [t] (the tail slope at or beyond the
      last knot): the value of [eval (t+1) - eval t] whenever [t+1] does not
      cross a knot.  Same monotonicity contract as {!eval}. *)

  val next_knot : t -> int -> int
  (** The time of the first knot after [t], where the segment containing
      [t] ends; [max_int] at or beyond the last knot.  Same monotonicity
      contract as {!eval}. *)
end

module Merged : sig
  (** A forward reader of the pointwise sum of several curves (its
      members) that never builds the sum: the same {!eval}, {!slope} and
      {!next_knot} answers as a {!Cursor} over [sum members], except that
      the spans end at every member knot, where the sum's normal form may
      merge two spans of equal slope.

      It keeps a galloping cursor per member, the sum's line on the
      current span as the running sums of the members' slopes and
      intercepts, and the members' soonest next knot.  A query before that
      knot reads nothing else; one at or past it makes one pass over the
      members and moves those whose next knot it passes, one galloping
      search each.  So a query that crosses a member knot costs O(members)
      where building the sum costs O(knots) per member added.  Same
      monotonicity contract as {!Cursor}.

      Counted when {!Rta_obs.enabled}: [pl.merged.crossings], the member
      moves: one per member and query that passes one or more of that
      member's knots. *)

  type pl := t
  type t

  val make : pl list -> t
  (** A reader at time 0 of the sum of the members ({!zero} for none). *)

  val eval : t -> int -> int
  val slope : t -> int -> int

  val next_knot : t -> int -> int
  (** The first member knot after [t]; [max_int] when no member has a knot
      after [t]. *)
end

val knots : t -> (int * int) array
(** The knots in increasing time order (fresh array). *)

val tail_slope : t -> int
val knot_count : t -> int

val invariant : t -> unit
(** Checks the representation invariant (at least one knot, first at time
    0, strictly increasing knot times, integer segment slopes).  Always
    holds for values built through this interface; exposed so
    {!Rta_core.Engine.check_entry} and the fuzz oracle can audit curves
    produced by long operation chains.
    @raise Invalid_argument with a descriptive message if violated. *)

val min_slope : t -> int
(** Smallest segment slope, including the tail. *)

val max_slope : t -> int
(** Largest segment slope, including the tail. *)

val is_nondecreasing : t -> bool

module Inverse : sig
  (** The pseudo-inverse of Definition 5 restricted to the grid, as a
      checked handle: [geq (make f) v = min { t >= 0 | f(t) >= v }] over
      integer [t], or [None] if [f] never reaches [v].

      {!make} runs the monotonicity check once, in O(knots); each {!geq}
      query then binary-searches the knot values, in O(log knots) with at
      most [ceil (log2 knots) + 1] reads of them.  A processor that reads
      one departure per instance off its utilization function (Theorems
      7-9) therefore pays O(I log I) rather than O(I * knots).  The handle
      is the checked curve itself, not a copy.

      Counted when {!Rta_obs.enabled}: [pl.inverse.handles] per {!make},
      [pl.inverse.queries] per {!geq}, [pl.inverse.probes] for the knot
      values each query's search reads, and the gauge
      [pl.inverse.knots.max] for the largest handle's knot count. *)

  type pl := t
  type inv

  val make : pl -> inv
  (** @raise Invalid_argument if the curve is decreasing somewhere. *)

  val geq : inv -> int -> int option

  type cursor

  val cursor : inv -> cursor

  val seek : cursor -> int -> int option
  (** Same answer as {!geq}, for targets that never decrease from one
      call to the next on the same cursor: the search walks on from the
      knot where the previous one stopped, so a run of seeks over a curve
      of K knots reads O(K) of them in all.  Counted when
      {!Rta_obs.enabled}: [pl.inverse.seeks] per call and
      [pl.inverse.steps] for the knots walked past. *)
end

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t

val sum : t list -> t
(** Pointwise sum of a list ([zero] for the empty list), added in pairwise
    rounds like {!Step.sum}: n curves with K knots in all cost
    O(K log n), where a left fold costs up to O(K n). *)

(** {1 Pointwise transforms (grid-exact)} *)

val pos : t -> t
(** [pos f] is [fun t -> max 0 (f t)] on the grid. *)

val max2 : t -> t -> t
(** Pointwise maximum on the grid. *)

val prefix_max : t -> t
(** [prefix_max f] is [fun t -> max over 0 <= s <= t of f(s)] on the grid:
    the non-decreasing hull.  Used to monotonize service bounds whose
    availability functions transiently decrease (loose interference sums);
    sound in both directions because true service functions are
    non-decreasing. *)

val splice : at:int -> t -> t -> t
(** [splice ~at before after] equals [before] on [0, at] and [after] on
    [at+1, +inf) (grid semantics; the tick between is a linear ramp). *)

val shift_right : t -> int -> t
(** [shift_right f d] is [fun t -> f (max 0 (t - d))].  [d >= 0]. *)

val truncate_at : t -> int -> t
(** [truncate_at f h] agrees with [f] on [0, h] and is constant ([f h])
    afterwards. *)

(** {1 Conversion} *)

val to_step_floor_div : ?cap:int -> t -> int -> Step.t
(** [to_step_floor_div s tau] is [fun t -> floor (s(t) / tau)]: Theorem 2 /
    Lemma 1 of the paper ([f_dep = floor (S / tau)]).  Requires [s]
    non-decreasing with non-positive tail slope (truncate first), and
    [tau >= 1].

    With [~cap] the result is [fun t -> min (floor (s(t) / tau)) cap]
    ([cap >= 0]), and the conversion stops emitting jumps once the cap is
    reached — callers that immediately take a pointwise minimum with a
    bounded counting function (the departure caps of Theorem 2) pass the
    cap here so the output stays proportional to the {e instance} count
    rather than to the horizon.
    @raise Invalid_argument otherwise. *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Extensional equality on the grid (normal-form representation). *)

val dominates : t -> t -> bool
(** [dominates f g] iff [f(t) >= g(t)] for every integer [t >= 0]. *)

val pp : Format.formatter -> t -> unit
