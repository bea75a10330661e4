(** Right-continuous, non-decreasing integer step functions on [0, +inf).

    A value of type {!t} represents a function [f : int -> int] with
    [f(t) = f(t')] for [t <= t'] implied pointwise ([f] non-decreasing),
    changing value only by upward jumps at integer times.  These model the
    paper's {e arrival}, {e departure} and {e workload} functions
    (Definitions 1-3): counting processes and their scalings.

    All times and values are integer {e ticks} (see [Rta_model.Time]); the
    whole analysis is exact integer arithmetic.  Functions in this module
    never observe or produce negative times. *)

type t
(** A step function.  Structurally normalized: two step functions are equal
    as functions iff they are [equal]. *)

(** {1 Construction} *)

val zero : t
(** The constant-0 function. *)

val const : int -> t
(** [const v] is the constant function [fun _ -> v].  [v] must be [>= 0]. *)

val of_arrival_times : int array -> t
(** [of_arrival_times ts] is the counting function of the release times
    [ts]: [f(t)] = number of entries of [ts] that are [<= t].  [ts] must be
    sorted non-decreasing with non-negative entries; duplicates are allowed
    (simultaneous releases). *)

val of_samples : ?init:int -> (int * int) list -> t
(** [of_samples ~init l] builds a step function from possibly redundant
    [(time, value)] samples in non-decreasing time order: later samples at
    the same time win, samples that do not increase the value are dropped.
    The resulting function has value [init] before the first retained
    sample.  No strictness is required: this is the lenient constructor
    used when deriving step functions from scans. *)

module Builder : sig
  (** An array buffer for building a step function in one forward pass,
      with the rules of {!of_samples}: pushes are amortized O(1), a push
      at the last time replaces its value, and a push that does not raise
      the value is dropped.  {!to_step} copies the pushed jumps once. *)

  type step := t
  type t

  val create : ?init:int -> int -> t
  (** [create ~init capacity]: the value before the first jump is [init]
      (default 0); the buffer starts at [capacity] jumps and doubles. *)

  val push : t -> int -> int -> unit
  (** [push b time value].
      @raise Invalid_argument on a negative time or one earlier than the
      last kept jump's. *)

  val to_step : t -> step
end

(** {1 Observation} *)

val eval : t -> int -> int
(** [eval f t] is [f(t)].  [t] must be [>= 0]. *)

val eval_left : t -> int -> int
(** [eval_left f t] is the left limit [f(t-)]: the value just before [t].
    [eval_left f 0] is the initial value. *)

module Cursor : sig
  (** Amortized-O(1) sequential evaluation for non-decreasing query times;
      the step-function counterpart of {!Pl.Cursor}. *)

  type step := t
  type t

  val make : step -> t

  val eval : t -> int -> int
  (** Same value as {!Step.eval} at the same time.
      @raise Invalid_argument on a negative time or a time earlier than a
      previous query on this cursor. *)

  val eval_left : t -> int -> int
  (** Same value as {!Step.eval_left}.  The left limit at [t] reads the
      value at [t - 1], so the monotonicity contract applies to the shifted
      times: do not interleave {!eval} and {!eval_left} queries over
      overlapping time ranges on one cursor. *)
end

val init_value : t -> int
(** Value on [0, first_jump), i.e. [f(0)] if there is no jump at 0. *)

val final_value : t -> int
(** The value after the last jump ([lim f] at +inf). *)

val jump_count : t -> int
(** Number of jump points. *)

val knot_count : t -> int
(** Alias of {!jump_count}: the description size, named as in {!Pl}. *)

val jump_time : t -> int -> int
val jump_value : t -> int -> int
(** [jump_time f i] and [jump_value f i] are the time of the [i]-th jump
    ([0 <= i < jump_count f]) and the value from then on, read in place:
    sweeps that merge several curves' jumps walk them without the copy
    {!jumps} makes. *)

val invariant : t -> unit
(** Checks the representation invariant (non-negative strictly increasing
    jump times, strictly increasing values above the initial value).
    Always holds for values built through this interface; exposed so
    {!Rta_core.Engine.check_entry} and the fuzz oracle can audit curves
    produced by long operation chains.
    @raise Invalid_argument with a descriptive message if violated. *)

val jumps : t -> (int * int) array
(** [(time, value_from_time_on)] pairs of all jumps, in increasing time
    order.  The returned array is fresh. *)

val inverse : t -> int -> int option
(** Pseudo-inverse, Definition 5 of the paper:
    [inverse f v = min { s >= 0 | f(s) >= v }], or [None] if [f] never
    reaches [v].  For a counting function, [inverse f m] is the release time
    of the [m]-th instance ([m >= 1]). *)

val max_lag : count:int -> t -> t -> int option
(** [max_lag ~count early late] is Eq. 12's read of two counting
    functions: [Some (max 0 (max over 1 <= m <= count of
    inverse late m - inverse early m))], or [None] when either curve never
    reaches [count] ([Some 0] for [count <= 0]).  One walk over both jump
    arrays, one step per run of instances on which neither curve jumps:
    O(jump_count early + jump_count late), where reading every instance
    costs O(count log J). *)

val support_end : t -> int
(** Time of the last jump (0 if there are no jumps). *)

(** {1 Transformation} *)

val scale : t -> int -> t
(** [scale f k] is [fun t -> k * f(t)], for [k >= 1].  Turns a counting
    function into a workload function (Definition 3, [c = f_arr * tau]). *)

val add : t -> t -> t
(** Pointwise sum.  Counted when {!Rta_obs.enabled}: [step.add.calls] per
    call and [step.add.jumps] for the jumps of its result. *)

val sum : t list -> t
(** Pointwise sum of a list ([zero] for the empty list), added in pairwise
    rounds: n curves with J jumps in all cost O(J log n), where a left fold
    costs up to O(J n). *)

val shift_right : t -> int -> t
(** [shift_right f d] is [fun t -> f(t - d)] (value [init_value f] on
    [0, d)), for [d >= 0]: delays every jump by [d]. *)

val shift_left : t -> int -> t
(** [shift_left f d] is [fun t -> f(t + d)], for [d >= 0]: advances jumps,
    clamping jump times at 0. *)

val min2 : t -> t -> t
(** Pointwise minimum. *)

val max2 : t -> t -> t
(** Pointwise maximum. *)

val truncate_after : t -> int -> t
(** [truncate_after f h] keeps jumps at times [<= h] and discards the
    rest (the function stays constant after its last kept jump). *)

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Extensional equality (the representation is normal form). *)

val dominates : t -> t -> bool
(** [dominates f g] iff [f(t) >= g(t)] for all [t]: [f] is an upper bound
    function of [g] in the sense of Definition 6. *)

val pp : Format.formatter -> t -> unit
(** Prints the jump list, for debugging and test failure messages. *)
