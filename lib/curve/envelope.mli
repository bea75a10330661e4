(** Arrival envelopes (arrival curves in the sense of Cruz's network
    calculus, the paper's references [20, 21]).

    An envelope [alpha] upper-bounds a release process {e in every window}:
    a trace [t_1 <= t_2 <= ...] conforms to [alpha] iff any window of length
    [d] contains at most [alpha(d)] releases.  Envelopes connect the
    trace-based analysis of this library to specification-level workload
    models: a sporadic source declared by an envelope is analyzed through
    its {e worst-case conforming trace} ({!worst_trace}), which releases
    every instance as early as the envelope permits.

    Internally an envelope is a non-decreasing step function of the window
    length with [alpha(0) >= 1] (a window of length zero contains at least
    the release that anchors it, whenever any release exists). *)

type t

(** {1 Construction} *)

val periodic : ?jitter:int -> ?burst:int -> period:int -> unit -> t
(** [periodic ~period ()] allows [1 + floor (d / period)] releases per
    window.  [jitter] widens every window by the release-jitter bound
    (Tindell's bursty-sporadic model: [1 + floor ((d + jitter) / period)]);
    [burst] (default 1) allows that many simultaneous releases at every
    step of the staircase. *)

val leaky_bucket : burst:int -> period:int -> t
(** [leaky_bucket ~burst ~period]: at most [burst + floor (d / period)]
    releases in any window of length [d] — the (sigma, rho) model with
    integer rate [1/period]. *)

val of_trace : int array -> t
(** The tightest envelope of a finite trace:
    [alpha(d) = max over i of #{ j | t_i <= t_j <= t_i + d }].
    The trace must be sorted and non-negative ({!Step.of_arrival_times}'s
    precondition).  For an empty trace, returns the constant-1 envelope
    (the least valid envelope). *)

(** {1 Observation} *)

val eval : t -> int -> int
(** Maximum number of releases in any window of length [d >= 0]. *)

val conforms : t -> int array -> bool
(** Whether a (sorted) trace respects the envelope in every window. *)

val dominates : t -> t -> bool
(** [dominates a b]: [a] allows at least as many releases as [b] in every
    window (every [b]-conforming trace is [a]-conforming). *)

val widen : t -> jitter:int -> t
(** [widen alpha ~jitter] is [fun d -> alpha (d + jitter)]: the envelope of
    a stream that conformed to [alpha] and then crossed a stage with
    response times in a window of width [jitter] (arrivals can bunch by
    that much).  This is how envelopes propagate through a pipeline: the
    output envelope of a stage with response bound [R] and best case
    [best] is [widen alpha ~jitter:(R - best)]. *)

(** {1 Worst case} *)

val worst_trace : t -> horizon:int -> int array
(** The critical-instant trace: instance [m] released at
    [min { d | alpha(d) >= m }], i.e. everything as early as the envelope
    allows with all windows anchored at time 0.  Conforms to [alpha]
    whenever [alpha] is subadditive (true for all constructors above;
    checked by {!conforms} in tests), and dominates every conforming trace
    in counting order.  Stops at the horizon. *)

val worst_arrival_function : t -> horizon:int -> Step.t
(** [Step.of_arrival_times (worst_trace ...)]: plug an envelope directly
    into the analysis as the most pessimistic arrival function. *)

val pp : Format.formatter -> t -> unit
