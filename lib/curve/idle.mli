(** The idle time a preemptive static-priority processor leaves to its
    lower ranks, as a persistent map of maximal idle intervals.

    Theorem 3 gives the k-th resident's exact service as
    [S_k = A_k + min over s <= t of (c_k(s-) - A_k(s))], where
    [A_k = t - sum over j < k of S_j] is the time the higher ranks leave.
    The time left after resident k is then
    [A_(k+1)(t) = max over s <= t of (A_k(s) - c_k(s-))]: the resident's
    instances, in release order, each take [tau] units of idle time,
    starting at the later of the instance's release and the previous
    instance's completion.  {!consume} does exactly that on the intervals
    of a map, so a processor's residents, taken in rank order, each read
    only the idle time they use instead of the sum of every service above
    them.

    The map covers [[0, +inf)]: its last interval is unbounded, so every
    instance completes and the service curves are the same functions
    Theorem 3 gives, at every integer time.  An instance removes whole
    intervals and cuts at most one, found by one O(log n) search per
    instance and per interval it uses up; a processor with I instances costs
    O(I log I) in all.  Maps are persistent, so a snapshot stays valid
    while later residents consume its successors, and shares structure
    with them.

    Counted when {!Rta_obs.enabled}: [spp.idle.queries] per interval
    lookup (one per instance, plus one each time an instance uses an
    interval up to its end and still needs time), [spp.idle.removed] per
    interval used up whole and [spp.idle.splits] per interval an instance
    uses part of. *)

type t

val full : t
(** All of [[0, +inf)] idle: the processor before its top-ranked
    resident. *)

type use = {
  rest : t;  (** the idle intervals the resident leaves *)
  service : Pl.t Lazy.t;
      (** the resident's service: slope 1 on the idle time it took, flat
          elsewhere, with two knots per piece taken *)
  departures : Step.t;
      (** one jump per instance, at its completion, for every instance
          completed by the horizon *)
}

val consume : t -> tau:int -> arrivals:Step.t -> horizon:int -> use
(** [consume idle ~tau ~arrivals ~horizon] serves the instances counted by
    [arrivals], each needing [tau >= 1] units, in order, out of [idle].
    Instances counted at time 0 ([Step.init_value arrivals]) are released
    at 0. *)

val busy : t -> Pl.t
(** [fun t -> t - (idle time in [0, t])]: the summed service of every
    resident that consumed the map's idle time from {!full}. *)
