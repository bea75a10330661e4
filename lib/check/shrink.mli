(** Greedy counterexample shrinking.

    Given a predicate (typically "the oracle still reports a violation")
    and a failing system, repeatedly tries structure-reducing candidates —
    dropping a whole job, dropping a chain's last subjob, halving an
    execution time, halving a burst or trace, simplifying an arrival
    pattern to plain periodic — and adopts the first candidate that still
    fails, until no candidate fails or the round budget runs out.

    The result is a locally minimal failing system: removing any single
    job or tail subjob, or halving any single quantity, makes the failure
    disappear.  With the oracle's planted [`Fcfs_drop_tau] fault
    ({!Oracle.fault}) this reliably reaches one job of one to three
    subjobs. *)

val shrink :
  ?max_rounds:int ->
  (Rta_model.System.t -> bool) ->
  Rta_model.System.t ->
  Rta_model.System.t
(** [shrink still_fails system] with [still_fails system = true].
    [max_rounds] caps the number of adopted reductions (default 200). *)
