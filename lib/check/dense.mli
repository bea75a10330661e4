(** Dense-array reference implementation of the curve operations.

    A {!t} stores the values of a grid function at every tick of a bounded
    horizon.  Every operation is implemented by the most literal possible
    loop (quadratic where the sparse code is linear), making this module the
    oracle against which {!Rta_curve.Step}, {!Rta_curve.Pl} and
    {!Rta_curve.Minplus} are property-tested.  Not used by the analysis
    itself. *)

module Step := Rta_curve.Step
module Pl := Rta_curve.Pl

type t = private { horizon : int; values : int array }
(** [values.(t)] is the function's value at tick [t], for [0 <= t <= horizon]
    ([horizon + 1] entries). *)

val of_fun : horizon:int -> (int -> int) -> t
val of_step : horizon:int -> Step.t -> t
val of_pl : horizon:int -> Pl.t -> t
val eval : t -> int -> int
val equal_on : t -> t -> bool
(** Equality on the common prefix of the two horizons. *)

val pointwise : (int -> int -> int) -> t -> t -> t
val map : (int -> int) -> t -> t

val transform : mode:[ `Left | `Right ] -> avail:t -> work_step:Step.t -> t
(** Literal [min over s <= t of (A(t) - A(s) + c*(s))]. *)

val transform_blocked :
  mode:[ `Left | `Right ] -> avail:t -> work_step:Step.t -> blocking:int -> t
(** Literal Theorem 5 shape: 0 on [0,b]; [min over s <= t-b] beyond. *)

val floor_div : t -> int -> t
val inverse_geq : t -> int -> int option
(** Linear scan for [min { t | f(t) >= v }] within the horizon. *)

val dominates : t -> t -> bool
val pp : Format.formatter -> t -> unit
