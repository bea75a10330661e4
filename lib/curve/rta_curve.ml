(** The curve layer: exact integer curve algebra for the service-function
    calculus.

    {!Step} and {!Pl} are the two curve representations; {!Minplus} is the
    min-plus transform connecting them, with the single-pass sweeps of the
    static-priority bounds (Theorems 5-6), the busy-period walk of the
    utilization (Theorem 7) and the departure read of Theorem 2; {!Idle} is the idle time a
    preemptive static-priority processor leaves to its lower ranks
    (Theorem 3); {!Envelope} is the horizon-free arrival-envelope
    extension. *)

(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare end

module Step = Step
module Pl = Pl
module Minplus = Minplus
module Idle = Idle
module Envelope = Envelope

(** The curve kernels with a frozen baseline: the optimized {!Pl} and
    {!Minplus} functions and their [Rta_check.Reference] originals both
    satisfy it, so code written over it ({!Rta_core.Local.Make}) runs on
    either. *)
module type KERNELS = sig
  val add : Pl.t -> Pl.t -> Pl.t
  val sub : Pl.t -> Pl.t -> Pl.t
  val max2 : Pl.t -> Pl.t -> Pl.t
  val prefix_min : mode:[ `Left | `Right ] -> avail:Pl.t -> work:Step.t -> Pl.t
  val utilization : mode:[ `Left | `Right ] -> Step.t -> Pl.t

  val departures :
    horizon:int -> tau:int -> service:Pl.t -> arrivals:Step.t -> Step.t
end
