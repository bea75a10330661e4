(** The curve layer: exact integer curve algebra for the service-function
    calculus.

    {!Step} and {!Pl} are the two curve representations, both implementing
    {!module-type:CURVE}; {!Minplus} is the min-plus transform connecting
    them; {!Dense} is the brute-force oracle used by the property tests;
    {!Envelope} is the horizon-free arrival-envelope extension. *)

module type CURVE = Curve_sig.CURVE

module Step = Step
module Pl = Pl
module Minplus = Minplus
module Dense = Dense
module Envelope = Envelope
module Reference = Reference

(** The curve kernels with a frozen baseline: the optimized {!Pl} and
    {!Minplus} functions and their {!Reference} originals both satisfy it,
    so code written over it ({!Rta_core.Local.Make}) runs on either. *)
module type KERNELS = sig
  val add : Pl.t -> Pl.t -> Pl.t
  val sub : Pl.t -> Pl.t -> Pl.t
  val min2 : Pl.t -> Pl.t -> Pl.t
  val max2 : Pl.t -> Pl.t -> Pl.t
  val prefix_min : mode:[ `Left | `Right ] -> avail:Pl.t -> work:Step.t -> Pl.t
end

(* First-class conformance witnesses: packing the modules here both proves
   at compile time that they satisfy CURVE and gives generic clients (the
   fuzz oracle's invariant sweep) ready-made values to iterate over. *)

let step_curve : (module CURVE with type t = Step.t) = (module Step)
let pl_curve : (module CURVE with type t = Pl.t) = (module Pl)
