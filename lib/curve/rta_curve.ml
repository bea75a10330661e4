(** The curve layer: exact integer curve algebra for the service-function
    calculus.

    {!Step} and {!Pl} are the two curve representations; {!Minplus} is the
    min-plus transform connecting them, with the single-pass sweeps of the
    static-priority bounds (Theorems 5-6), the busy-period walk of the
    utilization (Theorem 7) and the departure read of Theorem 2; {!Idle} is the idle time a
    preemptive static-priority processor leaves to its lower ranks
    (Theorem 3); {!Envelope} is the horizon-free arrival-envelope
    extension.  The analysis calls these kernels directly; their naive
    originals live on in [Rta_check.Reference] as the oracles of the
    property tests and of [rta fuzz --kernels]. *)

(* Ints only: the polymorphic versions call the runtime's generic compare. *)
open struct [@@@warning "-32"] let min = Int.min let max = Int.max let compare = Int.compare external ( < ) : int -> int -> bool = "%lessthan" external ( <= ) : int -> int -> bool = "%lessequal" external ( > ) : int -> int -> bool = "%greaterthan" external ( >= ) : int -> int -> bool = "%greaterequal" end

module Step = Step
module Pl = Pl
module Minplus = Minplus
module Idle = Idle
module Envelope = Envelope
