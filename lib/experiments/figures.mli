(** Reproduction drivers for every figure in the paper (see DESIGN.md §5).

    Each function renders the same data series the corresponding figure
    plots, as aligned text tables.  [sets] controls the number of random
    job sets per data point (the paper used 1,000); seeds are fixed so runs
    are reproducible. *)

val fig1 : unit -> string
(** Figure 1: arrival functions of a periodic (Eq. 25) and a bursty
    (Eq. 27) release pattern with the same asymptotic period. *)

val fig2 : unit -> string
(** Figure 2: the four-stage, two-processors-per-stage shop topology with
    an example two-job assignment. *)

val fig3 : ?sets:int -> ?jobs:int -> ?seed:int -> unit -> string
(** Figure 3: admission probability vs utilization for periodic arrivals;
    panels over stages {1, 2, 4} (rows) and end-to-end deadline multiplier
    {1x, 2x} (columns); methods SPP/Exact, SPP/S&L, SPNP/App, FCFS/App. *)

val fig4 : ?sets:int -> ?jobs:int -> ?seed:int -> unit -> string
(** Figure 4: admission probability vs utilization for the bursty aperiodic
    arrivals; panels over deadline variance (rows) and mean (columns);
    methods SPP/Exact, SPNP/App, FCFS/App. *)

val fig3_csv : ?sets:int -> ?jobs:int -> ?seed:int -> unit -> string
(** Figure 3's data in long-format CSV
    ([panel, stages, deadline_mult, utilization, method, probability]),
    for external plotting. *)

val envelope_admission : ?sets:int -> ?seed:int -> unit -> string
(** Extension table T-5: admission probability of the horizon-free
    envelope analysis ({!Rta_core.Envelope_analysis.system_bounds}) vs the
    trace-based exact analysis on tandem shops — the price of covering {e all} conforming traces. *)

val robustness : ?sets:int -> ?seed:int -> unit -> string
(** Extension table T-3: the method ordering at a fixed operating point
    across shop shapes (jobs per set x processors per stage) — the paper's
    claim that "other parameter values led to similar observations". *)

val perf_scaling : ?seed:int -> unit -> string
(** Extension table T-4: exact-analysis CPU cost vs. shop size. *)

val tightness : ?sets:int -> ?seed:int -> unit -> string
(** Extension table T-1: per method, the mean and worst ratio of the
    analysis bound to the simulated worst-case response on random shops
    (1.0 = tight; must never drop below 1.0). *)

val ablation : ?sets:int -> ?seed:int -> unit -> string
(** Extension table T-2: design ablations —
    direct (Theorem 1-shaped) vs summed (Theorem 4) end-to-end composition;
    the paper's as-printed Eq. 16-19 bounds vs the sound reformulation
    (including the observed soundness-violation rate of the former);
    Eq. 26 normalization choices (realized utilization);
    fixed-point vs chain propagation on acyclic systems. *)
