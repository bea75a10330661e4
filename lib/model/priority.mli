(** Priority assignment policies.

    The paper's results hold for arbitrary priority assignments; its
    evaluation uses the relative-deadline-monotonic rule of Eq. 24: subjob
    [T_ij] gets the sub-deadline [D_ij = tau_ij / (sum_k tau_ik) * D_i], and
    subjobs sharing a processor are ranked by increasing sub-deadline. *)

val deadline_monotonic : System.job array -> System.job array
(** Replace every subjob's [prio] by its Eq. 24 rank on its processor
    (1 = highest).  Ties are broken by (job, step) index, making the
    assignment deterministic.  Priorities are unique per processor. *)

val deadline_monotonic_system : System.t -> (System.t, string) result
(** [system] rebuilt with {!deadline_monotonic} priorities and the same
    schedulers: what [--auto-prio] and a batch request's ["auto_prio"]
    analyze.  [Error] carries {!System.make}'s message. *)
