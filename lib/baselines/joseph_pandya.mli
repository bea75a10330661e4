(** Classic single-processor response-time analysis (Joseph & Pandya 1986,
    Lehoczky 1990): the jitter-free special case of {!Busy_period}, for
    single-stage periodic jobs on one SPP processor.  Used as a validation
    anchor — on its domain it must agree with {!Sunliu} and with the paper's
    SPP/Exact under synchronous release. *)

type verdict = Rta_model.Verdict.t = Bounded of int | Unbounded

val analyze : Rta_model.System.t -> (verdict array, string) result
(** Per-job worst-case response times.  [Error] if the system is not a
    single SPP processor with single-stage periodic jobs. *)
