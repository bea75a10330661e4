(** The outcome of a response-time analysis for one job or stage: the one
    verdict type every analysis returns.  The core analyses
    ({!Rta_core.Response}, {!Rta_core.Fixpoint}, {!Rta_core.Envelope_analysis},
    {!Rta_core.Analysis}) and the baselines ({!Rta_baselines.Sunliu},
    {!Rta_baselines.Joseph_pandya}) re-export it. *)

type t =
  | Bounded of int  (** worst-case response time, in ticks *)
  | Unbounded
      (** no bound within the analysis horizon (the job set is rejected) *)

(** The sum of two bounds (Theorem 4's per-stage sum). *)
let add a b =
  match (a, b) with
  | Bounded a, Bounded b -> Bounded (a + b)
  | Unbounded, _ | _, Unbounded -> Unbounded

(** [v] is a bound within [deadline]. *)
let meets ~deadline = function Bounded r -> r <= deadline | Unbounded -> false
