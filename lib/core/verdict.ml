(** The outcome of a response-time analysis for one job or stage: the one
    verdict type every analysis in this library returns ({!Response},
    {!Fixpoint}, {!Envelope_analysis}, {!Analysis} re-export it). *)

type t =
  | Bounded of int  (** worst-case response time, in ticks *)
  | Unbounded
      (** no bound within the analysis horizon (the job set is rejected) *)
