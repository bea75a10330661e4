(** Content-addressed cache keys for analysis requests.

    Two requests get the same key exactly when the analysis is guaranteed
    to produce the same result: same canonicalized system (textual
    formatting, comments and field order do not matter — the system is
    parsed and re-printed), same scheduler assignment (part of the
    canonical spec), same tick granularity, same estimator and same
    {e resolved} horizons. *)

type t = private string
(** Hex MD5 digest of the canonical request description
    (format ["rta-key/2"]). *)

val of_system : config:Rta_core.Analysis.config -> Rta_model.System.t -> t
(** The key of analyzing [system] under [config].  Horizons are resolved
    ({!Rta_core.Analysis.resolve_horizons}) before hashing, so an explicit
    horizon equal to the derived default yields the same key as omitting
    it.  The whole [config] participates; a request deadline is not part
    of it ({!Batch.request}). *)

val to_hex : t -> string
val equal : t -> t -> bool
