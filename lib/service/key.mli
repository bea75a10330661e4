(** Content-addressed cache keys for analysis requests.

    Two requests get the same key exactly when the analysis is guaranteed
    to produce the same result: same parsed system (textual formatting,
    comments and field order do not matter — the key is computed from the
    parsed {!Rta_model.System.t}, never from text), same scheduler
    assignment, same tick granularity, same estimator and same {e resolved}
    horizons.

    The hashed bytes (format ["rta-key/3"]) are a length-prefixed binary
    encoding: the tag, the ticks per unit, the estimator, the resolved
    release horizon and horizon, the scheduler of every processor, then for
    every job its name, its arrival constructor with that constructor's
    tick fields (a trace as its length and times), its deadline, and for
    every step its processor, execution time and priority.  Integers are
    unsigned LEB128 varints and strings and arrays carry their length, so
    the encoding is injective: equal keys mean equal systems and configs
    (up to MD5 collisions), with every tick value exact.  The earlier
    ["rta-key/2"] hashed the printed spec, whose [%g] units kept only six
    significant digits, so distinct systems could share a key; no
    ["rta-key/3"] key equals a ["rta-key/2"] one, so store entries written
    under the old format are never read again and leave the store through
    its LRU eviction. *)

type t = private string
(** Hex MD5 digest of the canonical request encoding. *)

val of_system : config:Rta_core.Analysis.config -> Rta_model.System.t -> t
(** The key of analyzing [system] under [config].  Horizons are resolved
    ({!Rta_core.Analysis.resolve_horizons}) before hashing, so an explicit
    horizon equal to the derived default yields the same key as omitting
    it.  The whole [config] participates; a request deadline is not part
    of it ({!Batch.request}). *)

val to_hex : t -> string
val equal : t -> t -> bool
