(** The fuzz loop: generate, compare, shrink, persist.

    Each case [i] is drawn deterministically from [seed + i]
    ({!Gen.generate}), checked with {!Oracle.check}, and — on failure —
    shrunk with {!Shrink.shrink} and rendered as a replayable [.rta]
    counterexample:

    {v
    #! rta-fuzz seed=42 index=7 release_horizon=100 horizon=200
    # violation: dep_lo at job 0 step 0: t=5: simulated count 0 < lower bound 1
    processors fcfs
    job J1 arrival periodic period=10.0 deadline 0.02
      step proc=0 exec=0.001
    v}

    The [#!] directive line and the [# violation:] lines are ordinary
    comments to {!Rta_model.Parser}, so the file is a valid system spec on
    its own; {!replay} additionally reads the horizons back from the
    directive and re-runs the oracle on them. *)

type counterexample = {
  seed : int;
  index : int;  (** the case was generated from [Rng.make (seed + index)] *)
  case : Gen.case;  (** as generated *)
  shrunk : Gen.case;  (** after greedy shrinking; same horizons *)
  violations : Oracle.violation list;  (** of the shrunk system *)
  file : string option;  (** where the counterexample was written *)
}

type outcome = {
  tested : int;
  passed : int;
  counterexamples : counterexample list;
  elapsed_s : float;
}

val run :
  ?fault:Oracle.fault ->
  ?out_dir:string ->
  ?budget_s:float ->
  seed:int ->
  count:int ->
  unit ->
  outcome
(** Run up to [count] cases, stopping early when [budget_s] wall-clock
    seconds have elapsed.  [fault] is planted in every analysis the
    oracle checks ({!Oracle.check}); the run is then expected to find
    counterexamples.  With [out_dir] (created if missing), every
    counterexample is written as
    [out_dir/counterexample-<seed>-<index>.rta].  Instrumented with
    {!Rta_obs} counters [fuzz.cases], [fuzz.passed] and
    [fuzz.violations]. *)

val render : counterexample -> string
(** The replayable [.rta] text of the shrunk counterexample. *)

val trials : budget_s:float option -> count:int -> (int -> unit) -> int * float
(** [trials ~budget_s ~count trial] runs [trial 0], [trial 1], ... up to
    [count] trials, stopping early once [budget_s] wall-clock seconds (if
    any) have elapsed, and returns how many ran and the seconds they took:
    the loop of {!run} and of {!Kernels.run}. *)

val write_report : string -> string -> string -> string
(** [write_report dir name text] writes [text] to [dir/name], creating
    [dir] and its parents if missing, and returns the path. *)

val replay : ?fault:Oracle.fault -> string -> (Oracle.verdict, string) result
(** Re-check a counterexample file: parse the system, read the horizons
    from the [#!] directive (falling back to
    {!Rta_model.System.suggested_horizons} for plain [.rta] files), and
    run the oracle. *)
