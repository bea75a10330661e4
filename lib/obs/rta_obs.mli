(** Observability: metrics, spans and trace sinks for the analysis engine.

    This library is the single instrumentation point for the whole
    repository: the curve layer, the analysis engine, the fixed-point solver
    and the simulator all register metrics and open spans here, and the
    executables decide whether (and where) anything is emitted.

    {b Cost model.}  The registry is globally {e disabled} by default.
    Every hook ([incr], [add], [observe_int], [set_gauge], [max_gauge],
    [span_begin], [span_end]) first reads one [bool ref]; when the registry
    is disabled that read-and-branch is the entire cost and {e no
    allocation} happens on the hook path.  Metric handles ([counter],
    [gauge], [histogram]) are created once, at module-initialisation time,
    so hot loops never touch the name table.  Hook arguments are immediate
    integers; anything that would allocate to {e compute} an argument
    (formatted span names, curve sizes read through fresh arrays) must be
    guarded by the caller with [if Rta_obs.enabled () then ...].

    {b Domain safety.}  Hooks may be called concurrently from several
    domains: counters and gauges are lock-free atomics, histogram
    observations and the span store are mutex-protected, so concurrent use
    never loses increments or corrupts memory.  Span {e parentage} is
    exact in sequential use; under parallelism a new span's parent is
    whichever span was most recently opened anywhere (a single global
    "current span"), so concurrent span trees are flattened heuristically
    rather than per-domain.  The disabled path takes no lock.

    The only dependency is the compiler-bundled [unix] library, used for
    the wall clock; the locks and atomics are the OCaml 5 standard
    library's. *)

(** {1 Minimal JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact, valid JSON.  Non-finite floats are emitted as [null]. *)

  val of_string : string -> (t, string) result
  (** Parse one strict JSON value (no trailing garbage).  Numbers without
      a fraction or exponent that fit in an OCaml [int] parse as [Int],
      everything else as [Float]; [\u] escapes (including surrogate
      pairs) decode to UTF-8.  Errors carry the byte offset. *)
end

(** {1 Global switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero every registered metric, drop all recorded spans and observations.
    Handles stay registered and valid. *)

val now : unit -> float
(** The wall clock, [Unix.gettimeofday], in seconds. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Register (or look up) the counter with this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit

val max_gauge : gauge -> int -> unit
(** [max_gauge g v] raises [g] to [v] if [v] is larger: high-water marks. *)

val gauge_value : gauge -> int option
(** [None] until the gauge is first set after a {!reset}. *)

(** {1 Histograms} *)

type histogram

val histogram : string -> histogram

val observe : histogram -> float -> unit
(** Record one observation.  NOTE: computing a [float] argument boxes even
    when the registry is disabled — on hot paths guard the call site with
    {!enabled}, or use {!observe_int}. *)

val observe_int : histogram -> int -> unit
(** Like {!observe} but converts inside the enabled check, so a disabled
    registry costs one branch and zero allocations. *)

val histogram_count : histogram -> int

val quantile : histogram -> float -> float
(** Nearest-rank quantile of everything observed so far ([q] in [0, 1]);
    [nan] when empty. *)

val histogram_max : histogram -> float
(** Largest observation ([nan] when empty). *)

(** {1 Spans}

    Spans form a tree: [span_begin] opens a child of the innermost open
    span, [span_end] closes it.  Tokens are immediate values; a disabled
    registry returns {!no_span}, for which every span operation is a
    no-op. *)

type span = private int

val no_span : span

val span_begin : string -> span
val span_end : span -> unit

val span_int : span -> string -> int -> unit
(** Attach an integer attribute to an open (or just-closed) span. *)

val span_str : span -> string -> string -> unit
(** Attach a string attribute (e.g. the theorem path taken). *)

type attr = Int of int | Str of string

type span_info = {
  si_name : string;
  si_parent : int;  (** index into {!spans}, [-1] for roots *)
  si_depth : int;
  si_start : float;
  si_duration : float;  (** seconds; [nan] if the span was never closed *)
  si_attrs : (string * attr) list;  (** in attachment order *)
}

val spans : unit -> span_info array
(** All spans recorded since the last {!reset}, in [span_begin] order. *)

(** {1 Sinks} *)

val set_trace_channel : out_channel option -> unit
(** When set, every [span_end] appends one JSON object per line:
    [{"type":"span","name":...,"start_s":...,"dur_s":...,"depth":...,
    "parent":...,"attrs":{...}}].  The channel is not closed by this
    library. *)

val report : Format.formatter -> unit -> unit
(** Human-readable report: the span tree (durations and attributes),
    then counters, gauges and histogram summaries, sorted by name. *)

val metrics_json : unit -> Json.t
(** Counters, gauges and histogram summaries only (no spans). *)

val write_snapshot : string -> unit
(** Write {!metrics_json} plus the full span tree to a file (schema
    [rta-obs-snapshot/1]). *)
