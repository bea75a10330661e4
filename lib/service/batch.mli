(** Throughput-oriented batch front end over the analyzer.

    A batch is an ordered array of requests (usually decoded from NDJSON,
    one JSON object per line).  {!run} analyzes them on a worker pool
    ({!Backend}: domains on OCaml 5, sequential below), memoizing through
    a shared {!Cache} keyed by {!Key} so identical systems are analyzed
    once, and returns one response per request {e in input order}.

    {b Determinism.}  For requests without deadlines, the response array —
    including each response's [cache] label — is a pure function of the
    request array and the cache's pre-batch contents: worker count and
    scheduling never change a byte of the rendered output.  Cache labels
    are assigned positionally (first occurrence of a key in the batch is
    the [`Miss], later ones are [`Hit]s) rather than read back from the
    racy runtime state.

    {b Failure isolation.}  A request whose spec does not parse yields
    [Invalid]; one whose analysis raises yields [Failed]; one whose
    deadline expired before a worker picked it up yields [Timed_out].
    None of these affect the other requests of the batch, and failures
    are never cached. *)

type request = {
  id : string option;  (** echoed verbatim in the response *)
  spec : string;  (** textual system description ({!Rta_model.Parser}) *)
  auto_prio : bool;  (** apply the Eq. 24 deadline-monotonic assignment *)
  config : Rta_core.Analysis.config;
      (** how to analyze: estimator and horizons *)
  deadline_s : float option;
      (** wall-clock budget in seconds from admission: past due before a
          worker starts the request means [Timed_out], past due mid-flight
          means [Degraded].  It changes whether the analysis runs, never
          its result, so it is not part of the cache key. *)
}

val request :
  ?id:string ->
  ?auto_prio:bool ->
  ?config:Rta_core.Analysis.config ->
  ?deadline_s:float ->
  string ->
  request
(** [request spec] with defaults: no id, no auto-prio,
    {!Rta_core.Analysis.default} (direct estimator, derived horizons), no
    deadline. *)

val request_of_line : ?defaults:request -> string -> (request, string) result
(** Decode one NDJSON line [{"spec": "...", ...}].  Recognized fields:
    [spec] (required), [schema_version] (integer; absent means 1, anything
    else is rejected), [id] (string or int), [auto_prio] (bool),
    [estimator] ("direct" | "sum"), [horizon] and [release_horizon]
    (positive int ticks; a [release_horizon] above the [horizon] is
    rejected), [deadline_ms] (non-negative number).  Unknown fields are
    ignored.  Absent fields default to [defaults] (itself defaulting to
    [request ""]).  See doc/BATCH.md for the wire format. *)

type verdict = { job_name : string; bound : int option  (** ticks; [None] = unbounded *) }

type analysis = {
  method_used : [ `Exact | `Approximate | `Fixpoint ];
  schedulable : bool;
  verdicts : verdict array;
  release_horizon : int;  (** as resolved for the analysis *)
  horizon : int;
}

type degraded = {
  d_verdicts : verdict array;  (** envelope end-to-end bounds, per job *)
  d_schedulable : bool;
}
(** What a request gets when its deadline fires {e mid-analysis}: sound
    {!Rta_core.Envelope_analysis.system_bounds} numbers computed in
    milliseconds instead of the engine's exact answer.  Coarser, never
    wrong. *)

type status =
  | Analyzed of analysis
  | Degraded of degraded
      (** deadline fired during analysis; envelope fallback answered *)
  | Invalid of string  (** request or spec did not parse / validate *)
  | Timed_out
      (** deadline already past when a worker picked the request up, or the
          fallback itself was unavailable (cyclic dependencies) *)
  | Failed of string  (** the analysis raised; only this request fails *)

type response = {
  index : int;  (** global request index (input order) *)
  id : string option;
  cache : [ `Hit | `Miss | `Uncached ];  (** deterministic label; [`Uncached] for [Invalid] *)
  status : status;
}

(** {1 Per-request building blocks}

    {!prepare} and {!execute} are the two halves {!run} is made of,
    exported so the daemon ({!Server}) can admit, queue and cancel
    requests individually while sharing every byte of the decoding,
    caching and encoding logic with one-shot batches. *)

type prepared =
  | P_invalid of string
  | P_ready of { req : request; system : Rta_model.System.t; key : Key.t }

val prepare : (request, string) result -> prepared
(** Parse and validate the spec, apply [auto_prio], derive the cache key.
    Pure; safe to call on the admission thread. *)

val execute :
  ?cache:analysis Cache.t ->
  ?store:Store.t ->
  admitted:float ->
  prepared ->
  status
(** Analyze one prepared request.  [admitted] (a {!Rta_obs.now} timestamp)
    anchors the request's [deadline_s]: already past due means
    [Timed_out] without touching the engine; otherwise the deadline
    becomes a {!Rta_core.Cancel} token polled inside the engine, and a
    mid-flight expiry degrades the request to envelope bounds
    ([Degraded]) instead of letting it run to completion.  [cache]
    memoizes within the process; [store] adds a persistent read-through /
    write-through layer (hits skip the engine entirely, fresh results are
    persisted before returning; degraded and failed outcomes are never
    stored). *)

val run :
  ?jobs:int ->
  ?index_base:int ->
  ?cache:analysis Cache.t ->
  ?store:Store.t ->
  (request, string) result array ->
  response array
(** Analyze a batch.  [Error] elements (undecodable lines) become
    [Invalid] responses so one bad line never aborts a batch.  [jobs]
    (default 1) sizes the worker pool; [index_base] (default 0) offsets
    {!response.index} for chunked streaming; [cache] (default: fresh)
    carries memoized results across batches.  Wires
    [service.requests], [service.cache.hits]/[.misses],
    [service.invalid]/[.timeouts]/[.failed], the [service.queue.depth]
    gauge and per-request [service.request] spans into {!Rta_obs}. *)

val analysis_to_json : analysis -> Rta_obs.Json.t
(** The store payload format: exactly the analysis fields of an "ok"
    response ([method], [schedulable], [release_horizon], [horizon],
    [per_job]), no envelope. *)

val analysis_of_json : Rta_obs.Json.t -> (analysis, string) result
val analysis_of_string : string -> (analysis, string) result
(** Inverse of {!analysis_to_json} composed with JSON parsing; [Error]
    for anything that does not decode, which callers treat as a corrupt
    store entry. *)

val status_tag : status -> string
(** Short label for spans and logs: ["ok"], ["unschedulable"],
    ["degraded"], ["invalid"], ["timeout"] or ["failed"]. *)

val response_line : response -> string
(** One compact NDJSON line (no trailing newline).  Always carries
    [("schema_version", 1)] as its first field; see doc/BATCH.md for the
    full wire format. *)

type summary = {
  total : int;
  analyzed : int;
  schedulable : int;
  degraded : int;
  invalid : int;
  timed_out : int;
  failed : int;
  cache_hits : int;
  cache_misses : int;
}

val empty_summary : summary
val add_response : summary -> response -> summary
val summarize : response array -> summary
val pp_summary : Format.formatter -> summary -> unit
