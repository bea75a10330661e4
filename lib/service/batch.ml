open Rta_model
module Json = Rta_obs.Json

type request = {
  id : string option;
  spec : string;
  auto_prio : bool;
  config : Rta_core.Analysis.config;
  deadline_s : float option;
}

let request ?id ?(auto_prio = false) ?(config = Rta_core.Analysis.default)
    ?deadline_s spec =
  { id; spec; auto_prio; config; deadline_s }

type verdict = { job_name : string; bound : int option }

type analysis = {
  method_used : [ `Exact | `Approximate | `Fixpoint ];
  schedulable : bool;
  verdicts : verdict array;
  release_horizon : int;
  horizon : int;
}

type degraded = { d_verdicts : verdict array; d_schedulable : bool }

type status =
  | Analyzed of analysis
  | Degraded of degraded
  | Invalid of string
  | Timed_out
  | Failed of string

type response = {
  index : int;
  id : string option;
  cache : [ `Hit | `Miss | `Uncached ];
  status : status;
}

(* ------------------------------------------------------------------ *)
(* Request decoding (one NDJSON object per line)                       *)
(* ------------------------------------------------------------------ *)

let request_of_json ?(defaults = request "") json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj fields ->
      let str_field name =
        match List.assoc_opt name fields with
        | None -> Ok None
        | Some (Json.String s) -> Ok (Some s)
        | Some _ -> Error (Printf.sprintf "%S must be a string" name)
      in
      let pos_int_field name =
        match List.assoc_opt name fields with
        | None -> Ok None
        | Some (Json.Int i) when i > 0 -> Ok (Some i)
        | Some _ -> Error (Printf.sprintf "%S must be a positive integer" name)
      in
      let* () =
        (* Wire-format versioning: absent means version 1 (the format of
           this build); any other major version is rejected up front so a
           future client never gets a silently misinterpreted answer. *)
        match List.assoc_opt "schema_version" fields with
        | None | Some (Json.Int 1) -> Ok ()
        | Some (Json.Int v) ->
            Error
              (Printf.sprintf
                 "unsupported schema_version %d (this build speaks version 1)"
                 v)
        | Some _ -> Error "\"schema_version\" must be an integer"
      in
      let* spec =
        match List.assoc_opt "spec" fields with
        | Some (Json.String s) -> Ok s
        | Some _ -> Error "\"spec\" must be a string"
        | None -> Error "missing \"spec\" field"
      in
      let* id =
        match List.assoc_opt "id" fields with
        | None -> Ok defaults.id
        | Some (Json.String s) -> Ok (Some s)
        | Some (Json.Int i) -> Ok (Some (string_of_int i))
        | Some _ -> Error "\"id\" must be a string or an integer"
      in
      let* auto_prio =
        match List.assoc_opt "auto_prio" fields with
        | None -> Ok defaults.auto_prio
        | Some (Json.Bool b) -> Ok b
        | Some _ -> Error "\"auto_prio\" must be a boolean"
      in
      let* estimator =
        let* s = str_field "estimator" in
        match s with
        | None -> Ok defaults.config.Rta_core.Analysis.estimator
        | Some "direct" -> Ok `Direct
        | Some "sum" -> Ok `Sum
        | Some other ->
            Error
              (Printf.sprintf
                 "unknown estimator %S (expected \"direct\" or \"sum\")" other)
      in
      let* horizon = pos_int_field "horizon" in
      let horizon =
        match horizon with
        | None -> defaults.config.Rta_core.Analysis.horizon
        | h -> h
      in
      let* release_horizon = pos_int_field "release_horizon" in
      let release_horizon =
        match release_horizon with
        | None -> defaults.config.Rta_core.Analysis.release_horizon
        | h -> h
      in
      let* () =
        match (release_horizon, horizon) with
        | Some r, Some h when r > h ->
            Error
              (Printf.sprintf
                 "\"release_horizon\" (%d) exceeds \"horizon\" (%d)" r h)
        | _ -> Ok ()
      in
      let* deadline_s =
        match List.assoc_opt "deadline_ms" fields with
        | None -> Ok defaults.deadline_s
        | Some (Json.Int ms) when ms >= 0 -> Ok (Some (float_of_int ms /. 1e3))
        | Some (Json.Float ms) when ms >= 0. -> Ok (Some (ms /. 1e3))
        | Some _ -> Error "\"deadline_ms\" must be a non-negative number"
      in
      Ok
        {
          id;
          spec;
          auto_prio;
          config = { Rta_core.Analysis.estimator; release_horizon; horizon };
          deadline_s;
        }
  | _ -> Error "request line must be a JSON object"

let request_of_line ?defaults line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok json -> request_of_json ?defaults json

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let requests_c = Rta_obs.counter "service.requests"
let hits_c = Rta_obs.counter "service.cache.hits"
let misses_c = Rta_obs.counter "service.cache.misses"
let invalid_c = Rta_obs.counter "service.invalid"
let degraded_c = Rta_obs.counter "service.degraded"
let timeout_c = Rta_obs.counter "service.timeouts"
let failed_c = Rta_obs.counter "service.failed"
let queue_depth_g = Rta_obs.gauge "service.queue.depth"
let queue_hw_g = Rta_obs.gauge "service.queue.high_water"
let request_h = Rta_obs.histogram "service.request.seconds"

(* ------------------------------------------------------------------ *)
(* Batch execution                                                     *)
(* ------------------------------------------------------------------ *)

type prepared =
  | P_invalid of string
  | P_ready of { req : request; system : System.t; key : Key.t }

let prepare = function
  | Error e -> P_invalid e
  | Ok req -> (
      match Parser.parse req.spec with
      | Error e -> P_invalid (Printf.sprintf "spec: %s" e)
      | Ok system -> (
          match
            if req.auto_prio then Priority.deadline_monotonic_system system
            else Ok system
          with
          | Error e -> P_invalid (Printf.sprintf "auto_prio: %s" e)
          | Ok system ->
              P_ready
                { req; system; key = Key.of_system ~config:req.config system }))

let analyze_ready ?cancel ~system ~config () =
  let report = Rta_core.Analysis.run ?cancel ~config system in
  {
    method_used = report.Rta_core.Analysis.method_used;
    schedulable = report.Rta_core.Analysis.schedulable;
    verdicts =
      Array.mapi
        (fun j v ->
          {
            job_name = (System.job system j).System.name;
            bound =
              (match v with
              | Rta_core.Analysis.Bounded r -> Some r
              | Rta_core.Analysis.Unbounded -> None);
          })
        report.Rta_core.Analysis.per_job;
    release_horizon = report.Rta_core.Analysis.release_horizon;
    horizon = report.Rta_core.Analysis.horizon;
  }

let method_tag = function
  | `Exact -> "exact"
  | `Approximate -> "approximate"
  | `Fixpoint -> "fixpoint"

(* ------------------------------------------------------------------ *)
(* Analysis result codec (the persistent store's payload format)       *)
(* ------------------------------------------------------------------ *)

let verdict_json v =
  Json.Obj
    [
      ("name", Json.String v.job_name);
      ( "bound_ticks",
        match v.bound with Some b -> Json.Int b | None -> Json.Null );
    ]

let analysis_to_json a =
  Json.Obj
    [
      ("method", Json.String (method_tag a.method_used));
      ("schedulable", Json.Bool a.schedulable);
      ("release_horizon", Json.Int a.release_horizon);
      ("horizon", Json.Int a.horizon);
      ("per_job", Json.List (Array.to_list a.verdicts |> List.map verdict_json));
    ]

let analysis_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj fields ->
      let* method_used =
        match List.assoc_opt "method" fields with
        | Some (Json.String "exact") -> Ok `Exact
        | Some (Json.String "approximate") -> Ok `Approximate
        | Some (Json.String "fixpoint") -> Ok `Fixpoint
        | _ -> Error "bad \"method\""
      in
      let* schedulable =
        match List.assoc_opt "schedulable" fields with
        | Some (Json.Bool b) -> Ok b
        | _ -> Error "bad \"schedulable\""
      in
      let int_field name =
        match List.assoc_opt name fields with
        | Some (Json.Int i) -> Ok i
        | _ -> Error (Printf.sprintf "bad %S" name)
      in
      let* release_horizon = int_field "release_horizon" in
      let* horizon = int_field "horizon" in
      let* verdicts =
        match List.assoc_opt "per_job" fields with
        | Some (Json.List vs) ->
            List.fold_left
              (fun acc v ->
                let* acc = acc in
                match v with
                | Json.Obj f -> (
                    match
                      (List.assoc_opt "name" f, List.assoc_opt "bound_ticks" f)
                    with
                    | Some (Json.String job_name), Some (Json.Int b) ->
                        Ok ({ job_name; bound = Some b } :: acc)
                    | Some (Json.String job_name), Some Json.Null ->
                        Ok ({ job_name; bound = None } :: acc)
                    | _ -> Error "bad \"per_job\" entry")
                | _ -> Error "bad \"per_job\" entry")
              (Ok []) vs
            |> Result.map (fun l -> Array.of_list (List.rev l))
        | _ -> Error "bad \"per_job\""
      in
      Ok { method_used; schedulable; verdicts; release_horizon; horizon }
  | _ -> Error "analysis payload must be a JSON object"

let analysis_of_string s =
  match Json.of_string s with
  | Error e -> Error e
  | Ok json -> analysis_of_json json

(* ------------------------------------------------------------------ *)
(* Per-request execution                                               *)
(* ------------------------------------------------------------------ *)

(* Sound last resort for a request whose exact analysis was cancelled
   mid-flight: envelope bounds hold for every trace, so the client still
   gets usable numbers.  They are not cheap and run without a budget:
   on the 1024-job two-stage FCFS shop ([rta generate --stages 2 --sched
   fcfs --seed 3 --jobs 1024]) they took 8.9 s, 26x the full analysis's
   0.34 s, on a 2-core machine with OCaml 5.1.1, so a degraded answer can
   arrive long after its deadline (ROADMAP item 6 plans a shared
   per-processor sum and a budget of their own).  The bounds cover the releases the analysis would have seen
   (its resolved release horizon), as the analysis does.  Cyclic systems
   have no envelope order; they report the plain timeout.  Any failure here
   must read as the timeout it is, not as an analysis error. *)
let degrade ~config system =
  let release_horizon, _ = Rta_core.Analysis.resolve_horizons config system in
  match Rta_core.Envelope_analysis.system_bounds ~release_horizon system with
  | None -> Timed_out
  | Some r ->
      let bound_of = function
        | Rta_core.Envelope_analysis.Bounded b -> Some b
        | Rta_core.Envelope_analysis.Unbounded -> None
      in
      let d_verdicts =
        Array.mapi
          (fun j v ->
            {
              job_name = (System.job system j).System.name;
              bound = bound_of v;
            })
          r.Rta_core.Envelope_analysis.end_to_end
      in
      let d_schedulable =
        Array.for_all Fun.id
          (Array.mapi
             (fun j v -> Verdict.meets ~deadline:(System.job system j).System.deadline v)
             r.Rta_core.Envelope_analysis.end_to_end)
      in
      Degraded { d_verdicts; d_schedulable }
  | exception _ -> Timed_out

let execute ?cache ?store ~admitted prepared =
  match prepared with
  | P_invalid e -> Invalid e
  | P_ready { req; system; key } -> (
      let deadline = Option.map (fun d -> admitted +. d) req.deadline_s in
      let expired =
        match deadline with Some d -> Rta_obs.now () > d | None -> false
      in
      if expired then Timed_out
      else
        let cancel =
          match deadline with
          | Some d -> Rta_core.Cancel.of_deadline d
          | None -> Rta_core.Cancel.never
        in
        let khex = Key.to_hex key in
        let fresh () =
          let a = analyze_ready ~cancel ~system ~config:req.config () in
          (match store with
          | Some st ->
              Store.put st ~key:khex (Json.to_string (analysis_to_json a))
          | None -> ());
          a
        in
        let compute () =
          match store with
          | None -> fresh ()
          | Some st -> (
              (* A payload that does not decode as an analysis (truncated
                 write, manual edit, schema drift) is evicted by the store
                 and recomputed here, never served. *)
              match Store.find st ~key:khex ~decode:analysis_of_string with
              | Some a -> a
              | None -> fresh ())
        in
        match
          match cache with
          | Some c -> (
              match Cache.find_or_compute c ~key:khex compute with
              | `Hit a | `Miss a -> a)
          | None -> compute ()
        with
        | a -> Analyzed a
        | exception Rta_core.Cancel.Cancelled ->
            degrade ~config:req.config system
        | exception e -> Failed (Printexc.to_string e))

let status_tag = function
  | Analyzed a -> if a.schedulable then "ok" else "unschedulable"
  | Degraded _ -> "degraded"
  | Invalid _ -> "invalid"
  | Timed_out -> "timeout"
  | Failed _ -> "failed"

let run ?(jobs = 1) ?(index_base = 0) ?cache ?store requests =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let n = Array.length requests in
  let prepared = Array.map prepare requests in
  (* Deterministic cache labels: a request is a "hit" iff its key was
     completed in the cache before this batch started, or an earlier
     request of this batch carries the same key.  This depends only on the
     input order, never on worker scheduling, so batch output is
     byte-identical for every worker count. *)
  let seen = Hashtbl.create (2 * n) in
  let labels =
    Array.map
      (function
        | P_invalid _ -> `Uncached
        | P_ready { key; _ } ->
            let key = Key.to_hex key in
            if Cache.mem cache key || Hashtbl.mem seen key then `Hit
            else begin
              Hashtbl.add seen key ();
              `Miss
            end)
      prepared
  in
  let statuses = Array.make n Timed_out in
  let started = Rta_obs.now () in
  let remaining = Atomic.make 0 in
  let task i =
    match prepared.(i) with
    | P_invalid e -> statuses.(i) <- Invalid e
    | P_ready { key; _ } as p ->
        let sp = Rta_obs.span_begin "service.request" in
        if Rta_obs.enabled () then begin
          Rta_obs.span_int sp "index" (index_base + i);
          Rta_obs.span_str sp "key" (Key.to_hex key)
        end;
        let t0 = Rta_obs.now () in
        (* Deadlines are measured from batch submission: [execute] turns
           [deadline_ms] into a cancellation token, so a request that is
           past due is dropped up front AND one that overruns mid-analysis
           is actually stopped (then degraded), not merely relabelled after
           the full engine run completes. *)
        let status = execute ~cache ?store ~admitted:started p in
        statuses.(i) <- status;
        if Rta_obs.enabled () then begin
          Rta_obs.observe request_h (Rta_obs.now () -. t0);
          Rta_obs.span_str sp "status" (status_tag status);
          Rta_obs.set_gauge queue_depth_g (Atomic.fetch_and_add remaining (-1) - 1)
        end;
        Rta_obs.span_end sp
  in
  let tasks = Array.init n (fun i () -> task i) in
  if Rta_obs.enabled () then begin
    Atomic.set remaining n;
    Rta_obs.set_gauge queue_depth_g n;
    Rta_obs.max_gauge queue_hw_g n
  end;
  Backend.run ~jobs tasks;
  if Rta_obs.enabled () then begin
    Rta_obs.add requests_c n;
    Array.iteri
      (fun i status ->
        (match labels.(i) with
        | `Hit -> Rta_obs.incr hits_c
        | `Miss -> Rta_obs.incr misses_c
        | `Uncached -> ());
        match status with
        | Analyzed _ -> ()
        | Degraded _ -> Rta_obs.incr degraded_c
        | Invalid _ -> Rta_obs.incr invalid_c
        | Timed_out -> Rta_obs.incr timeout_c
        | Failed _ -> Rta_obs.incr failed_c)
      statuses
  end;
  Array.init n (fun i ->
      let id = match requests.(i) with Ok r -> r.id | Error _ -> None in
      { index = index_base + i; id; cache = labels.(i); status = statuses.(i) })

(* ------------------------------------------------------------------ *)
(* Response encoding                                                   *)
(* ------------------------------------------------------------------ *)

let response_json r =
  let id = match r.id with Some id -> [ ("id", Json.String id) ] | None -> [] in
  let base =
    ("schema_version", Json.Int 1) :: ("index", Json.Int r.index) :: id
  in
  let fields =
    match r.status with
    | Analyzed a ->
        let analysis_fields =
          match analysis_to_json a with Json.Obj f -> f | _ -> assert false
        in
        base
        @ [
            ("status", Json.String "ok");
            ( "cache",
              Json.String
                (match r.cache with
                | `Hit -> "hit"
                | `Miss -> "miss"
                | `Uncached -> "none") );
          ]
        @ analysis_fields
    | Degraded d ->
        (* The bounds are sound but come from the cheap envelope fallback,
           not the engine: "degraded" tells the client its deadline fired
           mid-analysis and these numbers are coarser than an "ok" answer
           for the same spec would be. *)
        base
        @ [
            ("status", Json.String "degraded");
            ("method", Json.String "envelope");
            ("schedulable", Json.Bool d.d_schedulable);
            ( "per_job",
              Json.List (Array.to_list d.d_verdicts |> List.map verdict_json)
            );
          ]
    | Invalid e -> base @ [ ("status", Json.String "invalid"); ("error", Json.String e) ]
    | Timed_out -> base @ [ ("status", Json.String "timeout") ]
    | Failed e -> base @ [ ("status", Json.String "failed"); ("error", Json.String e) ]
  in
  Json.Obj fields

let response_line r = Json.to_string (response_json r)

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

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

let empty_summary =
  {
    total = 0;
    analyzed = 0;
    schedulable = 0;
    degraded = 0;
    invalid = 0;
    timed_out = 0;
    failed = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

let add_response s r =
  let s = { s with total = s.total + 1 } in
  let s =
    match r.cache with
    | `Hit -> { s with cache_hits = s.cache_hits + 1 }
    | `Miss -> { s with cache_misses = s.cache_misses + 1 }
    | `Uncached -> s
  in
  match r.status with
  | Analyzed a ->
      {
        s with
        analyzed = s.analyzed + 1;
        schedulable = (s.schedulable + if a.schedulable then 1 else 0);
      }
  | Degraded _ -> { s with degraded = s.degraded + 1 }
  | Invalid _ -> { s with invalid = s.invalid + 1 }
  | Timed_out -> { s with timed_out = s.timed_out + 1 }
  | Failed _ -> { s with failed = s.failed + 1 }

let summarize responses = Array.fold_left add_response empty_summary responses

let pp_summary ppf s =
  Format.fprintf ppf
    "%d requests: %d analyzed (%d schedulable), %d degraded, %d invalid, %d \
     timeout, %d failed; cache %d hits / %d misses"
    s.total s.analyzed s.schedulable s.degraded s.invalid s.timed_out s.failed
    s.cache_hits s.cache_misses
