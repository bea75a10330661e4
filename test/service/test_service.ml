(* The batch service's contract:

   - cache keys are content-addressed: formatting does not matter,
     analysis parameters do;
   - the memo cache computes each key once, does not cache failures, and
     deduplicates identical in-flight requests;
   - batch output is byte-identical across worker counts (the acceptance
     bar for `rta batch`), matches N sequential Analysis.run calls, and
     stays identical when the cache is hot;
   - malformed NDJSON lines and unparseable specs fail only their own
     request. *)

open Rta_model
module Batch = Rta_service.Batch
module Cache = Rta_service.Cache
module Key = Rta_service.Key
module Json = Rta_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Worker count under test: the CI matrix sets RTA_JOBS=4 on the 5.x leg;
   locally we default to 8.  On the sequential backend any value degrades
   to in-order execution, which must produce the same bytes. *)
let par_jobs =
  match Option.bind (Sys.getenv_opt "RTA_JOBS") int_of_string_opt with
  | Some j when j >= 1 -> j
  | Some _ | None -> 8

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let spec_of_seed seed =
  let sched =
    match seed mod 3 with 0 -> Sched.Spp | 1 -> Sched.Spnp | _ -> Sched.Fcfs
  in
  let arrival =
    if seed mod 5 = 0 then Rta_workload.Jobshop.Bursty_eq27
    else Rta_workload.Jobshop.Periodic_eq25
  in
  let config =
    Rta_workload.Jobshop.default
      ~stages:(2 + (seed mod 2))
      ~jobs:(3 + (seed mod 3))
      ~utilization:(0.3 +. (0.05 *. float_of_int (seed mod 5)))
      ~arrival
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0)
      ~sched
  in
  Parser.print
    (Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make seed))

(* [n] requests over [unique] distinct systems, so ~(n - unique) of them
   are exact duplicates exercising the memo cache. *)
let corpus ~n ~unique =
  Array.init n (fun i ->
      Ok (Batch.request ~id:(Printf.sprintf "sys-%d" i) (spec_of_seed (i mod unique))))

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let sample_spec =
  "processors spp\n\n\
   job T1 arrival periodic period=5.0 deadline 12.5\n\
  \  step proc=0 exec=0.5 prio=1\n"

let noisy_spec =
  "# a comment\n\n\
   processors   spp\n\n\n\
   job T1   arrival periodic period=5.00 deadline 12.50\n\
   \t step proc=0 exec=0.500 prio=1\n\n# trailing comment\n"

let parse_exn spec =
  match Parser.parse spec with
  | Ok s -> s
  | Error e -> Alcotest.failf "spec should parse: %s" e

let cfg ?(estimator = `Direct) ?(release_horizon = 50) ?(horizon = 100) () =
  Rta_core.Analysis.config ~estimator ~release_horizon ~horizon ()

let test_key_canonicalization () =
  let a = parse_exn sample_spec and b = parse_exn noisy_spec in
  let key sys = Key.of_system ~config:(cfg ()) sys in
  check_string "formatting does not change the key" (Key.to_hex (key a))
    (Key.to_hex (key b));
  let k_sum = Key.of_system ~config:(cfg ~estimator:`Sum ()) a in
  check_bool "estimator is part of the key" false (Key.equal (key a) k_sum);
  let k_h = Key.of_system ~config:(cfg ~horizon:200 ()) a in
  check_bool "horizon is part of the key" false (Key.equal (key a) k_h);
  let k_rh = Key.of_system ~config:(cfg ~release_horizon:25 ()) a in
  check_bool "release horizon is part of the key" false (Key.equal (key a) k_rh);
  (* A request deadline does not change the analysis result, so two
     requests that differ only in it share a key. *)
  let prepared_key line =
    match Batch.prepare (Batch.request_of_line line) with
    | Batch.P_ready { key; _ } -> key
    | Batch.P_invalid e -> Alcotest.failf "request should prepare: %s" e
  in
  let line extra =
    Printf.sprintf {|{"spec": %S, "horizon": 100%s}|} sample_spec extra
  in
  check_bool "deadline_ms is not part of the key" true
    (Key.equal
       (prepared_key (line ""))
       (prepared_key (line {|, "deadline_ms": 1000|})));
  (* The key hashes the RESOLVED config: spelling out the derived default
     horizons hashes like omitting them. *)
  let k_default = Key.of_system ~config:Rta_core.Analysis.default a in
  let rh, h =
    Rta_core.Analysis.resolve_horizons Rta_core.Analysis.default a
  in
  let k_explicit =
    Key.of_system ~config:(Rta_core.Analysis.config ~release_horizon:rh ~horizon:h ()) a
  in
  check_bool "explicit default horizons hash identically" true
    (Key.equal k_default k_explicit)

(* Two specs a printed key could not tell apart: one exec differs in its
   seventh significant digit.  Keyed on "%g"-printed units, the second line
   was a cache hit served the first line's bound (1234567 ticks, below its
   own 1234568). *)
let collision_spec exec =
  Printf.sprintf
    "processors spp\njob T1 arrival periodic period=5000 deadline 5000\n\
    \  step proc=0 exec=%s prio=1\n"
    exec

let test_key_collision () =
  let config =
    Rta_core.Analysis.config ~release_horizon:20_000_000 ~horizon:40_000_000 ()
  in
  let requests =
    Array.map
      (fun exec -> Ok (Batch.request ~id:exec ~config (collision_spec exec)))
      [| "1234.567"; "1234.568" |]
  in
  let responses = Batch.run requests in
  let bounds =
    Array.map
      (fun (r : Batch.response) ->
        check_bool "each line is a cache miss" true (r.Batch.cache = `Miss);
        match r.Batch.status with
        | Batch.Analyzed { verdicts = [| { bound = Some b; _ } |]; _ } -> b
        | _ -> Alcotest.fail "expected one bounded job")
      responses
  in
  Alcotest.(check (array int)) "exact bounds" [| 1_234_567; 1_234_568 |] bounds

(* Keys are equal exactly when the systems and the resolved configs are:
   a generated system against an equal copy of itself (half the time) or
   against a one-field variant, under random configs. *)
let mutate system choice =
  let schedulers = Array.copy system.System.schedulers in
  let jobs =
    Array.map
      (fun (j : System.job) -> { j with System.steps = Array.copy j.System.steps })
      system.System.jobs
  in
  let j = choice mod Array.length jobs in
  let job = jobs.(j) in
  let bump_step f =
    let k = choice mod Array.length job.System.steps in
    job.System.steps.(k) <- f job.System.steps.(k)
  in
  (match choice mod 7 with
  | 0 -> bump_step (fun s -> { s with System.exec = s.System.exec + 1 })
  | 1 ->
      bump_step (fun s ->
          { s with System.proc = (s.System.proc + 1) mod Array.length schedulers })
  | 2 -> jobs.(j) <- { job with System.deadline = job.System.deadline + 1 }
  | 3 -> jobs.(j) <- { job with System.name = job.System.name ^ "x" }
  | 4 ->
      let p = choice mod Array.length schedulers in
      schedulers.(p) <-
        (match schedulers.(p) with
        | Sched.Spp -> Sched.Spnp
        | Sched.Spnp -> Sched.Fcfs
        | Sched.Fcfs -> Sched.Spp)
  | 5 ->
      let arrival =
        match job.System.arrival with
        | Arrival.Periodic p -> Arrival.Periodic { p with offset = p.offset + 1 }
        | Arrival.Bursty { period } -> Arrival.Bursty { period = period + 1 }
        | Arrival.Burst_periodic b -> Arrival.Burst_periodic { b with burst = b.burst + 1 }
        | Arrival.Sporadic_worst s -> Arrival.Sporadic_worst { s with count = s.count + 1 }
        | Arrival.Trace [||] -> Arrival.Trace [| 0 |]
        | Arrival.Trace ts ->
            let ts = Array.copy ts in
            ts.(Array.length ts - 1) <- ts.(Array.length ts - 1) + 1;
            Arrival.Trace ts
      in
      jobs.(j) <- { job with System.arrival }
  | _ -> bump_step (fun s -> { s with System.prio = s.System.prio + 1000 }));
  System.make_exn ~schedulers ~jobs

let prop_key_iff_equal =
  let open QCheck2.Gen in
  let config_gen =
    let* estimator = oneofl [ `Direct; `Sum ] in
    let* horizons = oneofl [ None; Some (50_000, 100_000); Some (50_000, 100_001) ] in
    return
      (match horizons with
      | None -> Rta_core.Analysis.config ~estimator ()
      | Some (release_horizon, horizon) ->
          Rta_core.Analysis.config ~estimator ~release_horizon ~horizon ())
  in
  let gen =
    let* system = Rta_testsupport.Sysgen.tick_system_gen in
    let* copy = bool in
    let* variant = if copy then return (-1) else int_range 0 1000 in
    let* config_a = config_gen in
    let* config_b = config_gen in
    return (system, variant, config_a, config_b)
  in
  Rta_testsupport.Gen.qtest ~count:400 "keys are equal iff systems and configs are"
    gen
    (fun (s, v, _, _) -> Printf.sprintf "variant %d of\n%s" v (Parser.print s))
    (fun (a, variant, config_a, config_b) ->
      (* An equal but separately built copy, or a one-field variant. *)
      let b =
        if variant < 0 then Result.get_ok (Parser.parse (Parser.print a))
        else mutate a variant
      in
      let resolved config system =
        (config.Rta_core.Analysis.estimator, Rta_core.Analysis.resolve_horizons config system)
      in
      let equal = a = b && resolved config_a a = resolved config_b b in
      Key.equal (Key.of_system ~config:config_a a) (Key.of_system ~config:config_b b)
      = equal)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_memoizes () =
  let c = Cache.create () in
  let computed = ref 0 in
  let f () = incr computed; 42 in
  (match Cache.find_or_compute c ~key:"k" f with
  | `Miss 42 -> ()
  | _ -> Alcotest.fail "first call should be a computing miss");
  (match Cache.find_or_compute c ~key:"k" f with
  | `Hit 42 -> ()
  | _ -> Alcotest.fail "second call should hit");
  check_int "computed once" 1 !computed;
  check_int "one completed entry" 1 (Cache.length c);
  check_bool "mem" true (Cache.mem c "k");
  check_bool "find" true (Cache.find c "k" = Some 42);
  Alcotest.(check (pair int int)) "stats" (1, 1) (Cache.stats c)

let test_cache_failure_not_poisoned () =
  let c = Cache.create () in
  let attempts = ref 0 in
  (try
     ignore
       (Cache.find_or_compute c ~key:"k" (fun () ->
            incr attempts;
            failwith "boom"))
   with Failure _ -> ());
  check_bool "failure is not cached" false (Cache.mem c "k");
  (match Cache.find_or_compute c ~key:"k" (fun () -> incr attempts; 7) with
  | `Miss 7 -> ()
  | _ -> Alcotest.fail "retry after failure should compute");
  check_int "computed twice" 2 !attempts

(* ------------------------------------------------------------------ *)
(* Determinism across worker counts (the acceptance bar)               *)
(* ------------------------------------------------------------------ *)

let render responses =
  String.concat "\n" (Array.to_list (Array.map Batch.response_line responses))

let test_differential_jobs () =
  let requests = corpus ~n:60 ~unique:40 in
  (* A malformed line and an unparseable spec must not perturb the rest. *)
  requests.(17) <- Error "JSON parse error at offset 0: unexpected character 'x'";
  requests.(23) <- Ok (Batch.request ~id:"bad" "processors warp\n");
  let seq = Batch.run ~jobs:1 requests in
  let par = Batch.run ~jobs:par_jobs requests in
  check_string
    (Printf.sprintf "jobs=1 and jobs=%d render identical NDJSON" par_jobs)
    (render seq) (render par);
  Array.iteri
    (fun i (r : Batch.response) -> check_int "responses are in input order" i r.Batch.index)
    par;
  let summary = Batch.summarize par in
  check_int "invalid lines isolated" 2 summary.Batch.invalid;
  check_int "everything else analyzed" 58 summary.Batch.analyzed;
  (* 60 requests over 40 specs leaves 20 duplicates; knocking out index 17
     (spec 17's first occurrence) promotes its duplicate at 57 to the
     computing miss, and index 23's spec occurs only once. *)
  check_int "duplicates are deterministic cache hits" 19 summary.Batch.cache_hits;
  check_int "uniques are misses" 39 summary.Batch.cache_misses

let test_differential_vs_sequential_analyze () =
  let requests = corpus ~n:24 ~unique:24 in
  let responses = Batch.run ~jobs:par_jobs requests in
  Array.iteri
    (fun i response ->
      let req = match requests.(i) with Ok r -> r | Error _ -> assert false in
      let system = parse_exn req.Batch.spec in
      let _, horizon =
        Rta_core.Analysis.resolve_horizons Rta_core.Analysis.default system
      in
      let report = Rta_core.Analysis.run system in
      match response.Batch.status with
      | Batch.Analyzed a ->
          check_bool "same schedulability as a direct Analysis.run" true
            (a.Batch.schedulable = report.Rta_core.Analysis.schedulable);
          check_int "same resolved horizon" horizon a.Batch.horizon;
          Array.iteri
            (fun j (v : Batch.verdict) ->
              let expected =
                match report.Rta_core.Analysis.per_job.(j) with
                | Rta_core.Analysis.Bounded b -> Some b
                | Rta_core.Analysis.Unbounded -> None
              in
              check_bool "same per-job bound" true (v.Batch.bound = expected))
            a.Batch.verdicts
      | _ -> Alcotest.failf "request %d should analyze" i)
    responses

let test_hot_cache_same_answers () =
  let requests = corpus ~n:20 ~unique:15 in
  let cache = Cache.create () in
  let cold = Batch.run ~jobs:par_jobs ~cache requests in
  let hot = Batch.run ~jobs:par_jobs ~cache requests in
  Array.iteri
    (fun i (h : Batch.response) ->
      check_bool "hot analysis equals cold" true
        (h.Batch.status = cold.(i).Batch.status);
      check_bool "hot requests all hit" true (h.Batch.cache = `Hit))
    hot;
  let hits, misses = Cache.stats cache in
  check_int "each unique system computed once" 15 misses;
  check_int "runtime hits cover the rest" 25 hits

(* In-flight deduplication: many concurrent requests for one key, one
   compute.  With the domains backend the duplicates genuinely race; on
   the sequential fallback this degrades to plain memoization. *)
let test_inflight_dedup () =
  let spec = spec_of_seed 1 in
  let requests = Array.init 32 (fun i -> Ok (Batch.request ~id:(string_of_int i) spec)) in
  let cache = Cache.create () in
  let responses = Batch.run ~jobs:par_jobs ~cache requests in
  let _, misses = Cache.stats cache in
  check_int "one compute for 32 identical requests" 1 misses;
  check_int "one completed entry" 1 (Cache.length cache);
  let summary = Batch.summarize responses in
  check_int "all analyzed" 32 summary.Batch.analyzed;
  check_int "deterministic labels: one miss" 1 summary.Batch.cache_misses;
  check_int "deterministic labels: rest hit" 31 summary.Batch.cache_hits

(* ------------------------------------------------------------------ *)
(* Failure modes                                                       *)
(* ------------------------------------------------------------------ *)

let test_deadline_timeout () =
  let requests =
    [|
      Ok
        (Batch.request ~id:"expired" ~deadline_s:(-1.) (spec_of_seed 2));
      Ok (Batch.request ~id:"fine" (spec_of_seed 2));
    |]
  in
  let responses = Batch.run ~jobs:par_jobs requests in
  (match responses.(0).Batch.status with
  | Batch.Timed_out -> ()
  | _ -> Alcotest.fail "expired deadline should time out");
  (match responses.(1).Batch.status with
  | Batch.Analyzed _ -> ()
  | _ -> Alcotest.fail "timeout must not leak onto the other request");
  check_string "timeout renders as a structured line"
    {|{"schema_version":1,"index":0,"id":"expired","status":"timeout"}|}
    (Batch.response_line responses.(0))

(* ------------------------------------------------------------------ *)
(* auto_prio                                                           *)
(* ------------------------------------------------------------------ *)

(* A's deadline is the tighter one, yet the spec gives B the higher
   priority on both processors: Eq. 24 must swap them. *)
let inverted_prio_spec =
  "processors spp spp\n\
   job A arrival periodic period=10.0 deadline 10.0\n\
  \  step proc=0 exec=1.0 prio=2\n\
  \  step proc=1 exec=1.0 prio=2\n\
   job B arrival periodic period=20.0 deadline 40.0\n\
  \  step proc=0 exec=2.0 prio=1\n\
  \  step proc=1 exec=2.0 prio=1\n"

let test_batch_auto_prio () =
  let prios system =
    List.init (System.job_count system) (fun j ->
        Array.to_list
          (Array.map (fun (s : System.step) -> s.prio) (System.job system j).steps))
  in
  let prepared auto =
    let line =
      Json.to_string
        (Json.Obj
           [ ("spec", Json.String inverted_prio_spec); ("auto_prio", Json.Bool auto) ])
    in
    match Batch.prepare (Batch.request_of_line line) with
    | Batch.P_ready { system; _ } -> prios system
    | Batch.P_invalid e -> Alcotest.failf "request should prepare: %s" e
  in
  let parsed =
    match Parser.parse inverted_prio_spec with
    | Ok system -> system
    | Error e -> Alcotest.failf "spec should parse: %s" e
  in
  let expected =
    match Priority.deadline_monotonic_system parsed with
    | Ok system -> prios system
    | Error e -> Alcotest.failf "auto_prio rebuild failed: %s" e
  in
  let pp = Alcotest.(list (list int)) in
  Alcotest.check pp "spec priorities kept without auto_prio" [ [ 2; 2 ]; [ 1; 1 ] ]
    (prepared false);
  Alcotest.check pp "Eq. 24 ranks" [ [ 1; 1 ]; [ 2; 2 ] ] expected;
  Alcotest.check pp "batch auto_prio = Priority helper" expected (prepared true)

(* ------------------------------------------------------------------ *)
(* NDJSON request decoding                                             *)
(* ------------------------------------------------------------------ *)

let test_request_decoding () =
  let ok line =
    match Batch.request_of_line line with
    | Ok r -> r
    | Error e -> Alcotest.failf "line should decode: %s" e
  in
  let reject label line =
    match Batch.request_of_line line with
    | Ok _ -> Alcotest.failf "line should be rejected (%s)" label
    | Error _ -> ()
  in
  let r =
    ok
      {|{"id": 7, "spec": "processors spp\n", "estimator": "sum", "auto_prio": true, "horizon": 99, "deadline_ms": 250}|}
  in
  check_bool "int id is stringified" true (r.Batch.id = Some "7");
  check_bool "estimator decoded" true
    (r.Batch.config.Rta_core.Analysis.estimator = `Sum);
  check_bool "auto_prio decoded" true r.Batch.auto_prio;
  check_bool "horizon decoded" true
    (r.Batch.config.Rta_core.Analysis.horizon = Some 99);
  check_bool "deadline decoded" true
    (r.Batch.deadline_s = Some 0.25);
  let d = ok {|{"spec": "processors spp\n"}|} in
  check_bool "defaults" true
    (d.Batch.id = None && (not d.Batch.auto_prio)
    && d.Batch.config = Rta_core.Analysis.default);
  let v1 = ok {|{"spec": "processors spp\n", "schema_version": 1}|} in
  check_bool "schema_version 1 accepted" true
    (v1.Batch.config = Rta_core.Analysis.default);
  reject "future schema_version" {|{"spec": "processors spp\n", "schema_version": 2}|};
  reject "non-integer schema_version" {|{"spec": "processors spp\n", "schema_version": "1"}|};
  reject "not JSON" "processors spp";
  reject "not an object" {|["processors spp"]|};
  reject "missing spec" {|{"id": "x"}|};
  reject "bad estimator" {|{"spec": "processors spp\n", "estimator": "magic"}|};
  reject "bad horizon" {|{"spec": "processors spp\n", "horizon": -5}|};
  reject "bad deadline" {|{"spec": "processors spp\n", "deadline_ms": -1}|}

let test_contradictory_horizons_invalid () =
  (* Two explicit horizons that contradict each other are bad input, not
     an analysis failure: no worker is spent and nothing is cached. *)
  let line =
    Printf.sprintf {|{"spec": %S, "release_horizon": 5000, "horizon": 2000}|}
      (spec_of_seed 1)
  in
  (match Batch.request_of_line line with
  | Ok _ -> Alcotest.fail "release_horizon above horizon should be rejected"
  | Error _ -> ());
  let r = (Batch.run [| Batch.request_of_line line |]).(0) in
  check_string "answered invalid" "invalid" (Batch.status_tag r.Batch.status);
  check_bool "not a cache miss" true (r.Batch.cache = `Uncached)

let test_response_roundtrips_as_json () =
  let requests = [| Ok (Batch.request ~id:"r0" (spec_of_seed 3)) |] in
  let responses = Batch.run requests in
  match Json.of_string (Batch.response_line responses.(0)) with
  | Error e -> Alcotest.failf "response line is not valid JSON: %s" e
  | Ok (Json.Obj fields) ->
      check_bool "schema_version" true
        (List.assoc_opt "schema_version" fields = Some (Json.Int 1));
      check_bool "index" true (List.assoc_opt "index" fields = Some (Json.Int 0));
      check_bool "id" true (List.assoc_opt "id" fields = Some (Json.String "r0"));
      check_bool "status" true
        (List.assoc_opt "status" fields = Some (Json.String "ok"));
      check_bool "cache" true
        (List.assoc_opt "cache" fields = Some (Json.String "miss"));
      (match List.assoc_opt "per_job" fields with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "per_job should be a non-empty list")
  | Ok _ -> Alcotest.fail "response line should be a JSON object"

(* ------------------------------------------------------------------ *)
(* Deadline enforcement: mid-flight cancellation, degraded answers     *)
(* ------------------------------------------------------------------ *)

module Store = Rta_service.Store
module Server = Rta_service.Server

(* A spec whose full analysis runs far past every deadline below: the
   SPNP job shop `rta generate --stages 4 --jobs 24 --sched spnp --seed 3`
   at an 80 M-tick release horizon.  Its cost is the SPNP bounds: each of
   a processor's N residents walks the higher-priority workloads and
   reads the higher-priority services, O(I) each, so O(N I) per processor
   for I released instances, which the raised release horizon makes
   large.  The full run took 12.4-14.1 s (1.43 GB peak RSS) on a 2-core box
   with OCaml 5.1.1, over 10x the largest deadline that leans on it
   (0.4 s here, 1 s in the CI serve smoke); a cancelled run stops long
   before that size.  (With 20 jobs it took 9.6-10.8 s once the
   higher-priority services were read without summing them, at 10x the
   CI deadline, hence 24 jobs rather than a longer horizon, whose memory
   grows with it.) *)
let slow_spec =
  let config =
    Rta_workload.Jobshop.default ~stages:4 ~jobs:24 ~utilization:0.5
      ~arrival:Rta_workload.Jobshop.Periodic_eq25
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0)
      ~sched:Sched.Spnp
  in
  Parser.print
    (Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make 3))

let slow_release_horizon = 80_000_000
let slow_horizon = 160_000_000

let slow_config =
  Rta_core.Analysis.config ~release_horizon:slow_release_horizon
    ~horizon:slow_horizon ()

let test_midflight_degrade () =
  let requests =
    [|
      Ok
        (Batch.request ~id:"slow" ~config:slow_config ~deadline_s:0.4 slow_spec);
    |]
  in
  let t0 = Unix.gettimeofday () in
  let responses = Batch.run ~jobs:1 requests in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match responses.(0).Batch.status with
  | Batch.Degraded d ->
      check_int "degraded carries a verdict per job" 24
        (Array.length d.Batch.d_verdicts);
      Array.iter
        (fun (v : Batch.verdict) ->
          check_bool "envelope bounds are finite here" true (v.Batch.bound <> None))
        d.Batch.d_verdicts
  | s -> Alcotest.failf "expected a degraded response, got %s" (Batch.status_tag s));
  (* The full analysis takes many seconds at these horizons; the point of
     cancellation is that an expired request never pays that.  The bound
     is generous (CI machines vary) but far below the full run. *)
  check_bool
    (Printf.sprintf "cancelled well before completion (took %.1fs)" elapsed)
    true (elapsed < 6.0);
  match Json.of_string (Batch.response_line responses.(0)) with
  | Ok (Json.Obj f) ->
      check_bool "status rendered as degraded" true
        (List.assoc_opt "status" f = Some (Json.String "degraded"));
      check_bool "method rendered as envelope" true
        (List.assoc_opt "method" f = Some (Json.String "envelope"))
  | _ -> Alcotest.fail "degraded response line should be a JSON object"

let test_degraded_matches_envelope () =
  let system = parse_exn slow_spec in
  let expected =
    match
      Rta_core.Envelope_analysis.system_bounds
        ~release_horizon:slow_release_horizon system
    with
    | Some r -> r.Rta_core.Envelope_analysis.end_to_end
    | None -> Alcotest.fail "jobshop systems are acyclic"
  in
  let requests =
    [|
      Ok
        (Batch.request ~id:"slow" ~config:slow_config ~deadline_s:0.3 slow_spec);
    |]
  in
  match (Batch.run ~jobs:1 requests).(0).Batch.status with
  | Batch.Degraded d ->
      Array.iteri
        (fun j (v : Batch.verdict) ->
          let e =
            match expected.(j) with
            | Rta_core.Envelope_analysis.Bounded b -> Some b
            | Rta_core.Envelope_analysis.Unbounded -> None
          in
          check_bool "degraded bound is exactly the envelope bound" true
            (v.Batch.bound = e))
        d.Batch.d_verdicts
  | s -> Alcotest.failf "expected degraded, got %s" (Batch.status_tag s)

let test_cache_cancelled_not_poisoned () =
  let c = Cache.create () in
  (try
     ignore
       (Cache.find_or_compute c ~key:"k" (fun () ->
            raise Rta_core.Cancel.Cancelled))
   with Rta_core.Cancel.Cancelled -> ());
  check_bool "cancelled compute leaves no marker" false (Cache.mem c "k");
  (match Cache.find_or_compute c ~key:"k" (fun () -> 9) with
  | `Miss 9 -> ()
  | _ -> Alcotest.fail "retry after cancellation should compute");
  check_bool "retry cached" true (Cache.find c "k" = Some 9)

(* ------------------------------------------------------------------ *)
(* Persistent store                                                    *)
(* ------------------------------------------------------------------ *)

let temp_counter = ref 0

let temp_dir prefix =
  incr temp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rta-test-%s-%d-%d" prefix (Unix.getpid ()) !temp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let validate_analysis s = Result.is_ok (Batch.analysis_of_string s)

let test_store_warm_restart () =
  let dir = temp_dir "store" in
  let requests = corpus ~n:3 ~unique:3 in
  let cold =
    let store = Store.open_ dir in
    let r = Batch.run ~jobs:1 ~cache:(Cache.create ()) ~store requests in
    Store.flush store;
    let s = Store.stats store in
    check_int "cold run misses the store" 3 s.Store.misses;
    check_int "cold run populates the store" 3 s.Store.entries;
    r
  in
  (* A fresh process: new store handle, empty in-process cache.  Every
     result must come off disk without touching the engine. *)
  let store = Store.open_ dir in
  let warm = Batch.run ~jobs:1 ~cache:(Cache.create ()) ~store requests in
  let s = Store.stats store in
  check_int "warm restart answers from the store" 3 s.Store.hits;
  check_int "warm restart never recomputes" 0 s.Store.misses;
  check_string "restart changes no response bytes" (render cold) (render warm)

(* A store opened plainly still never serves a payload that does not decode
   as an analysis: unparseable bytes and valid JSON of the wrong shape are
   both evicted, counted as corrupt and as a miss, and recomputed. *)
let check_corrupt_payload garbage =
  let dir = temp_dir "corrupt" in
  let requests = [| Ok (Batch.request ~id:"a" (spec_of_seed 4)) |] in
  let store = Store.open_ dir in
  ignore (Batch.run ~jobs:1 ~cache:(Cache.create ()) ~store requests);
  let entry =
    match
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
    with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one store entry, found %d" (List.length l)
  in
  let oc = open_out entry in
  output_string oc garbage;
  close_out oc;
  (* Fresh handle, as after a restart onto a damaged directory. *)
  let store = Store.open_ dir in
  let responses = Batch.run ~jobs:1 ~cache:(Cache.create ()) ~store requests in
  (match responses.(0).Batch.status with
  | Batch.Analyzed _ -> ()
  | s ->
      Alcotest.failf "corruption must degrade to a recompute, got %s"
        (Batch.status_tag s));
  let s = Store.stats store in
  check_int "corrupt entry detected and evicted" 1 s.Store.corrupt;
  check_int "and recomputed" 1 s.Store.misses;
  check_int "never served" 0 s.Store.hits;
  let ic = open_in_bin entry in
  let payload = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_bool "entry healed on disk by the recompute" true
    (validate_analysis payload)

let test_store_corruption_evicted () =
  List.iter check_corrupt_payload
    [ "{ definitely not an analysis"; {|{"method":"exact"}|} ]

let test_store_lru_eviction () =
  let dir = temp_dir "lru" in
  let key i = Printf.sprintf "%032x" i in
  (* 30 bytes each; three fit under the 100-byte cap, four do not. *)
  let payload i = Printf.sprintf "payload-%d-%s" i (String.make 20 'x') in
  let store = Store.open_ ~max_bytes:100 dir in
  for i = 0 to 2 do
    Store.put store ~key:(key i) (payload i)
  done;
  check_bool "all three fit" true (Store.find store ~key:(key 0) ~decode:Result.ok <> None);
  (* That find refreshed key 0, so key 1 is now the least recently used. *)
  Store.put store ~key:(key 3) (payload 3);
  check_bool "LRU entry evicted" true (Store.find store ~key:(key 1) ~decode:Result.ok = None);
  check_bool "recently-used entry survives" true
    (Store.find store ~key:(key 0) ~decode:Result.ok <> None);
  check_bool "newest entry present" true (Store.find store ~key:(key 3) ~decode:Result.ok <> None);
  check_bool "evictions counted" true ((Store.stats store).Store.evictions >= 1)

let test_store_hygiene () =
  let dir = temp_dir "hygiene" in
  let stale = Filename.concat dir ".tmp.deadbeef.9999" in
  let oc = open_out stale in
  output_string oc "half-written";
  close_out oc;
  let manual_key = String.make 32 'a' in
  let oc = open_out (Filename.concat dir (manual_key ^ ".json")) in
  output_string oc "hello";
  close_out oc;
  let store = Store.open_ dir in
  check_bool "stale temporary swept on open" false (Sys.file_exists stale);
  check_bool "pre-existing entry indexed" true
    (Store.find store ~key:manual_key ~decode:Result.ok = Some "hello");
  check_bool "path-traversal keys never touch the filesystem" true
    (Store.find store ~key:"../../etc/passwd" ~decode:Result.ok = None);
  Store.put store ~key:"not-a-key" "x";
  check_bool "malformed keys are not stored" true
    (Store.find store ~key:"not-a-key" ~decode:Result.ok = None)

(* ------------------------------------------------------------------ *)
(* Daemon (socket transport; stop () instead of signals)               *)
(* ------------------------------------------------------------------ *)

let socket_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rta-test-%s-%d.sock" name (Unix.getpid ()))

let wait_for ?(timeout = 30.) pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if not (pred ()) then
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what
      else begin
        ignore (Unix.select [] [] [] 0.02);
        go ()
      end
  in
  go ()

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_line fd line =
  let payload = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length payload in
  let rec go off =
    if off < len then go (off + Unix.write fd payload off (len - off))
  in
  go 0

(* Newline-terminated lines read so far; a partial trailing line does not
   count. *)
let recv_lines ?(timeout = 60.) fd n =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  let complete () =
    match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
    | _partial :: rev -> List.filter (fun s -> s <> "") (List.rev rev)
    | [] -> []
  in
  let rec go () =
    if List.length (complete ()) >= n then complete ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %d response lines (got %d)" n
        (List.length (complete ()))
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> complete ()
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              go ())
  in
  go ()

let status_of line =
  match Json.of_string line with
  | Ok (Json.Obj f) -> (
      match List.assoc_opt "status" f with
      | Some (Json.String s) -> s
      | _ -> Alcotest.failf "no status in %s" line)
  | _ -> Alcotest.failf "response is not a JSON object: %s" line

let id_of line =
  match Json.of_string line with
  | Ok (Json.Obj f) -> (
      match List.assoc_opt "id" f with
      | Some (Json.String s) -> Some s
      | _ -> None)
  | _ -> None

let req_json ?deadline_ms ?horizon ?release_horizon ~id spec =
  let num name v = Option.to_list (Option.map (fun x -> (name, Json.Int x)) v) in
  Json.to_string
    (Json.Obj
       (("id", Json.String id)
       :: ("spec", Json.String spec)
       :: (num "deadline_ms" deadline_ms
          @ num "horizon" horizon
          @ num "release_horizon" release_horizon)))

let with_server cfg f =
  let t = Server.create cfg in
  let thread = Thread.create Server.serve t in
  (match cfg.Server.socket with
  | Some path -> wait_for (fun () -> Sys.file_exists path) "the daemon socket"
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join thread)
    (fun () -> f t)

let with_client path f =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let test_server_roundtrip () =
  let path = socket_path "roundtrip" in
  let cfg = Server.config ~workers:2 ~max_queue:8 ~socket:path ~stdio:false () in
  with_server cfg (fun t ->
      with_client path (fun fd ->
          send_line fd (req_json ~id:"good" sample_spec);
          send_line fd (req_json ~id:"bad" "processors warp\n");
          send_line fd "this is not json";
          let lines = recv_lines fd 3 in
          check_int "one response per request" 3 (List.length lines);
          let by_id id = List.find_opt (fun l -> id_of l = Some id) lines in
          (match by_id "good" with
          | Some l -> check_string "valid request analyzed" "ok" (status_of l)
          | None -> Alcotest.fail "no response echoing id good");
          (match by_id "bad" with
          | Some l ->
              check_string "unparseable spec is invalid" "invalid" (status_of l)
          | None -> Alcotest.fail "no response echoing id bad");
          check_bool "the non-JSON line is answered too" true
            (List.exists (fun l -> id_of l = None && status_of l = "invalid") lines);
          wait_for (fun () -> Server.requests_served t >= 3) "the served counter";
          check_int "served counts every response" 3 (Server.requests_served t)));
  check_bool "socket removed on shutdown" false (Sys.file_exists path)

let test_server_queue_full () =
  let path = socket_path "backpressure" in
  let cfg = Server.config ~workers:1 ~max_queue:1 ~socket:path ~stdio:false () in
  with_server cfg (fun _ ->
      with_client path (fun fd ->
          for i = 1 to 4 do
            send_line fd
              (req_json
                 ~id:(Printf.sprintf "s%d" i)
                 ~deadline_ms:400 ~horizon:slow_horizon
                 ~release_horizon:slow_release_horizon slow_spec)
          done;
          let lines = recv_lines fd 4 in
          let count st =
            List.length (List.filter (fun l -> status_of l = st) lines)
          in
          check_int "every request is answered" 4 (List.length lines);
          check_bool "overload is refused, not buffered" true
            (count "queue_full" >= 1);
          check_bool "admitted slow requests degrade or time out" true
            (count "degraded" + count "timeout" >= 1);
          check_int "no other status leaks in" 4
            (count "queue_full" + count "degraded" + count "timeout")))

let test_server_store_restart () =
  let dir = temp_dir "server-store" in
  let path = socket_path "warmstart" in
  let spec = spec_of_seed 6 in
  let run_once () =
    let store = Store.open_ dir in
    let cfg =
      Server.config ~workers:1 ~max_queue:4 ~store ~socket:path ~stdio:false ()
    in
    with_server cfg (fun _ ->
        with_client path (fun fd ->
            send_line fd (req_json ~id:"probe" spec);
            match recv_lines fd 1 with
            | [ line ] ->
                check_bool "request analyzed" true
                  (status_of line = "ok" || status_of line = "unschedulable")
            | l -> Alcotest.failf "expected one response, got %d" (List.length l)));
    Store.stats store
  in
  let first = run_once () in
  check_int "first daemon computes" 1 first.Store.misses;
  let second = run_once () in
  check_int "restarted daemon answers from the persistent store" 1
    second.Store.hits;
  check_int "restarted daemon never re-runs the engine" 0 second.Store.misses

(* ------------------------------------------------------------------ *)
(* Golden batch output                                                 *)
(* ------------------------------------------------------------------ *)

(* A fixed seeded corpus whose rendered batch output is pinned by MD5, so
   a refactor of the analysis cannot move a bound, a verdict, a method
   label or a byte of the wire format unnoticed.  The fuzz generator
   supplies the bulk (small systems with every policy mix, release ties
   and the occasional dependency cycle, plus paper-style shops); a few
   hand-built shapes guarantee that every analysis path is present
   whatever the generator draws, which the test checks before comparing
   the digest. *)

let golden_digest = "6d182e09298c38de546401a264f34145"

let golden_job ?(prios = []) name arrival deadline steps =
  {
    System.name;
    arrival;
    deadline;
    steps =
      Array.of_list
        (List.mapi
           (fun i (proc, exec) ->
             let prio = match List.nth_opt prios i with Some p -> p | None -> 0 in
             { System.proc; exec; prio })
           steps);
  }

let golden_shapes =
  let per period offset = Arrival.Periodic { period; offset } in
  let dm schedulers jobs =
    System.make_exn ~schedulers ~jobs:(Priority.deadline_monotonic (Array.of_list jobs))
  in
  [
    (* FCFS with exact, tie-free releases: the exact FCFS path. *)
    dm [| Sched.Fcfs; Sched.Fcfs |]
      [
        golden_job "A" (per 20 0) 60 [ (0, 3); (1, 2) ];
        golden_job "B" (per 30 7) 90 [ (0, 4); (1, 3) ];
      ];
    (* One policy per stage. *)
    dm [| Sched.Spp; Sched.Spnp; Sched.Fcfs |]
      [
        golden_job "A" (per 25 0) 80 [ (0, 2); (1, 3); (2, 2) ];
        golden_job "B" (Arrival.Bursty { period = 30 }) 120 [ (0, 3); (1, 2); (2, 4) ];
        golden_job "C" (per 40 5) 160 [ (0, 4); (1, 4); (2, 3) ];
      ];
    (* A chain revisiting an FCFS processor: cyclic, so the Section 6
       iteration over its loop. *)
    dm [| Sched.Fcfs; Sched.Spp |]
      [
        golden_job "L1" (per 40 0) 120 [ (0, 3); (1, 4); (0, 2) ];
        golden_job "L2" (per 50 5) 150 [ (1, 2); (0, 3) ];
      ];
    (* Processor-level order is cyclic (A.1 over B.2 on P0, B.1 over A.2
       on P1) while the subjob order is not. *)
    System.make_exn
      ~schedulers:[| Sched.Spp; Sched.Spp |]
      ~jobs:
        [|
          golden_job ~prios:[ 1; 2 ] "A" (per 30 0) 90 [ (0, 3); (1, 4) ];
          golden_job ~prios:[ 1; 2 ] "B" (per 45 4) 135 [ (1, 2); (0, 5) ];
        |];
  ]

let golden_corpus () =
  let generated =
    List.init 150 (fun i ->
        let c = Rta_check.Gen.generate (Rta_workload.Rng.make (7000 + i)) in
        (c.Rta_check.Gen.system, c.Rta_check.Gen.release_horizon, c.Rta_check.Gen.horizon))
  in
  let shaped =
    List.map
      (fun s ->
        let rh, h = System.suggested_horizons s in
        (s, rh, h))
      golden_shapes
  in
  List.mapi
    (fun i (system, release_horizon, horizon) ->
      let estimator = if i mod 4 = 3 then `Sum else `Direct in
      (system,
       Batch.request
         ~id:(Printf.sprintf "g%d" i)
         ~config:(Rta_core.Analysis.config ~estimator ~release_horizon ~horizon ())
         (Parser.print system)))
    (generated @ shaped)

(* Which analysis paths a system exercises. *)
let golden_paths (system, (req : Batch.request)) =
  let cfg = req.Batch.config in
  let release_horizon, horizon = Rta_core.Analysis.resolve_horizons cfg system in
  let scheds =
    List.sort_uniq compare
      (List.init (System.processor_count system) (System.scheduler_of system))
  in
  let policy =
    match scheds with
    | [ Sched.Spp ] -> [ "spp" ]
    | [ Sched.Spnp ] -> [ "spnp" ]
    | [ Sched.Fcfs ] -> [ "fcfs" ]
    | _ -> [ "mixed" ]
  in
  let cyclic =
    match Rta_core.Deps.compute system with
    | Rta_core.Deps.Cyclic _ -> [ "cyclic" ]
    | Rta_core.Deps.Acyclic _ -> []
  in
  let e = Result.get_ok (Rta_core.Engine.run ~release_horizon ~horizon system) in
  let fcfs_exact =
    List.exists
      (fun j ->
        List.exists
          (fun st ->
            let id = { System.job = j; step = st } in
            System.scheduler_of system (System.step system id).System.proc
            = Sched.Fcfs
            && (Rta_core.Engine.entry e id).Rta_core.Engine.exact)
          (List.init (Array.length (System.job system j).System.steps) Fun.id))
      (List.init (System.job_count system) Fun.id)
  in
  cyclic @ (if fcfs_exact then "fcfs-exact" :: policy else policy)

let test_golden_batch_output () =
  let corpus = golden_corpus () in
  let seen = List.concat_map golden_paths corpus in
  List.iter
    (fun path ->
      check_bool (Printf.sprintf "corpus covers %s" path) true (List.mem path seen))
    [ "spp"; "spnp"; "fcfs"; "fcfs-exact"; "mixed"; "cyclic" ];
  let requests = Array.of_list (List.map (fun (_, r) -> Ok r) corpus) in
  let out =
    Batch.run ~jobs:1 requests
    |> Array.map Batch.response_line
    |> Array.to_list |> String.concat "\n"
  in
  check_string "batch output digest" golden_digest (Digest.to_hex (Digest.string out))

let () =
  Alcotest.run "rta_service"
    [
      ( "key",
        [
          Alcotest.test_case "canonicalization" `Quick test_key_canonicalization;
          Alcotest.test_case "no collision on the seventh digit" `Quick
            test_key_collision;
          prop_key_iff_equal;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memoizes" `Quick test_cache_memoizes;
          Alcotest.test_case "failure not poisoned" `Quick
            test_cache_failure_not_poisoned;
          Alcotest.test_case "cancellation not poisoned" `Quick
            test_cache_cancelled_not_poisoned;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs=1 vs jobs=N byte-identical" `Quick
            test_differential_jobs;
          Alcotest.test_case "matches sequential Analysis.run" `Quick
            test_differential_vs_sequential_analyze;
          Alcotest.test_case "hot cache same answers" `Quick
            test_hot_cache_same_answers;
          Alcotest.test_case "in-flight dedup" `Quick test_inflight_dedup;
        ] );
      ( "failures",
        [ Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout ] );
      ( "degraded",
        [
          Alcotest.test_case "mid-flight deadline degrades" `Quick
            test_midflight_degrade;
          Alcotest.test_case "degraded equals envelope bounds" `Quick
            test_degraded_matches_envelope;
        ] );
      ( "store",
        [
          Alcotest.test_case "warm restart" `Quick test_store_warm_restart;
          Alcotest.test_case "corruption evicted" `Quick
            test_store_corruption_evicted;
          Alcotest.test_case "LRU eviction" `Quick test_store_lru_eviction;
          Alcotest.test_case "tmp sweep and key hygiene" `Quick
            test_store_hygiene;
        ] );
      ( "server",
        [
          Alcotest.test_case "socket roundtrip and shutdown" `Quick
            test_server_roundtrip;
          Alcotest.test_case "queue_full backpressure" `Quick
            test_server_queue_full;
          Alcotest.test_case "store warm restart across daemons" `Quick
            test_server_store_restart;
        ] );
      ( "ndjson",
        [
          Alcotest.test_case "request decoding" `Quick test_request_decoding;
          Alcotest.test_case "auto_prio applies Eq. 24" `Quick test_batch_auto_prio;
          Alcotest.test_case "response is valid JSON" `Quick
            test_response_roundtrips_as_json;
          Alcotest.test_case "contradictory horizons are invalid" `Quick
            test_contradictory_horizons_invalid;
        ] );
      ("golden", [ Alcotest.test_case "batch output digest" `Quick test_golden_batch_output ]);
    ]
