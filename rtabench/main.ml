(* The rta benchmark: one workload per invocation.

     main.exe --workload shop-large|batch-mix|serve-hot --seed N
              --seconds S --trace 0|1 --rta PATH/TO/rta.exe

   --trace 0 measures the end-to-end metrics over a timed phase of S
   seconds; --trace 1 runs a fixed amount of work with the Rta_obs
   registry enabled and reports the per-layer split.  Either way every
   verdict is checked against the simulator afterwards, and the last line
   of standard output is the result object
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
   See README.md in this directory. *)

open Rtabench
module Batch = Rta_service.Batch
module Cache = Rta_service.Cache
module Key = Rta_service.Key
module Store = Rta_service.Store
module Json = Rta_obs.Json
module Obs = Rta_obs

let now = Unix.gettimeofday
let default_seed = 1

(* ------------------------------------------------------------------ *)
(* Outcome                                                              *)
(* ------------------------------------------------------------------ *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure reasons, for stderr *)
  mutable metrics : (string * float * string) list;  (** reversed *)
  mutable digest_ok : bool;
}

let outcome () =
  { attempted = 0; failed = 0; errors = []; metrics = []; digest_ok = true }

let fail ?(n = 1) o msg =
  o.failed <- o.failed + n;
  if List.length o.errors < 10 then o.errors <- msg :: o.errors

let metric o name unit v = o.metrics <- (name, v, unit) :: o.metrics

(* Median of [k] timings of [f], each scaled to reference speed by a
   probe on either side; the last call's result is kept (earlier ones are
   cleaned up first).  Also returns the raw median. *)
let median_setup k f =
  let times = Array.make k 0. and raw = Array.make k 0. and last = ref None in
  for i = 0 to k - 1 do
    (match !last with Some (_, cleanup) -> cleanup () | None -> ());
    let tally = Calib.tally () in
    Calib.record tally;
    let t0 = now () in
    let r = f () in
    raw.(i) <- now () -. t0;
    Calib.record tally;
    times.(i) <- raw.(i) *. Calib.factor tally;
    last := Some r
  done;
  match !last with
  | Some (r, _) -> (Stats.median times, Stats.median raw, r)
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Request bookkeeping shared by the three workloads                    *)
(* ------------------------------------------------------------------ *)

(* Every response is checked as it arrives (outside its own timing):
   status "ok", the expected cache label, and a verdict byte-identical to
   the first answer for the same spec.  The first answer of each distinct
   spec then goes through the simulator gate. *)
type ledger = {
  first : (int, string * string * string option) Hashtbl.t;
      (** distinct -> request line, first response, its verdict part *)
  counts : (int, int) Hashtbl.t;  (** distinct -> responses seen *)
}

let ledger () = { first = Hashtbl.create 64; counts = Hashtbl.create 64 }

let record o l (item : Gen.item) ~expect_cache response =
  let vp = Check.verdict_part response in
  Hashtbl.replace l.counts item.distinct
    (1 + Option.value ~default:0 (Hashtbl.find_opt l.counts item.distinct));
  (match Hashtbl.find_opt l.first item.distinct with
  | None -> Hashtbl.add l.first item.distinct (item.line, response, vp)
  | Some (_, _, vp0) ->
      if vp <> vp0 then fail o ("verdict changed between answers: " ^ response));
  if vp = None then fail o ("not an analysis: " ^ response)
  else if Check.cache_label response <> expect_cache then
    fail o (Printf.sprintf "cache label %s, expected %s: %s"
              (Check.cache_label response) expect_cache response)

(* The simulator gate over every distinct spec answered.  A violation
   fails every response that carried that spec. *)
let gate o l =
  Hashtbl.iter
    (fun d (request, response, _) ->
      match Check.request_response ~request ~response with
      | Ok _ -> ()
      | Error e ->
          fail o
            ~n:(Option.value ~default:1 (Hashtbl.find_opt l.counts d))
            (Printf.sprintf "distinct spec %d: %s" d e))
    l.first

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let check_digest o ~workload ~seed lines =
  let d = digest lines in
  Printf.eprintf "rtabench: %s seed %d response digest %s\n%!" workload seed d;
  if seed = default_seed then
    match List.assoc_opt workload Expected.digests with
    | Some e when e = d -> ()
    | Some e ->
        o.digest_ok <- false;
        o.errors <- Printf.sprintf "digest %s, expected %s" d e :: o.errors
    | None ->
        o.digest_ok <- false;
        o.errors <- ("no committed digest for " ^ workload) :: o.errors

(* The timed phase is a sequence of rounds, each the same fixed list of
   requests with calibration probes ({!Calib}) between them.  A round's
   times are scaled by its probes; each reported figure is the median
   over rounds, so a burst of interference spoils one round, not the
   result. *)
type round = {
  samples : (string * float) array;  (** label, raw ms *)
  ok : int;  (** responses that passed the inline checks *)
  factor : float;  (** raw -> reference speed *)
}

(* Run rounds until [seconds] have passed, at least one.  [run_round]
   gets the probe to call between requests. *)
let timed_rounds o ~seconds run_round =
  let rounds = ref [] in
  let t_start = now () in
  while !rounds = [] || now () -. t_start < seconds do
    let failed0 = o.failed in
    let tally = Calib.tally () in
    let samples = run_round (fun () -> Calib.record tally) in
    rounds :=
      {
        samples;
        ok = max 0 (Array.length samples - (o.failed - failed0));
        factor = Calib.factor tally;
      }
      :: !rounds
  done;
  (List.rev !rounds, now () -. t_start)

(* The end-to-end latency figures: scaled ([scale] true) or raw. *)
let round_figures ~scale rounds =
  let f r = if scale then r.factor else 1. in
  let ms label r =
    Array.to_list r.samples
    |> List.filter_map (fun (l, v) -> if label = None || Some l = label then Some (v *. f r) else None)
    |> Array.of_list
  in
  let per_round g = Stats.median (Array.of_list (List.map g rounds)) in
  [
    ("verdicts_per_s", "1/s", per_round (fun r -> float r.ok /. (Stats.sum (ms None r) /. 1e3)));
    ("verdict_ms.p50", "ms", per_round (fun r -> Stats.percentile (ms None r) 0.5));
    ("verdict_ms.p99", "ms", per_round (fun r -> Stats.percentile (ms None r) 0.99));
  ]
  @ List.map
      (fun s ->
        (Printf.sprintf "verdict_ms.%s.p50" s, "ms", per_round (fun r -> Stats.median (ms (Some s) r))))
      [ "spp"; "spnp"; "fcfs" ]

(* Scaled figures become the metrics; raw ones go to the info line. *)
let round_metrics o ~info rounds ~elapsed ~setup_raw =
  List.iter (fun (n, u, v) -> metric o n u v) (round_figures ~scale:true rounds);
  let raw = round_figures ~scale:false rounds in
  info :=
    [
      ("rounds", Json.Int (List.length rounds));
      ("requests_per_round", Json.Int (Array.length (List.hd rounds).samples));
      ("timed_s", Json.Float elapsed);
      ( "speed_factor",
        Json.Float (Stats.median (Array.of_list (List.map (fun r -> r.factor) rounds))) );
      ( "raw",
        Json.Obj
          (("setup_s", Json.Float setup_raw)
          :: List.map (fun (n, _, v) -> (n, Json.Float v)) raw) );
    ]

(* ------------------------------------------------------------------ *)
(* In-process pipeline: decode -> prepare -> execute -> encode          *)
(* ------------------------------------------------------------------ *)

let verdict ?cache ~index (item : Gen.item) =
  let p = Batch.prepare (Batch.request_of_line item.line) in
  let label, id =
    match p with
    | Batch.P_invalid _ -> (`Uncached, None)
    | Batch.P_ready { req; key; _ } ->
        let hit =
          match cache with
          | Some c -> Cache.mem c (Key.to_hex key)
          | None -> false
        in
        ((if hit then `Hit else `Miss), req.Batch.id)
  in
  let status = Batch.execute ?cache ~admitted:(Obs.now ()) p in
  Batch.response_line { Batch.index; id; cache = label; status }

let expect_cache ~cached (item : Gen.item) =
  if cached && item.repeat then "hit" else "miss"

(* ------------------------------------------------------------------ *)
(* shop-large and batch-mix (--trace 0)                                 *)
(* ------------------------------------------------------------------ *)

(* One round: shop-large runs its pool in order without a cache (every
   verdict runs the engine); batch-mix runs the whole batch with a fresh
   cache, each line through [Batch.run ~jobs:1] so every request is timed
   on its own. *)
let in_process o ~workload ~seed ~seconds ~info =
  let cached = workload = "batch-mix" in
  (* Probe after every verdict of shop-large, every 20 requests of
     batch-mix: a few per cent of a round. *)
  let probe_every = if cached then 20 else 1 in
  let setup_s, setup_raw, items =
    median_setup 5 (fun () ->
        let items = Gen.inputs ~workload seed in
        (* Fixed warm-up, results discarded. *)
        if cached then
          ignore
            (Batch.run ~jobs:1
               (Array.map
                  (fun (i : Gen.item) -> Batch.request_of_line i.line)
                  (Array.sub items 0 16)))
        else ignore (verdict ~index:0 items.(0));
        (items, ignore))
  in
  let l = ledger () in
  let first_round = ref None in
  let round probe =
    let cache = Cache.create () in
    let responses = Array.make (Array.length items) "" in
    let samples =
      Array.mapi
        (fun pos (item : Gen.item) ->
          let t0 = now () in
          let response =
            if cached then
              Batch.response_line
                (Batch.run ~jobs:1 ~index_base:pos ~cache
                   [| Batch.request_of_line item.line |]).(0)
            else verdict ~index:pos item
          in
          let ms = (now () -. t0) *. 1e3 in
          record o l item ~expect_cache:(expect_cache ~cached item) response;
          responses.(pos) <- response;
          if pos mod probe_every = 0 then probe ();
          (item.label, ms))
        items
    in
    if !first_round = None then first_round := Some responses;
    samples
  in
  let rounds, elapsed = timed_rounds o ~seconds round in
  let rss = Machine.peak_rss_mb () in
  o.attempted <- Array.length items * List.length rounds;
  gate o l;
  check_digest o ~workload ~seed (Array.to_list (Option.get !first_round));
  round_metrics o ~info rounds ~elapsed ~setup_raw;
  metric o "peak_rss_mb" "MB" rss;
  metric o "setup_s" "s" setup_s

(* ------------------------------------------------------------------ *)
(* serve-hot (--trace 0)                                                *)
(* ------------------------------------------------------------------ *)

let tmp_dir () =
  let d = Printf.sprintf ".rtabench/%d" (Unix.getpid ()) in
  if not (Sys.file_exists ".rtabench") then Unix.mkdir ".rtabench" 0o755;
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

(* Start a daemon and make the warm pass: every pool spec once, so the
   timed phase only ever hits the cache.  Returns the daemon, its client
   and the warm responses in pool order. *)
let start_warm ~rta ~dir ?metrics tag items =
  let d = Daemon.spawn ~rta ~dir ?metrics tag in
  let c = Client.connect d.Daemon.socket in
  let warm = Array.map (fun (it : Gen.item) -> Client.request c it.line) items in
  (d, c, warm)

let shutdown o (d, c) =
  Client.close c;
  match Daemon.stop d with Ok () -> () | Error e -> fail o e

(* [passes] closed-loop passes over the pool; every reply must be a hit
   carrying the warm answer. *)
let hot_round ?(probe = ignore) o l c items ~passes =
  let n = Array.length items in
  Array.init (passes * n) (fun i ->
      let item = items.(i mod n) in
      let t0 = now () in
      let reply = Client.request c item.Gen.line in
      let ms = (now () -. t0) *. 1e3 in
      record o l item ~expect_cache:"hit" reply;
      if i mod 400 = 399 then probe ();
      (item.label, ms))

let serve_passes = 100

let serve_hot o ~rta ~seed ~seconds ~info =
  let dir = tmp_dir () in
  let items = Gen.inputs ~workload:"serve-hot" seed in
  let k = ref 0 in
  let setup_s, setup_raw, (d, c, warm) =
    median_setup 3 (fun () ->
        incr k;
        let ((d, c, _) as r) =
          start_warm ~rta ~dir (Printf.sprintf "s%d" !k) items
        in
        (r, fun () -> shutdown o (d, c)))
  in
  let l = ledger () in
  Array.iteri (fun i (it : Gen.item) -> record o l it ~expect_cache:"miss" warm.(i)) items;
  Hashtbl.reset l.counts;
  let rounds, elapsed =
    timed_rounds o ~seconds (fun probe ->
        hot_round ~probe o l c items ~passes:serve_passes)
  in
  let rss = Daemon.peak_rss_mb d in
  if Client.max_in_flight c <> 1 then fail o "more than one request in flight";
  shutdown o (d, c);
  o.attempted <- Array.length items * serve_passes * List.length rounds;
  gate o l;
  check_digest o ~workload:"serve-hot" ~seed (Array.to_list warm);
  round_metrics o ~info rounds ~elapsed ~setup_raw;
  metric o "peak_rss_mb" "MB" rss;
  metric o "setup_s" "s" setup_s;
  Daemon.remove_tree dir

(* ------------------------------------------------------------------ *)
(* Traced run (--trace 1): fixed work, per-layer split                   *)
(* ------------------------------------------------------------------ *)

(* Harness spans carry the id of the request they belong to (0 outside
   requests), so one request's spans can be grouped in the snapshot. *)
let current_request = ref 0
let requests_traced = ref 0

let span name f =
  let sp = Obs.span_begin name in
  if !current_request > 0 then Obs.span_int sp "request" !current_request;
  Fun.protect ~finally:(fun () -> Obs.span_end sp) f

let span_ms ?(pred = fun _ -> true) name =
  Obs.spans ()
  |> Array.to_list
  |> List.filter (fun s ->
         (s.Obs.si_name = name
         || String.starts_with ~prefix:(name ^ " ") s.Obs.si_name)
         && pred s)
  |> List.map (fun s -> s.Obs.si_duration *. 1e3)
  |> Array.of_list

let p50_or_0 xs = if xs = [||] then 0. else Stats.median xs
let counter name = float (Obs.counter_value (Obs.counter name))

(* count * mean of a histogram, from the registry's own summary. *)
let hist_sum_f name =
  match Obs.metrics_json () with
  | Json.Obj f -> (
      match List.assoc_opt "histograms" f with
      | Some (Json.Obj hs) -> (
          match List.assoc_opt name hs with
          | Some (Json.Obj h) -> (
              match (List.assoc_opt "count" h, List.assoc_opt "mean" h) with
              | Some (Json.Int c), Some (Json.Float m) -> float c *. m
              | _ -> 0.)
          | _ -> 0.)
      | _ -> 0.)
  | _ -> 0.

(* Integer-valued histograms (knot and jump counts): the exact sum. *)
let hist_sum name = Float.round (hist_sum_f name)

let hist_p50 name = let h = Obs.histogram name in
  if Obs.histogram_count h = 0 then 0. else Obs.quantile h 0.5

let paths = [ "spp-exact"; "spp-bounds"; "spnp"; "fcfs"; "fcfs-exact" ]

let path_counter = function
  | "spp-exact" -> "engine.path.spp_exact"
  | "spp-bounds" -> "engine.path.spp_bounds"
  | "fcfs-exact" -> "engine.path.fcfs_exact"
  | p -> "engine.path." ^ p

(* The traced pipeline for one request: the same public calls
   [Batch.prepare]/[execute] make, each under its own span so the front
   end's share is visible.  [label] is the cache label the daemon would
   give. *)
let traced_verdict ~cache ~index (item : Gen.item) =
  incr requests_traced;
  current_request := !requests_traced;
  Fun.protect ~finally:(fun () -> current_request := 0) @@ fun () ->
  span "bench.verdict" @@ fun () ->
  let req = span "bench.batch.request_of_line" (fun () -> Batch.request_of_line item.line) in
  match req with
  | Error e -> Batch.response_line { Batch.index; id = None; cache = `Uncached; status = Batch.Invalid e }
  | Ok r -> (
      match span "bench.parser.parse" (fun () -> Rta_model.Parser.parse r.Batch.spec) with
      | Error e ->
          Batch.response_line { Batch.index; id = r.Batch.id; cache = `Uncached; status = Batch.Invalid e }
      | Ok system ->
          let key = span "bench.key.of_system" (fun () -> Key.of_system ~config:r.Batch.config system) in
          let label = match cache with
            | Some c when Cache.mem c (Key.to_hex key) -> `Hit | _ -> `Miss in
          let status =
            span "bench.batch.execute" (fun () ->
                Batch.execute ?cache ~admitted:(Obs.now ())
                  (Batch.P_ready { req = r; system; key }))
          in
          span "bench.batch.response_line" (fun () ->
              Batch.response_line { Batch.index; id = r.Batch.id; cache = label; status }))

let front_spans =
  [ "bench.batch.request_of_line"; "bench.parser.parse"; "bench.key.of_system";
    "bench.batch.response_line" ]

(* Per-layer metrics that come out of the registry after the traced
   pipeline phase. *)
let registry_metrics o ~verdicts ~minor_words ~major =
  let front = List.fold_left (fun a n -> a +. Stats.sum (span_ms n)) 0. front_spans in
  let total = Stats.sum (span_ms "bench.verdict") in
  metric o "batch.decode_us.p50" "us" (1e3 *. p50_or_0 (span_ms "bench.batch.request_of_line"));
  metric o "parser.parse_us.p50" "us" (1e3 *. p50_or_0 (span_ms "bench.parser.parse"));
  metric o "key.of_system_us.p50" "us" (1e3 *. p50_or_0 (span_ms "bench.key.of_system"));
  metric o "batch.encode_us.p50" "us" (1e3 *. p50_or_0 (span_ms "bench.batch.response_line"));
  metric o "front.share" "ratio" (if total > 0. then front /. total else 0.);
  (* analysis.run minus the engine/fixpoint runs nested in it. *)
  let child = Stats.sum (span_ms "engine.run") +. Stats.sum (span_ms "fixpoint.analyze") in
  let runs = span_ms "analysis.run" in
  metric o "analysis.self_ms" "ms"
    (if runs = [||] then 0. else Float.max 0. ((Stats.sum runs -. child) /. float (Array.length runs)));
  List.iter
    (fun p ->
      metric o ("engine.subjob_ms." ^ p) "ms"
        (p50_or_0
           (span_ms "engine.subjob" ~pred:(fun s ->
                List.mem ("path", Obs.Str p) s.Obs.si_attrs)));
      metric o ("engine.subjobs." ^ p) "count" (counter (path_counter p)))
    paths;
  let subjobs = List.fold_left (fun a p -> a +. counter (path_counter p)) 0. paths in
  metric o "fixpoint.analyze_ms" "ms" (p50_or_0 (span_ms "fixpoint.analyze"));
  metric o "fixpoint.iterations" "count" (hist_sum "fixpoint.iterations");
  let re = counter "fixpoint.recomputes" and sk = counter "fixpoint.skipped_clean" in
  metric o "fixpoint.recomputes" "count" re;
  metric o "fixpoint.skipped_clean" "count" sk;
  metric o "fixpoint.recompute_ratio" "ratio" (if re +. sk > 0. then re /. (re +. sk) else 0.);
  List.iter
    (fun c -> metric o c "count" (counter c))
    [ "minplus.prefix_min.calls"; "minplus.convolve.calls"; "step.add.calls";
      "step.scale.calls"; "pl.add.calls"; "pl.sub.calls"; "pl.min2.calls";
      "pl.max2.calls" ];
  let per_subjob c = if subjobs > 0. then counter c /. subjobs else 0. in
  metric o "step.add.calls_per_subjob" "count/subjob" (per_subjob "step.add.calls");
  metric o "step.scale.calls_per_subjob" "count/subjob" (per_subjob "step.scale.calls");
  metric o "pl.out.knots.sum" "count" (hist_sum "pl.out.knots");
  metric o "step.out.jumps.sum" "count" (hist_sum "step.out.jumps");
  metric o "minplus.out.knots.sum" "count" (hist_sum "minplus.out.knots");
  metric o "minplus.prefix_min_ms" "ms" (1e3 *. hist_p50 "minplus.prefix_min.seconds");
  let subjob_s = hist_sum_f "engine.subjob.seconds" in
  metric o "kernel.share" "ratio"
    (if subjob_s > 0. then hist_sum_f "minplus.prefix_min.seconds" /. subjob_s else 0.);
  metric o "gc.minor_words_per_verdict" "words/verdict" (minor_words /. float verdicts);
  metric o "gc.major_collections" "count" (float major)

(* Layer calls made one by one on the distinct systems of the traced
   phase, with the registry off: Deps.compute, Engine.run and the Thm 1/4
   extraction (Response.end_to_end for every job). *)
let layer_calls o systems =
  let deps = ref [] and engine = ref [] and extract = ref [] in
  List.iter
    (fun (system, config) ->
      let rh, h = Rta_core.Analysis.resolve_horizons config system in
      let t0 = now () in
      ignore (Rta_core.Deps.compute system);
      deps := (now () -. t0) *. 1e3 :: !deps;
      let t0 = now () in
      match Rta_core.Engine.run ~release_horizon:rh ~horizon:h system with
      | Error (`Cyclic _) -> ()
      | Ok e ->
          engine := (now () -. t0) *. 1e3 :: !engine;
          let estimator =
            if Rta_core.Engine.is_exact e then `Exact
            else (config.Rta_core.Analysis.estimator :> Rta_core.Response.estimator)
          in
          let t0 = now () in
          for job = 0 to Rta_model.System.job_count system - 1 do
            ignore (Rta_core.Response.end_to_end e ~estimator ~job)
          done;
          extract := (now () -. t0) *. 1e3 :: !extract)
    systems;
  let med r = p50_or_0 (Array.of_list !r) in
  metric o "deps.compute_ms" "ms" (med deps);
  metric o "engine.run_ms" "ms" (med engine);
  metric o "response.extract_ms" "ms" (med extract)

let zero_layer_calls o =
  List.iter (fun m -> metric o m "ms" 0.) [ "deps.compute_ms"; "engine.run_ms"; "response.extract_ms" ]

(* A cache hit is sub-microsecond: time 1000 of them per key. *)
let cache_hits o keys =
  let c = Cache.create () in
  List.iter (fun k -> ignore (Cache.find_or_compute c ~key:k (fun () -> ()))) keys;
  Obs.set_enabled true;
  List.iter
    (fun k ->
      span "bench.cache.find_or_compute" (fun () ->
          for _ = 1 to 1000 do
            ignore (Cache.find_or_compute c ~key:k (fun () -> ()))
          done))
    keys;
  Obs.set_enabled false;
  metric o "cache.hit_us.p50" "us" (p50_or_0 (span_ms "bench.cache.find_or_compute"))

(* Store.put of every distinct analysis into a fresh store. *)
let store_puts o ~dir analyses =
  let st = Store.open_ (Filename.concat dir "trace-store") in
  Obs.set_enabled true;
  List.iter
    (fun (key, a) ->
      span "bench.store.put" (fun () ->
          Store.put st ~key (Json.to_string (Batch.analysis_to_json a))))
    analyses;
  Obs.set_enabled false;
  metric o "store.put_ms.p50" "ms" (p50_or_0 (span_ms "bench.store.put"));
  (Store.stats st).Store.entries

let key_of_request line =
  match Batch.prepare (Batch.request_of_line line) with
  | Batch.P_ready { key; system; req } -> Some (Key.to_hex key, system, req.Batch.config)
  | Batch.P_invalid _ -> None

(* Distinct specs of a ledger with their checked analyses. *)
let distinct_analyses l =
  Hashtbl.fold
    (fun _ (request, response, _) acc ->
      match (key_of_request request, Check.analysis_of_response response) with
      | Some (k, system, config), Ok a -> (k, system, config, a) :: acc
      | _ -> acc)
    l.first []
  |> List.sort compare

let write_trace ~dir ~workload =
  let path = Filename.concat (Filename.dirname dir) (Printf.sprintf "trace-%s.json" workload) in
  Obs.write_snapshot path;
  Printf.eprintf "rtabench: span snapshot written to %s\n%!" path

(* The traced pipeline over a fixed request list (obs on), preceded by
   the same list untraced (obs off) for the overhead and GC figures. *)
let pipeline_passes ~cached items =
  let pass traced =
    let cache = if cached then Some (Cache.create ()) else None in
    Obs.reset ();
    Obs.set_enabled traced;
    let t0 = now () in
    let responses =
      Array.mapi
        (fun i (it : Gen.item) ->
          let index = if cached then i else it.distinct in
          if traced then traced_verdict ~cache ~index it else verdict ?cache ~index it)
        items
    in
    Obs.set_enabled false;
    (now () -. t0, responses, cache)
  in
  let g0 = Gc.quick_stat () in
  let untraced_s, _, _ = pass false in
  let g1 = Gc.quick_stat () in
  let traced_s, responses, cache = pass true in
  ( responses,
    cache,
    (g1.Gc.minor_words -. g0.Gc.minor_words,
     g1.Gc.major_collections - g0.Gc.major_collections),
    100. *. ((traced_s /. untraced_s) -. 1.) )

let traced_in_process o ~workload ~seed =
  let dir = tmp_dir () in
  let cached = workload = "batch-mix" in
  let items = Gen.inputs ~workload seed in
  let responses, cache, (minor, major), overhead = pipeline_passes ~cached items in
  let l = ledger () in
  Array.iteri
    (fun i (it : Gen.item) -> record o l it ~expect_cache:(expect_cache ~cached it) responses.(i))
    items;
  o.attempted <- Array.length items;
  registry_metrics o ~verdicts:(Array.length items) ~minor_words:minor ~major;
  gate o l;
  let distinct = distinct_analyses l in
  layer_calls o (List.map (fun (_, s, c, _) -> (s, c)) distinct);
  metric o "cache.hit_ratio" "ratio"
    (match cache with
    | Some c ->
        let h, m = Cache.stats c in
        float h /. float (h + m)
    | None -> 0.);
  cache_hits o (List.map (fun (k, _, _, _) -> k) distinct);
  let entries = store_puts o ~dir (List.map (fun (k, _, _, a) -> (k, a)) distinct) in
  metric o "store.entries" "count" (float entries);
  metric o "server.transport_us.p50" "us" 0.;
  metric o "server.queue.high_water" "count" 0.;
  metric o "obs.overhead_pct" "%" overhead;
  write_trace ~dir ~workload;
  Daemon.remove_tree dir

let hot_passes = 64

let gauge_of_snapshot path name =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok (Json.Obj f) -> (
      match List.assoc_opt "gauges" f with
      | Some (Json.Obj g) -> (
          match List.assoc_opt name g with Some (Json.Int v) -> float v | _ -> 0.)
      | _ -> 0.)
  | _ -> 0.

let traced_serve_hot o ~rta ~seed =
  let dir = tmp_dir () in
  let items = Gen.inputs ~workload:"serve-hot" seed in
  let l = ledger () in
  let hits = ref 0 and timed = ref 0 in
  (* The same fixed closed loop against an untraced and a traced daemon. *)
  let hot ?metrics tag =
    let d, c, warm = start_warm ~rta ~dir ?metrics tag items in
    Array.iteri (fun i (it : Gen.item) -> record o l it ~expect_cache:"miss" warm.(i)) items;
    let failed0 = o.failed in
    let samples = hot_round o l c items ~passes:hot_passes in
    if Client.max_in_flight c <> 1 then fail o "more than one request in flight";
    shutdown o (d, c);
    let n = Array.length samples in
    o.attempted <- o.attempted + n;
    timed := !timed + n;
    hits := !hits + n - (o.failed - failed0);
    (d, Stats.median (Array.map snd samples))
  in
  let _, untraced_ms = hot "plain" in
  let metrics = Filename.concat dir "daemon-metrics.json" in
  let d, traced_ms = hot ~metrics "traced" in
  let high_water = gauge_of_snapshot metrics "service.queue.high_water" in
  let entries = (Store.stats (Store.open_ d.Daemon.store)).Store.entries in
  (* Replica of the daemon's per-request work, in process: warm the cache,
     then replay the same hits untraced and traced. *)
  let replay = Array.concat (List.init 4 (fun _ -> items)) in
  let cache = Cache.create () in
  Array.iter (fun it -> ignore (verdict ~cache ~index:0 it)) items;
  let per_request = Array.make (Array.length replay) 0. in
  let g0 = Gc.quick_stat () in
  Array.iteri
    (fun i it ->
      let t0 = now () in
      ignore (verdict ~cache ~index:0 it);
      per_request.(i) <- (now () -. t0) *. 1e6)
    replay;
  let g1 = Gc.quick_stat () in
  Obs.reset ();
  Obs.set_enabled true;
  Array.iter (fun it -> ignore (traced_verdict ~cache:(Some cache) ~index:0 it)) replay;
  Obs.set_enabled false;
  registry_metrics o ~verdicts:(Array.length replay)
    ~minor_words:(g1.Gc.minor_words -. g0.Gc.minor_words)
    ~major:(g1.Gc.major_collections - g0.Gc.major_collections);
  gate o l;
  zero_layer_calls o;
  metric o "cache.hit_ratio" "ratio" (float (max 0 !hits) /. float !timed);
  let distinct = distinct_analyses l in
  cache_hits o (List.map (fun (k, _, _, _) -> k) distinct);
  ignore (store_puts o ~dir (List.map (fun (k, _, _, a) -> (k, a)) distinct));
  metric o "store.entries" "count" (float entries);
  metric o "server.transport_us.p50" "us"
    (Float.max 0. ((untraced_ms *. 1e3) -. Stats.median per_request));
  metric o "server.queue.high_water" "count" high_water;
  metric o "obs.overhead_pct" "%" (100. *. ((traced_ms /. untraced_ms) -. 1.));
  write_trace ~dir ~workload:"serve-hot";
  Daemon.remove_tree dir

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let ratio_bases =
  [
    ("front.share", "decode+parse+key+encode time over the traced per-request pipeline time");
    ("cache.hit_ratio", "cache hits over cache lookups of the traced requests");
    ("fixpoint.recompute_ratio", "fixpoint.recomputes over recomputes+skipped_clean");
    ("kernel.share", "minplus.prefix_min seconds over engine.subjob seconds");
    ("step.add.calls_per_subjob", "step.add.calls over engine subjobs (all paths)");
    ("step.scale.calls_per_subjob", "step.scale.calls over engine subjobs (all paths)");
    ("gc.minor_words_per_verdict", "minor-heap words over verdicts of the untraced pass");
    ("obs.overhead_pct", "traced over untraced time of the same fixed work, minus 1, in %");
  ]

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.
  and trace = ref 0 and rta = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME shop-large, batch-mix or serve-hot");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--rta", Arg.Set_string rta, "PATH the rta executable (serve-hot)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --rta PATH";
  if not (List.mem !workload Gen.workloads) then begin
    prerr_endline ("rtabench: unknown workload " ^ !workload);
    exit 2
  end;
  let serve = !workload = "serve-hot" in
  if serve && not (Sys.file_exists !rta) then begin
    prerr_endline "rtabench: serve-hot needs --rta PATH to the rta executable";
    exit 2
  end;
  let ctx = Machine.context ~workers:1 ~clients:(if serve then 1 else 0) in
  if not (Machine.admissible ctx) then begin
    Printf.eprintf "rtabench: %d worker(s) + %d client connection(s) exceed nproc = %d\n"
      ctx.workers ctx.clients ctx.nproc;
    exit 2
  end;
  let o = outcome () in
  let extra = ref [] in
  (match (!trace, serve) with
  | 0, true -> serve_hot o ~rta:!rta ~seed:!seed ~seconds:!seconds ~info:extra
  | 0, false -> in_process o ~workload:!workload ~seed:!seed ~seconds:!seconds ~info:extra
  | _, false -> traced_in_process o ~workload:!workload ~seed:!seed
  | _, true -> traced_serve_hot o ~rta:!rta ~seed:!seed);
  List.iter (fun e -> prerr_endline ("rtabench: " ^ e)) (List.rev o.errors);
  let info =
    Json.Obj
      [
        ("workload", Json.String !workload);
        ("seed", Json.Int !seed);
        ("trace", Json.Int !trace);
        ("context", Machine.context_json ctx);
        ("timed_phase", Json.Obj !extra);
        ("ratio_bases", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ratio_bases));
      ]
  in
  print_endline (Json.to_string info);
  let metrics =
    List.rev o.metrics
    |> List.map (fun (name, v, unit) ->
           (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0 && o.digest_ok));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int (min o.failed o.attempted));
            ("metrics", Json.Obj metrics);
          ]))
