(* Benchmark and reproduction harness.

   Running this executable regenerates every figure of the paper's
   evaluation (Figures 1-4) plus the extension tables (tightness T-1,
   ablations T-2), times the building blocks with Bechamel, and writes a
   machine-readable perf baseline to BENCH_rta.json (see the README's
   Observability section for the schema) so later PRs can compare against
   it.

   Environment knobs:
     RTA_SETS   job sets per data point (default 100; the paper used 1000)
     RTA_JOBS   jobs per set            (default 6)
     RTA_SEED   base random seed        (default 42)
     RTA_BATCH_SYSTEMS  systems in the batch-throughput section (default 1000)
     RTA_BATCH_JOBS     parallel worker count for that section  (default 8)
     RTA_SKIP_FIGURES / RTA_SKIP_MICRO / RTA_SKIP_KERNELS / RTA_SKIP_BATCH
                        set to 1 to skip
     RTA_BENCH_OUT  output path for the JSON baseline
                    (default BENCH_rta.json; empty string disables). *)

module F = Rta_experiments.Figures
module Json = Rta_obs.Json

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> default)
  | None -> default

let env_flag name = Sys.getenv_opt name = Some "1"

let sets = env_int "RTA_SETS" 100
let jobs = env_int "RTA_JOBS" 6
let seed = env_int "RTA_SEED" 42

(* ------------------------------------------------------------------ *)
(* Figure regeneration (wall-clock timed per section)                  *)
(* ------------------------------------------------------------------ *)

let figure_timings : (string * float) list ref = ref []

let section name f =
  let t0 = Unix.gettimeofday () in
  let s = f () in
  figure_timings := (name, Unix.gettimeofday () -. t0) :: !figure_timings;
  print_string s;
  print_newline ()

let figures () =
  Printf.printf
    "=== Reproduction: Li, Bettati, Zhao (ICPP 1998) ===\n\
     sets/point=%d jobs/set=%d seed=%d (paper used 1000 sets; set RTA_SETS)\n\n"
    sets jobs seed;
  section "fig1" (fun () -> F.fig1 ());
  section "fig2" (fun () -> F.fig2 ());
  section "fig3" (fun () -> F.fig3 ~sets ~jobs ~seed ());
  section "fig4" (fun () -> F.fig4 ~sets ~jobs ~seed ());
  section "tightness" (fun () -> F.tightness ~sets:(max 20 (sets / 2)) ~seed ());
  section "ablation" (fun () -> F.ablation ~sets:(max 20 (sets / 2)) ~seed ());
  section "robustness" (fun () -> F.robustness ~sets:(max 20 (sets / 2)) ~seed ());
  section "envelope_admission" (fun () ->
      F.envelope_admission ~sets:(max 20 (sets / 2)) ~seed ());
  section "perf_scaling" (fun () -> F.perf_scaling ())

(* ------------------------------------------------------------------ *)
(* Shared workloads                                                    *)
(* ------------------------------------------------------------------ *)

let shop sched =
  let config =
    Rta_workload.Jobshop.default ~stages:3 ~jobs:6 ~utilization:0.5
      ~arrival:Rta_workload.Jobshop.Periodic_eq25
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0) ~sched
  in
  Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make 7)

let horizons system = Rta_workload.Jobshop.suggested_horizons system

let transform_work =
  (* The inner min-plus transform on a realistic trace. *)
  lazy
    (Rta_curve.Step.scale
       (Rta_model.Arrival.arrival_function
          (Rta_model.Arrival.Bursty { period = 1500 })
          ~horizon:150_000)
       700)

let run_engine sched () =
  let system = shop sched in
  let release_horizon, horizon = horizons system in
  match Rta_core.Engine.run ~release_horizon ~horizon system with
  | Ok e -> ignore (Rta_core.Response.schedulable e ~estimator:`Direct)
  | Error _ -> ()

let run_transform () =
  ignore
    (Rta_curve.Minplus.transform ~mode:`Left ~avail:Rta_curve.Pl.identity
       ~work:(Lazy.force transform_work))

let run_sim () =
  let system = shop Rta_model.Sched.Spp in
  let release_horizon, horizon = horizons system in
  ignore (Rta_sim.Sim.run ~release_horizon system ~horizon)

let run_sunliu () =
  ignore (Rta_baselines.Sunliu.analyze (shop Rta_model.Sched.Spp))

let run_fixpoint () =
  let system = shop Rta_model.Sched.Spp in
  let release_horizon, horizon = horizons system in
  ignore (Rta_core.Fixpoint.analyze ~release_horizon ~horizon system)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let micro_results : (string * float option) list ref = ref []

let micro () =
  print_endline "=== Micro-benchmarks (Bechamel; ns/run via OLS) ===";
  let tests =
    [
      Test.make ~name:"minplus transform (100 instances)"
        (Staged.stage run_transform);
      Test.make ~name:"engine SPP/Exact (3-stage shop)"
        (Staged.stage (run_engine Rta_model.Sched.Spp));
      Test.make ~name:"engine SPNP/App (3-stage shop)"
        (Staged.stage (run_engine Rta_model.Sched.Spnp));
      Test.make ~name:"engine FCFS/App (3-stage shop)"
        (Staged.stage (run_engine Rta_model.Sched.Fcfs));
      Test.make ~name:"simulator (3-stage shop)" (Staged.stage run_sim);
      Test.make ~name:"Sun&Liu iteration" (Staged.stage run_sunliu);
      Test.make ~name:"Section 6 fixpoint" (Staged.stage run_fixpoint);
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  (* Bechamel returns results keyed by a hash table whose iteration order is
     unspecified: collect everything, then sort by test name so output (and
     the JSON baseline) is deterministic across runs. *)
  let rows =
    List.concat_map
      (fun test ->
        let results = benchmark test in
        Hashtbl.fold
          (fun name result acc ->
            let est =
              match Analyze.OLS.estimates result with
              | Some [ est ] -> Some est
              | Some _ | None -> None
            in
            (name, est) :: acc)
          results [])
      tests
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  micro_results := rows;
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "  %-40s %12.0f ns/run\n" name est
      | None -> Printf.printf "  %-40s (no estimate)\n" name)
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Curve-kernel regression micro-section                               *)
(* ------------------------------------------------------------------ *)

(* Paired optimized-vs-reference timings for the three kernels the perf
   work targets: convolve, prefix_min and the fixpoint iteration, each at
   three sizes.  The JSON baseline records the SPEEDUP (ref_ns / opt_ns)
   per case; bench/compare.ml gates CI on that ratio rather than on
   absolute nanoseconds, so the committed baseline stays meaningful across
   machines of different speeds. *)

let kernel_results : (string * float * float) list ref = ref []

(* Median of 5 samples, each averaging enough repetitions for ~15ms of
   work (calibrated from one untimed run). *)
let median_ns f =
  f ();
  let t0 = Unix.gettimeofday () in
  f ();
  let once = Unix.gettimeofday () -. t0 in
  let reps = min 5000 (max 1 (int_of_float (0.015 /. max 1e-9 once))) in
  let sample () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
  in
  let xs = Array.init 5 (fun _ -> sample ()) in
  Array.sort compare xs;
  xs.(2)

(* Deterministic operands.  [pl_zigzag] has non-monotone slopes so convolve
   takes the general (min-tree) path; [pl_convex] has strictly increasing
   slopes so it takes the slope-merge path.  Strictly distinct slopes keep
   normalization from merging segments, so [n] is the real knot count. *)
let pl_zigzag n =
  let slopes = [| 3; -2; 4; 0; -3; 1 |] and lens = [| 1; 2; 1; 3; 1; 2 |] in
  let knots = ref [ (0, 10) ] in
  let x = ref 0 and y = ref 10 in
  for i = 0 to n - 2 do
    x := !x + lens.(i mod 6);
    y := !y + (slopes.(i mod 6) * lens.(i mod 6));
    knots := (!x, !y) :: !knots
  done;
  Rta_curve.Pl.of_knots ~tail:1 (List.rev !knots)

let pl_convex n =
  let knots = ref [ (0, 0) ] in
  let x = ref 0 and y = ref 0 in
  for i = 0 to n - 2 do
    let len = 1 + (i mod 3) in
    x := !x + len;
    y := !y + (i * len);
    knots := (!x, !y) :: !knots
  done;
  Rta_curve.Pl.of_knots ~tail:n (List.rev !knots)

let prefix_work n_events =
  Rta_curve.Step.scale
    (Rta_model.Arrival.arrival_function
       (Rta_model.Arrival.Bursty { period = 100 })
       ~horizon:(100 * n_events / 2))
    70

let fixpoint_shop ~stages ~jobs =
  let config =
    Rta_workload.Jobshop.default ~stages ~jobs ~utilization:0.5
      ~arrival:Rta_workload.Jobshop.Periodic_eq25
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0)
      ~sched:Rta_model.Sched.Spp
  in
  Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make 7)

let curve_kernels () =
  print_endline
    "=== Curve kernels: optimized vs reference (median ns/run) ===";
  (* Every reference lane runs entirely on the frozen baselines (the
     fixpoint's on the textbook sweep over the Reference kernels), so the
     comparison is old call path vs new call path, not a hybrid. *)
  let case name ~reference ~optimized =
    let r = median_ns reference in
    let o = median_ns optimized in
    kernel_results := (name, r, o) :: !kernel_results;
    Printf.printf "  %-28s %12.0f ref  %12.0f opt  %6.1fx\n" name r o (r /. o)
  in
  List.iter
    (fun n ->
      let f = pl_zigzag n and g = pl_zigzag n in
      case
        (Printf.sprintf "convolve_general_%d" n)
        ~reference:(fun () -> ignore (Rta_curve.Reference.convolve f g))
        ~optimized:(fun () -> ignore (Rta_curve.Minplus.convolve f g));
      let cf = pl_convex n and cg = pl_convex n in
      case
        (Printf.sprintf "convolve_convex_%d" n)
        ~reference:(fun () -> ignore (Rta_curve.Reference.convolve cf cg))
        ~optimized:(fun () -> ignore (Rta_curve.Minplus.convolve cf cg)))
    [ 50; 100; 200 ];
  List.iter
    (fun n ->
      let work = prefix_work n and avail = Rta_curve.Pl.identity in
      case
        (Printf.sprintf "prefix_min_%d" n)
        ~reference:(fun () ->
          ignore (Rta_curve.Reference.prefix_min ~mode:`Left ~avail ~work))
        ~optimized:(fun () ->
          ignore (Rta_curve.Minplus.prefix_min ~mode:`Left ~avail ~work)))
    [ 100; 400; 1600 ];
  List.iter
    (fun (stages, jobs) ->
      let system = fixpoint_shop ~stages ~jobs in
      let release_horizon, horizon =
        Rta_workload.Jobshop.suggested_horizons system
      in
      case
        (Printf.sprintf "fixpoint_%dx%d" jobs stages)
        ~reference:(fun () ->
          ignore
            (Rta_testsupport.Jacobi.analyze ~release_horizon ~horizon system))
        ~optimized:(fun () ->
          ignore (Rta_core.Fixpoint.analyze ~release_horizon ~horizon system)))
    [ (2, 3); (3, 6); (4, 9) ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Batch service throughput                                            *)
(* ------------------------------------------------------------------ *)

(* The Rta_service acceptance bar in one section: >= 1000 generated
   systems (RTA_BATCH_SYSTEMS), ~20% exact duplicates for the memo cache,
   byte-identical output across jobs=1 and jobs=RTA_BATCH_JOBS, and
   throughput for the sequential, parallel-cold and parallel-hot cases. *)

module Batch = Rta_service.Batch

let batch_json = ref Rta_obs.Json.Null

let batch_spec seed =
  let config =
    Rta_workload.Jobshop.default
      ~stages:(2 + (seed mod 2))
      ~jobs:(3 + (seed mod 3))
      ~utilization:(0.3 +. (0.05 *. float_of_int (seed mod 5)))
      ~arrival:
        (if seed mod 5 = 0 then Rta_workload.Jobshop.Bursty_eq27
         else Rta_workload.Jobshop.Periodic_eq25)
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0)
      ~sched:
        (match seed mod 3 with
        | 0 -> Rta_model.Sched.Spp
        | 1 -> Rta_model.Sched.Spnp
        | _ -> Rta_model.Sched.Fcfs)
  in
  Rta_model.Parser.print
    (Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make seed))

let batch () =
  let n = env_int "RTA_BATCH_SYSTEMS" 1000 in
  let par_jobs = max 2 (env_int "RTA_BATCH_JOBS" 8) in
  let unique = max 1 (n * 4 / 5) in
  Printf.printf
    "=== Batch service (%d systems, %d unique, backend=%s) ===\n" n unique
    Rta_service.Backend.name;
  let requests =
    Array.init n (fun i ->
        Ok (Batch.request ~id:(string_of_int i) (batch_spec (i mod unique))))
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let render rs =
    String.concat "\n" (Array.to_list (Array.map Batch.response_line rs))
  in
  let seq, seq_s = timed (fun () -> Batch.run ~jobs:1 requests) in
  let cache = Rta_service.Cache.create () in
  let par, par_s = timed (fun () -> Batch.run ~jobs:par_jobs ~cache requests) in
  let hot, hot_s = timed (fun () -> Batch.run ~jobs:par_jobs ~cache requests) in
  let deterministic = String.equal (render seq) (render par) in
  let hot_consistent =
    Array.for_all2
      (fun (a : Batch.response) (b : Batch.response) ->
        a.Batch.status = b.Batch.status)
      par hot
  in
  let summary = Batch.summarize par in
  let hot_summary = Batch.summarize hot in
  let per_s seconds = if seconds > 0. then float_of_int n /. seconds else 0. in
  let line label seconds =
    Printf.printf "  %-26s %8.2fs  %10.0f systems/s\n" label seconds
      (per_s seconds)
  in
  line "jobs=1, cold cache" seq_s;
  line (Printf.sprintf "jobs=%d, cold cache" par_jobs) par_s;
  line (Printf.sprintf "jobs=%d, hot cache" par_jobs) hot_s;
  Printf.printf "  cold cache: %d hits / %d misses; hot cache: %d hits\n"
    summary.Batch.cache_hits summary.Batch.cache_misses
    hot_summary.Batch.cache_hits;
  Printf.printf "  deterministic across worker counts: %b\n\n" deterministic;
  if not deterministic then
    prerr_endline "WARNING: batch output differs between jobs=1 and jobs=N";
  batch_json :=
    Json.Obj
      [
        ("systems", Json.Int n);
        ("unique", Json.Int unique);
        ("backend", Json.String Rta_service.Backend.name);
        ("jobs_parallel", Json.Int par_jobs);
        ("deterministic", Json.Bool deterministic);
        ("hot_consistent", Json.Bool hot_consistent);
        ("seq_seconds", Json.Float seq_s);
        ("seq_systems_per_s", Json.Float (per_s seq_s));
        ("par_seconds", Json.Float par_s);
        ("par_systems_per_s", Json.Float (per_s par_s));
        ("hot_seconds", Json.Float hot_s);
        ("hot_systems_per_s", Json.Float (per_s hot_s));
        ("cold_cache_hits", Json.Int summary.Batch.cache_hits);
        ("cold_cache_misses", Json.Int summary.Batch.cache_misses);
        ("hot_cache_hits", Json.Int hot_summary.Batch.cache_hits);
        ("schedulable", Json.Int summary.Batch.schedulable);
      ]

(* ------------------------------------------------------------------ *)
(* Instrumented single pass: component timings + curve-size metrics    *)
(* ------------------------------------------------------------------ *)

(* One observed run of each building block.  Always executed (it costs a few
   milliseconds) so BENCH_rta.json carries per-component timings, curve-size
   histograms and fixpoint iteration counts even when the Bechamel section
   is skipped. *)
let instrumented_pass () =
  Rta_obs.reset ();
  Rta_obs.set_enabled true;
  let components =
    [
      ("minplus_transform", run_transform);
      ("engine_spp", run_engine Rta_model.Sched.Spp);
      ("engine_spnp", run_engine Rta_model.Sched.Spnp);
      ("engine_fcfs", run_engine Rta_model.Sched.Fcfs);
      ("sim", run_sim);
      ("fixpoint", run_fixpoint);
    ]
  in
  let timings =
    List.map
      (fun (name, f) ->
        let t0 = Unix.gettimeofday () in
        f ();
        (name, Json.Float (Unix.gettimeofday () -. t0)))
      components
  in
  let metrics = Rta_obs.metrics_json () in
  Rta_obs.set_enabled false;
  Rta_obs.reset ();
  (timings, metrics)

(* ------------------------------------------------------------------ *)
(* JSON baseline                                                       *)
(* ------------------------------------------------------------------ *)

let write_baseline path =
  let component_seconds, metrics = instrumented_pass () in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "rta-bench/1");
        ( "config",
          Json.Obj
            [
              ("sets", Json.Int sets);
              ("jobs", Json.Int jobs);
              ("seed", Json.Int seed);
            ] );
        ( "figures_seconds",
          Json.Obj
            (List.rev_map (fun (n, s) -> (n, Json.Float s)) !figure_timings) );
        ( "micro_ns_per_run",
          Json.List
            (List.map
               (fun (name, est) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ( "ns_per_run",
                       match est with
                       | Some e -> Json.Float e
                       | None -> Json.Null );
                   ])
               !micro_results) );
        ("component_seconds", Json.Obj component_seconds);
        ( "curve_kernels",
          Json.List
            (List.rev_map
               (fun (name, ref_ns, opt_ns) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("ref_ns", Json.Float ref_ns);
                     ("opt_ns", Json.Float opt_ns);
                     ("speedup", Json.Float (ref_ns /. opt_ns));
                   ])
               !kernel_results) );
        ("batch", !batch_json);
        ("metrics", metrics);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Json.to_channel oc doc;
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let () =
  if not (env_flag "RTA_SKIP_FIGURES") then figures ();
  if not (env_flag "RTA_SKIP_MICRO") then micro ();
  if not (env_flag "RTA_SKIP_KERNELS") then curve_kernels ();
  if not (env_flag "RTA_SKIP_BATCH") then batch ();
  match Sys.getenv_opt "RTA_BENCH_OUT" with
  | Some "" -> ()
  | Some path -> write_baseline path
  | None -> write_baseline "BENCH_rta.json"
