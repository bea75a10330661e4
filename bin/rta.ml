(* Command-line front end: analyze/simulate textual system descriptions,
   generate random job shops, and regenerate the paper's figures. *)

open Cmdliner
open Rta_model

let load_system path auto_prio =
  match Parser.parse_file path with
  | Error e ->
      Format.eprintf "error: %s@." e;
      exit 2
  | Ok system ->
      if not auto_prio then system
      else (
        match Priority.deadline_monotonic_system system with
        | Ok system -> system
        | Error e ->
            Format.eprintf "error: auto-prio: %s@." e;
            exit 2)

(* Horizon defaulting is owned by Analysis.resolve_horizons; the CLI only
   builds a config from its flags and lets the library resolve it, so
   `rta analyze`, `rta simulate` and `rta batch` agree by construction.
   Two explicit horizons that contradict each other are a usage error. *)
let horizon_config ?estimator horizon release_horizon =
  (match (release_horizon, horizon) with
  | Some r, Some h when r > h ->
      Format.eprintf "error: --release-horizon %d exceeds --horizon %d@." r h;
      exit 2
  | _ -> ());
  Rta_core.Analysis.config ?estimator ?release_horizon ?horizon ()

(* Shared options *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"System description file.")

let horizon_arg =
  Arg.(value & opt (some int) None
       & info [ "horizon" ] ~docv:"TICKS" ~doc:"Analysis horizon in ticks (default: derived from the periods).")

let release_horizon_arg =
  Arg.(value & opt (some int) None
       & info [ "release-horizon" ] ~docv:"TICKS"
           ~doc:"Releases are generated within this prefix of the horizon.")

let auto_prio_arg =
  Arg.(value & flag
       & info [ "auto-prio" ]
           ~doc:"Replace priorities with the Eq. 24 deadline-monotonic assignment.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Enable debug logging.")

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* Observability: --profile / --metrics FILE on every subcommand, plus the
   RTA_TRACE=FILE environment knob for a JSON-lines span stream.  Emission
   happens via at_exit so commands that call [exit] early (unschedulable
   verdicts, parse errors) still report whatever was collected. *)

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"After the command finishes, print the span tree (per-subjob engine spans, fixpoint iterations, ...) and all metric values.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write a JSON snapshot of all metrics and spans to $(docv) on exit.")

let setup_obs profile metrics =
  let trace = Sys.getenv_opt "RTA_TRACE" in
  if profile || metrics <> None || trace <> None then begin
    Rta_obs.set_enabled true;
    (match trace with
    | Some path ->
        let oc = open_out path in
        Rta_obs.set_trace_channel (Some oc);
        at_exit (fun () ->
            Rta_obs.set_trace_channel None;
            close_out oc)
    | None -> ());
    at_exit (fun () ->
        (match metrics with
        | Some path -> Rta_obs.write_snapshot path
        | None -> ());
        if profile then begin
          Format.printf "@.== profile ==@.";
          Rta_obs.report Format.std_formatter ()
        end)
  end

let obs_term = Term.(const setup_obs $ profile_arg $ metrics_arg)

(* analyze *)

let analyze_cmd =
  let estimator_arg =
    let estimator_conv = Arg.enum [ ("direct", `Direct); ("sum", `Sum) ] in
    Arg.(value & opt estimator_conv `Direct
         & info [ "estimator" ] ~docv:"KIND"
             ~doc:"End-to-end composition for approximate analyses: $(b,direct) (Theorem 1 on departure bounds) or $(b,sum) (Theorem 4).")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Also print per-stage local response bounds (Eq. 12), showing which stage dominates.")
  in
  let dump_arg =
    Arg.(value & opt (some string) None
         & info [ "dump-curves" ] ~docv:"DIR"
             ~doc:"Write each subjob's arrival/departure bound curves as CSV files into DIR.")
  in
  let run () file horizon release_horizon auto_prio estimator verbose explain dump =
    setup_logs verbose;
    let system = load_system file auto_prio in
    let config = horizon_config ~estimator horizon release_horizon in
    let report = Rta_core.Analysis.run ~config system in
    (* The horizons the analysis actually used, for --explain/--dump-curves. *)
    let release_horizon = report.Rta_core.Analysis.release_horizon in
    let horizon = report.Rta_core.Analysis.horizon in
    Format.printf "%a@.%a@." System.pp system
      (Rta_core.Analysis.pp_report system)
      report;
    (* One engine run serves both --explain and --dump-curves, and only
       when one of them is asked for. *)
    if explain || dump <> None then begin
      let engine =
        Result.get_ok (Rta_core.Engine.run ~release_horizon ~horizon system)
      in
      if explain then begin
        Format.printf "@.per-stage local response bounds (Eq. 12):@.";
        for j = 0 to System.job_count system - 1 do
          Format.printf "  %-8s" (System.job system j).System.name;
          List.iteri
            (fun st v ->
              match v with
              | Rta_core.Response.Bounded r ->
                  Format.printf " stage%d=%a" (st + 1) Time.pp r
              | Rta_core.Response.Unbounded ->
                  Format.printf " stage%d=inf" (st + 1))
            (Rta_core.Response.stage_bounds engine ~job:j);
          Format.printf "@."
        done;
        (* Which stages came from the Section 6 iteration, and how it
           ended: a loop can settle with members that have no bound. *)
        let names ids =
          String.concat " "
            (List.map
               (fun (id : System.subjob_id) ->
                 Printf.sprintf "%s.%d" (System.job system id.job).System.name
                   (id.step + 1))
               ids)
        in
        List.iter
          (fun (l : Rta_core.Engine.loop) ->
            let unbounded =
              List.filter
                (fun (id : System.subjob_id) ->
                  List.nth (Rta_core.Response.stage_bounds engine ~job:id.job) id.step
                  = Rta_core.Response.Unbounded)
                l.members
            in
            Format.printf "  cyclic component %s: %s@." (names l.members)
              (if not l.settled then
                 Printf.sprintf "still moving after %d rounds, no bound" l.rounds
               else if unbounded = [] then Printf.sprintf "settled after %d rounds" l.rounds
               else
                 Printf.sprintf "settled after %d rounds, no bound for %s" l.rounds
                   (names unbounded)))
          engine.Rta_core.Engine.loops
      end;
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          for j = 0 to System.job_count system - 1 do
            let job = System.job system j in
            Array.iteri
              (fun st _ ->
                let path =
                  Filename.concat dir
                    (Printf.sprintf "%s_stage%d.csv" job.System.name (st + 1))
                in
                Out_channel.with_open_text path (fun oc ->
                    Out_channel.output_string oc
                      (Rta_core.Engine.entry_csv engine
                         { System.job = j; step = st })))
              job.System.steps
          done;
          Format.printf "curves written to %s/@." dir)
        dump
    end;
    if not report.Rta_core.Analysis.schedulable then exit 1
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Worst-case response-time analysis of a system description.")
    Term.(const run $ obs_term $ file_arg $ horizon_arg $ release_horizon_arg $ auto_prio_arg $ estimator_arg $ verbose_arg $ explain_arg $ dump_arg)

(* simulate *)

let simulate_cmd =
  let gantt_arg =
    Arg.(value & flag
         & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart of the schedule.")
  in
  let run () file horizon release_horizon auto_prio gantt =
    let system = load_system file auto_prio in
    let release_horizon, horizon =
      Rta_core.Analysis.resolve_horizons
        (horizon_config horizon release_horizon)
        system
    in
    let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
    Format.printf "%a@.simulated over [0, %a], releases in [0, %a]@." System.pp
      system Time.pp horizon Time.pp release_horizon;
    for j = 0 to System.job_count system - 1 do
      let job = System.job system j in
      match Rta_sim.Stats.response_summary sim ~job:j with
      | Some summary ->
          Format.printf "  %-8s %a %s@." job.System.name
            Rta_sim.Stats.pp_summary summary
            (if summary.Rta_sim.Stats.worst <= job.System.deadline
                && summary.Rta_sim.Stats.count = summary.Rta_sim.Stats.released
             then "OK"
             else "MISS")
      | None ->
          Format.printf "  %-8s no instance completed in the horizon@."
            job.System.name
    done;
    if gantt then print_string (Rta_sim.Gantt.render system sim)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Event-driven simulation of a system description.")
    Term.(const run $ obs_term $ file_arg $ horizon_arg $ release_horizon_arg $ auto_prio_arg $ gantt_arg)

(* baseline *)

let baseline_cmd =
  let method_arg =
    let method_conv =
      Arg.enum
        [ ("sunliu", `Sunliu); ("holistic", `Holistic);
          ("joseph-pandya", `Jp); ("utilization", `Util) ]
    in
    Arg.(value & opt method_conv `Sunliu
         & info [ "method" ] ~docv:"NAME"
             ~doc:"One of $(b,sunliu), $(b,holistic), $(b,joseph-pandya), $(b,utilization).")
  in
  let run () file auto_prio method_ =
    let system = load_system file auto_prio in
    let print_verdicts name verdicts =
      Format.printf "%s end-to-end bounds:@." name;
      Array.iteri
        (fun j v ->
          let job = System.job system j in
          match v with
          | Rta_baselines.Sunliu.Bounded r ->
              Format.printf "  %-8s %a (deadline %a) %s@." job.System.name
                Time.pp r Time.pp job.System.deadline
                (if r <= job.System.deadline then "OK" else "MISS")
          | Rta_baselines.Sunliu.Unbounded ->
              Format.printf "  %-8s unbounded MISS@." job.System.name)
        verdicts
    in
    match method_ with
    | `Sunliu | `Holistic -> (
        let jitter_model = if method_ = `Sunliu then `Sun_liu else `Holistic in
        match Rta_baselines.Sunliu.analyze ~jitter_model system with
        | Error e ->
            Format.eprintf "not applicable: %s@." e;
            exit 2
        | Ok r ->
            print_verdicts
              (if method_ = `Sunliu then "Sun&Liu (SPP/S&L)" else "holistic")
              r.Rta_baselines.Sunliu.per_job)
    | `Jp -> (
        match Rta_baselines.Joseph_pandya.analyze system with
        | Error e ->
            Format.eprintf "not applicable: %s@." e;
            exit 2
        | Ok v -> print_verdicts "Joseph-Pandya" v)
    | `Util -> (
        match
          ( Rta_baselines.Utilization.under_unit_utilization system,
            Rta_baselines.Utilization.rm_schedulable system )
        with
        | Some u1, Some rm ->
            Format.printf "utilization < 1 on all processors: %b@." u1;
            Format.printf "Liu-Layland RM bound satisfied:      %b@." rm
        | _ ->
            Format.eprintf "not applicable: trace arrivals have no rate@.";
            exit 2)
  in
  Cmd.v
    (Cmd.info "baseline" ~doc:"Classic baseline analyses (S&L, holistic, Joseph-Pandya, utilization).")
    Term.(const run $ obs_term $ file_arg $ auto_prio_arg $ method_arg)

(* generate *)

let generate_cmd =
  let stages_arg = Arg.(value & opt int 4 & info [ "stages" ] ~docv:"N" ~doc:"Stages in the shop.") in
  let jobs_arg = Arg.(value & opt int 6 & info [ "jobs" ] ~docv:"N" ~doc:"Number of jobs.") in
  let util_arg =
    Arg.(value & opt float 0.5 & info [ "utilization" ] ~docv:"U" ~doc:"Target per-processor utilization.")
  in
  let arrival_arg =
    let arrival_conv =
      Arg.enum
        [ ("periodic", Rta_workload.Jobshop.Periodic_eq25);
          ("bursty", Rta_workload.Jobshop.Bursty_eq27) ]
    in
    Arg.(value & opt arrival_conv Rta_workload.Jobshop.Periodic_eq25
         & info [ "arrival" ] ~docv:"KIND" ~doc:"$(b,periodic) (Eq. 25) or $(b,bursty) (Eq. 27).")
  in
  let sched_arg =
    let sched_conv = Arg.enum [ ("spp", Sched.Spp); ("spnp", Sched.Spnp); ("fcfs", Sched.Fcfs) ] in
    Arg.(value & opt sched_conv Sched.Spp & info [ "sched" ] ~docv:"POLICY" ~doc:"Scheduler on every processor.")
  in
  let count_arg =
    Arg.(value & opt int 1
         & info [ "count" ] ~docv:"N"
             ~doc:"Generate $(docv) systems with seeds seed, seed+1, ... ($(b,--ndjson) required for N > 1).")
  in
  let ndjson_arg =
    Arg.(value & flag
         & info [ "ndjson" ]
             ~doc:"Emit each system as one $(b,rta batch) NDJSON request line instead of a description file.")
  in
  let run () stages jobs utilization arrival sched seed count ndjson =
    if count < 1 then begin
      Format.eprintf "error: --count must be at least 1@.";
      exit 2
    end;
    if count > 1 && not ndjson then begin
      Format.eprintf
        "error: --count %d emits several systems; that only makes sense as \
         NDJSON (add --ndjson)@."
        count;
      exit 2
    end;
    let config =
      Rta_workload.Jobshop.default ~stages ~jobs ~utilization ~arrival
        ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0) ~sched
    in
    for i = 0 to count - 1 do
      let system =
        Rta_workload.Jobshop.generate config
          ~rng:(Rta_workload.Rng.make (seed + i))
      in
      if ndjson then
        print_endline
          (Rta_obs.Json.to_string
             (Rta_obs.Json.Obj
                [
                  ("id", Rta_obs.Json.String (Printf.sprintf "gen-%d" (seed + i)));
                  ("spec", Rta_obs.Json.String (Parser.print system));
                ]))
      else print_string (Parser.print system)
    done
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate random job shops (Section 5 workload) as description files or NDJSON batch requests.")
    Term.(const run $ obs_term $ stages_arg $ jobs_arg $ util_arg $ arrival_arg $ sched_arg $ seed_arg $ count_arg $ ndjson_arg)

(* batch / serve *)

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"DIR"
           ~doc:"Persist analysis results in $(docv) (created if missing) and serve repeated specs from it without re-running the engine, across process restarts.  Corrupt entries are evicted, not fatal.")

(* More workers than cores only contend for them: on 2 cores, 400
   generated 12x3 systems ran at 585 systems/s with 2 workers and at 30
   with 8, with identical output.  The front ends clamp; [Backend.run]
   itself does not, so tests can still ask for more domains than cores. *)
let clamp_workers cmd n =
  let cores = Domain.recommended_domain_count () in
  if n <= cores then n
  else begin
    Format.eprintf "%s: clamping %d workers to %d (recommended domain count)@."
      cmd n cores;
    cores
  end

let batch_cmd =
  let file_arg =
    Arg.(value & pos 0 string "-"
         & info [] ~docv:"FILE"
             ~doc:"NDJSON request file, one JSON object per line ($(b,-) reads stdin).")
  in
  let jobs_arg =
    let default =
      match Option.bind (Sys.getenv_opt "RTA_JOBS") int_of_string_opt with
      | Some j when j >= 1 -> j
      | Some _ | None -> 1
    in
    Arg.(value & opt int default
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker count (default: $(b,RTA_JOBS) or 1), at most the recommended domain count (larger values are clamped, with a note on stderr).  More than one worker runs on OCaml 5 domains, with identical output.")
  in
  let chunk_arg =
    Arg.(value & opt int 512
         & info [ "chunk" ] ~docv:"N"
             ~doc:"Stream requests in chunks of $(docv) lines: results for a chunk are printed (in input order) before the next chunk is read.")
  in
  let estimator_arg =
    let estimator_conv = Arg.enum [ ("direct", `Direct); ("sum", `Sum) ] in
    Arg.(value & opt estimator_conv `Direct
         & info [ "estimator" ] ~docv:"KIND"
             ~doc:"Default end-to-end estimator for requests that do not set one.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline: requests not started within $(docv) milliseconds of their batch's submission are reported as timeouts.")
  in
  let run () file jobs chunk estimator auto_prio deadline_ms store_dir =
    if jobs < 1 then begin
      Format.eprintf "error: --jobs must be at least 1@.";
      exit 2
    end;
    if chunk < 1 then begin
      Format.eprintf "error: --chunk must be at least 1@.";
      exit 2
    end;
    let jobs = clamp_workers "batch" jobs in
    let ic =
      if file = "-" then stdin
      else
        try open_in file
        with Sys_error e ->
          Format.eprintf "error: %s@." e;
          exit 2
    in
    let defaults =
      Rta_service.Batch.request ~auto_prio
        ~config:(Rta_core.Analysis.config ~estimator ())
        ?deadline_s:(Option.map (fun ms -> ms /. 1e3) deadline_ms)
        ""
    in
    let cache = Rta_service.Cache.create () in
    let store = Option.map Rta_service.Store.open_ store_dir in
    let started = Rta_obs.now () in
    let summary = ref Rta_service.Batch.empty_summary in
    let index_base = ref 0 in
    let eof = ref false in
    (* Blank lines are ignored (they carry no request and get no response). *)
    let read_chunk () =
      let rec go acc k =
        if k = 0 then List.rev acc
        else
          match input_line ic with
          | "" -> go acc k
          | line ->
              go (Rta_service.Batch.request_of_line ~defaults line :: acc) (k - 1)
          | exception End_of_file ->
              eof := true;
              List.rev acc
      in
      Array.of_list (go [] chunk)
    in
    while not !eof do
      let requests = read_chunk () in
      if Array.length requests > 0 then begin
        let responses =
          Rta_service.Batch.run ~jobs ~index_base:!index_base ~cache ?store
            requests
        in
        Array.iter
          (fun r ->
            print_endline (Rta_service.Batch.response_line r);
            summary := Rta_service.Batch.add_response !summary r)
          responses;
        flush stdout;
        index_base := !index_base + Array.length requests
      end
    done;
    if file <> "-" then close_in ic;
    Option.iter Rta_service.Store.flush store;
    let elapsed = Rta_obs.now () -. started in
    let s = !summary in
    Format.eprintf "batch: %a@." Rta_service.Batch.pp_summary s;
    Format.eprintf "batch: %.2fs elapsed, %.0f systems/s (jobs=%d)@."
      elapsed
      (if elapsed > 0. then float_of_int s.Rta_service.Batch.total /. elapsed
       else 0.)
      jobs;
    if
      s.Rta_service.Batch.invalid > 0
      || s.Rta_service.Batch.failed > 0
      || s.Rta_service.Batch.timed_out > 0
    then exit 1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Analyze a stream of NDJSON system specs on a worker pool with memoization; results come out as NDJSON in input order regardless of worker count.")
    Term.(const run $ obs_term $ file_arg $ jobs_arg $ chunk_arg $ estimator_arg $ auto_prio_arg $ deadline_arg $ store_arg)

(* serve *)

let serve_cmd =
  let jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker count (default: $(b,RTA_JOBS) or the backend's recommendation), at most the recommended domain count (larger values are clamped, with a note on stderr).  Workers run on OCaml 5 domains.")
  in
  let max_queue_arg =
    Arg.(value & opt int 64
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Admission queue bound: requests beyond $(docv) admitted-but-unstarted ones are answered with status $(b,queue_full) immediately.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Also listen on a Unix-domain socket at $(docv) (removed on shutdown); clients speak the same NDJSON protocol as stdio.")
  in
  let no_stdio_arg =
    Arg.(value & flag
         & info [ "no-stdio" ]
             ~doc:"Do not serve stdin/stdout (requires $(b,--socket)).")
  in
  let estimator_arg =
    let estimator_conv = Arg.enum [ ("direct", `Direct); ("sum", `Sum) ] in
    Arg.(value & opt estimator_conv `Direct
         & info [ "estimator" ] ~docv:"KIND"
             ~doc:"Default end-to-end estimator for requests that do not set one.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline, measured from admission.  A request past due before a worker starts it times out; one overrunning mid-analysis is cancelled and degraded to envelope bounds.")
  in
  let run () jobs max_queue socket no_stdio store_dir estimator auto_prio
      deadline_ms =
    let workers =
      match jobs with
      | Some j when j >= 1 -> Some j
      | Some _ ->
          Format.eprintf "error: --jobs must be at least 1@.";
          exit 2
      | None -> (
          match Option.bind (Sys.getenv_opt "RTA_JOBS") int_of_string_opt with
          | Some j when j >= 1 -> Some j
          | Some _ | None -> None)
    in
    let workers = Option.map (clamp_workers "serve") workers in
    if max_queue < 1 then begin
      Format.eprintf "error: --max-queue must be at least 1@.";
      exit 2
    end;
    if no_stdio && socket = None then begin
      Format.eprintf "error: --no-stdio needs --socket@.";
      exit 2
    end;
    let defaults =
      Rta_service.Batch.request ~auto_prio
        ~config:(Rta_core.Analysis.config ~estimator ())
        ?deadline_s:(Option.map (fun ms -> ms /. 1e3) deadline_ms)
        ""
    in
    let store = Option.map Rta_service.Store.open_ store_dir in
    let cfg =
      Rta_service.Server.config ?workers ~max_queue ~defaults ?store ?socket
        ~stdio:(not no_stdio) ()
    in
    Rta_service.Server.serve (Rta_service.Server.create cfg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running NDJSON analysis daemon over stdio and/or a Unix-domain socket: bounded admission queue with queue_full backpressure, per-request deadlines with mid-flight cancellation and envelope degradation, optional persistent result store, graceful drain on SIGTERM/SIGINT.")
    Term.(const run $ obs_term $ jobs_arg $ max_queue_arg $ socket_arg $ no_stdio_arg $ store_arg $ estimator_arg $ auto_prio_arg $ deadline_arg)

(* envelope *)

let envelope_cmd =
  let run () file auto_prio =
    let system = load_system file auto_prio in
    let result =
      let release_horizon, _ = System.suggested_horizons system in
      match Rta_core.Envelope_analysis.system_bounds ~release_horizon system with
      | Some result -> result
      | None ->
          Format.eprintf "cyclic dependencies: no envelope order@.";
          exit 2
    in
    Format.printf "horizon-free envelope bounds (hold for every conforming trace):@.";
    Array.iteri
      (fun j v ->
        let job = System.job system j in
        match v with
        | Rta_core.Envelope_analysis.Bounded r ->
            Format.printf "  %-8s response <= %a  deadline %a  %s@."
              job.System.name Time.pp r Time.pp job.System.deadline
              (if r <= job.System.deadline then "OK" else "MISS")
        | Rta_core.Envelope_analysis.Unbounded ->
            Format.printf "  %-8s unbounded  MISS@." job.System.name)
      result.Rta_core.Envelope_analysis.end_to_end
  in
  Cmd.v
    (Cmd.info "envelope"
       ~doc:"Horizon-free envelope bounds for any acyclic system (network-calculus extension).")
    Term.(const run $ obs_term $ file_arg $ auto_prio_arg)

(* sensitivity *)

let sensitivity_cmd =
  let run () file horizon release_horizon auto_prio =
    let system = load_system file auto_prio in
    let config = horizon_config horizon release_horizon in
    (match Rta_core.Sensitivity.utilization_headroom system with
    | Some h -> Format.printf "utilization headroom (naive): %.3f@." h
    | None -> Format.printf "utilization headroom: n/a (trace arrivals)@.");
    match Rta_core.Sensitivity.critical_scaling ~config system with
    | Some lambda ->
        Format.printf
          "critical scaling factor: %.3f (execution budgets can %s by %.1f%%)@."
          lambda
          (if lambda >= 1. then "grow" else "must shrink")
          (Float.abs (lambda -. 1.) *. 100.)
    | None ->
        Format.printf
          "no feasible scaling: some deadline is shorter than its chain's            minimum latency@.";
        exit 1
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Critical scaling factor: how much execution budgets can grow (or must shrink).")
    Term.(const run $ obs_term $ file_arg $ horizon_arg $ release_horizon_arg $ auto_prio_arg)

(* fuzz *)

let fuzz_cmd =
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N" ~doc:"Number of random systems to check.")
  in
  let budget_arg =
    Arg.(value & opt (some float) None
         & info [ "budget-s" ] ~docv:"SECONDS"
             ~doc:"Stop after $(docv) wall-clock seconds even if $(b,--count) is not reached.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write each shrunk counterexample into $(docv) (created if missing) as a replayable .rta file.")
  in
  let fault_arg =
    let fault_conv =
      Arg.enum [ ("none", `None); ("fcfs-drop-tau", `Fcfs_drop_tau) ]
    in
    Arg.(value & opt fault_conv `None
         & info [ "plant-fault" ] ~docv:"FAULT"
             ~doc:"Plant a known-unsound fault in every analysis the oracle checks, as a self-test of the oracle: $(b,fcfs-drop-tau) moves every FCFS departure lower bound one execution time earlier, which is what dropping Theorem 9's +tau term does to a resident alone on its processor.  The fault corrupts the finished analysis inside the oracle; the analysis itself is unchanged.  The run is expected to FAIL.")
  in
  let replay_arg =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Re-check a saved counterexample instead of fuzzing (horizons come from the file's #! directive).")
  in
  let kernels_arg =
    Arg.(value & flag
         & info [ "kernels" ]
             ~doc:"Fuzz the curve kernels instead of whole systems: optimized pointwise add/sub/max2 and cursor evaluation are cross-checked against the frozen Reference baselines on random curves, the inverse handle against a dense scan, the pairwise step sum against a left fold, the exact SPP idle-interval path against Theorem 3's formula on random ranked release sets, the static-priority bound sweeps against the composed Theorem 5-6 formula, the utilization walk against the prefix-minimum transform, the departure read against Theorem 2's floor-division chain, and per-jump FCFS bounds against the per-instance construction, and mismatching inputs shrunk.")
  in
  let print_violations vs =
    List.iter
      (fun v -> Format.printf "  %a@." Rta_check.Oracle.pp_violation v)
      vs
  in
  let run_kernels seed count budget_s out =
    let outcome = Rta_check.Kernels.run ?out_dir:out ?budget_s ~seed ~count () in
    Format.printf
      "fuzz --kernels: %d trials (%d passed), %d mismatch(es) in %.1fs (seed %d)@."
      outcome.Rta_check.Kernels.tested outcome.Rta_check.Kernels.passed
      (List.length outcome.Rta_check.Kernels.mismatches)
      outcome.Rta_check.Kernels.elapsed_s seed;
    List.iter
      (fun (m : Rta_check.Kernels.mismatch) ->
        Format.printf "trial %d (%s, seed %d):%s@.%s@." m.Rta_check.Kernels.index
          m.Rta_check.Kernels.check
          (m.Rta_check.Kernels.seed + m.Rta_check.Kernels.index)
          (match m.Rta_check.Kernels.file with
          | Some f -> Printf.sprintf " written to %s" f
          | None -> "")
          m.Rta_check.Kernels.detail)
      outcome.Rta_check.Kernels.mismatches;
    if outcome.Rta_check.Kernels.mismatches <> [] then exit 1
  in
  let run () seed count budget_s out fault kernels replay verbose =
    setup_logs verbose;
    if kernels then begin
      if count < 1 then begin
        Format.eprintf "error: --count must be at least 1@.";
        exit 2
      end;
      run_kernels seed count budget_s out
    end
    else
    match replay with
    | Some path -> (
        match Rta_check.Fuzz.replay ~fault path with
        | Error msg ->
            Format.eprintf "error: %s@." msg;
            exit 2
        | Ok Rta_check.Oracle.Passed -> Format.printf "replay: passed@."
        | Ok (Rta_check.Oracle.Failed vs) ->
            Format.printf "replay: %d violation(s)@." (List.length vs);
            print_violations vs;
            exit 1)
    | None ->
        if count < 1 then begin
          Format.eprintf "error: --count must be at least 1@.";
          exit 2
        end;
        let outcome =
          Rta_check.Fuzz.run ~fault ?out_dir:out ?budget_s ~seed ~count ()
        in
        Format.printf
          "fuzz: %d tested (%d passed), %d counterexample(s) in %.1fs (seed \
           %d)@."
          outcome.Rta_check.Fuzz.tested outcome.Rta_check.Fuzz.passed
          (List.length outcome.Rta_check.Fuzz.counterexamples)
          outcome.Rta_check.Fuzz.elapsed_s seed;
        List.iter
          (fun (cex : Rta_check.Fuzz.counterexample) ->
            Format.printf "case %d (seed %d):%s@." cex.Rta_check.Fuzz.index
              (cex.Rta_check.Fuzz.seed + cex.Rta_check.Fuzz.index)
              (match cex.Rta_check.Fuzz.file with
              | Some f -> Printf.sprintf " written to %s" f
              | None -> "");
            print_violations cex.Rta_check.Fuzz.violations)
          outcome.Rta_check.Fuzz.counterexamples;
        if outcome.Rta_check.Fuzz.counterexamples <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random systems are analyzed and simulated, the analysis bounds checked against the simulated ground truth, and any violation shrunk to a minimal replayable counterexample.")
    Term.(const run $ obs_term $ seed_arg $ count_arg $ budget_arg $ out_arg $ fault_arg $ kernels_arg $ replay_arg $ verbose_arg)

(* figures *)

let figures_cmd =
  let what_arg =
    Arg.(required & pos 0 (some (enum
      [ ("fig1", `F1); ("fig2", `F2); ("fig3", `F3); ("fig4", `F4);
        ("tightness", `T); ("ablation", `A); ("robustness", `R);
        ("envelope-admission", `E); ("perf", `P); ("all", `All) ])) None
      & info [] ~docv:"WHAT"
          ~doc:"One of fig1, fig2, fig3, fig4, tightness, ablation, robustness, perf, all.")
  in
  let sets_arg =
    Arg.(value & opt int 200 & info [ "sets" ] ~docv:"N" ~doc:"Random job sets per data point.")
  in
  let jobs_arg = Arg.(value & opt int 6 & info [ "jobs" ] ~docv:"N" ~doc:"Jobs per set.") in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Also write Figure 3's data as long-format CSV (fig3/all only).")
  in
  let run () what sets jobs seed csv =
    let module F = Rta_experiments.Figures in
    let emit s = print_string s; print_newline () in
    (match what with
    | `F1 -> emit (F.fig1 ())
    | `F2 -> emit (F.fig2 ())
    | `F3 -> emit (F.fig3 ~sets ~jobs ~seed ())
    | `F4 -> emit (F.fig4 ~sets ~jobs ~seed ())
    | `T -> emit (F.tightness ~sets ~seed ())
    | `A -> emit (F.ablation ~sets ~seed ())
    | `R -> emit (F.robustness ~sets ~seed ())
    | `E -> emit (F.envelope_admission ~sets ~seed ())
    | `P -> emit (F.perf_scaling ())
    | `All ->
        emit (F.fig1 ());
        emit (F.fig2 ());
        emit (F.fig3 ~sets ~jobs ~seed ());
        emit (F.fig4 ~sets ~jobs ~seed ());
        emit (F.tightness ~sets ~seed ());
        emit (F.ablation ~sets ~seed ());
        emit (F.robustness ~sets ~seed ());
        emit (F.envelope_admission ~sets ~seed ());
        emit (F.perf_scaling ()));
    match (csv, what) with
    | Some path, (`F3 | `All) ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (F.fig3_csv ~sets ~jobs ~seed ()));
        Format.printf "wrote %s@." path
    | Some _, _ -> Format.eprintf "--csv applies to fig3/all only@."
    | None, _ -> ()
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's figures and the extension tables.")
    Term.(const run $ obs_term $ what_arg $ sets_arg $ jobs_arg $ seed_arg $ csv_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "rta" ~version:"1.0.0"
      ~doc:"Response-time analysis for distributed real-time systems with bursty job arrivals (Li, Bettati, Zhao; ICPP 1998)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ analyze_cmd; simulate_cmd; baseline_cmd; generate_cmd; batch_cmd; serve_cmd; envelope_cmd; sensitivity_cmd; fuzz_cmd; figures_cmd ]))
