open Rta_model
module Jobshop = Rta_workload.Jobshop
module Rng = Rta_workload.Rng

let buf_table ~title ~header rows =
  Printf.sprintf "%s\n%s\n" title (Tabular.render ~header rows)

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  let period = 2 * Time.ticks_per_unit in
  let horizon = 12 * Time.ticks_per_unit in
  let periodic =
    Arrival.arrival_function (Arrival.Periodic { period; offset = 0 }) ~horizon
  in
  let bursty = Arrival.arrival_function (Arrival.Bursty { period }) ~horizon in
  let rows =
    List.init 13 (fun t ->
        let tick = t * Time.ticks_per_unit in
        [
          string_of_int t;
          string_of_int (Rta_curve.Step.eval periodic tick);
          string_of_int (Rta_curve.Step.eval bursty tick);
        ])
  in
  buf_table
    ~title:
      "Figure 1 -- arrival functions, period 2.0 units (bursty = Eq. 27: same \
       rate, instances bunched early)"
    ~header:[ "t"; "periodic (Eq. 25)"; "bursty (Eq. 27)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  (* The paper's example: four stages, two processors each; T1 runs on
     P1,P3,P5,P7 and T2 on P1,P4,P5,P8 (1-based in the paper). *)
  let step proc exec prio = { System.proc; exec; prio } in
  let jobs =
    [|
      {
        System.name = "T1";
        arrival = Arrival.Periodic { period = 5 * Time.ticks_per_unit; offset = 0 };
        deadline = 20 * Time.ticks_per_unit;
        steps = [| step 0 500 1; step 2 400 1; step 4 600 1; step 6 300 1 |];
      };
      {
        System.name = "T2";
        arrival = Arrival.Periodic { period = 7 * Time.ticks_per_unit; offset = 0 };
        deadline = 28 * Time.ticks_per_unit;
        steps = [| step 0 700 2; step 3 500 1; step 4 400 2; step 7 600 1 |];
      };
    |]
  in
  let system = System.make_exn ~schedulers:(Array.make 8 Sched.Spp) ~jobs in
  Format.asprintf
    "Figure 2 -- a shop with four stages, two processors per stage@.%a@."
    System.pp system

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4                                                     *)
(* ------------------------------------------------------------------ *)

let utilizations = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

let marker_of = function
  | Admission.Spp_exact -> 'E'
  | Admission.Spp_sl -> 'S'
  | Admission.Spnp_app -> 'N'
  | Admission.Fcfs_app -> 'F'
  | Admission.Spp_app -> 'A'

let render_sweep ~title ~methods points =
  let rows, header =
    Admission.to_table points ~header:(List.map Admission.method_name methods)
  in
  let series =
    List.map
      (fun m ->
        ( marker_of m,
          Admission.method_name m,
          List.map
            (fun p -> (p.Admission.utilization, List.assoc m p.Admission.admitted))
            points ))
      methods
  in
  buf_table ~title ~header rows
  ^ Ascii_plot.chart ~series ~x_axis:"utilization" ~y_axis:"admission probability"
      ()

let fig3_methods =
  [ Admission.Spp_exact; Admission.Spp_sl; Admission.Spnp_app; Admission.Fcfs_app ]

let fig3_panel_specs =
  [ ("a", 1, 1.0); ("b", 2, 1.0); ("c", 4, 1.0);
    ("d", 1, 2.0); ("e", 2, 2.0); ("f", 4, 2.0) ]

let fig3_panels ~sets ~jobs ~seed =
  List.map
    (fun (label, stages, mult) ->
      let config_of ~utilization ~sched =
        Jobshop.default ~stages ~jobs ~utilization ~arrival:Jobshop.Periodic_eq25
          ~deadline:(Jobshop.Multiple_of_period mult) ~sched
      in
      let points =
        Admission.sweep ~methods:fig3_methods ~config_of ~utilizations ~sets
          ~seed ()
      in
      (label, stages, mult, points))
    fig3_panel_specs

let fig3 ?(sets = 200) ?(jobs = 6) ?(seed = 42) () =
  fig3_panels ~sets ~jobs ~seed
  |> List.map (fun (label, stages, mult, points) ->
         render_sweep
           ~title:
             (Printf.sprintf
                "Figure 3(%s) -- periodic arrivals, %d stage(s), deadline = \
                 %.0fx period (%d sets/point)"
                label stages mult sets)
           ~methods:fig3_methods points)
  |> String.concat "\n"

let fig3_csv ?(sets = 200) ?(jobs = 6) ?(seed = 42) () =
  let rows =
    fig3_panels ~sets ~jobs ~seed
    |> List.concat_map (fun (label, stages, mult, points) ->
           points
           |> List.concat_map (fun p ->
                  List.map
                    (fun (m, prob) ->
                      [
                        label;
                        string_of_int stages;
                        Printf.sprintf "%.1f" mult;
                        Printf.sprintf "%.3f" p.Admission.utilization;
                        Admission.method_name m;
                        Printf.sprintf "%.4f" prob;
                      ])
                    p.Admission.admitted))
  in
  Csv.of_rows
    ~header:
      [ "panel"; "stages"; "deadline_mult"; "utilization"; "method";
        "admission_probability" ]
    rows

let fig4 ?(sets = 200) ?(jobs = 6) ?(seed = 43) () =
  let methods = [ Admission.Spp_exact; Admission.Spnp_app; Admission.Fcfs_app ] in
  let panel label ~mean ~stddev =
    let offset = mean -. stddev in
    let config_of ~utilization ~sched =
      Jobshop.default ~stages:2 ~jobs ~utilization ~arrival:Jobshop.Bursty_eq27
        ~deadline:(Jobshop.Shifted_exponential { offset; scale = stddev })
        ~sched
    in
    let points =
      Admission.sweep ~methods ~config_of ~utilizations ~sets ~seed ()
    in
    render_sweep
      ~title:
        (Printf.sprintf
           "Figure 4(%s) -- bursty arrivals (Eq. 27), 2 stages, deadline mean \
            %.1f / stddev %.1f units (%d sets/point)"
           label mean stddev sets)
      ~methods points
  in
  String.concat "\n"
    [
      panel "a" ~mean:4.0 ~stddev:0.5;
      panel "b" ~mean:4.0 ~stddev:1.5;
      panel "c" ~mean:4.0 ~stddev:3.0;
      panel "d" ~mean:8.0 ~stddev:0.5;
      panel "e" ~mean:8.0 ~stddev:1.5;
      panel "f" ~mean:8.0 ~stddev:3.0;
    ]

(* ------------------------------------------------------------------ *)
(* Envelope admission (extension T-5): horizon-free envelope bounds vs
   the trace-based exact analysis, on tandem pipelines                  *)
(* ------------------------------------------------------------------ *)

let envelope_admission ?(sets = 100) ?(seed = 48) () =
  let stages = 2 in
  let tandem ~utilization seed_offset =
    let config =
      {
        (Jobshop.default ~stages ~jobs:4 ~utilization
           ~arrival:Jobshop.Periodic_eq25
           ~deadline:(Jobshop.Multiple_of_period 2.0) ~sched:Sched.Spp)
        with
        Jobshop.procs_per_stage = 1;
      }
    in
    let raw = Jobshop.generate config ~rng:(Rng.make (seed + seed_offset)) in
    (* Uniform per-job priority (the stage-0 Eq. 24 rank on every stage):
       the T-5 tandem ranks each job once, on every stage alike. *)
    let jobs =
      Array.init (System.job_count raw) (fun j ->
          let job = System.job raw j in
          let prio = job.System.steps.(0).System.prio in
          {
            job with
            System.steps =
              Array.map (fun (s : System.step) -> { s with System.prio = prio }) job.System.steps;
          })
    in
    System.make_exn ~schedulers:(Array.make stages Sched.Spp) ~jobs
  in
  let rows =
    List.map
      (fun utilization ->
        let trace_ok = ref 0 and envelope_ok = ref 0 in
        for set = 0 to sets - 1 do
          let system = tandem ~utilization (51 * set) in
          let release_horizon, horizon = System.suggested_horizons system in
          (match Rta_core.Engine.run ~release_horizon ~horizon system with
          | Ok e ->
              if Rta_core.Response.schedulable e ~estimator:`Exact then
                incr trace_ok
          | Error (`Cyclic _) -> ());
          let result =
            Option.get
              (Rta_core.Envelope_analysis.system_bounds ~release_horizon system)
          in
          let all_ok =
            Array.for_all Fun.id
              (Array.mapi
                 (fun j v ->
                   match v with
                   | Rta_core.Envelope_analysis.Bounded r ->
                       r <= (System.job system j).System.deadline
                   | Rta_core.Envelope_analysis.Unbounded -> false)
                 result.Rta_core.Envelope_analysis.end_to_end)
          in
          if all_ok then incr envelope_ok
        done;
        [
          Printf.sprintf "%.2f" utilization;
          Tabular.render_float (float_of_int !trace_ok /. float_of_int sets);
          Tabular.render_float (float_of_int !envelope_ok /. float_of_int sets);
        ])
      [ 0.2; 0.4; 0.6; 0.8 ]
  in
  buf_table
    ~title:
      (Printf.sprintf
         "T-5 -- horizon-free envelope admission vs trace-exact admission \
          (tandem 2-stage pipelines, SPP, %d sets/point; the envelope verdict \
          holds for every conforming release pattern, so it is necessarily \
          more conservative)"
         sets)
    ~header:[ "U"; "trace exact"; "envelope (horizon-free)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Robustness across generator parameters (the paper's "other parameter
   values led to similar observations")                                 *)
(* ------------------------------------------------------------------ *)

let robustness ?(sets = 100) ?(seed = 46) () =
  let probe ~jobs ~procs_per_stage =
    let config_of ~utilization ~sched =
      {
        (Jobshop.default ~stages:2 ~jobs ~utilization
           ~arrival:Jobshop.Periodic_eq25
           ~deadline:(Jobshop.Multiple_of_period 1.0) ~sched)
        with
        Jobshop.procs_per_stage;
      }
    in
    match
      Admission.sweep ~methods:fig3_methods ~config_of ~utilizations:[ 0.5 ]
        ~sets ~seed ()
    with
    | [ p ] -> p.Admission.admitted
    | _ -> assert false
  in
  let rows =
    List.concat_map
      (fun jobs ->
        List.map
          (fun procs_per_stage ->
            let admitted = probe ~jobs ~procs_per_stage in
            Printf.sprintf "%d" jobs
            :: Printf.sprintf "%d" procs_per_stage
            :: List.map (fun m -> Tabular.render_float (List.assoc m admitted)) fig3_methods)
          [ 1; 2; 3 ])
      [ 4; 8; 12 ]
  in
  buf_table
    ~title:
      (Printf.sprintf
         "T-3 -- robustness of the method ordering across shop shapes \
          (2 stages, U=0.5, deadline = period, %d sets/point)"
         sets)
    ~header:
      ("jobs" :: "procs/stage" :: List.map Admission.method_name fig3_methods)
    rows

(* ------------------------------------------------------------------ *)
(* Analysis cost scaling                                                *)
(* ------------------------------------------------------------------ *)

let perf_scaling ?(seed = 47) () =
  let time_one ~stages ~jobs =
    let config =
      Jobshop.default ~stages ~jobs ~utilization:0.5
        ~arrival:Jobshop.Periodic_eq25
        ~deadline:(Jobshop.Multiple_of_period 2.0) ~sched:Sched.Spp
    in
    let system = Jobshop.generate config ~rng:(Rng.make seed) in
    let release_horizon, horizon = System.suggested_horizons system in
    let runs = 5 in
    let t0 = Sys.time () in
    for _ = 1 to runs do
      match Rta_core.Engine.run ~release_horizon ~horizon system with
      | Ok e -> ignore (Rta_core.Response.schedulable e ~estimator:`Direct)
      | Error _ -> ()
    done;
    (Sys.time () -. t0) /. float_of_int runs *. 1000.
  in
  let rows =
    List.concat_map
      (fun stages ->
        List.map
          (fun jobs ->
            [
              string_of_int stages;
              string_of_int jobs;
              Printf.sprintf "%.2f" (time_one ~stages ~jobs);
            ])
          [ 2; 4; 8; 16 ])
      [ 1; 2; 4 ]
  in
  buf_table
    ~title:
      "T-4 -- exact analysis cost (ms per job set, CPU time, mean of 5 \
       runs; horizon = 20x the longest period)"
    ~header:[ "stages"; "jobs"; "ms/analysis" ]
    rows

(* ------------------------------------------------------------------ *)
(* Tightness (extension table T-1)                                     *)
(* ------------------------------------------------------------------ *)

let ratio_stats ratios =
  match ratios with
  | [] -> (Float.nan, Float.nan)
  | l ->
      let n = float_of_int (List.length l) in
      (List.fold_left ( +. ) 0. l /. n, List.fold_left Float.max neg_infinity l)

let tightness ?(sets = 60) ?(seed = 44) () =
  let schedulers = [ Sched.Spp; Sched.Spnp; Sched.Fcfs ] in
  let rows =
    List.map
      (fun sched ->
        let ratios = ref [] and violations = ref 0 and compared = ref 0 in
        for set = 0 to sets - 1 do
          let rng = Rng.make (seed + (31 * set)) in
          let config =
            Jobshop.default ~stages:2 ~jobs:4 ~utilization:0.5
              ~arrival:Jobshop.Periodic_eq25
              ~deadline:(Jobshop.Multiple_of_period 4.0) ~sched
          in
          let system = Jobshop.generate config ~rng in
          let release_horizon, horizon = System.suggested_horizons system in
          match Rta_core.Engine.run ~release_horizon ~horizon system with
          | Error (`Cyclic _) -> ()
          | Ok engine ->
              let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
              for j = 0 to System.job_count system - 1 do
                let estimator =
                  if Rta_core.Engine.is_exact engine then `Exact else `Direct
                in
                match
                  ( Rta_core.Response.end_to_end engine ~estimator ~job:j,
                    Rta_sim.Sim.worst_response sim j )
                with
                | Rta_core.Response.Bounded b, Some w when w > 0 ->
                    incr compared;
                    if b < w then incr violations;
                    ratios := (float_of_int b /. float_of_int w) :: !ratios
                | _ -> ()
              done
        done;
        let mean, worst = ratio_stats !ratios in
        [
          Sched.to_string sched;
          string_of_int !compared;
          Tabular.render_float mean;
          Tabular.render_float worst;
          string_of_int !violations;
        ])
      schedulers
  in
  buf_table
    ~title:
      (Printf.sprintf
         "T-1 -- bound tightness vs simulation (2-stage shops, U=0.5, %d \
          sets; ratio = bound / simulated worst response; violations must \
          be 0)"
         sets)
    ~header:[ "scheduler"; "jobs compared"; "mean ratio"; "worst ratio"; "violations" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations (extension table T-2)                                     *)
(* ------------------------------------------------------------------ *)

let ablation ?(sets = 60) ?(seed = 45) () =
  let sections = Buffer.create 4096 in
  (* (a) end-to-end composition: Theorem 4 sum vs direct, and the same
     pessimism isolated on exact SPP curves (SPP/App vs SPP/Exact). *)
  let composition =
    let config_of ~utilization ~sched =
      Jobshop.default ~stages:3 ~jobs:5 ~utilization
        ~arrival:Jobshop.Periodic_eq25
        ~deadline:(Jobshop.Multiple_of_period 2.0) ~sched
    in
    let methods = [ Admission.Spnp_app; Admission.Spp_app; Admission.Spp_exact ] in
    let probe estimator =
      Admission.sweep ~estimator ~methods ~config_of
        ~utilizations:[ 0.3; 0.5; 0.7 ] ~sets ~seed ()
    in
    let direct = probe `Direct and summed = probe `Sum in
    let rows =
      List.map2
        (fun d s ->
          [
            Printf.sprintf "%.2f" d.Admission.utilization;
            Tabular.render_float (List.assoc Admission.Spnp_app s.Admission.admitted);
            Tabular.render_float (List.assoc Admission.Spnp_app d.Admission.admitted);
            Tabular.render_float (List.assoc Admission.Spp_app s.Admission.admitted);
            Tabular.render_float (List.assoc Admission.Spp_exact d.Admission.admitted);
          ])
        direct summed
    in
    buf_table
      ~title:
        "T-2a -- end-to-end composition (3 stages): Theorem 4 per-stage sum \
         vs direct last-stage composition, under SPNP bounds and on exact \
         SPP curves"
      ~header:[ "U"; "SPNP sum"; "SPNP direct"; "SPP sum (SPP/App)"; "SPP exact" ]
      rows
  in
  Buffer.add_string sections composition;
  Buffer.add_char sections '\n';
  (* (b) the paper's Eq. 16-19 as printed vs the sound reformulation. *)
  let as_printed =
    let violations = ref 0 and compared = ref 0 and admitted_ap = ref 0 in
    let admitted_sound = ref 0 in
    for set = 0 to sets - 1 do
      let config =
        Jobshop.default ~stages:2 ~jobs:4 ~utilization:0.5
          ~arrival:Jobshop.Periodic_eq25
          ~deadline:(Jobshop.Multiple_of_period 2.0) ~sched:Sched.Spnp
      in
      let rng = Rng.make (seed + (17 * set)) in
      let system = Jobshop.generate config ~rng in
      let release_horizon, horizon = System.suggested_horizons system in
      let ap = Rta_check.Reference.as_printed ~release_horizon ~horizon system in
      match Rta_core.Engine.run ~release_horizon ~horizon system with
      | Ok sound ->
          let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
          if Rta_core.Response.schedulable ap ~estimator:`Sum then incr admitted_ap;
          if Rta_core.Response.schedulable sound ~estimator:`Sum then
            incr admitted_sound;
          for j = 0 to System.job_count system - 1 do
            match
              ( Rta_core.Response.end_to_end ap ~estimator:`Direct ~job:j,
                Rta_sim.Sim.worst_response sim j )
            with
            | Rta_core.Response.Bounded b, Some w ->
                incr compared;
                if b < w then incr violations
            | _ -> ()
          done
      | Error _ -> ()
    done;
    buf_table
      ~title:
        "T-2b -- Theorems 5-6 as printed (Eq. 17 interference via hp \
         service lower bounds) vs the sound reformulation, SPNP shops, \
         U=0.5"
      ~header:[ "variant"; "admitted"; "bound < simulated worst (unsound)" ]
      [
        [
          "as printed";
          Printf.sprintf "%d/%d" !admitted_ap sets;
          Printf.sprintf "%d of %d job bounds" !violations !compared;
        ];
        [ "sound"; Printf.sprintf "%d/%d" !admitted_sound sets; "0 (by T-1)" ];
      ]
  in
  Buffer.add_string sections as_printed;
  Buffer.add_char sections '\n';
  (* (c) Eq. 26 normalization: realized utilization. *)
  let eq26 =
    let realized eq26 =
      let acc = ref 0. and n = ref 0 in
      for set = 0 to sets - 1 do
        let config =
          {
            (Jobshop.default ~stages:2 ~jobs:5 ~utilization:0.6
               ~arrival:Jobshop.Periodic_eq25
               ~deadline:(Jobshop.Multiple_of_period 2.0) ~sched:Sched.Spp)
            with
            Jobshop.eq26;
          }
        in
        let rng = Rng.make (seed + (13 * set)) in
        let system = Jobshop.generate config ~rng in
        match System.max_utilization system with
        | Some u ->
            acc := !acc +. u;
            incr n
        | None -> ()
      done;
      !acc /. float_of_int !n
    in
    buf_table
      ~title:"T-2c -- Eq. 26 normalization (target utilization 0.60)"
      ~header:[ "normalization"; "mean realized max utilization" ]
      [
        [ "exact (denominator sum w)"; Tabular.render_float (realized `Exact_utilization) ];
        [ "as printed (denominator sum w*rho)"; Tabular.render_float (realized `As_printed) ];
      ]
  in
  Buffer.add_string sections eq26;
  Buffer.add_char sections '\n';
  (* (d) fixed point vs chain propagation on acyclic SPP systems. *)
  let fixpoint =
    let ratios = ref [] in
    for set = 0 to sets - 1 do
      let config =
        Jobshop.default ~stages:2 ~jobs:4 ~utilization:0.4
          ~arrival:Jobshop.Periodic_eq25
          ~deadline:(Jobshop.Multiple_of_period 4.0) ~sched:Sched.Spp
      in
      let rng = Rng.make (seed + (11 * set)) in
      let system = Jobshop.generate config ~rng in
      let release_horizon, horizon = System.suggested_horizons system in
      let fp = Rta_check.Reference.jacobi ~release_horizon ~horizon system in
      match Rta_core.Engine.run ~release_horizon ~horizon system with
      | Error (`Cyclic _) -> ()
      | Ok engine ->
          for j = 0 to System.job_count system - 1 do
            match
              ( fp.Rta_check.Reference.per_job.(j),
                Rta_core.Response.end_to_end engine ~estimator:`Exact ~job:j )
            with
            | Verdict.Bounded b, Rta_core.Response.Bounded r when r > 0 ->
                ratios := (float_of_int b /. float_of_int r) :: !ratios
            | _ -> ()
          done
    done;
    let mean, worst = ratio_stats !ratios in
    buf_table
      ~title:
        "T-2d -- price of the Section 6 fixed point on acyclic SPP systems \
         (ratio to the exact response)"
      ~header:[ "jobs compared"; "mean ratio"; "worst ratio" ]
      [
        [
          string_of_int (List.length !ratios);
          Tabular.render_float mean;
          Tabular.render_float worst;
        ];
      ]
  in
  Buffer.add_string sections fixpoint;
  Buffer.contents sections
