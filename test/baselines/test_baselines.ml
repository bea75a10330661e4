(* Baseline analyses: classic textbook examples, agreement with the exact
   analysis on their shared domain, and conservativeness elsewhere. *)

open Rta_model
module Sg = Rta_testsupport.Sysgen
module Bp = Rta_baselines.Busy_period

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Busy-period machinery                                               *)
(* ------------------------------------------------------------------ *)

let test_bp_alone () =
  let r =
    Bp.response_time ~task:{ Bp.rho = 10; tau = 3; jitter = 0 } ~interferers:[] ()
  in
  Alcotest.(check (option int)) "alone" (Some 3) r

let test_bp_textbook () =
  (* Liu & Layland's classic: T1 (5, 2) hp, T2 (10, 4): R2 = 2+2+4 = 8. *)
  let r =
    Bp.response_time
      ~task:{ Bp.rho = 10; tau = 4; jitter = 0 }
      ~interferers:[ { Bp.rho = 5; tau = 2; jitter = 0 } ]
      ()
  in
  Alcotest.(check (option int)) "R2" (Some 8) r

let test_bp_overload () =
  let r =
    Bp.response_time
      ~task:{ Bp.rho = 10; tau = 6; jitter = 0 }
      ~interferers:[ { Bp.rho = 10; tau = 6; jitter = 0 } ]
      ()
  in
  Alcotest.(check (option int)) "diverges" None r

let test_bp_jitter () =
  (* Jitter bunches interferer instances: T1 (10, 3, J=5) against T2
     (20, 5): w = 5 + ceil((w+5)/10)*3; w=8: ceil(13/10)=2 -> 11;
     w=11: ceil(16/10)=2 -> 11.  R2 = 11. *)
  let r =
    Bp.response_time
      ~task:{ Bp.rho = 20; tau = 5; jitter = 0 }
      ~interferers:[ { Bp.rho = 10; tau = 3; jitter = 5 } ]
      ()
  in
  Alcotest.(check (option int)) "with jitter" (Some 11) r

let test_bp_blocking () =
  let r =
    Bp.response_time ~blocking:4
      ~task:{ Bp.rho = 10; tau = 3; jitter = 0 }
      ~interferers:[] ()
  in
  Alcotest.(check (option int)) "blocked" (Some 7) r

(* ------------------------------------------------------------------ *)
(* Joseph-Pandya vs Sun&Liu vs SPP/Exact on single-stage synchronous   *)
(* ------------------------------------------------------------------ *)

let synchronous_single_stage jobs =
  (* (period, exec, prio) list on one SPP processor, all offsets 0. *)
  let jobs =
    List.mapi
      (fun i (period, exec, prio) ->
        {
          System.name = Printf.sprintf "T%d" (i + 1);
          arrival = Arrival.Periodic { period; offset = 0 };
          deadline = 100000;
          steps = [| { System.proc = 0; exec; prio } |];
        })
      jobs
    |> Array.of_list
  in
  System.make_exn ~schedulers:[| Sched.Spp |] ~jobs

let exact_response system job =
  let horizon = 4000 in
  match Rta_core.Engine.run ~release_horizon:2000 ~horizon system with
  | Error (`Cyclic _) -> Alcotest.fail "cyclic"
  | Ok e -> (
      match Rta_core.Response.end_to_end e ~estimator:`Exact ~job with
      | Rta_core.Response.Bounded r -> r
      | Rta_core.Response.Unbounded -> Alcotest.fail "exact unbounded")

let test_single_stage_agreement () =
  let system = synchronous_single_stage [ (5, 2, 1); (10, 4, 2); (30, 5, 3) ] in
  let jp =
    match Rta_baselines.Joseph_pandya.analyze system with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let sl =
    match Rta_baselines.Sunliu.analyze system with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun j ->
      let expect = exact_response system j in
      (match jp.(j) with
      | Rta_baselines.Joseph_pandya.Bounded r ->
          check_int (Printf.sprintf "JP job %d" j) expect r
      | Rta_baselines.Joseph_pandya.Unbounded -> Alcotest.fail "JP unbounded");
      match sl.Rta_baselines.Sunliu.per_job.(j) with
      | Rta_baselines.Sunliu.Bounded r ->
          check_int (Printf.sprintf "S&L job %d" j) expect r
      | Rta_baselines.Sunliu.Unbounded -> Alcotest.fail "S&L unbounded")
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Sun&Liu vs exact analysis and simulation on multi-stage systems     *)
(* ------------------------------------------------------------------ *)

let spp_periodic_gen =
  (* Stage-structured SPP systems with periodic arrivals only (S&L's
     domain). *)
  let open QCheck2.Gen in
  let* stages = int_range 1 3 in
  let* procs_per_stage = int_range 1 2 in
  let* n_jobs = int_range 1 4 in
  let n_procs = stages * procs_per_stage in
  let* specs =
    list_repeat n_jobs
      (let* period = int_range 8 30 in
       let* offset = int_range 0 10 in
       let* procs_in = list_repeat stages (int_range 0 (procs_per_stage - 1)) in
       let* execs = list_repeat stages (int_range 1 3) in
       return (period, offset, procs_in, execs))
  in
  let jobs =
    List.mapi
      (fun ji (period, offset, procs_in, execs) ->
        let steps =
          List.map2
            (fun stage (p, exec) ->
              { System.proc = (stage * procs_per_stage) + p; exec; prio = 0 })
            (List.init stages Fun.id)
            (List.combine procs_in execs)
        in
        {
          System.name = Printf.sprintf "T%d" (ji + 1);
          arrival = Arrival.Periodic { period; offset };
          deadline = 100000;
          steps = Array.of_list steps;
        })
      specs
    |> Array.of_list
  in
  let jobs = Priority.deadline_monotonic jobs in
  return (System.make_exn ~schedulers:(Array.make n_procs Sched.Spp) ~jobs)

let prop_sl_dominates_exact =
  Rta_testsupport.Gen.qtest ~count:120
    "S&L bound >= exact trace response (synchronous or offset)"
    spp_periodic_gen Sg.print_system (fun system ->
      match Rta_baselines.Sunliu.analyze system with
      | Error _ -> false
      | Ok sl -> (
          match Rta_core.Engine.run ~release_horizon:600 ~horizon:1200 system with
          | Error (`Cyclic _) -> true
          | Ok e when not (Rta_core.Engine.is_exact e) -> true
          | Ok e ->
              let ok = ref true in
              for j = 0 to System.job_count system - 1 do
                match
                  ( sl.Rta_baselines.Sunliu.per_job.(j),
                    Rta_core.Response.end_to_end e ~estimator:`Exact ~job:j )
                with
                | Rta_baselines.Sunliu.Bounded b, Rta_core.Response.Bounded r ->
                    if b < r then ok := false
                | Rta_baselines.Sunliu.Unbounded, _ -> ()
                | Rta_baselines.Sunliu.Bounded _, Rta_core.Response.Unbounded ->
                    (* The exact verdict is horizon-limited, not a true
                       divergence; no contradiction. *)
                    ()
              done;
              !ok))

let prop_sl_dominates_sim =
  Rta_testsupport.Gen.qtest ~count:120 "S&L bound >= simulated worst response"
    spp_periodic_gen Sg.print_system (fun system ->
      match Rta_baselines.Sunliu.analyze system with
      | Error _ -> false
      | Ok sl ->
          let sim = Rta_sim.Sim.run ~release_horizon:600 system ~horizon:1200 in
          let ok = ref true in
          for j = 0 to System.job_count system - 1 do
            match
              (sl.Rta_baselines.Sunliu.per_job.(j), Rta_sim.Sim.worst_response sim j)
            with
            | Rta_baselines.Sunliu.Bounded b, Some w -> if b < w then ok := false
            | Rta_baselines.Sunliu.Bounded _, None
            | Rta_baselines.Sunliu.Unbounded, _ ->
                ()
          done;
          !ok)

let prop_holistic_never_tighter =
  Rta_testsupport.Gen.qtest ~count:120
    "holistic jitter model is never tighter than Sun&Liu's" spp_periodic_gen
    Sg.print_system (fun system ->
      match
        ( Rta_baselines.Sunliu.analyze ~jitter_model:`Sun_liu system,
          Rta_baselines.Sunliu.analyze ~jitter_model:`Holistic system )
      with
      | Ok sl, Ok hol ->
          let ok = ref true in
          Array.iteri
            (fun j v ->
              match (v, hol.Rta_baselines.Sunliu.per_job.(j)) with
              | Rta_baselines.Sunliu.Bounded a, Rta_baselines.Sunliu.Bounded b ->
                  if b < a then ok := false
              | Rta_baselines.Sunliu.Unbounded, Rta_baselines.Sunliu.Bounded _ ->
                  ok := false
              | _, Rta_baselines.Sunliu.Unbounded -> ())
            sl.Rta_baselines.Sunliu.per_job;
          !ok
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* OPA (Audsley)                                                       *)
(* ------------------------------------------------------------------ *)

let test_opa_finds_dm_solution () =
  (* Deadline-monotonic schedulable set: OPA must succeed, and its result
     must pass the Joseph-Pandya test. *)
  let system = synchronous_single_stage [ (5, 2, 3); (10, 2, 2); (20, 4, 1) ] in
  match Rta_baselines.Opa.assign system with
  | Error e -> Alcotest.fail e
  | Ok assigned -> (
      match Rta_baselines.Joseph_pandya.analyze assigned with
      | Error e -> Alcotest.fail e
      | Ok verdicts ->
          Array.iteri
            (fun j v ->
              match v with
              | Rta_baselines.Joseph_pandya.Bounded r ->
                  Alcotest.(check bool)
                    (Printf.sprintf "job %d meets deadline" j)
                    true
                    (r <= (System.job assigned j).System.deadline)
              | Rta_baselines.Joseph_pandya.Unbounded ->
                  Alcotest.fail "unbounded after OPA")
            verdicts)

let test_opa_beats_dm () =
  (* Classic OPA example with a deadline beyond the period: T1 (rho 10,
     tau 5, D 14), T2 (rho 14, tau 6, D 14).  Deadline-monotonic ties both
     at D=14; ranking T1 first makes T2's response 5+5+6 = 16 > 14, while
     T2 first gives T1 response 6+5 = 11 <= 14 and T2 response 6 <= 14.
     OPA must find the schedulable order. *)
  let system =
    synchronous_single_stage [ (10, 5, 1); (14, 6, 2) ]
  in
  let with_deadlines =
    let jobs =
      Array.init (System.job_count system) (fun j ->
          { (System.job system j) with System.deadline = 14 })
    in
    System.make_exn ~schedulers:[| Sched.Spp |] ~jobs
  in
  (match Rta_baselines.Joseph_pandya.analyze with_deadlines with
  | Ok verdicts ->
      (* DM-as-given (T1 high) misses T2's deadline. *)
      (match verdicts.(1) with
      | Rta_baselines.Joseph_pandya.Bounded r ->
          Alcotest.(check bool) "DM order misses" true (r > 14)
      | Rta_baselines.Joseph_pandya.Unbounded -> ())
  | Error e -> Alcotest.fail e);
  match Rta_baselines.Opa.assign with_deadlines with
  | Error e -> Alcotest.failf "OPA should succeed: %s" e
  | Ok assigned ->
      Alcotest.(check int) "T2 gets top priority" 1
        (System.job assigned 1).System.steps.(0).System.prio

let test_opa_infeasible () =
  let system = synchronous_single_stage [ (10, 6, 1); (10, 6, 2) ] in
  Alcotest.(check bool) "overload infeasible" false
    (Rta_baselines.Opa.schedulable_with_some_assignment system)

let prop_opa_succeeds_when_dm_does =
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 1 5 in
    list_repeat n
      (let* period = int_range 5 40 in
       let* exec = int_range 1 5 in
       return (period, exec))
  in
  Rta_testsupport.Gen.qtest ~count:150 "OPA succeeds whenever DM does" gen
    (fun specs ->
      String.concat ";" (List.map (fun (p, e) -> Printf.sprintf "(%d,%d)" p e) specs))
    (fun specs ->
      let jobs =
        List.mapi
          (fun i (period, exec) ->
            {
              System.name = Printf.sprintf "T%d" i;
              arrival = Arrival.Periodic { period; offset = 0 };
              deadline = period;
              steps = [| { System.proc = 0; exec; prio = 0 } |];
            })
          specs
        |> Array.of_list |> Priority.deadline_monotonic
      in
      let system = System.make_exn ~schedulers:[| Sched.Spp |] ~jobs in
      let dm_ok =
        match Rta_baselines.Joseph_pandya.analyze system with
        | Ok verdicts ->
            Array.to_list verdicts
            |> List.mapi (fun j v ->
                   match v with
                   | Rta_baselines.Joseph_pandya.Bounded r ->
                       r <= (System.job system j).System.deadline
                   | Rta_baselines.Joseph_pandya.Unbounded -> false)
            |> List.for_all Fun.id
        | Error _ -> false
      in
      (not dm_ok) || Rta_baselines.Opa.schedulable_with_some_assignment system)

(* ------------------------------------------------------------------ *)
(* Utilization tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_ll_bound_values () =
  Alcotest.(check (float 1e-9)) "n=1" 1.0 (Rta_baselines.Utilization.liu_layland_bound 1);
  Alcotest.(check (float 1e-4)) "n=2" 0.8284
    (Rta_baselines.Utilization.liu_layland_bound 2);
  Alcotest.(check bool) "n large > ln 2" true
    (Rta_baselines.Utilization.liu_layland_bound 100 > 0.69)

let test_utilization_checks () =
  let s = synchronous_single_stage [ (10, 3, 1); (20, 4, 2) ] in
  Alcotest.(check (option bool)) "under unit" (Some true)
    (Rta_baselines.Utilization.under_unit_utilization s);
  Alcotest.(check (option bool)) "RM ok at 0.5" (Some true)
    (Rta_baselines.Utilization.rm_schedulable s);
  let s2 = synchronous_single_stage [ (10, 6, 1); (10, 5, 2) ] in
  Alcotest.(check (option bool)) "overloaded" (Some false)
    (Rta_baselines.Utilization.under_unit_utilization s2)

let () =
  Alcotest.run "rta_baselines"
    [
      ( "busy-period",
        [
          Alcotest.test_case "alone" `Quick test_bp_alone;
          Alcotest.test_case "textbook" `Quick test_bp_textbook;
          Alcotest.test_case "overload" `Quick test_bp_overload;
          Alcotest.test_case "jitter" `Quick test_bp_jitter;
          Alcotest.test_case "blocking" `Quick test_bp_blocking;
        ] );
      ( "agreement",
        [ Alcotest.test_case "single stage: JP = S&L = exact" `Quick
            test_single_stage_agreement ] );
      ( "props",
        [ prop_sl_dominates_exact; prop_sl_dominates_sim; prop_holistic_never_tighter ] );
      ( "opa",
        [
          Alcotest.test_case "finds DM solutions" `Quick test_opa_finds_dm_solution;
          Alcotest.test_case "beats DM beyond periods" `Quick test_opa_beats_dm;
          Alcotest.test_case "detects infeasible" `Quick test_opa_infeasible;
          prop_opa_succeeds_when_dm_does;
        ] );
      ( "utilization",
        [
          Alcotest.test_case "LL bound values" `Quick test_ll_bound_values;
          Alcotest.test_case "checks" `Quick test_utilization_checks;
        ] );
    ]
