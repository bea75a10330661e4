(* Cross-validation of the paper's analysis against the event-driven
   simulator, plus hand-computed classic examples.

   The load-bearing properties:
   - SPP exact analysis (Theorem 3) reproduces the simulation exactly:
     identical departure functions and identical worst-case response times.
   - SPNP and FCFS bounds (Theorems 5-9) bracket the simulation:
     dep_lo <= dep_sim <= dep_hi pointwise, and every response-time verdict
     dominates the simulated worst response. *)

open Rta_model
module Step = Rta_curve.Step
module Pl = Rta_curve.Pl
module Sg = Rta_testsupport.Sysgen

let horizon = 400
let release_horizon = 200
let cfg = Rta_core.Analysis.config ~release_horizon ~horizon ()

let check_int = Alcotest.(check int)

let analyze system =
  match Rta_core.Engine.run ~release_horizon ~horizon system with
  | Ok engine -> engine
  | Error (`Cyclic _) -> Alcotest.fail "unexpected cyclic dependency"

(* ------------------------------------------------------------------ *)
(* Hand-computed single-processor SPP cases                            *)
(* ------------------------------------------------------------------ *)

let one_proc_system ?(sched = Sched.Spp) jobs =
  System.make_exn ~schedulers:[| sched |] ~jobs:(Array.of_list jobs)

let job ?(deadline = 1000) name arrival steps =
  { System.name; arrival; deadline; steps = Array.of_list steps }

let test_single_task () =
  (* One periodic task alone: response = execution time, every instance. *)
  let s =
    one_proc_system
      [ job "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  let e = analyze s in
  Alcotest.(check bool) "exact" true (Rta_core.Engine.is_exact e);
  match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:0 with
  | Rta_core.Response.Bounded r -> check_int "response" 3 r
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded"

let test_two_tasks_preemption () =
  (* Classic: H (period 10, exec 3, prio 1), L (period 20, exec 5, prio 2),
     simultaneous release.  L's first instance: 3 + 5 = 8; later instances
     of H preempt L's successors.  Worst response of L within the horizon
     matches the simulation; check the first-instance value directly. *)
  let s =
    one_proc_system
      [
        job "H" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ];
        job "L" (Arrival.Periodic { period = 20; offset = 0 })
          [ { System.proc = 0; exec = 5; prio = 2 } ];
      ]
  in
  let e = analyze s in
  (match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:1 with
  | Rta_core.Response.Bounded r -> check_int "L response" 8 r
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded L");
  match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:0 with
  | Rta_core.Response.Bounded r -> check_int "H response" 3 r
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded H"

let test_spnp_blocking () =
  (* Non-preemptive: H arrives at 1 just after L (exec 6) starts at 0;
     H waits for L: response 5 + 2 = 7. *)
  let s =
    one_proc_system ~sched:Sched.Spnp
      [
        job "H" (Arrival.Trace [| 1 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
        job "L" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 6; prio = 2 } ];
      ]
  in
  let sim = Rta_sim.Sim.run ~release_horizon:horizon s ~horizon in
  check_int "sim H response" 7
    (Option.get (Rta_sim.Sim.worst_response sim 0));
  let e = analyze s in
  match Rta_core.Response.end_to_end e ~estimator:`Direct ~job:0 with
  | Rta_core.Response.Bounded r ->
      Alcotest.(check bool)
        (Printf.sprintf "bound %d >= 7" r)
        true (r >= 7)
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded"

(* EXPERIMENTS.md's counterexample to Theorem 5 as printed: A over B on
   one SPNP processor, both tau = 1 and period 5, released together.  The
   printed recursion subtracts A's lower service bound, 0 until A may have
   been blocked, so it lets B depart at 1; A runs first and B departs
   at 2. *)
let test_as_printed_counterexample () =
  let s =
    Builder.(
      create [ spnp ]
      |> job "A" ~arrival:(periodic 5.0) ~deadline:5.0 ~chain:[ on 0 1.0 ~prio:1 () ]
      |> job "B" ~arrival:(periodic 5.0) ~deadline:5.0 ~chain:[ on 0 1.0 ~prio:2 () ]
      |> build_exn)
  in
  let bound = function Verdict.Bounded r -> Some r | Verdict.Unbounded -> None in
  let release_horizon, horizon = System.suggested_horizons s in
  let printed = Rta_check.Reference.as_printed ~release_horizon ~horizon s in
  Alcotest.(check (option int)) "as printed bounds B at 1000" (Some 1000)
    (bound (Rta_core.Response.end_to_end printed ~estimator:`Direct ~job:1));
  let sim = Rta_sim.Sim.run ~release_horizon s ~horizon in
  Alcotest.(check (option int)) "simulated worst of B" (Some 2000)
    (Rta_sim.Sim.worst_response sim 1);
  Alcotest.(check (option int)) "analysis bounds B at 2000" (Some 2000)
    (bound (Rta_core.Analysis.run s).Rta_core.Analysis.per_job.(1))

let test_two_stage_pipeline () =
  (* Two-stage chain alone in the system: end-to-end = tau1 + tau2 for every
     instance; the exact analysis must find exactly that. *)
  let s =
    System.make_exn
      ~schedulers:[| Sched.Spp; Sched.Spp |]
      ~jobs:
        [|
          job "A" (Arrival.Periodic { period = 12; offset = 0 })
            [
              { System.proc = 0; exec = 3; prio = 1 };
              { System.proc = 1; exec = 4; prio = 1 };
            ];
        |]
  in
  let e = analyze s in
  match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:0 with
  | Rta_core.Response.Bounded r -> check_int "pipeline response" 7 r
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded"

let test_fcfs_two_jobs () =
  (* FCFS: A (exec 4) arrives at 0, B (exec 3) at 1: B waits: resp 3+3=6. *)
  let s =
    one_proc_system ~sched:Sched.Fcfs
      [
        job "A" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 4; prio = 1 } ];
        job "B" (Arrival.Trace [| 1 |]) [ { System.proc = 0; exec = 3; prio = 1 } ];
      ]
  in
  let sim = Rta_sim.Sim.run ~release_horizon:horizon s ~horizon in
  check_int "sim B response" 6 (Option.get (Rta_sim.Sim.worst_response sim 1));
  let e = analyze s in
  (match Rta_core.Response.end_to_end e ~estimator:`Direct ~job:1 with
  | Rta_core.Response.Bounded r -> Alcotest.(check bool) "bound >= 6" true (r >= 6)
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded");
  (* A arrived first: bound for A must cover 4 and stay modest. *)
  match Rta_core.Response.end_to_end e ~estimator:`Direct ~job:0 with
  | Rta_core.Response.Bounded r -> Alcotest.(check bool) "bound >= 4" true (r >= 4)
  | Rta_core.Response.Unbounded -> Alcotest.fail "unbounded A"

(* ------------------------------------------------------------------ *)
(* Simulator sanity                                                    *)
(* ------------------------------------------------------------------ *)

let test_sim_work_conserving () =
  (* Total busy time equals total executed work when everything fits. *)
  let s =
    one_proc_system
      [
        job "A" (Arrival.Trace [| 0; 10 |]) [ { System.proc = 0; exec = 3; prio = 1 } ];
        job "B" (Arrival.Trace [| 2 |]) [ { System.proc = 0; exec = 4; prio = 2 } ];
      ]
  in
  let sim = Rta_sim.Sim.run ~release_horizon:horizon s ~horizon in
  check_int "busy total" 10 (Pl.eval sim.Rta_sim.Sim.busy.(0) horizon);
  check_int "A served" 6 (Pl.eval sim.Rta_sim.Sim.service.(0).(0) horizon);
  check_int "B served" 4 (Pl.eval sim.Rta_sim.Sim.service.(1).(0) horizon)

let test_sim_preemption_trace () =
  (* H: exec 2 at t=1; L: exec 5 at t=0 (SPP).  L runs [0,1), preempted,
     resumes [3,7): L completes at 7, H at 3. *)
  let s =
    one_proc_system
      [
        job "H" (Arrival.Trace [| 1 |]) [ { System.proc = 0; exec = 2; prio = 1 } ];
        job "L" (Arrival.Trace [| 0 |]) [ { System.proc = 0; exec = 5; prio = 2 } ];
      ]
  in
  let sim = Rta_sim.Sim.run ~release_horizon:horizon s ~horizon in
  check_int "H completion" 3
    (Option.get sim.Rta_sim.Sim.per_job.(0).(0).Rta_sim.Sim.completed);
  check_int "L completion" 7
    (Option.get sim.Rta_sim.Sim.per_job.(1).(0).Rta_sim.Sim.completed)

(* ------------------------------------------------------------------ *)
(* Properties: analysis vs simulation on random systems                *)
(* ------------------------------------------------------------------ *)

let qtest = Rta_testsupport.Gen.qtest

let dep_between ~lo ~hi ~sim =
  let ok = ref true in
  for t = 0 to horizon do
    let lo_v = Step.eval lo t and hi_v = Step.eval hi t and s_v = Step.eval sim t in
    if not (lo_v <= s_v && s_v <= hi_v) then ok := false
  done;
  !ok

let for_all_subjobs system f =
  let ok = ref true in
  for j = 0 to System.job_count system - 1 do
    let steps = (System.job system j).System.steps in
    for st = 0 to Array.length steps - 1 do
      if not (f { System.job = j; step = st }) then ok := false
    done
  done;
  !ok

let prop_spp_exact_matches_sim =
  let gen = Sg.system_gen ~sched_gen:(QCheck2.Gen.return Sched.Spp) ~release_horizon () in
  qtest ~count:150 "SPP exact analysis = simulation (departures + responses)"
    gen Sg.print_system (fun system ->
      let e = analyze system in
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      let deps_match =
        for_all_subjobs system (fun id ->
            let entry = Rta_core.Engine.entry e id in
            let sim_dep = sim.Rta_sim.Sim.departures.(id.System.job).(id.System.step) in
            (* Compare within the horizon only: the simulator stops at the
               horizon while the analysis curve is truncated there too. *)
            let ok = ref true in
            for t = 0 to horizon do
              if Step.eval entry.Rta_core.Engine.dep_lo t <> Step.eval sim_dep t
              then ok := false
            done;
            !ok)
      in
      let responses_match =
        let ok = ref true in
        for j = 0 to System.job_count system - 1 do
          match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:j with
          | Rta_core.Response.Bounded r ->
              if not (Rta_sim.Sim.all_completed sim j) then ok := false
              else if Rta_sim.Sim.worst_response sim j <> Some r then
                if Rta_core.Response.instance_count e ~job:j > 0 then ok := false
          | Rta_core.Response.Unbounded ->
              if Rta_sim.Sim.all_completed sim j
                 && Rta_core.Response.instance_count e ~job:j > 0
              then ok := false
        done;
        !ok
      in
      deps_match && responses_match)

let prop_bounds_bracket_sim sched name =
  let gen = Sg.system_gen ~sched_gen:(QCheck2.Gen.return sched) ~release_horizon () in
  qtest ~count:150 name gen Sg.print_system (fun system ->
      let e = analyze system in
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      let deps_bracket =
        for_all_subjobs system (fun id ->
            let entry = Rta_core.Engine.entry e id in
            dep_between ~lo:entry.Rta_core.Engine.dep_lo
              ~hi:(Lazy.force entry.Rta_core.Engine.dep_hi)
              ~sim:sim.Rta_sim.Sim.departures.(id.System.job).(id.System.step))
      in
      let responses_dominate =
        let ok = ref true in
        for j = 0 to System.job_count system - 1 do
          let sim_worst = Rta_sim.Sim.worst_response sim j in
          List.iter
            (fun estimator ->
              match
                (Rta_core.Response.end_to_end e ~estimator ~job:j, sim_worst)
              with
              | Rta_core.Response.Bounded r, Some w -> if r < w then ok := false
              | Rta_core.Response.Bounded _, None -> ()
              | Rta_core.Response.Unbounded, _ -> ())
            [ `Direct; `Sum ]
        done;
        !ok
      in
      deps_bracket && responses_dominate)

let prop_spnp_bounds = prop_bounds_bracket_sim Sched.Spnp "SPNP bounds bracket simulation"
let prop_fcfs_bounds = prop_bounds_bracket_sim Sched.Fcfs "FCFS bounds bracket simulation"

let prop_mixed_bounds =
  let gen = Sg.system_gen ~release_horizon () in
  qtest ~count:150 "mixed-scheduler bounds bracket simulation" gen
    Sg.print_system (fun system ->
      let e = analyze system in
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      for_all_subjobs system (fun id ->
          let entry = Rta_core.Engine.entry e id in
          dep_between ~lo:entry.Rta_core.Engine.dep_lo
            ~hi:(Lazy.force entry.Rta_core.Engine.dep_hi)
            ~sim:sim.Rta_sim.Sim.departures.(id.System.job).(id.System.step)))

let prop_fcfs_tie_free_exact =
  (* Beyond the paper: without cross-subjob release ties, the FCFS analysis
     is exact.  Jobs get pairwise coprime-ish periods and distinct offsets,
     single stage, so ties cannot occur; departures must equal the
     simulation tick for tick. *)
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 1 4 in
    let* specs =
      list_repeat n
        (let* period_base = int_range 3 12 in
         let* tau = int_range 1 3 in
         return (period_base, tau))
    in
    return specs
  in
  qtest ~count:100 "FCFS is exact on tie-free single-stage systems" gen
    (fun specs ->
      String.concat ";" (List.map (fun (p, t) -> Printf.sprintf "(%d,%d)" p t) specs))
    (fun specs ->
      let primes = [| 101; 103; 107; 109 |] in
      let jobs =
        List.mapi
          (fun i (period_base, tau) ->
            {
              System.name = Printf.sprintf "T%d" i;
              (* Distinct prime periods and distinct offsets: release times
                 i + m * prime never coincide across jobs within the
                 horizon (well below the pairwise lcm). *)
              arrival =
                Arrival.Periodic { period = primes.(i) + period_base; offset = i + 1 };
              deadline = 100000;
              steps = [| { System.proc = 0; exec = tau; prio = 1 } |];
            })
          specs
        |> Array.of_list
      in
      let system = System.make_exn ~schedulers:[| Sched.Fcfs |] ~jobs in
      (* The distinct offsets make most instances tie-free, but period sums
         can still collide; compute ground truth and require the engine's
         exactness claim to match it, and the claim to be honest. *)
      let tie_free =
        let seen = Hashtbl.create 64 in
        let ok = ref true in
        Array.iteri
          (fun j job ->
            Array.iter
              (fun t ->
                match Hashtbl.find_opt seen t with
                | Some j' when j' <> j -> ok := false
                | Some _ | None -> Hashtbl.replace seen t j)
              (Arrival.release_times job.System.arrival ~horizon:release_horizon))
          jobs;
        !ok
      in
      let e = analyze system in
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      Rta_core.Engine.is_exact e = tie_free
      && ((not tie_free)
         || for_all_subjobs system (fun id ->
                let entry = Rta_core.Engine.entry e id in
                let sim_dep =
                  sim.Rta_sim.Sim.departures.(id.System.job).(id.System.step)
                in
                let ok = ref true in
                for t = 0 to horizon do
                  if
                    Step.eval entry.Rta_core.Engine.dep_lo t
                    <> Step.eval sim_dep t
                  then ok := false
                done;
                !ok)))

let prop_sum_dominates_direct =
  let gen = Sg.system_gen ~release_horizon () in
  qtest ~count:100 "Thm 4 sum estimator is never tighter than direct" gen
    Sg.print_system (fun system ->
      let e = analyze system in
      let ok = ref true in
      for j = 0 to System.job_count system - 1 do
        match
          ( Rta_core.Response.end_to_end e ~estimator:`Direct ~job:j,
            Rta_core.Response.end_to_end e ~estimator:`Sum ~job:j )
        with
        | Rta_core.Response.Bounded d, Rta_core.Response.Bounded s ->
            if s < d then ok := false
        | Rta_core.Response.Unbounded, Rta_core.Response.Bounded _ -> ok := false
        | _, Rta_core.Response.Unbounded -> ()
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Fixpoint: cyclic systems (Section 6 extension)                      *)
(* ------------------------------------------------------------------ *)

let cyclic_system () =
  (* Two jobs crossing two SPP processors in opposite orders with
     interlocking priorities: T1 = P0 -> P1, T2 = P1 -> P0; on each
     processor the "incoming" subjob outranks the resident one.  The
     dependency graph is cyclic ("logical loop"). *)
  System.make_exn
    ~schedulers:[| Sched.Spp; Sched.Spp |]
    ~jobs:
      [|
        job "T1"
          (Arrival.Periodic { period = 20; offset = 0 })
          [
            { System.proc = 0; exec = 2; prio = 2 };
            { System.proc = 1; exec = 3; prio = 1 };
          ];
        job "T2"
          (Arrival.Periodic { period = 25; offset = 3 })
          [
            { System.proc = 1; exec = 2; prio = 2 };
            { System.proc = 0; exec = 3; prio = 1 };
          ];
      |]

let test_cyclic_detected () =
  match Rta_core.Deps.compute (cyclic_system ()) with
  | Rta_core.Deps.Acyclic _ -> Alcotest.fail "expected a cyclic dependency graph"
  | Rta_core.Deps.Cyclic stuck ->
      Alcotest.(check bool) "some subjobs stuck" true (List.length stuck > 0)

(* The components against the relation the join points replaced, where
   every FCFS resident lists each co-resident's chain predecessor itself
   (O(N^2) edges per processor).  Over that relation two subjobs share a
   component exactly when each reaches the other, a subjob is on a cycle
   exactly when it reaches itself, and a component must come after every
   subjob its members depend on.  [Deps.compute] must agree: [Acyclic]
   in a topological order of the relation, [Cyclic] listing exactly the
   subjobs on a cycle. *)
let pairwise_deps system (id : System.subjob_id) =
  let pred (id : System.subjob_id) =
    if id.step = 0 then None else Some { id with System.step = id.step - 1 }
  in
  let p = (System.step system id).System.proc in
  let local =
    match System.scheduler_of system p with
    | Sched.Fcfs ->
        List.filter_map
          (fun o -> if o = id then None else pred o)
          (System.subjobs_on system p)
    | Sched.Spp | Sched.Spnp ->
        let rec above = function
          | h :: (x :: _ as rest) -> if x = id then [ h ] else above rest
          | _ -> []
        in
        above (System.by_priority system p)
  in
  List.sort_uniq compare (Option.to_list (pred id) @ local)

let agrees_with_pairwise system =
  let all =
    List.concat
      (List.init (System.job_count system) (fun j ->
           List.init
             (Array.length (System.job system j).System.steps)
             (fun s -> { System.job = j; step = s })))
  in
  let ids = Array.of_list all in
  let n = Array.length ids in
  let index = Hashtbl.create 64 in
  Array.iteri (fun k id -> Hashtbl.replace index id k) ids;
  let deps = Array.map (fun id -> List.map (Hashtbl.find index) (pairwise_deps system id)) ids in
  (* Reachability over at least one edge (Floyd-Warshall). *)
  let reach = Array.make_matrix n n false in
  Array.iteri (fun u ds -> List.iter (fun d -> reach.(u).(d) <- true) ds) deps;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if reach.(i).(k) then
        for j = 0 to n - 1 do
          if reach.(k).(j) then reach.(i).(j) <- true
        done
    done
  done;
  let ok = ref true in
  let pos = Array.make n (-1) in
  List.iteri
    (fun c component ->
      let members, cyclic =
        match component with
        | Rta_core.Deps.Single id -> ([ id ], false)
        | Rta_core.Deps.Loop ids -> (ids, true)
      in
      if members <> List.sort_uniq compare members then ok := false;
      List.iter
        (fun id ->
          let u = Hashtbl.find index id in
          if pos.(u) >= 0 || reach.(u).(u) <> cyclic then ok := false;
          pos.(u) <- c)
        members)
    (Rta_core.Deps.components system);
  for u = 0 to n - 1 do
    if pos.(u) < 0 then ok := false;
    List.iter (fun d -> if pos.(d) > pos.(u) then ok := false) deps.(u);
    for v = 0 to n - 1 do
      if (pos.(u) = pos.(v)) <> (u = v || (reach.(u).(v) && reach.(v).(u))) then
        ok := false
    done
  done;
  let on_cycle = List.filter (fun id -> let u = Hashtbl.find index id in reach.(u).(u)) all in
  !ok
  &&
  match Rta_core.Deps.compute system with
  | Rta_core.Deps.Acyclic order ->
      let rank = Hashtbl.create 64 in
      List.iteri (fun r id -> Hashtbl.replace rank (Hashtbl.find index id) r) order;
      on_cycle = []
      && List.sort compare order = all
      && Array.for_all Fun.id
           (Array.mapi
              (fun u ds ->
                List.for_all (fun d -> Hashtbl.find rank d < Hashtbl.find rank u) ds)
              deps)
  | Rta_core.Deps.Cyclic stuck -> on_cycle <> [] && stuck = on_cycle

let test_deps_join_order () =
  List.iter
    (fun (sched, jobs) ->
      let config =
        Rta_workload.Jobshop.default ~stages:3 ~jobs ~utilization:0.5
          ~arrival:Rta_workload.Jobshop.Periodic_eq25
          ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0) ~sched
      in
      let system = Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make 7) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %d jobs" (Sched.to_string sched) jobs)
        true (agrees_with_pairwise system))
    [ (Sched.Fcfs, 6); (Sched.Fcfs, 12); (Sched.Fcfs, 24); (Sched.Spnp, 12) ]

(* Mixed schedulers, shared processors and cycles: the fuzz generator's
   systems. *)
let prop_deps_join_order =
  qtest ~count:300 "dependency order = pairwise FCFS relation"
    (QCheck2.Gen.map
       (fun seed -> (Rta_check.Gen.generate (Rta_workload.Rng.make seed)).system)
       (QCheck2.Gen.int_range 0 1_000_000))
    Sg.print_system agrees_with_pairwise

let test_fixpoint_on_cycle () =
  (* The paper leaves convergence of the Section 6 iteration open; on
     mutually-cyclic windows it can creep with unit loop gain.  The
     implementation must stay sound either way: a Bounded verdict must
     dominate the simulation, and non-convergence must surface as
     Unbounded (reject), never as an optimistic bound. *)
  let system = cyclic_system () in
  let config = Rta_core.Analysis.config ~release_horizon ~horizon () in
  let fp = Rta_core.Analysis.run ~config system in
  let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
  Array.iteri
    (fun j v ->
      match (v, Rta_sim.Sim.worst_response sim j) with
      | Verdict.Bounded b, Some w ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d: fixpoint %d >= sim %d" j b w)
            true (b >= w)
      | Verdict.Bounded _, None | Verdict.Unbounded, _ -> ())
    fp.Rta_core.Analysis.per_job;
  (* The jitter-based S&L iteration is convergent on cyclic SPP systems
     (interference is counted on the release clock), so it complements the
     window-based fixpoint there. *)
  match Rta_baselines.Sunliu.analyze system with
  | Error e -> Alcotest.fail e
  | Ok sl ->
      Array.iteri
        (fun j v ->
          match (v, Rta_sim.Sim.worst_response sim j) with
          | Rta_baselines.Sunliu.Bounded b, Some w ->
              Alcotest.(check bool)
                (Printf.sprintf "job %d: S&L %d >= sim %d" j b w)
                true (b >= w)
          | Rta_baselines.Sunliu.Bounded _, None -> ()
          | Rta_baselines.Sunliu.Unbounded, _ ->
              Alcotest.fail "S&L should converge on this cyclic system")
        sl.Rta_baselines.Sunliu.per_job

let prop_fixpoint_dominates_sim =
  let gen = Sg.system_gen ~release_horizon () in
  qtest ~count:60 "fixpoint bounds dominate simulation (acyclic systems too)"
    gen Sg.print_system (fun system ->
      let fp = Rta_check.Reference.jacobi ~release_horizon ~horizon system in
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      let ok = ref true in
      Array.iteri
        (fun j v ->
          match (v, Rta_sim.Sim.worst_response sim j) with
          | Verdict.Bounded b, Some w -> if b < w then ok := false
          | Verdict.Bounded _, None | Verdict.Unbounded, _ -> ())
        fp.Rta_check.Reference.per_job;
      !ok)

(* The production answer on cyclic systems, which iterates each loop on
   its own ({!Rta_core.Engine}), against the textbook Section 6 iteration
   over the whole system ({!Rta_check.Reference.jacobi}) and the
   simulator, per job: no looser than the whole-system iteration, bounded
   wherever it is, and never below the simulated worst.  One message per
   broken relation. *)
let loops_vs_whole ~release_horizon ~horizon system =
  let config = Rta_core.Analysis.config ~release_horizon ~horizon () in
  let a = Rta_core.Analysis.run ~config system in
  let fp = Rta_check.Reference.jacobi ~release_horizon ~horizon system in
  let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
  List.concat
    (List.init (System.job_count system) (fun j ->
         let name = (System.job system j).System.name in
         (match (a.Rta_core.Analysis.per_job.(j), fp.Rta_check.Reference.per_job.(j)) with
         | Verdict.Bounded x, Verdict.Bounded y when x > y ->
             [ Printf.sprintf "%s: %d above the whole-system iteration's %d" name x y ]
         | Verdict.Unbounded, Verdict.Bounded y ->
             [ Printf.sprintf "%s: unbounded, the whole-system iteration %d" name y ]
         | _ -> [])
         @
         match (a.Rta_core.Analysis.per_job.(j), Rta_sim.Sim.worst_response sim j) with
         | Verdict.Bounded x, Some w when x < w ->
             [ Printf.sprintf "%s: %d below the simulated %d" name x w ]
         | _ -> []))

let test_loops_vs_whole_system () =
  let generated =
    List.filter_map
      (fun seed ->
        let c = Rta_check.Gen.generate (Rta_workload.Rng.make seed) in
        match Rta_core.Deps.compute c.Rta_check.Gen.system with
        | Rta_core.Deps.Cyclic _ ->
            Some
              ( Printf.sprintf "generated seed %d" seed,
                c.Rta_check.Gen.system,
                c.Rta_check.Gen.release_horizon,
                c.Rta_check.Gen.horizon )
        | Rta_core.Deps.Acyclic _ -> None)
      (List.init 10_000 Fun.id)
  in
  Alcotest.(check bool) "a few hundred generated loops" true (List.length generated > 200);
  let shaped =
    let suggested name s =
      let rh, h = System.suggested_horizons s in
      (name, s, rh, h)
    in
    suggested "FCFS loop" (Rta_testsupport.Loops.fcfs_loop ())
    :: List.map
         (fun load ->
           ( Printf.sprintf "east/west x%.1f" load,
             Rta_testsupport.Loops.east_west ~load,
             Time.of_units 200.0,
             Time.of_units 400.0 ))
         [ 0.2; 1.0; 3.0 ]
  in
  List.iter
    (fun (name, system, release_horizon, horizon) ->
      Alcotest.(check (list string)) name [] (loops_vs_whole ~release_horizon ~horizon system))
    (generated @ shaped)

let test_analysis_facade () =
  (* Method dispatch: all-SPP acyclic -> Exact; SPNP -> Approximate;
     cyclic -> Fixpoint. *)
  let spp =
    one_proc_system
      [ job "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  let r = Rta_core.Analysis.run ~config:cfg spp in
  Alcotest.(check bool) "exact" true (r.Rta_core.Analysis.method_used = `Exact);
  Alcotest.(check bool) "schedulable" true r.Rta_core.Analysis.schedulable;
  let spnp =
    one_proc_system ~sched:Sched.Spnp
      [ job "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  let r2 = Rta_core.Analysis.run ~config:cfg spnp in
  Alcotest.(check bool) "approx" true
    (r2.Rta_core.Analysis.method_used = `Approximate);
  let r3 = Rta_core.Analysis.run ~config:cfg (cyclic_system ()) in
  Alcotest.(check bool) "fixpoint" true
    (r3.Rta_core.Analysis.method_used = `Fixpoint)

let test_empty_trace_job () =
  (* A job that never releases: trivially schedulable, response 0. *)
  let s =
    one_proc_system
      [
        job "ghost" (Arrival.Trace [||]) [ { System.proc = 0; exec = 5; prio = 1 } ];
        job "real" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 2 } ];
      ]
  in
  let e = analyze s in
  (match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:0 with
  | Rta_core.Response.Bounded r -> check_int "ghost response" 0 r
  | Rta_core.Response.Unbounded -> Alcotest.fail "ghost unbounded");
  check_int "no instances" 0 (Rta_core.Response.instance_count e ~job:0);
  (* The ghost contributes no interference: the real job is alone. *)
  match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:1 with
  | Rta_core.Response.Bounded r -> check_int "real response" 3 r
  | Rta_core.Response.Unbounded -> Alcotest.fail "real unbounded"

let test_deadline_exactly_met () =
  let s =
    one_proc_system
      [ job ~deadline:3 "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  let e = analyze s in
  Alcotest.(check bool) "exactly met is schedulable" true
    (Rta_core.Response.schedulable e ~estimator:`Exact);
  let tight =
    one_proc_system
      [ job ~deadline:2 "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  let e2 = analyze tight in
  Alcotest.(check bool) "one tick over misses" false
    (Rta_core.Response.schedulable e2 ~estimator:`Exact)

let test_horizon_edge_unbounded () =
  (* An instance released at the very end of the release horizon whose
     departure falls past the analysis horizon must yield Unbounded, never
     a wrong bound. *)
  let s =
    one_proc_system
      [ job "A" (Arrival.Trace [| release_horizon |])
          [ { System.proc = 0; exec = horizon; prio = 1 } ] ]
  in
  let e = analyze s in
  match Rta_core.Response.end_to_end e ~estimator:`Exact ~job:0 with
  | Rta_core.Response.Unbounded -> ()
  | Rta_core.Response.Bounded r -> Alcotest.failf "expected unbounded, got %d" r

let prop_sum_equals_direct_single_stage =
  let gen =
    Sg.system_gen ~sched_gen:(QCheck2.Gen.oneofl [ Sched.Spnp; Sched.Fcfs ])
      ~release_horizon ()
  in
  qtest ~count:100 "on single-stage jobs, Thm 4 sum = direct" gen
    Sg.print_system (fun system ->
      let e = analyze system in
      let ok = ref true in
      for j = 0 to System.job_count system - 1 do
        if Array.length (System.job system j).System.steps = 1 then
          match
            ( Rta_core.Response.end_to_end e ~estimator:`Direct ~job:j,
              Rta_core.Response.end_to_end e ~estimator:`Sum ~job:j )
          with
          | Rta_core.Response.Bounded a, Rta_core.Response.Bounded b ->
              if a <> b then ok := false
          | Rta_core.Response.Unbounded, Rta_core.Response.Unbounded -> ()
          | _ -> ok := false
      done;
      !ok)

let prop_per_instance_matches_sim =
  let gen = Sg.system_gen ~sched_gen:(QCheck2.Gen.return Sched.Spp) ~release_horizon () in
  qtest ~count:100 "per-instance responses match simulation exactly (SPP)" gen
    Sg.print_system (fun system ->
      let e = analyze system in
      let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
      let ok = ref true in
      for j = 0 to System.job_count system - 1 do
        let simulated = Rta_sim.Sim.response_times sim j in
        List.iter
          (fun (m, v) ->
            match (v, List.assoc_opt m simulated) with
            | Rta_core.Response.Bounded r, Some w -> if r <> w then ok := false
            | Rta_core.Response.Bounded _, None ->
                (* Analysis found a departure the simulation did not
                   complete within the horizon: impossible when exact. *)
                ok := false
            | Rta_core.Response.Unbounded, Some _ -> ok := false
            | Rta_core.Response.Unbounded, None -> ())
          (Rta_core.Response.per_instance e ~job:j)
      done;
      !ok)

let prop_time_scaling_invariance =
  (* Scaling every time quantity (periods, offsets, executions, deadlines)
     by an integer factor scales every exact response by exactly that
     factor — a strong structural invariant of the integer analysis. *)
  let gen = Sg.system_gen ~sched_gen:(QCheck2.Gen.return Sched.Spp) ~release_horizon () in
  qtest ~count:80 "integer time scaling scales exact responses" gen
    Sg.print_system (fun system ->
      let k = 3 in
      let scale_arrival = function
        | Arrival.Periodic { period; offset } ->
            Arrival.Periodic { period = k * period; offset = k * offset }
        | Arrival.Bursty _ as bursty ->
            (* Eq. 27's shape carries an intrinsic time unit (the "1" under
               the square root), so the pattern itself does not scale;
               scale its expanded trace instead. *)
            Arrival.Trace
              (Array.map
                 (fun t -> k * t)
                 (Arrival.release_times bursty ~horizon:release_horizon))
        | Arrival.Burst_periodic { burst; period; offset } ->
            Arrival.Burst_periodic { burst; period = k * period; offset = k * offset }
        | Arrival.Sporadic_worst { min_gap; count } ->
            Arrival.Sporadic_worst { min_gap = k * min_gap; count }
        | Arrival.Trace times -> Arrival.Trace (Array.map (fun t -> k * t) times)
      in
      let jobs =
        Array.init (System.job_count system) (fun j ->
            let job = System.job system j in
            {
              job with
              System.arrival = scale_arrival job.System.arrival;
              deadline = k * job.System.deadline;
              steps =
                Array.map
                  (fun (s : System.step) -> { s with System.exec = k * s.System.exec })
                  job.System.steps;
            })
      in
      let schedulers =
        Array.init (System.processor_count system) (System.scheduler_of system)
      in
      let scaled = System.make_exn ~schedulers ~jobs in
      match
        ( Rta_core.Engine.run ~release_horizon ~horizon system,
          Rta_core.Engine.run ~release_horizon:(k * release_horizon)
            ~horizon:(k * horizon) scaled )
      with
      | Ok e1, Ok e2 ->
          let ok = ref true in
          for j = 0 to System.job_count system - 1 do
            match
              ( Rta_core.Response.end_to_end e1 ~estimator:`Exact ~job:j,
                Rta_core.Response.end_to_end e2 ~estimator:`Exact ~job:j )
            with
            | Rta_core.Response.Bounded a, Rta_core.Response.Bounded b ->
                if b <> k * a then ok := false
            | Rta_core.Response.Unbounded, Rta_core.Response.Unbounded -> ()
            | _ -> ok := false
          done;
          !ok
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Envelope analysis (horizon-free extension)                          *)
(* ------------------------------------------------------------------ *)

let test_envelope_single_source () =
  (* One periodic source alone: response = tau. *)
  let sources =
    [
      {
        Rta_core.Envelope_analysis.name = "A";
        envelope = Rta_curve.Envelope.periodic ~period:10 ();
        tau = 3;
        prio = 1;
      };
    ]
  in
  match Rta_core.Envelope_analysis.response_bound ~sched:Sched.Spp ~sources 0 with
  | Rta_core.Envelope_analysis.Bounded r -> check_int "alone" 3 r
  | Rta_core.Envelope_analysis.Unbounded -> Alcotest.fail "unbounded"

let test_envelope_classic_pair () =
  (* The Liu&Layland pair from the baseline tests: H (5,2), L (10,4):
     envelope bound for L must equal the classic response 8 (critical
     instant = the envelope's worst trace). *)
  let sources =
    [
      {
        Rta_core.Envelope_analysis.name = "H";
        envelope = Rta_curve.Envelope.periodic ~period:5 ();
        tau = 2;
        prio = 1;
      };
      {
        Rta_core.Envelope_analysis.name = "L";
        envelope = Rta_curve.Envelope.periodic ~period:10 ();
        tau = 4;
        prio = 2;
      };
    ]
  in
  (match Rta_core.Envelope_analysis.response_bound ~sched:Sched.Spp ~sources 1 with
  | Rta_core.Envelope_analysis.Bounded r -> check_int "L" 8 r
  | Rta_core.Envelope_analysis.Unbounded -> Alcotest.fail "unbounded L");
  match Rta_core.Envelope_analysis.response_bound ~sched:Sched.Spp ~sources 0 with
  | Rta_core.Envelope_analysis.Bounded r -> check_int "H" 2 r
  | Rta_core.Envelope_analysis.Unbounded -> Alcotest.fail "unbounded H"

let test_envelope_overload_unbounded () =
  let source tau prio =
    {
      Rta_core.Envelope_analysis.name = "x";
      envelope = Rta_curve.Envelope.periodic ~period:10 ();
      tau;
      prio;
    }
  in
  match
    Rta_core.Envelope_analysis.response_bound ~sched:Sched.Spp
      ~sources:[ source 6 1; source 6 2 ] 1
  with
  | Rta_core.Envelope_analysis.Unbounded -> ()
  | Rta_core.Envelope_analysis.Bounded _ -> Alcotest.fail "overload must be unbounded"

let prop_envelope_dominates_trace_analysis =
  (* On synchronous periodic single-processor systems the envelope bound
     must dominate the exact trace analysis (the envelope's critical
     instant IS the synchronous release) — and the simulator. *)
  let gen =
    let open QCheck2.Gen in
    let* n = int_range 1 4 in
    let* specs =
      list_repeat n
        (let* period = int_range 6 30 in
         let* tau = int_range 1 4 in
         return (period, tau))
    in
    let* sched = oneofl [ Sched.Spp; Sched.Spnp; Sched.Fcfs ] in
    return (specs, sched)
  in
  qtest ~count:100 "envelope bounds dominate trace analysis and simulation" gen
    (fun (specs, sched) ->
      Printf.sprintf "%s %s"
        (Sched.to_string sched)
        (String.concat ";" (List.map (fun (p, t) -> Printf.sprintf "(%d,%d)" p t) specs)))
    (fun (specs, sched) ->
      let total_rate =
        List.fold_left (fun acc (p, t) -> acc +. (float_of_int t /. float_of_int p)) 0. specs
      in
      if total_rate >= 0.95 then true
      else begin
        let sources =
          List.mapi
            (fun i (period, tau) ->
              {
                Rta_core.Envelope_analysis.name = Printf.sprintf "T%d" i;
                envelope = Rta_curve.Envelope.periodic ~period ();
                tau;
                prio = i + 1;
              })
            specs
        in
        let jobs =
          List.mapi
            (fun i (period, tau) ->
              {
                System.name = Printf.sprintf "T%d" i;
                arrival = Arrival.Periodic { period; offset = 0 };
                deadline = 100000;
                steps = [| { System.proc = 0; exec = tau; prio = i + 1 } |];
              })
            specs
          |> Array.of_list
        in
        let system = System.make_exn ~schedulers:[| sched |] ~jobs in
        let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
        let bounds = Rta_core.Envelope_analysis.all_bounds ~sched ~sources in
        let ok = ref true in
        Array.iteri
          (fun i v ->
            match (v, Rta_sim.Sim.worst_response sim i) with
            | Rta_core.Envelope_analysis.Bounded b, Some w -> if b < w then ok := false
            | Rta_core.Envelope_analysis.Bounded _, None
            | Rta_core.Envelope_analysis.Unbounded, _ ->
                ())
          bounds;
        !ok
      end)

(* ------------------------------------------------------------------ *)
(* Pipeline envelope analysis                                          *)
(* ------------------------------------------------------------------ *)

let envelope_bounds system =
  let release_horizon, _ = System.suggested_horizons system in
  match Rta_core.Envelope_analysis.system_bounds ~release_horizon system with
  | Some result -> result
  | None -> Alcotest.fail "unexpected cyclic dependency"

let test_pipeline_single_stage_consistency () =
  (* A one-stage system must agree with the single-processor bound. *)
  let specs = [ ("A", 10, 3, 1); ("B", 15, 4, 2) ] in
  let system =
    one_proc_system
      (List.map
         (fun (name, period, exec, prio) ->
           job name (Arrival.Periodic { period; offset = 0 })
             [ { System.proc = 0; exec; prio } ])
         specs)
  in
  let flat =
    List.map
      (fun (name, period, tau, prio) ->
        {
          Rta_core.Envelope_analysis.name;
          envelope = Rta_curve.Envelope.periodic ~period ();
          tau;
          prio;
        })
      specs
  in
  let pipe = envelope_bounds system in
  Array.iteri
    (fun i v ->
      let single =
        Rta_core.Envelope_analysis.response_bound ~sched:Sched.Spp ~sources:flat i
      in
      Alcotest.(check bool)
        (Printf.sprintf "source %d consistent" i)
        true
        (match (v, single) with
        | Rta_core.Envelope_analysis.Bounded a, Rta_core.Envelope_analysis.Bounded b
          ->
            a = b
        | Rta_core.Envelope_analysis.Unbounded, Rta_core.Envelope_analysis.Unbounded
          ->
            true
        | _ -> false))
    pipe.Rta_core.Envelope_analysis.end_to_end

let test_pipeline_dominates_trace () =
  (* Two-stage periodic pipeline: the envelope bound must dominate the
     exact trace analysis on the synchronous instantiation. *)
  let specs = [ (12, 2, 3); (18, 3, 2) ] in
  let jobs =
    List.mapi
      (fun i (period, t1, t2) ->
        {
          System.name = Printf.sprintf "T%d" i;
          arrival = Arrival.Periodic { period; offset = 0 };
          deadline = 100000;
          steps =
            [|
              { System.proc = 0; exec = t1; prio = i + 1 };
              { System.proc = 1; exec = t2; prio = i + 1 };
            |];
        })
      specs
    |> Array.of_list
  in
  let system = System.make_exn ~schedulers:[| Sched.Spp; Sched.Spp |] ~jobs in
  let pipe = envelope_bounds system in
  let e = analyze system in
  Array.iteri
    (fun i v ->
      match (v, Rta_core.Response.end_to_end e ~estimator:`Exact ~job:i) with
      | Rta_core.Envelope_analysis.Bounded b, Rta_core.Response.Bounded r ->
          Alcotest.(check bool)
            (Printf.sprintf "source %d: envelope %d >= exact %d" i b r)
            true (b >= r)
      | Rta_core.Envelope_analysis.Unbounded, _ -> ()
      | _, Rta_core.Response.Unbounded -> ())
    pipe.Rta_core.Envelope_analysis.end_to_end

(* Every job's envelope bound is at least its simulated worst response. *)
let check_envelope_dominates_sim system =
  let pipe = envelope_bounds system in
  let release_horizon, horizon = System.suggested_horizons system in
  let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
  Array.iteri
    (fun j v ->
      match (v, Rta_sim.Sim.worst_response sim j) with
      | Rta_core.Envelope_analysis.Bounded b, Some w ->
          Alcotest.(check bool)
            (Printf.sprintf "job %d: envelope %d >= simulated %d" j b w)
            true (b >= w)
      | Rta_core.Envelope_analysis.Bounded _, None
      | Rta_core.Envelope_analysis.Unbounded, _ ->
          ())
    pipe.Rta_core.Envelope_analysis.end_to_end;
  pipe

let test_envelope_request_release_horizon () =
  (* The burst at 20.000 lies past the trace's suggested release horizon
     (10.000).  Bounds standing in for an analysis that releases up to
     30.000 (the service layer's degraded answer) must cover it. *)
  let system =
    match
      Parser.parse
        {|processors spp
job A arrival trace 0,20,20,20 deadline 50
  step proc=0 exec=1 prio=1
|}
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let release_horizon = 30_000 and horizon = 60_000 in
  let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
  let worst = Option.get (Rta_sim.Sim.worst_response sim 0) in
  check_int "the burst is simulated" 3_000 worst;
  match Rta_core.Envelope_analysis.system_bounds ~release_horizon system with
  | Some { end_to_end = [| Rta_core.Envelope_analysis.Bounded b |]; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "envelope %d >= simulated %d" b worst)
        true (b >= worst)
  | _ -> Alcotest.fail "expected one bounded job"

let test_envelope_per_stage_priorities () =
  (* The priority order flips between the stages: A outranks B on P0, B
     outranks A on P1.  A's second stage then waits behind B's 6-unit
     step (simulated worst 7.000 for both jobs); a bound that read only
     the stage-0 priorities would claim 2.000 for A. *)
  let system =
    match
      Parser.parse
        {|processors spp spp
job A arrival periodic period=10.0 offset=1.0 deadline 40.0
  step proc=0 exec=1.0 prio=1
  step proc=1 exec=1.0 prio=2
job B arrival periodic period=10.0 deadline 40.0
  step proc=0 exec=1.0 prio=2
  step proc=1 exec=6.0 prio=1
|}
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let pipe = check_envelope_dominates_sim system in
  match pipe.Rta_core.Envelope_analysis.end_to_end.(0) with
  | Rta_core.Envelope_analysis.Bounded a ->
      Alcotest.(check bool) (Printf.sprintf "A: %d >= 7000" a) true (a >= 7000)
  | Rta_core.Envelope_analysis.Unbounded -> Alcotest.fail "A unbounded"

let test_envelope_two_procs_per_stage () =
  (* A generated Figure 2 shop (two processors per stage, jobs routed to
     either): not a pipeline, but acyclic, so the envelope walk answers. *)
  let system =
    Rta_workload.Jobshop.generate
      (Rta_workload.Jobshop.default ~stages:3 ~jobs:5 ~utilization:0.4
         ~arrival:Rta_workload.Jobshop.Periodic_eq25
         ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0)
         ~sched:Sched.Spp)
      ~rng:(Rta_workload.Rng.make 7)
  in
  check_int "processors" 6 (System.processor_count system);
  ignore (check_envelope_dominates_sim system)

(* ------------------------------------------------------------------ *)
(* Priority search                                                     *)
(* ------------------------------------------------------------------ *)

let test_priority_search_beats_dm () =
  (* The OPA-style example, driven through the distributed engine: T1
     (rho 10, tau 5), T2 (rho 14, tau 6), both deadlines 14.  With T1 on
     top (as given) T2 misses; swapping admits both. *)
  let s =
    one_proc_system
      [
        job ~deadline:14 "T1" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 5; prio = 1 } ];
        job ~deadline:14 "T2" (Arrival.Periodic { period = 14; offset = 0 })
          [ { System.proc = 0; exec = 6; prio = 2 } ];
      ]
  in
  let r = Rta_core.Analysis.run ~config:cfg s in
  Alcotest.(check bool) "as given misses" false r.Rta_core.Analysis.schedulable;
  match Rta_core.Priority_search.search ~config:cfg s with
  | Rta_core.Priority_search.Schedulable fixed ->
      check_int "T2 promoted" 1 (System.job fixed 1).System.steps.(0).System.prio;
      Alcotest.(check bool) "admitted" true
        (Rta_core.Analysis.run ~config:cfg fixed)
          .Rta_core.Analysis.schedulable
  | Rta_core.Priority_search.No_assignment_found _ ->
      Alcotest.fail "search should find the swap"

let test_priority_search_infeasible () =
  let s =
    one_proc_system
      [
        job ~deadline:8 "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 6; prio = 1 } ];
        job ~deadline:8 "B" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 6; prio = 2 } ];
      ]
  in
  match Rta_core.Priority_search.search ~config:cfg s with
  | Rta_core.Priority_search.Schedulable _ -> Alcotest.fail "overload admitted"
  | Rta_core.Priority_search.No_assignment_found { exhaustive; tried } ->
      Alcotest.(check bool) "exhaustive" true exhaustive;
      Alcotest.(check bool) "tried both orders" true (tried >= 2)

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)
(* ------------------------------------------------------------------ *)

let test_sensitivity_scaling () =
  let s =
    one_proc_system
      [ job ~deadline:10 "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 2; prio = 1 } ] ]
  in
  match
    Rta_core.Sensitivity.critical_scaling ~upper_limit:10.0 ~config:cfg s
  with
  | Some lambda ->
      (* ceil(2 * lambda) <= 10 iff lambda <= 5. *)
      Alcotest.(check bool)
        (Printf.sprintf "lambda %.3f near 5" lambda)
        true
        (lambda > 4.9 && lambda <= 5.0)
  | None -> Alcotest.fail "expected a feasible scaling"

let test_sensitivity_infeasible () =
  (* Two-stage chain with a 1-tick deadline: no budget helps. *)
  let s =
    System.make_exn
      ~schedulers:[| Sched.Spp; Sched.Spp |]
      ~jobs:
        [|
          job ~deadline:1 "A" (Arrival.Periodic { period = 10; offset = 0 })
            [
              { System.proc = 0; exec = 5; prio = 1 };
              { System.proc = 1; exec = 5; prio = 1 };
            ];
        |]
  in
  Alcotest.(check bool) "infeasible" true
    (Rta_core.Sensitivity.critical_scaling ~config:cfg s = None)

let test_sensitivity_scale_executions () =
  let s =
    one_proc_system
      [ job "A" (Arrival.Periodic { period = 10; offset = 0 })
          [ { System.proc = 0; exec = 3; prio = 1 } ] ]
  in
  let scaled = Rta_core.Sensitivity.scale_executions s 2.5 in
  check_int "ceil scaling" 8 (System.job scaled 0).System.steps.(0).System.exec;
  let tiny = Rta_core.Sensitivity.scale_executions s 0.0001 in
  check_int "min one tick" 1 (System.job tiny 0).System.steps.(0).System.exec

let test_resolve_horizons_degenerate () =
  (* The horizon-defaulting rule feeds array sizings everywhere downstream;
     on degenerate systems it must stay positive and saturate instead of
     wrapping negative. *)
  let resolve ?release_horizon ?horizon system =
    let config =
      {
        Rta_core.Analysis.default with
        Rta_core.Analysis.release_horizon;
        horizon;
      }
    in
    Rta_core.Analysis.resolve_horizons config system
  in
  let check_positive label (rh, h) =
    Alcotest.(check bool) (label ^ ": release horizon positive") true (rh > 0);
    Alcotest.(check bool) (label ^ ": horizon positive") true (h > 0)
  in
  let huge =
    one_proc_system
      [
        job "huge"
          (Arrival.Periodic { period = max_int / 2; offset = 0 })
          [ { System.proc = 0; exec = 1; prio = 1 } ];
      ]
  in
  check_positive "huge period" (resolve huge);
  Alcotest.(check (pair int int)) "x10/x2 derivations saturate at max_int"
    (max_int, max_int) (resolve huge);
  (* A single-instance trace has no rate to derive from: the floor applies
     and the derived window still covers the release. *)
  let trace =
    one_proc_system
      [
        job "once" (Arrival.Trace [| 5 |])
          [ { System.proc = 0; exec = 2; prio = 1 } ];
      ]
  in
  let rh, h = resolve trace in
  check_positive "single-instance trace" (rh, h);
  Alcotest.(check bool) "derived horizon covers the release window" true
    (h >= rh);
  (* Explicit near-max_int release horizon: the derived [2 * rh] must
     saturate, not overflow. *)
  check_positive "explicit max_int release horizon"
    (resolve ~release_horizon:max_int trace);
  Alcotest.(check int) "derived horizon saturates" max_int
    (snd (resolve ~release_horizon:max_int trace));
  (* Non-positive explicit fields are clamped to 1, never propagated. *)
  check_positive "zero release horizon clamped" (resolve ~release_horizon:0 trace);
  Alcotest.(check int) "clamped to one tick" 1
    (fst (resolve ~release_horizon:0 trace));
  check_positive "negative horizon clamped" (resolve ~horizon:(-3) trace);
  Alcotest.(check int) "negative horizon becomes one" 1
    (snd (resolve ~horizon:(-3) trace))

let test_resolve_horizons_combinations () =
  (* Each field present or absent: explicit values win, and a derived
     release horizon never exceeds the horizon it is analyzed against. *)
  let system =
    one_proc_system
      [
        job "T"
          (Arrival.Periodic { period = 10_000; offset = 0 })
          [ { System.proc = 0; exec = 1_000; prio = 1 } ];
      ]
  in
  let suggested_release, _ = System.suggested_horizons system in
  let small = suggested_release / 2 in
  List.iter
    (fun (release_horizon, horizon) ->
      let label =
        let show = function None -> "-" | Some v -> string_of_int v in
        Printf.sprintf "release %s, horizon %s" (show release_horizon)
          (show horizon)
      in
      let rh, h =
        Rta_core.Analysis.resolve_horizons
          (Rta_core.Analysis.config ?release_horizon ?horizon ())
          system
      in
      Alcotest.(check bool) (label ^ ": release <= horizon") true (rh <= h);
      Option.iter (check_int (label ^ ": explicit release wins") rh) release_horizon;
      Option.iter (check_int (label ^ ": explicit horizon wins") h) horizon)
    [
      (None, None);
      (Some small, None);
      (None, Some small);
      (None, Some (4 * suggested_release));
      (Some small, Some small);
      (Some small, Some suggested_release);
    ]

let test_horizon_only_drain_window () =
  (* [rta generate --stages 2 --jobs 2], analyzed with only [--horizon
     2000]: the derived release horizon leaves half the horizon to drain
     in, so T1's first instance (released at 0, done at 1089) is seen to
     depart.  With the release horizon equal to the horizon, both jobs
     read as unbounded.  T2's chain needs 3305 ticks, past the horizon. *)
  let system =
    Result.get_ok
      (Rta_model.Parser.parse
         {|processors spp spp spp spp
job T1 arrival periodic period=1.571 deadline 3.142
  step proc=0 exec=0.786 prio=1
  step proc=3 exec=0.303 prio=1
job T2 arrival periodic period=4.093 deadline 8.186
  step proc=1 exec=2.047 prio=1
  step proc=3 exec=1.258 prio=2
|})
  in
  let config = Rta_core.Analysis.config ~horizon:2000 () in
  Alcotest.(check (pair int int)) "release horizon is half the horizon"
    (1000, 2000)
    (Rta_core.Analysis.resolve_horizons config system);
  let r = Rta_core.Analysis.run ~config system in
  Alcotest.(check bool) "T1 bounded, T2 past the horizon" true
    (r.Rta_core.Analysis.per_job
    = [| Rta_core.Analysis.Bounded 1089; Rta_core.Analysis.Unbounded |])

let () =
  Alcotest.run "rta_core"
    [
      ( "unit",
        [
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "two tasks, preemption" `Quick test_two_tasks_preemption;
          Alcotest.test_case "SPNP blocking" `Quick test_spnp_blocking;
          Alcotest.test_case "Theorem 5 as printed: counterexample" `Quick
            test_as_printed_counterexample;
          Alcotest.test_case "two-stage pipeline" `Quick test_two_stage_pipeline;
          Alcotest.test_case "FCFS two jobs" `Quick test_fcfs_two_jobs;
        ] );
      ( "sim",
        [
          Alcotest.test_case "work conserving" `Quick test_sim_work_conserving;
          Alcotest.test_case "preemption trace" `Quick test_sim_preemption_trace;
        ] );
      ( "vs-sim",
        [
          prop_spp_exact_matches_sim;
          prop_spnp_bounds;
          prop_fcfs_bounds;
          prop_mixed_bounds;
          prop_fcfs_tie_free_exact;
          prop_sum_dominates_direct;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "cycle detected" `Quick test_cyclic_detected;
          Alcotest.test_case "FCFS join order" `Quick test_deps_join_order;
          prop_deps_join_order;
          Alcotest.test_case "fixpoint on cycle vs sim" `Quick test_fixpoint_on_cycle;
          prop_fixpoint_dominates_sim;
          Alcotest.test_case "loops vs whole system and sim" `Quick
            test_loops_vs_whole_system;
          Alcotest.test_case "facade dispatch" `Quick test_analysis_facade;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty trace job" `Quick test_empty_trace_job;
          Alcotest.test_case "deadline exactly met" `Quick test_deadline_exactly_met;
          Alcotest.test_case "horizon edge" `Quick test_horizon_edge_unbounded;
          Alcotest.test_case "resolve_horizons degenerate" `Quick
            test_resolve_horizons_degenerate;
          prop_sum_equals_direct_single_stage;
          Alcotest.test_case "resolve_horizons field combinations" `Quick
            test_resolve_horizons_combinations;
          Alcotest.test_case "horizon only keeps a drain window" `Quick
            test_horizon_only_drain_window;
        ] );
      ( "invariants",
        [ prop_per_instance_matches_sim; prop_time_scaling_invariance ] );
      ( "envelope-analysis",
        [
          Alcotest.test_case "single source" `Quick test_envelope_single_source;
          Alcotest.test_case "classic pair" `Quick test_envelope_classic_pair;
          Alcotest.test_case "overload unbounded" `Quick test_envelope_overload_unbounded;
          prop_envelope_dominates_trace_analysis;
          Alcotest.test_case "pipeline: single-stage consistency" `Quick
            test_pipeline_single_stage_consistency;
          Alcotest.test_case "pipeline dominates trace" `Quick
            test_pipeline_dominates_trace;
          Alcotest.test_case "per-stage priorities dominate simulation" `Quick
            test_envelope_per_stage_priorities;
          Alcotest.test_case "two processors per stage" `Quick
            test_envelope_two_procs_per_stage;
          Alcotest.test_case "request release horizon dominates simulation"
            `Quick test_envelope_request_release_horizon;
        ] );
      ( "priority-search",
        [
          Alcotest.test_case "finds non-DM assignment" `Quick
            test_priority_search_beats_dm;
          Alcotest.test_case "exhaustive negative" `Quick
            test_priority_search_infeasible;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "critical scaling" `Quick test_sensitivity_scaling;
          Alcotest.test_case "infeasible" `Quick test_sensitivity_infeasible;
          Alcotest.test_case "scale_executions" `Quick test_sensitivity_scale_executions;
        ] );
    ]
