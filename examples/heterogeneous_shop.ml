(* Heterogeneous shop: the same workload under every scheduler mix, showing
   how the analysis degrades gracefully from exact to bounded.

   One four-stage shop (Figure 2 shape), one fixed random job set, analyzed
   under: all-SPP (exact), all-SPNP, all-FCFS, and a mixed configuration
   (SPP front stages, FCFS back stages).  For each we print the per-job
   end-to-end bound next to the simulated worst case.

   Run with: dune exec examples/heterogeneous_shop.exe *)

open Rta_model
module Jobshop = Rta_workload.Jobshop

let base_system sched_array =
  (* Generate once (fixed seed) under SPP, then transplant the schedulers
     so every configuration sees identical jobs. *)
  let config =
    Jobshop.default ~stages:4 ~jobs:5 ~utilization:0.45
      ~arrival:Jobshop.Periodic_eq25
      ~deadline:(Jobshop.Multiple_of_period 3.0) ~sched:Sched.Spp
  in
  let system = Jobshop.generate config ~rng:(Rta_workload.Rng.make 99) in
  let jobs = Array.init (System.job_count system) (System.job system) in
  System.make_exn ~schedulers:sched_array ~jobs

let show name sched_array =
  let system = base_system sched_array in
  let release_horizon, horizon = System.suggested_horizons system in
  let report = Rta_core.Analysis.run ~config:(Rta_core.Analysis.config ~release_horizon ~horizon ()) system in
  let sim = Rta_sim.Sim.run ~release_horizon system ~horizon in
  Format.printf "@.%s (method: %s)@." name
    (match report.Rta_core.Analysis.method_used with
    | `Exact -> "exact"
    | `Approximate -> "approximate"
    | `Fixpoint -> "fixpoint");
  Array.iteri
    (fun j verdict ->
      let job = System.job system j in
      let sim_worst =
        match Rta_sim.Sim.worst_response sim j with
        | Some w -> Format.asprintf "%a" Time.pp w
        | None -> "-"
      in
      match verdict with
      | Rta_core.Analysis.Bounded b ->
          Format.printf "  %-4s bound %a  sim %8s  deadline %a@."
            job.System.name Time.pp b sim_worst Time.pp job.System.deadline
      | Rta_core.Analysis.Unbounded ->
          Format.printf "  %-4s bound unbounded  sim %8s@." job.System.name
            sim_worst)
    report.Rta_core.Analysis.per_job

let () =
  Format.printf
    "One job set, four scheduler configurations (4-stage shop, U=0.45).@.";
  show "all SPP (preemptive priority)" (Array.make 8 Sched.Spp);
  show "all SPNP (non-preemptive priority)" (Array.make 8 Sched.Spnp);
  show "all FCFS" (Array.make 8 Sched.Fcfs);
  show "mixed: SPP stages 1-2, FCFS stages 3-4"
    [| Sched.Spp; Sched.Spp; Sched.Spp; Sched.Spp;
       Sched.Fcfs; Sched.Fcfs; Sched.Fcfs; Sched.Fcfs |]
