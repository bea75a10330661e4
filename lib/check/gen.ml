open Rta_model
module Rng = Rta_workload.Rng

type case = {
  system : System.t;
  release_horizon : int;
  horizon : int;
}

(* --- the micro family: small explicit systems over short horizons --- *)

let micro_release_horizon = 100
let micro_horizon = 200

let micro_arrival rng =
  match Rng.int_range rng 0 4 with
  | 0 ->
      Arrival.Periodic
        { period = Rng.int_range rng 5 40; offset = Rng.int_range rng 0 10 }
  | 1 -> Arrival.Bursty { period = Rng.int_range rng 5 40 }
  | 2 ->
      Arrival.Burst_periodic
        {
          burst = Rng.int_range rng 2 4;
          period = Rng.int_range rng 8 40;
          offset = Rng.int_range rng 0 10;
        }
  | 3 ->
      Arrival.Sporadic_worst
        { min_gap = Rng.int_range rng 5 30; count = Rng.int_range rng 1 5 }
  | _ ->
      (* Explicit trace; sorting keeps duplicates, which are exactly the
         release ties that break FCFS exactness. *)
      let n = Rng.int_range rng 1 6 in
      let ts =
        Array.init n (fun _ -> Rng.int_range rng 0 (micro_release_horizon / 2))
      in
      Array.sort compare ts;
      Arrival.Trace ts

let micro rng =
  let stages = Rng.int_range rng 1 3 in
  let procs_per_stage = Rng.int_range rng 1 2 in
  let n_procs = stages * procs_per_stage in
  let schedulers =
    Array.init n_procs (fun _ ->
        match Rng.int_range rng 0 2 with
        | 0 -> Sched.Spp
        | 1 -> Sched.Spnp
        | _ -> Sched.Fcfs)
  in
  let n_jobs = Rng.int_range rng 1 4 in
  let jobs =
    Array.init n_jobs (fun j ->
        let arrival = micro_arrival rng in
        let n_steps = Rng.int_range rng 1 stages in
        let steps =
          Array.init n_steps (fun s ->
              (* Mostly stage-ordered (stage s draws from its own processor
                 pool); one step in ten lands anywhere, producing shared
                 processors across stages and, sometimes, dependency
                 cycles, whose loops the engine iterates. *)
              let proc =
                if Rng.int_range rng 0 9 = 0 then
                  Rng.int_range rng 0 (n_procs - 1)
                else
                  (s * procs_per_stage) + Rng.int_range rng 0 (procs_per_stage - 1)
              in
              { System.proc; exec = Rng.int_range rng 1 4; prio = 1 })
        in
        {
          System.name = Printf.sprintf "J%d" (j + 1);
          arrival;
          deadline = Rng.int_range rng 10 300;
          steps;
        })
  in
  let jobs = Priority.deadline_monotonic jobs in
  {
    system = System.make_exn ~schedulers ~jobs;
    release_horizon = micro_release_horizon;
    horizon = micro_horizon;
  }

(* --- the shop family: the paper's own generator --- *)

let shop rng =
  let stages = Rng.int_range rng 1 3 in
  let jobs = Rng.int_range rng 2 5 in
  let utilization = Rng.uniform rng 0.3 0.9 in
  let arrival =
    if Rng.int_range rng 0 1 = 0 then Rta_workload.Jobshop.Periodic_eq25
    else Rta_workload.Jobshop.Bursty_eq27
  in
  let deadline =
    Rta_workload.Jobshop.Multiple_of_period (Rng.uniform rng 1.0 4.0)
  in
  let sched =
    match Rng.int_range rng 0 2 with
    | 0 -> Sched.Spp
    | 1 -> Sched.Spnp
    | _ -> Sched.Fcfs
  in
  let config =
    Rta_workload.Jobshop.default ~stages ~jobs ~utilization ~arrival ~deadline
      ~sched
  in
  let system = Rta_workload.Jobshop.generate config ~rng in
  let release_horizon, horizon = System.suggested_horizons system in
  { system; release_horizon; horizon }

let generate rng = if Rng.int_range rng 0 9 < 7 then micro rng else shop rng
