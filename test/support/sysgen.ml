(* Random small systems for cross-validating the analysis against the
   simulator.  Systems are stage-structured (every chain walks stage 0, 1,
   ... in order), which guarantees an acyclic dependency graph — the regime
   the paper's evaluation uses (Figure 2). *)

open QCheck2
open Rta_model

type config = {
  stages : int;
  procs_per_stage : int;
  jobs : int;
  sched : Sched.t array;  (* one per processor *)
}

let arrival_gen ~release_horizon : Arrival.pattern Gen.t =
  let open Gen in
  let periodic =
    let* period = int_range 5 25 in
    let* offset = int_range 0 10 in
    return (Arrival.Periodic { period; offset })
  in
  let bursty =
    let* period = int_range 5 25 in
    return (Arrival.Bursty { period })
  in
  let burst_periodic =
    let* burst = int_range 2 4 in
    let* period = int_range 8 25 in
    let* offset = int_range 0 6 in
    return (Arrival.Burst_periodic { burst; period; offset })
  in
  let trace =
    let* n = int_range 0 6 in
    let* times = list_repeat n (int_range 0 release_horizon) in
    return (Arrival.Trace (Array.of_list (List.sort compare times)))
  in
  oneof [ periodic; bursty; burst_periodic; trace ]

let system_gen ?(sched_gen = Gen.oneofl Sched.all) ~release_horizon () :
    System.t Gen.t =
  let open Gen in
  let* stages = int_range 1 3 in
  let* procs_per_stage = int_range 1 2 in
  let* jobs = int_range 1 4 in
  let n_procs = stages * procs_per_stage in
  let* schedulers = array_repeat n_procs sched_gen in
  let* job_list =
    list_repeat jobs
      (let* arrival = arrival_gen ~release_horizon in
       let* deadline = int_range 10 200 in
       let* procs_in_stage = list_repeat stages (int_range 0 (procs_per_stage - 1)) in
       let* execs = list_repeat stages (int_range 1 4) in
       return (arrival, deadline, procs_in_stage, execs))
  in
  let jobs_arr =
    List.mapi
      (fun ji (arrival, deadline, procs_in_stage, execs) ->
        let steps =
          List.map2
            (fun stage (p, exec) ->
              { System.proc = (stage * procs_per_stage) + p; exec; prio = 0 })
            (List.init stages Fun.id)
            (List.combine procs_in_stage execs)
        in
        {
          System.name = Printf.sprintf "T%d" (ji + 1);
          arrival;
          deadline;
          steps = Array.of_list steps;
        })
      job_list
    |> Array.of_list
  in
  let jobs_arr = Priority.deadline_monotonic jobs_arr in
  return (System.make_exn ~schedulers ~jobs:jobs_arr)

let print_system s = Format.asprintf "%a" System.pp s

(* Tick values of every magnitude the textual format must carry exactly:
   below 1,000 units, at least 1,000 units with three decimals, at least
   10^6 units with three decimals, fractional times past 4.5 x 10^9 ticks
   (where the float path's ceiling snap would add a tick) up to 10^15
   ticks, and whole units up to 10^12. *)
let ticks_gen : int Gen.t =
  let open Gen in
  oneof
    [
      int_range 0 999_999;
      int_range 1_000_000 99_999_999;
      int_range 1_000_000_000 4_500_000_000;
      int_range 4_500_000_000 1_000_000_000_000_000;
      map (fun u -> u * 1000) (int_range 0 1_000_000_000_000);
    ]

(* A system whose every tick field is drawn from [ticks_gen], over every
   arrival kind and scheduler, empty traces included.  Priorities are
   distinct across the whole system, so any scheduler assignment is
   valid. *)
let tick_system_gen : System.t Gen.t =
  let open Gen in
  let pos = map (max 1) ticks_gen in
  let arrival =
    oneof
      [
        map2 (fun period offset -> Arrival.Periodic { period; offset }) pos ticks_gen;
        map (fun period -> Arrival.Bursty { period }) pos;
        (let* burst = int_range 1 5 in
         map2
           (fun period offset -> Arrival.Burst_periodic { burst; period; offset })
           pos ticks_gen);
        map2
          (fun min_gap count -> Arrival.Sporadic_worst { min_gap; count })
          pos (int_range 0 9);
        map
          (fun ts -> Arrival.Trace (Array.of_list (List.sort compare ts)))
          (list_size (int_range 0 4) ticks_gen);
      ]
  in
  let* n_procs = int_range 1 3 in
  let* schedulers = array_repeat n_procs (oneofl Sched.all) in
  let* n_jobs = int_range 1 3 in
  let* jobs =
    list_repeat n_jobs
      (let* arrival = arrival in
       let* deadline = pos in
       let* steps =
         list_size (int_range 1 3)
           (map2 (fun proc exec -> (proc, exec)) (int_range 0 (n_procs - 1)) pos)
       in
       return (arrival, deadline, steps))
  in
  let prio = ref 0 in
  let jobs =
    List.mapi
      (fun ji (arrival, deadline, steps) ->
        let steps =
          List.map
            (fun (proc, exec) ->
              incr prio;
              { System.proc; exec; prio = !prio })
            steps
        in
        {
          System.name = Printf.sprintf "T%d" (ji + 1);
          arrival;
          deadline;
          steps = Array.of_list steps;
        })
      jobs
  in
  return (System.make_exn ~schedulers ~jobs:(Array.of_list jobs))
