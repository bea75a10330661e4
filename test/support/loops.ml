(* Hand-built cyclic shops shared by the loop tests. *)

open Rta_model

let job name arrival deadline steps =
  { System.name; arrival; deadline; steps = Array.of_list steps }

let step proc exec prio = { System.proc; exec; prio }

(* The FCFS loop of the golden batch corpus: L1 revisits the FCFS
   processor P0, so {L1.1, L1.2, L2.1} is a loop (L2.1 ranks below L1.2
   on the SPP P1) and L1.3 and L2.2 come after it. *)
let fcfs_loop () =
  System.make_exn
    ~schedulers:[| Sched.Fcfs; Sched.Spp |]
    ~jobs:
      [|
        job "L1"
          (Arrival.Periodic { period = 40; offset = 0 })
          120
          [ step 0 3 0; step 1 4 1; step 0 2 0 ];
        job "L2"
          (Arrival.Periodic { period = 50; offset = 5 })
          150
          [ step 1 2 2; step 0 3 0 ];
      |]

(* The east/west shop of examples/cyclic_loop.ml: two jobs crossing two
   SPP processors in opposite orders, each outranked by the other's second
   stage; [load] scales the execution times. *)
let east_west ~load =
  let e u = max 1 (Time.of_units (u *. load)) in
  System.make_exn
    ~schedulers:[| Sched.Spp; Sched.Spp |]
    ~jobs:
      [|
        job "east"
          (Arrival.Periodic { period = Time.of_units 20.0; offset = 0 })
          (Time.of_units 30.0)
          [ step 0 (e 1.0) 2; step 1 (e 1.5) 1 ];
        job "west"
          (Arrival.Periodic
             { period = Time.of_units 25.0; offset = Time.of_units 3.0 })
          (Time.of_units 30.0)
          [ step 1 (e 1.0) 2; step 0 (e 1.5) 1 ];
      |]

(* A chain-swapped shop: the shop that [rta generate --stages S --sched
   SCHED --seed SEED --jobs N] prints (two stages and seed 3 by default),
   with the processors of every second job (T2, T4, ...) visited in
   reverse stage order, so chains run both ways through the stages, and
   each priority [prio] of job index [i] (from 0) made [prio * 10000 + i],
   unique per processor. *)
let chain_swapped ?(stages = 2) ?(seed = 3) sched ~jobs =
  let config =
    Rta_workload.Jobshop.default ~stages ~jobs ~utilization:0.5
      ~arrival:Rta_workload.Jobshop.Periodic_eq25
      ~deadline:(Rta_workload.Jobshop.Multiple_of_period 2.0) ~sched
  in
  let shop = Rta_workload.Jobshop.generate config ~rng:(Rta_workload.Rng.make seed) in
  System.make_exn
    ~schedulers:(Array.init (System.processor_count shop) (System.scheduler_of shop))
    ~jobs:
      (Array.init (System.job_count shop) (fun i ->
           let j = System.job shop i in
           let steps = j.System.steps in
           let n = Array.length steps in
           {
             j with
             System.steps =
               Array.mapi
                 (fun st (s : System.step) ->
                   {
                     s with
                     System.proc =
                       (if i mod 2 = 1 then steps.(n - 1 - st).System.proc else s.System.proc);
                     prio = (s.System.prio * 10000) + i;
                   })
                 steps;
           }))
