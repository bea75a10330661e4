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
