(* Online admission control — the run-time use-case from the paper's
   introduction: jobs request admission one at a time and the analysis is
   the admission test.

   A stream of randomly generated jobs (mixed periodic and bursty) asks to
   join a two-stage shop.  Each candidate is admitted iff the whole system
   including it remains provably schedulable.  The example prints the
   decision sequence and the utilization the shop reaches.

   Run with: dune exec examples/admission_control.exe *)

open Rta_model
module Rng = Rta_workload.Rng

let make_candidate rng i =
  let periodic = Rng.float_unit rng < 0.5 in
  let period = Time.of_units (Rng.uniform rng 2.0 8.0) in
  let arrival =
    if periodic then Arrival.Periodic { period; offset = 0 }
    else Arrival.Bursty { period }
  in
  let exec1 = Time.of_units (Rng.uniform rng 0.2 0.9) in
  let exec2 = Time.of_units (Rng.uniform rng 0.2 0.9) in
  {
    System.name = Printf.sprintf "job%02d" i;
    arrival;
    deadline = Time.of_units (Rng.uniform rng 6.0 16.0);
    steps =
      [|
        { System.proc = Rng.int_range rng 0 1; exec = exec1; prio = 0 };
        { System.proc = 2 + Rng.int_range rng 0 1; exec = exec2; prio = 0 };
      |];
  }

let schedulers = [| Sched.Spp; Sched.Spp; Sched.Spp; Sched.Spp |]

let () =
  let rng = Rng.make 2024 in
  let admitted = ref [] in
  let accepted = ref 0 and rejected = ref 0 in
  for i = 1 to 20 do
    let candidate = make_candidate rng i in
    let jobs =
      Priority.deadline_monotonic (Array.of_list (!admitted @ [ candidate ]))
    in
    let system = System.make_exn ~schedulers ~jobs in
    let release_horizon, horizon = System.suggested_horizons system in
    let report = Rta_core.Analysis.run ~config:(Rta_core.Analysis.config ~release_horizon ~horizon ()) system in
    if report.Rta_core.Analysis.schedulable then begin
      admitted := !admitted @ [ candidate ];
      incr accepted;
      Format.printf "%-8s ADMIT  (%d jobs in system)@." candidate.System.name
        (List.length !admitted)
    end
    else begin
      incr rejected;
      Format.printf "%-8s reject@." candidate.System.name
    end
  done;
  let final =
    System.make_exn ~schedulers
      ~jobs:(Priority.deadline_monotonic (Array.of_list !admitted))
  in
  Format.printf "@.accepted %d, rejected %d@." !accepted !rejected;
  for p = 0 to System.processor_count final - 1 do
    match System.utilization final ~proc:p with
    | Some u -> Format.printf "  P%d utilization %.2f@." p u
    | None -> Format.printf "  P%d utilization n/a (trace jobs)@." p
  done
